//! Fault prediction against the full run.
//!
//! A hook with `ExecHook::PREDICT_HANGS` lets the spin detector end a loop
//! early once a one-iteration certificate proves how it ends: budget
//! exhaustion, or the first out-of-bounds access of a pointer it walks.
//! A hook without it runs every loop out. The prediction is only allowed
//! where it is exact, so both must return the same `Result` to the bit.
//! That includes the live-sibling rule: a flipped thread's hang certified
//! across barriers its CTA siblings still take part in.

use std::ops::Range;

use fsp_isa::{assemble, KernelProgram, MemSpace, Register, PARAM_BASE};
use fsp_sim::{
    ExecHook, Launch, MemBlock, ResumeScratch, RetireEvent, SimFault, Simulator, Writeback,
    LOCAL_WORDS,
};
use proptest::prelude::*;

/// Runs every loop out: the oracle.
struct Full;

impl ExecHook for Full {}

/// Lets the detector cut a run short and records what it predicted.
#[derive(Default)]
struct Predicting {
    predicted: Option<SimFault>,
}

impl ExecHook for Predicting {
    const PREDICT_HANGS: bool = true;

    fn on_fault_predicted(&mut self, fault: SimFault, live: bool) {
        assert!(!live, "no thread carries a flip");
        self.predicted = Some(fault);
    }
}

/// The full run's result and the instructions it retired, faulted or not.
fn full_run(launch: &Launch, global: &MemBlock) -> (Result<u64, SimFault>, u64) {
    let mut memory = global.clone();
    let mut scratch = ResumeScratch::default();
    let run = Simulator::new().run_with(launch, &mut memory, &mut Full, &mut scratch);
    (run.map(|s| s.instructions), scratch.retired())
}

/// The predicting run's result, what it predicted and what it retired.
fn predicted_run(
    launch: &Launch,
    global: &MemBlock,
) -> (Result<u64, SimFault>, Option<SimFault>, u64) {
    let mut memory = global.clone();
    let mut scratch = ResumeScratch::default();
    let mut hook = Predicting::default();
    let run = Simulator::new().run_with(launch, &mut memory, &mut hook, &mut scratch);
    (
        run.map(|s| s.instructions),
        hook.predicted,
        scratch.retired(),
    )
}

/// The assembler's bracket prefix of a memory space.
fn prefix(space: MemSpace) -> &'static str {
    match space {
        MemSpace::Global => "g",
        MemSpace::Shared => "s",
        MemSpace::Local => "l",
    }
}

/// A one-thread pointer walk, shaped like lud's load/store loops: load a
/// word through `$r2`, fold it into `$r6`, optionally store `$r6` through
/// `$r3`, step both pointers and the counter `$r4`, and loop while `$r4`
/// has not reached `exit`.
#[derive(Debug, Clone, Copy)]
struct Walk {
    load_space: MemSpace,
    load_base: u32,
    load_stride: u32,
    /// Where the walk stores, if it does.
    store: Option<(MemSpace, u32, u32)>,
    count: u32,
    count_step: u32,
    exit: u32,
    global_words: usize,
    shared_bytes: u32,
}

impl Walk {
    /// Retired instructions per iteration.
    fn per_iteration(&self) -> u32 {
        if self.store.is_some() {
            8
        } else {
            7
        }
    }

    fn launch(&self, budget: u64) -> Launch {
        let store = match self.store {
            Some((space, _, _)) => format!("mov.u32 {}[$r3], $r6", prefix(space)),
            None => String::new(),
        };
        let (store_base, store_stride) = self.store.map_or((0, 0), |(_, b, s)| (b, s));
        let program = assemble(
            "walk",
            &format!(
                r#"
                mov.u32 $r2, {load_base:#x}
                mov.u32 $r3, {store_base:#x}
                mov.u32 $r4, {count:#x}
                walk:
                mov.u32 $r5, {space}[$r2]
                add.u32 $r6, $r6, $r5
                {store}
                add.u32 $r2, $r2, {load_stride:#x}
                add.u32 $r3, $r3, {store_stride:#x}
                add.u32 $r4, $r4, {count_step:#x}
                set.ne.u32.u32 $p0/$o127, $r4, {exit:#x}
                @$p0.ne bra walk
                exit
                "#,
                load_base = self.load_base,
                count = self.count,
                space = prefix(self.load_space),
                load_stride = self.load_stride,
                count_step = self.count_step,
                exit = self.exit,
            ),
        )
        .expect("the walk assembles");
        Launch::new(program)
            .shared_bytes(self.shared_bytes)
            .instr_budget(budget)
    }

    fn memory(&self) -> MemBlock {
        let mut global = MemBlock::with_words(self.global_words);
        for i in 0..self.global_words.min(64) {
            global
                .store(4 * i as u32, (i as u32).wrapping_mul(0x9E37_79B9))
                .expect("in bounds");
        }
        global
    }

    fn bytes(&self, space: MemSpace) -> u32 {
        match space {
            MemSpace::Global => self.global_words as u32 * 4,
            MemSpace::Shared => self.shared_bytes,
            MemSpace::Local => LOCAL_WORDS as u32 * 4,
        }
    }
}

/// Iterations before the detector's first certificate: it arms after 1024
/// steps and certifies at the first revisit of its snapshot.
fn certified_at(per_iteration: u32) -> i64 {
    i64::from(1024u32.div_ceil(per_iteration))
}

/// A pointer base in a space of `bytes` bytes that leaves it, walking by
/// `stride`, about `iterations` iterations in: near the end the walk
/// heads for, and always word-aligned and in bounds.
fn base_near_end(bytes: u32, stride: u32, iterations: i64) -> u32 {
    let stride = i64::from(stride as i32);
    let bytes = i64::from(bytes);
    let start = if stride > 0 { bytes } else { 0 } - iterations * stride;
    (start.clamp(0, bytes - 4) as u32) & !3
}

const SPACES: [MemSpace; 3] = [MemSpace::Global, MemSpace::Shared, MemSpace::Local];

/// Word strides from ±4 to ±4096 bytes, negative ones wrapping below 0.
fn stride(magnitude_log2: u32, negative: bool) -> u32 {
    let m = 4u32 << magnitude_log2;
    if negative {
        m.wrapping_neg()
    } else {
        m
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random walks with bases near a segment end, counters near their
    /// exit and budgets around the faulting step: the predicted result is
    /// the full run's, exactly.
    #[test]
    fn predicted_walks_end_as_the_full_run_does(
        (load_space, store_space, stores) in (0usize..3, 0usize..3, 0u32..3),
        (load_log, load_neg, store_log, store_neg) in (0u32..11, any::<bool>(), 0u32..11, any::<bool>()),
        (load_at, store_at, count_at) in (-4i64..60, -4i64..60, -4i64..60),
        (count_up, count_never) in (any::<bool>(), 0u32..4),
        (global_log, shared_log) in (10u32..21, 8u32..17),
        (budget_pick, budget_jitter) in (0u32..4, 0u64..4096),
    ) {
        let mut walk = Walk {
            load_space: SPACES[load_space],
            load_base: 0,
            load_stride: stride(load_log, load_neg),
            store: None,
            count: 0,
            count_step: if count_up { 1 } else { u32::MAX },
            exit: 0,
            global_words: 1 << global_log,
            shared_bytes: 1 << shared_log,
        };
        if stores > 0 {
            walk.store = Some((SPACES[store_space], 0, stride(store_log, store_neg)));
        }
        let at = certified_at(walk.per_iteration());
        // Mostly spaces the walks need past the first certificate to leave
        // (local memory is fixed, so long strides leave it early there).
        let longest = (4u32 << load_log.max(store_log)) * (at as u32 + 64);
        if global_log % 4 != 0 {
            walk.global_words = walk.global_words.max(longest as usize / 4);
            walk.shared_bytes = walk.shared_bytes.max(longest);
        }
        walk.load_base = base_near_end(
            walk.bytes(walk.load_space),
            walk.load_stride,
            at + load_at,
        );
        if let Some((space, _, step)) = walk.store {
            let base = base_near_end(walk.bytes(space), step, at + store_at);
            walk.store = Some((space, base, step));
        }
        // The counter reaches its exit `at + count_at` iterations in, or
        // (one case in four) steps by 2 past an odd exit and never does.
        let trips = (at + count_at).max(1) as u32;
        walk.exit = 0x40;
        walk.count = walk.exit.wrapping_sub(walk.count_step.wrapping_mul(trips));
        if count_never == 0 {
            walk.count_step = walk.count_step.wrapping_mul(2);
            walk.count &= !1;
            walk.exit |= 1;
        }
        let memory = walk.memory();
        let (reference, retired) = full_run(&walk.launch(1 << 20), &memory);
        let budget = match (reference, budget_pick) {
            (Err(SimFault::InvalidAccess { .. }), 0) => retired - 1,
            (Err(SimFault::InvalidAccess { .. }), 1) => retired,
            (Err(SimFault::InvalidAccess { .. }), 2) => retired + 1,
            _ => (retired / 2).max(1) + budget_jitter * u64::from(walk.per_iteration()),
        };
        let launch = walk.launch(budget);
        let (full, _) = full_run(&launch, &memory);
        let (predicted, prediction, _) = predicted_run(&launch, &memory);
        prop_assert_eq!(predicted, full, "{:?} at budget {}", walk, budget);
        if let Some(fault) = prediction {
            prop_assert_eq!(Err(fault), full, "{:?}: wrong prediction", walk);
        }
    }
}

/// The property above must exercise the certificate: in each space a walk
/// off either end is predicted as its crash, a budget one short of the
/// crash as a hang, and a walk whose counter misses its exit and whose
/// pointer stays in bounds as a hang — all well before they get there.
#[test]
fn predictions_fire_in_every_space() {
    for space in SPACES {
        for negative in [false, true] {
            let stride = stride(0, negative);
            let mut walk = Walk {
                load_space: space,
                load_base: 0,
                load_stride: stride,
                store: Some((MemSpace::Shared, 0x1000, 4)),
                count: 0,
                count_step: 2,
                exit: 1,
                global_words: 1 << 14,
                shared_bytes: 1 << 14,
            };
            walk.load_base = base_near_end(walk.bytes(space), stride, 400);
            let memory = walk.memory();
            let (reference, retired) = full_run(&walk.launch(1 << 20), &memory);
            assert!(
                matches!(reference, Err(SimFault::InvalidAccess { space: s, .. }) if s == space),
                "{walk:?}: {reference:?}"
            );
            for (budget, expected) in [
                (retired, reference),
                (retired - 1, Err(SimFault::BudgetExceeded)),
            ] {
                let (run, prediction, cut_at) = predicted_run(&walk.launch(budget), &memory);
                assert_eq!(run, expected, "{walk:?} at budget {budget}");
                assert_eq!(prediction.map(Err), Some(expected), "{walk:?}");
                assert!(
                    cut_at < retired / 2,
                    "{walk:?}: retired {cut_at} of {retired}"
                );
            }
        }
    }
    // A zero-stride store and a load walk that stays in bounds: the
    // counter never reaches its exit, so the run is a certified hang.
    let walk = Walk {
        load_space: MemSpace::Global,
        load_base: 0,
        load_stride: 4,
        store: Some((MemSpace::Local, 0x40, 0)),
        count: 0,
        count_step: 2,
        exit: 1,
        global_words: 1 << 20,
        shared_bytes: 1 << 10,
    };
    let launch = walk.launch(200_000);
    let (run, prediction, cut_at) = predicted_run(&launch, &walk.memory());
    assert_eq!(run, Err(SimFault::BudgetExceeded));
    assert_eq!(prediction, Some(SimFault::BudgetExceeded));
    assert!(cut_at < 4096, "retired {cut_at}");
    assert_eq!(full_run(&launch, &walk.memory()).0, run);
}

/// Runs `body` as a one-thread kernel over 1024 global words holding
/// their own index, except word 700, which holds 7, both with and
/// without prediction: the results must agree and nothing may be
/// predicted.
fn refused(body: &str) -> Result<u64, SimFault> {
    let program = assemble("refused", body).expect("assembles");
    let launch = Launch::new(program).instr_budget(1 << 20);
    let mut memory = MemBlock::with_words(1024);
    for i in 0..1024u32 {
        memory
            .store(4 * i, if i == 700 { 7 } else { 4 * i })
            .expect("in bounds");
    }
    let (full, _) = full_run(&launch, &memory);
    let (predicted, prediction, _) = predicted_run(&launch, &memory);
    assert_eq!(predicted, full);
    assert_eq!(prediction, None, "the certificate must refuse");
    full
}

#[test]
fn loaded_value_steering_a_branch_is_refused() {
    // The walk stops at the first word equal to 7: the loaded value
    // decides the branch, so the path need not repeat.
    let run = refused(
        r#"
        mov.u32 $r2, $r124
        walk:
        mov.u32 $r5, g[$r2]
        add.u32 $r2, $r2, 0x4
        set.eq.u32.u32 $p0/$o127, $r5, 0x7
        @$p0.ne bra out
        bra walk
        out:
        exit
        "#,
    );
    assert!(run.is_ok(), "{run:?}");
}

#[test]
fn loaded_value_feeding_an_address_is_refused() {
    // Each loaded word is dereferenced: word 700 sends the second load to
    // a misaligned address.
    let run = refused(
        r#"
        mov.u32 $r2, $r124
        walk:
        mov.u32 $r5, g[$r2]
        mov.u32 $r6, g[$r5]
        add.u32 $r2, $r2, 0x4
        bra walk
        "#,
    );
    assert_eq!(
        run,
        Err(SimFault::Unaligned {
            space: MemSpace::Global,
            addr: 7
        })
    );
}

#[test]
fn loaded_value_feeding_a_counter_is_refused() {
    // The loop counter accumulates loaded words and exits once it passes
    // 0x100000, long before the walk leaves memory.
    let run = refused(
        r#"
        mov.u32 $r2, $r124
        mov.u32 $r4, $r124
        walk:
        mov.u32 $r5, g[$r2]
        add.u32 $r4, $r4, $r5
        add.u32 $r2, $r2, 0x4
        set.lt.u32.u32 $p0/$o127, $r4, 0x100000
        @$p0.ne bra walk
        exit
        "#,
    );
    assert!(run.is_ok(), "{run:?}");
}

/// How the CTA siblings of a barrier loop depend on its faulty thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Siblings {
    /// Guards and addresses read thread coordinates, immediates and
    /// parameters only: a data-oblivious kernel.
    Oblivious,
    /// After each barrier a thread branches on the counter its neighbour
    /// stored, and stores out of bounds past a limit.
    Branch,
    /// After each barrier a thread loads through the counter its neighbour
    /// stored.
    Address,
    /// Oblivious, but a thread whose counter meets a trigger no golden
    /// counter reaches stores it into the parameter block, whose second
    /// word every thread adds to its output address on exit.
    Param,
}

const SIBLINGS: [Siblings; 4] = [
    Siblings::Oblivious,
    Siblings::Branch,
    Siblings::Address,
    Siblings::Param,
];

/// The two launch parameters: the data base (0) and the output base.
const OUT: u32 = 0x200;

/// The parameter block of a two-parameter launch.
const PARAMS: Range<u32> = PARAM_BASE..PARAM_BASE + 8;

/// A one-CTA barrier loop of `threads` threads: each counts `$r2` up from
/// 0 to `trips`, loading and storing its own global word (the counter) and
/// passing two barriers per iteration, then stores its sum to the output.
fn barrier_loop(
    threads: u32,
    trips: u32,
    siblings: Siblings,
    shared: bool,
    trigger: u32,
) -> Launch {
    let shared = if shared {
        "mov.u32 s[$r3+0x40], $r6"
    } else {
        ""
    };
    let (param, after) = match siblings {
        Siblings::Oblivious => ("", ""),
        Siblings::Branch => (
            "",
            "ld.global.u32 $r8, [$r7]
            set.gt.u32.u32 $p3/$o127, $r8, 0x20
            @$p3.ne st.global.u32 [$r11], $r6",
        ),
        Siblings::Address => (
            "",
            "ld.global.u32 $r8, [$r7]
            shl.u32 $r8, $r8, 0x2
            ld.global.u32 $r9, [$r8]
            add.u32 $r6, $r6, $r9",
        ),
        Siblings::Param => (
            "set.eq.u32.u32 $p1/$o127, $r2, $r12
            @$p1.ne mov.u32 s[0x0014], $r2",
            "",
        ),
    };
    let program = assemble(
        "barrier_loop",
        &format!(
            r#"
            cvt.u32.u16 $r1, %tid.x
            shl.u32 $r3, $r1, 0x2
            add.u32 $r4, $r3, s[0x0010]
            add.u32 $r7, $r1, 0x1
            set.eq.u32.u32 $p2/$o127, $r7, {threads:#x}
            @$p2.ne mov.u32 $r7, $r124
            shl.u32 $r7, $r7, 0x2
            add.u32 $r7, $r7, s[0x0010]
            mov.u32 $r11, 0xfffffff0
            mov.u32 $r12, {trigger:#x}
            mov.u32 $r2, $r124
            mov.u32 $r6, $r124
            loop:
            ld.global.u32 $r5, [$r4]
            add.u32 $r6, $r6, $r5
            st.global.u32 [$r4], $r2
            {shared}
            {param}
            bar.sync 0x0
            {after}
            bar.sync 0x0
            add.u32 $r2, $r2, 0x1
            set.ne.u32.u32 $p0/$o127, $r2, {trips:#x}
            @$p0.ne bra loop
            add.u32 $r10, $r3, s[0x0014]
            st.global.u32 [$r10], $r6
            exit
            "#
        ),
    )
    .expect("the barrier loop assembles");
    Launch::new(program).block(threads, 1, 1).params([0, OUT])
}

/// Flips bit `bit` of thread `tid`'s write at retirement `dyn_idx`, answers
/// [`ExecHook::siblings_follow_golden`] as the injection engine does — the
/// kernel is data-oblivious, and neither the golden run nor the faulty
/// thread has stored into the parameter block — and records what was
/// predicted. Predicts only when `P`.
struct BarrierFlip<const P: bool> {
    tid: u32,
    dyn_idx: u32,
    bit: u32,
    follow: bool,
    predicted: Option<(SimFault, bool)>,
}

impl<const P: bool> BarrierFlip<P> {
    fn new(tid: u32, dyn_idx: u32, bit: u32, follow: bool) -> Self {
        BarrierFlip {
            tid,
            dyn_idx,
            bit,
            follow,
            predicted: None,
        }
    }
}

/// Whether the retirement `ev` stored into the parameter block.
fn stores_params(ev: &RetireEvent<'_>) -> bool {
    ev.accesses
        .iter()
        .any(|a| a.is_store && a.space == MemSpace::Shared && PARAMS.contains(&a.addr))
}

impl<const P: bool> ExecHook for BarrierFlip<P> {
    const PREDICT_HANGS: bool = P;

    fn writeback(&mut self, wb: &Writeback) -> Option<u32> {
        (wb.tid == self.tid && wb.dyn_idx == self.dyn_idx).then_some(wb.value ^ 1 << self.bit)
    }

    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        if ev.tid == self.tid && stores_params(&ev) {
            self.follow = false;
        }
    }

    fn flip_at(&self, tid: u32) -> Option<u32> {
        (tid == self.tid).then_some(self.dyn_idx)
    }

    fn siblings_follow_golden(&self) -> bool {
        self.follow
    }

    fn on_fault_predicted(&mut self, fault: SimFault, live: bool) {
        self.predicted = Some((fault, live));
    }
}

/// What a fault-free run tells the flip: thread `tid`'s retirement
/// ordinals that write `$r2`, whether anything stored into the parameter
/// block, and the instructions retired.
#[derive(Default)]
struct Golden {
    tid: u32,
    counter_writes: Vec<u32>,
    param_stored: bool,
}

impl ExecHook for Golden {
    fn writeback(&mut self, wb: &Writeback) -> Option<u32> {
        if wb.tid == self.tid && wb.reg == Register::Gpr(2) {
            self.counter_writes.push(wb.dyn_idx);
        }
        None
    }

    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        self.param_stored |= stores_params(&ev);
    }
}

impl Golden {
    /// Runs `launch` fault-free, watching thread `tid`.
    fn run(launch: &Launch, tid: u32) -> (Self, u64) {
        let mut golden = Golden {
            tid,
            ..Golden::default()
        };
        let stats = Simulator::new()
            .run(launch, &mut barrier_memory(), &mut golden)
            .expect("the fault-free run ends");
        (golden, stats.instructions)
    }

    /// The retirement ordinal of the watched thread's counter add in
    /// iteration `i` (its first write of `$r2` is the initial `mov`).
    fn add(&self, i: u32) -> u32 {
        self.counter_writes[i as usize + 1]
    }
}

fn barrier_memory() -> MemBlock {
    let mut global = MemBlock::with_words(256);
    for i in 0..8 {
        global.store(4 * i, 3 * i + 1).expect("in bounds");
    }
    global
}

/// The full run's result and the predicting run's, with what it predicted.
type Compared = (
    Result<u64, SimFault>,
    Result<u64, SimFault>,
    Option<(SimFault, bool)>,
);

fn run_both(launch: &Launch, flip: (u32, u32, u32), follow: bool) -> Compared {
    let (tid, dyn_idx, bit) = flip;
    let mut memory = barrier_memory();
    let mut full = BarrierFlip::<false>::new(tid, dyn_idx, bit, follow);
    let reference = Simulator::new()
        .run(launch, &mut memory, &mut full)
        .map(|s| s.instructions);
    let mut memory = barrier_memory();
    let mut hook = BarrierFlip::<true>::new(tid, dyn_idx, bit, follow);
    let predicted = Simulator::new()
        .run(launch, &mut memory, &mut hook)
        .map(|s| s.instructions);
    (reference, predicted, hook.predicted)
}

/// Whether the injection engine would let the siblings of `program`'s
/// faulty thread be trusted to follow their golden paths.
fn oblivious(program: &KernelProgram) -> bool {
    fsp_analyze::data_oblivious(program, PARAMS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random barrier loops of 2–8 threads with a flipped counter in one
    /// thread: oblivious ones, ones whose siblings branch on or load
    /// through what the faulty thread stores, and ones where it writes the
    /// parameter block. The predicted result is the full run's, exactly,
    /// and only an oblivious loop is ever certified while a sibling lives.
    #[test]
    fn flipped_barrier_loops_end_as_the_full_run_does(
        (threads, faulty, trips) in (2u32..9, 0u32..8, 3u32..12),
        (siblings, shared) in (0usize..4, 0u32..3),
        (iteration, bit, trigger_gap) in (0u32..12, 0u32..32, 1u32..4),
        (budget_factor, budget_jitter) in (2u64..6, 0u64..64),
    ) {
        let siblings = SIBLINGS[siblings];
        let faulty = faulty % threads;
        let iteration = iteration % trips;
        // The counter the flip leaves, and a trigger it reaches (a few
        // iterations on) unless its loop ends first.
        let flipped = (iteration + 1) ^ 1 << bit;
        let trigger = flipped.wrapping_add(trigger_gap).max(trips + 1);
        let launch = barrier_loop(threads, trips, siblings, shared == 0, trigger);
        let (golden, instructions) = Golden::run(&launch, faulty);
        prop_assert!(!golden.param_stored);
        let oblivious = oblivious(launch.program());
        prop_assert_eq!(
            oblivious,
            matches!(siblings, Siblings::Oblivious | Siblings::Param),
            "{:?}", siblings
        );
        let launch = launch.instr_budget(instructions * budget_factor + budget_jitter);
        let flip = (faulty, golden.add(iteration), bit);
        let (full, predicted, prediction) = run_both(&launch, flip, oblivious);
        prop_assert_eq!(predicted, full, "{:?} flip {} of thread {}", siblings, bit, faulty);
        if let Some((fault, live)) = prediction {
            prop_assert_eq!(Err(fault), full);
            prop_assert!(
                !live || siblings == Siblings::Oblivious,
                "{:?}: certified while a sibling lives", siblings
            );
        }
    }
}

/// The property above must exercise the live-sibling rule: a high-bit flip
/// of an early iteration's counter in an oblivious loop is certified while
/// every sibling is live, long before the budget is spent, and the same
/// flip in the loop whose siblings branch on the stored counter runs on
/// until a sibling crashes.
#[test]
fn live_siblings_certify_only_an_oblivious_loop() {
    for threads in [2, 5, 8] {
        // Flip bit 20 of the counter thread 0 reaches in iteration 1.
        let run = |siblings, shared| {
            let launch = barrier_loop(threads, 8, siblings, shared, 0);
            let (golden, instructions) = Golden::run(&launch, 0);
            let flip = (0, golden.add(1), 20);
            let follow = oblivious(launch.program());
            run_both(&launch.instr_budget(instructions * 4), flip, follow)
        };
        let (full, predicted, prediction) = run(Siblings::Oblivious, false);
        assert_eq!(full, Err(SimFault::BudgetExceeded));
        assert_eq!(predicted, full);
        assert_eq!(prediction, Some((SimFault::BudgetExceeded, true)));
        // A shared store in the loop refuses the live rule: the lone rule
        // takes the hang once the siblings have exited.
        let (full, predicted, prediction) = run(Siblings::Oblivious, true);
        assert_eq!(predicted, full);
        assert_eq!(prediction, Some((SimFault::BudgetExceeded, false)));
        // A sibling branching on the flipped counter crashes the run.
        let (full, predicted, prediction) = run(Siblings::Branch, false);
        assert!(
            matches!(full, Err(SimFault::InvalidAccess { .. })),
            "{full:?}"
        );
        assert_eq!(predicted, full);
        assert_eq!(prediction, None);
    }
}

/// The faulty thread's certified loop walks a shared-store pointer down
/// towards the parameter block, which its sibling reads every iteration
/// as the base of a load. The walk leaves shared memory a few iterations
/// after the block, so there are budgets too short for the faulty thread
/// alone to get out of bounds that still let it clobber the block and the
/// sibling crash on it. A hang certified over a loop that stores shared
/// memory would cut exactly those runs short: the live-sibling rule
/// refuses it.
#[test]
fn a_walk_into_the_parameter_block_is_refused() {
    let program = assemble(
        "param_walk",
        r#"
        cvt.u32.u16 $r1, %tid.x
        shl.u32 $r3, $r1, 0x2
        mul.lo.u32 $r15, $r1, 0x24
        add.u32 $r15, $r15, 0x4
        shl.u32 $r12, $r1, 0x8
        add.u32 $r12, $r12, 0x30
        mov.u32 $r6, 0xffffff00
        set.ne.u32.u32 $p5/$o127, $r1, $r124
        mov.u32 $r2, $r124
        loop:
        @$p5.ne bra sibling
        mov.u32 s[$r12], $r6
        add.u32 $r12, $r12, -4
        bar.sync 0x0
        bra next
        sibling:
        bar.sync 0x0
        add.u32 $r13, $r3, s[0x0014]
        ld.global.u32 $r14, [$r13]
        next:
        add.u32 $r2, $r2, 0x1
        set.ne.u32.u32 $p0/$o127, $r2, $r15
        @$p0.ne bra loop
        exit
        "#,
    )
    .expect("assembles");
    assert!(oblivious(&program));
    // Thread 0 loops 4 times, thread 1 40 times; thread 0's last counter
    // add is flipped past its exit.
    let launch = Launch::new(program)
        .block(2, 1, 1)
        .shared_bytes(0x400)
        .params([0, 0]);
    let (golden, instructions) = Golden::run(&launch, 0);
    assert!(!golden.param_stored);
    let flip = (0, golden.add(3), 12);
    let mut clobbered = 0;
    for budget in 1..=instructions {
        let launch = launch.clone().instr_budget(budget);
        let (full, predicted, prediction) = run_both(&launch, flip, true);
        assert_eq!(predicted, full, "budget {budget}");
        if let Some((fault, _)) = prediction {
            assert_eq!(Err(fault), full, "budget {budget}");
        }
        if matches!(
            full,
            Err(SimFault::InvalidAccess {
                space: MemSpace::Global,
                ..
            })
        ) {
            clobbered += 1;
        }
    }
    assert!(
        clobbered > 0,
        "the sibling never crashed on the clobbered block"
    );
}
