//! Differential oracle for fault prediction.
//!
//! On the fast path the simulator cuts a run short once a one-iteration
//! affine certificate proves how the loop a thread circles ends: it cannot
//! reach its exit within the remaining instruction budget (a hang), or a
//! pointer it walks leaves memory first (a crash) (DESIGN.md §10). The slow
//! path never applies that rule: it runs every such loop out, to budget
//! exhaustion or to the faulting access. A prediction is only allowed where
//! it is exact, so the two paths must agree byte for byte on every outcome.
//! In a data-oblivious kernel a hang may be certified while the faulty
//! thread's CTA siblings still run (the live-sibling rule); the kernels
//! below whose siblings read what the faulty thread stores must never be.

use std::sync::Arc;

use fault_site_pruning::inject::{Experiment, FaultModel, InjectionTarget, WeightedSite};
use fault_site_pruning::isa::{assemble, KernelProgram};
use fault_site_pruning::pruning::{PruningConfig, PruningPipeline};
use fault_site_pruning::sim::{Launch, MemBlock};
use fault_site_pruning::stats::{Outcome, OutcomeKind};
use fault_site_pruning::workloads::{self, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The hang-dominated kernels: a flipped loop counter in pathfinder's
/// `tloop` or lud_k46's `iloop` leaves one thread circling. With each: the
/// hangs per pass of its paper-default plan, and those of them a single
/// injection (`run_one`) certifies while a CTA sibling of the faulty
/// thread is live. The rest change their loop path only after the
/// siblings have exited — a guard compare against the flipped counter
/// flips a few iterations on, or the flip lands in the last iteration —
/// and are certified by the lone rule.
const HANG_BOUND: [(&str, usize, u64); 2] = [("pathfinder", 1050, 885), ("lud_k46", 847, 720)];

/// Kernels of the pruned benchmark mix whose flipped loop counters walk
/// pointers off the end of memory.
const CRASH_BOUND: [&str; 2] = ["lud_k44", "kmeans_k2"];

/// Campaign threads per run (the reference host has 2 cores).
const WORKERS: usize = 2;

const HANG: Outcome = Outcome::Other(OutcomeKind::Hang);

const CRASH: Outcome = Outcome::Other(OutcomeKind::Crash);

/// Two threads count a register down from 64 through a barrier per
/// iteration and store it (always 0) on exit. A flip into the counter's
/// bits 6–12 leaves a loop that still ends, after thousands of lone
/// iterations, within or right at the edge of the 20 000-instruction
/// budget floor; higher bits leave a loop that cannot end in time. So an
/// exhaustive campaign puts finite long loops, boundary cases and
/// certified hangs side by side.
struct BarrierCountdown {
    program: Arc<KernelProgram>,
}

impl BarrierCountdown {
    fn new() -> Self {
        let program = assemble(
            "barrier_countdown",
            r#"
            cvt.u32.u16 $r1, %tid.x
            mov.u32 $r2, 0x40
            loop:
            bar.sync 0x0
            add.u32 $r2, $r2, -1
            set.ne.u32.u32 $p0/$o127, $r2, $r124
            @$p0.ne bra loop
            shl.u32 $r5, $r1, 0x2
            add.u32 $r5, $r5, s[0x0010]
            st.global.u32 [$r5], $r2
            exit
            "#,
        )
        .expect("assembles");
        BarrierCountdown {
            program: Arc::new(program),
        }
    }
}

impl InjectionTarget for BarrierCountdown {
    fn name(&self) -> &str {
        "barrier_countdown"
    }

    fn launch(&self) -> Launch {
        Launch::new(Arc::clone(&self.program))
            .block(2, 1, 1)
            .param(0)
    }

    fn init_memory(&self) -> MemBlock {
        MemBlock::with_words(2)
    }

    fn output_region(&self) -> (u32, usize) {
        (0, 2)
    }
}

/// Every site of the barrier countdown, under every fault model: the
/// finite long loops must run to completion and only the loops that
/// cannot end within the budget may be predicted.
#[test]
fn exhaustive_barrier_countdown_matches_the_slow_path() {
    let target = BarrierCountdown::new();
    let fast = Experiment::prepare(&target).expect("fault-free run");
    let slow = Experiment::prepare(&target)
        .expect("fault-free run")
        .with_fast_path(false);
    let space = fast.site_space(0..2);
    let sites: Vec<WeightedSite> = (0..space.total_sites())
        .map(|i| WeightedSite::from(space.site_at(i)))
        .collect();
    let before = fast.hangs_predicted();
    for model in FaultModel::ALL {
        let f = fast.run_campaign_with(&sites, model, WORKERS);
        let s = slow.run_campaign_with(&sites, model, WORKERS);
        assert_eq!(f.outcomes, s.outcomes, "outcomes diverged under {model:?}");
        if model == FaultModel::SingleBitFlip {
            let hangs = s.outcomes.iter().filter(|&&o| o == HANG).count();
            let masked = s.outcomes.iter().filter(|&&o| o == Outcome::Masked).count();
            assert!(
                hangs > 100 && masked > 100,
                "{hangs} hangs, {masked} masked"
            );
        }
    }
    assert!(fast.hangs_predicted() > before, "no hang was predicted");
    assert!(
        fast.hangs_predicted_live() > 0,
        "no hang was certified live"
    );
}

/// The paper-default pruned plans of both hang-bound kernels classify
/// identically with and without prediction, prediction engages on both,
/// and every hang site of the plan, injected alone, is a certified hang —
/// most of them certified while the faulty thread's siblings still run
/// and counted in a series labelled by registry id.
#[test]
fn pruned_plans_of_hang_bound_kernels_match_the_slow_path() {
    for (id, plan_hangs, live_hangs) in HANG_BOUND {
        let w = workloads::by_id(id, Scale::Eval).expect("registry kernel");
        let fast = Experiment::prepare(&w).expect("fault-free run");
        let slow = Experiment::prepare(&w)
            .expect("fault-free run")
            .with_fast_path(false);
        let plan = PruningPipeline::new(PruningConfig::default())
            .plan_for(&fast)
            .expect("planning a registry kernel");
        let before = fast.hangs_predicted();
        let f = fast.run_campaign_with(&plan.sites, FaultModel::SingleBitFlip, WORKERS);
        let predicted = fast.hangs_predicted() - before;
        let s = slow.run_campaign_with(&plan.sites, FaultModel::SingleBitFlip, WORKERS);
        assert_eq!(f.outcomes, s.outcomes, "{id}: fast/slow outcomes diverged");
        assert_eq!(f.profile, s.profile, "{id}: profiles diverged");
        let hangs = s.outcomes.iter().filter(|&&o| o == HANG).count();
        assert_eq!(hangs, plan_hangs, "{id}: hangs in the plan");
        assert!(predicted > 0, "{id}: no hang of {hangs} was predicted");
        let (before, live) = (fast.hangs_predicted(), fast.hangs_predicted_live());
        let series = "fsp_inject_hang_predicted_live_total";
        let live_labelled = labelled(series, id);
        for (site, _) in plan
            .sites
            .iter()
            .zip(&s.outcomes)
            .filter(|(_, &o)| o == HANG)
        {
            assert_eq!(fast.run_one(site.site), HANG, "{id}: {:?}", site.site);
        }
        assert_eq!(fast.hangs_predicted() - before, hangs as u64, "{id}");
        assert_eq!(fast.hangs_predicted_live() - live, live_hangs, "{id}");
        assert_eq!(labelled(series, id) - live_labelled, live_hangs, "{id}");
    }
}

/// Sampled sites on every registry kernel under every fault model:
/// prediction never changes an outcome anywhere in the suite.
#[test]
fn sampled_sites_on_all_kernels_and_models_match_the_slow_path() {
    for w in workloads::all(Scale::Eval) {
        let id = w.registry_id();
        let fast = Experiment::prepare(&w).expect("fault-free run");
        let slow = Experiment::prepare(&w)
            .expect("fault-free run")
            .with_fast_path(false);
        let space = fast.site_space(0..w.launch().num_threads());
        let mut rng = StdRng::seed_from_u64(0x4A46 ^ fast.fault_free_instructions());
        let sites: Vec<WeightedSite> = space
            .sample_many(24, &mut rng)
            .into_iter()
            .map(WeightedSite::from)
            .collect();
        for model in FaultModel::ALL {
            let f = fast.run_campaign_with(&sites, model, WORKERS);
            let s = slow.run_campaign_with(&sites, model, WORKERS);
            assert_eq!(
                f.outcomes, s.outcomes,
                "{id}: fast/slow outcomes diverged under {model:?}"
            );
            assert_eq!(f.profile, s.profile, "{id}: profiles diverged");
        }
    }
}

/// A CTA of eight threads loops twelve times through a barrier, each
/// publishing its counter to its own global word. After the loop, each
/// thread reads its neighbour's counter and stores out of bounds if it is
/// past the trip count: a loaded value steers a guard, so the kernel is
/// not data-oblivious. A flipped counter hangs its thread and crashes its
/// neighbour once the neighbour's loop ends, so no hang may be certified
/// while the neighbour still runs.
const NEIGHBOUR_CHECK: &str = r#"
    cvt.u32.u16 $r1, %tid.x
    shl.u32 $r3, $r1, 0x2
    add.u32 $r4, $r3, s[0x0010]
    add.u32 $r7, $r1, 0x1
    set.eq.u32.u32 $p2/$o127, $r7, 0x8
    @$p2.ne mov.u32 $r7, $r124
    shl.u32 $r7, $r7, 0x2
    add.u32 $r7, $r7, s[0x0010]
    mov.u32 $r11, 0xfffffff0
    mov.u32 $r2, $r124
    loop:
    st.global.u32 [$r4], $r2
    bar.sync 0x0
    add.u32 $r2, $r2, 0x1
    set.ne.u32.u32 $p0/$o127, $r2, 0xc
    @$p0.ne bra loop
    ld.global.u32 $r8, [$r7]
    set.gt.u32.u32 $p3/$o127, $r8, 0xc
    @$p3.ne st.global.u32 [$r11], $r8
    exit
    "#;

/// The same loop, data-oblivious, but a counter that meets 0x14 — which
/// no fault-free counter reaches — stores an invalid address into the
/// first parameter, and every thread adds that parameter to its output
/// address on exit. A counter flipped to just below 0x14 hangs its thread
/// and, a few iterations on, clobbers the parameter its siblings exit
/// through, so no hang may be certified live after that store.
const PARAM_CLOBBER: &str = r#"
    cvt.u32.u16 $r1, %tid.x
    shl.u32 $r3, $r1, 0x2
    mov.u32 $r11, 0xfffffff0
    mov.u32 $r2, $r124
    loop:
    set.eq.u32.u32 $p1/$o127, $r2, 0x14
    @$p1.ne mov.u32 s[0x0010], $r11
    bar.sync 0x0
    add.u32 $r2, $r2, 0x1
    set.ne.u32.u32 $p0/$o127, $r2, 0xc
    @$p0.ne bra loop
    add.u32 $r10, $r3, s[0x0010]
    st.global.u32 [$r10], $r2
    exit
    "#;

/// Both kernels above: every site under every fault model matches the
/// slow path, and hangs and crashes are there to match. The neighbour
/// check is never certified live; the parameter clobber is, before the
/// clobber and wherever its counter never meets 0x14.
#[test]
fn siblings_that_read_the_faulty_thread_keep_their_crashes() {
    for (name, source, oblivious) in [
        ("neighbour_check", NEIGHBOUR_CHECK, false),
        ("param_clobber", PARAM_CLOBBER, true),
    ] {
        let kernel = Synthetic::new(name, source, 8, 64, (0, 8));
        let live = Experiment::prepare(&kernel)
            .expect("fault-free run")
            .hangs_predicted_live();
        let (outcomes, _, hangs) = kernel.check_exhaustively();
        assert!(count(&outcomes, HANG) > 10, "{name}: {outcomes:?}");
        assert!(count(&outcomes, CRASH) > 0, "{name}: no sibling crashed");
        assert!(hangs > 0, "{name}: no hang was predicted");
        let live = Experiment::prepare(&kernel)
            .expect("fault-free run")
            .hangs_predicted_live()
            - live;
        assert_eq!(live > 0, oblivious, "{name}: {live} hangs certified live");
    }
}

/// A one-CTA synthetic kernel over `words` global words, of which the
/// first `output` are compared.
struct Synthetic {
    program: Arc<KernelProgram>,
    threads: u32,
    shared_bytes: u32,
    words: usize,
    output: (u32, usize),
}

impl Synthetic {
    fn new(name: &str, source: &str, threads: u32, words: usize, output: (u32, usize)) -> Self {
        Synthetic {
            program: Arc::new(assemble(name, source).expect("assembles")),
            threads,
            shared_bytes: 16 * 1024,
            words,
            output,
        }
    }

    fn with_shared_bytes(mut self, bytes: u32) -> Self {
        self.shared_bytes = bytes;
        self
    }

    /// Every site of every thread under every fault model, fast against
    /// slow; returns the single-bit-flip outcomes and the crashes and hangs
    /// the fast path predicted.
    fn check_exhaustively(&self) -> (Vec<Outcome>, u64, u64) {
        let fast = Experiment::prepare(self).expect("fault-free run");
        let slow = Experiment::prepare(self)
            .expect("fault-free run")
            .with_fast_path(false);
        let space = fast.site_space(0..self.threads);
        let sites: Vec<WeightedSite> = (0..space.total_sites())
            .map(|i| WeightedSite::from(space.site_at(i)))
            .collect();
        let before = (fast.crashes_predicted(), fast.hangs_predicted());
        let mut flips = Vec::new();
        for model in FaultModel::ALL {
            let f = fast.run_campaign_with(&sites, model, WORKERS);
            let s = slow.run_campaign_with(&sites, model, WORKERS);
            assert_eq!(
                f.outcomes,
                s.outcomes,
                "{}: outcomes diverged under {model:?}",
                self.name()
            );
            if model == FaultModel::SingleBitFlip {
                flips = s.outcomes;
            }
        }
        (
            flips,
            fast.crashes_predicted() - before.0,
            fast.hangs_predicted() - before.1,
        )
    }
}

impl InjectionTarget for Synthetic {
    fn name(&self) -> &str {
        self.program.name()
    }

    fn launch(&self) -> Launch {
        Launch::new(Arc::clone(&self.program))
            .block(self.threads, 1, 1)
            .shared_bytes(self.shared_bytes)
            .param(0)
    }

    fn init_memory(&self) -> MemBlock {
        let mut memory = MemBlock::with_words(self.words);
        for i in 0..self.words.min(256) {
            memory
                .store(4 * i as u32, (i as u32).wrapping_mul(0x9E37_79B9) | 1)
                .expect("in bounds");
        }
        memory
    }

    fn output_region(&self) -> (u32, usize) {
        self.output
    }
}

fn count(outcomes: &[Outcome], kind: Outcome) -> usize {
    outcomes.iter().filter(|&&o| o == kind).count()
}

/// lud's perimeter shape: each of four threads copies its global row into
/// shared memory through two walking pointers, the CTA meets at a
/// barrier, and each thread writes another thread's row back. A flipped
/// row counter walks both pointers on until one leaves its space, in the
/// middle of a barrier phase.
#[test]
fn load_to_shared_store_walk_predicts_its_crashes() {
    let walk = Synthetic::new(
        "shared_walk",
        r#"
        cvt.u32.u16 $r1, %tid.x
        shl.u32 $r2, $r1, 0x5
        add.u32 $r3, $r2, 0x40
        add.u32 $r6, $r2, s[0x0010]
        mov.u32 $r8, 0x8
        load:
        ld.global.u32 $r9, [$r6]
        mov.u32 s[$r3], $r9
        add.u32 $r6, $r6, 0x4
        add.u32 $r3, $r3, 0x4
        add.u32 $r8, $r8, -1
        set.ne.u32.u32 $p0/$o127, $r8, $r124
        @$p0.ne bra load
        bar.sync 0x0
        mov.u32 $r10, 0x3
        sub.u32 $r10, $r10, $r1
        shl.u32 $r10, $r10, 0x5
        add.u32 $r10, $r10, 0x40
        add.u32 $r11, $r2, 0x80
        mov.u32 $r12, 0x8
        store:
        mov.u32 $r13, s[$r10]
        st.global.u32 [$r11], $r13
        add.u32 $r10, $r10, 0x4
        add.u32 $r11, $r11, 0x4
        add.u32 $r12, $r12, -1
        set.ne.u32.u32 $p0/$o127, $r12, $r124
        @$p0.ne bra store
        exit
        "#,
        4,
        4096,
        (0x80, 32),
    )
    .with_shared_bytes(4096);
    let (outcomes, crashes, _) = walk.check_exhaustively();
    assert!(
        count(&outcomes, CRASH) > 100,
        "{} crashes",
        count(&outcomes, CRASH)
    );
    assert!(crashes > 0, "no crash was predicted");
}

/// A flipped counter in a load-only reduction over a memory larger than
/// the budget can walk: the run is a hang, predicted long before the
/// budget is spent.
#[test]
fn in_bounds_load_walk_predicts_its_hangs() {
    let walk = Synthetic::new(
        "load_walk",
        r#"
        mov.u32 $r2, s[0x0010]
        mov.u32 $r4, 0x8
        mov.u32 $r6, $r124
        loop:
        ld.global.u32 $r5, [$r2]
        add.u32 $r6, $r6, $r5
        add.u32 $r2, $r2, 0x4
        add.u32 $r4, $r4, -1
        set.ne.u32.u32 $p0/$o127, $r4, $r124
        @$p0.ne bra loop
        st.global.u32 [$r124], $r6
        exit
        "#,
        1,
        1 << 14,
        (0, 1),
    );
    let (outcomes, _, hangs) = walk.check_exhaustively();
    assert!(
        count(&outcomes, HANG) > 10,
        "{} hangs",
        count(&outcomes, HANG)
    );
    assert!(hangs > 0, "no hang was predicted");
}

/// A flipped counter walks a load off the end of 3 999 words. With four
/// instructions before the loop the faulting load is exactly the last
/// step the 20 000-instruction budget allows: every such run crashes.
/// One more instruction before the loop pushes it one step past the
/// budget: exactly those runs hang instead.
#[test]
fn walk_faulting_on_the_last_budgeted_step_is_exact() {
    let mut runs = Vec::new();
    for prelude in ["", "mov.u32 $r7, $r124"] {
        let walk = Synthetic::new(
            "edge_walk",
            &format!(
                r#"
                mov.u32 $r2, $r124
                mov.u32 $r4, 0x8
                mov.u32 $r6, $r124
                mov.u32 $r8, $r124
                {prelude}
                loop:
                ld.global.u32 $r5, [$r2]
                add.u32 $r2, $r2, 0x4
                add.u32 $r4, $r4, -1
                set.ne.u32.u32 $p0/$o127, $r4, $r124
                @$p0.ne bra loop
                st.global.u32 [$r124], $r5
                exit
                "#
            ),
            1,
            3999,
            (0, 1),
        );
        let fast = Experiment::prepare(&walk).expect("fault-free run");
        let budget = fast.fault_free_instructions() * 4;
        assert!(budget < 20_000, "the budget is the 20 000 floor");
        let (outcomes, crashes, hangs) = walk.check_exhaustively();
        runs.push((
            count(&outcomes, CRASH),
            count(&outcomes, HANG),
            crashes,
            hangs,
        ));
    }
    let [(edge_crashes, edge_hangs, edge_predicted, _), (crashes, hangs, _, predicted)] = runs[..]
    else {
        unreachable!("two preludes");
    };
    // Flips of the counter's bits 12 and up outlast the walk, and so do
    // the sign flips of each later value of the counter.
    assert_eq!(edge_hangs, 0, "every long walk faults on the last step");
    assert!(hangs >= 20, "{hangs} walks run one step past the budget");
    assert_eq!(crashes + hangs, edge_crashes, "only the long walks changed");
    assert!(
        edge_predicted > 0,
        "no crash on the last step was predicted"
    );
    assert!(
        predicted > 0,
        "no hang one step short of the crash was predicted"
    );
}

/// The count of `series` for the kernel `kernel`, read from the
/// process-wide registry, where it is labelled by registry id.
fn labelled(series: &str, kernel: &str) -> u64 {
    let prefix = format!("{series}{{kernel=\"{kernel}\"}} ");
    fsp_obs::registry()
        .render()
        .lines()
        .filter_map(|line| line.strip_prefix(&prefix)?.parse::<u64>().ok())
        .sum()
}

/// Runs of the kernel `kernel` the fast path predicted to crash.
fn crashes_labelled(kernel: &str) -> u64 {
    labelled("fsp_inject_crash_predicted_total", kernel)
}

/// The paper-default pruned plans of lud_k44 and kmeans_k2 classify
/// identically with and without prediction, crash prediction engages on
/// both, and its series is labelled by registry id.
#[test]
fn pruned_plans_of_crash_bound_kernels_match_the_slow_path() {
    for id in CRASH_BOUND {
        let w = workloads::by_id(id, Scale::Eval).expect("registry kernel");
        let fast = Experiment::prepare(&w).expect("fault-free run");
        let slow = Experiment::prepare(&w)
            .expect("fault-free run")
            .with_fast_path(false);
        let plan = PruningPipeline::new(PruningConfig::default())
            .plan_for(&fast)
            .expect("planning a registry kernel");
        let (before, labelled) = (fast.crashes_predicted(), crashes_labelled(id));
        let f = fast.run_campaign_with(&plan.sites, FaultModel::SingleBitFlip, WORKERS);
        let predicted = fast.crashes_predicted() - before;
        let s = slow.run_campaign_with(&plan.sites, FaultModel::SingleBitFlip, WORKERS);
        assert_eq!(f.outcomes, s.outcomes, "{id}: fast/slow outcomes diverged");
        assert_eq!(f.profile, s.profile, "{id}: profiles diverged");
        let crashes = count(&s.outcomes, CRASH);
        assert!(predicted > 0, "{id}: no crash of {crashes} was predicted");
        assert_eq!(crashes_labelled(id) - labelled, predicted, "{id}");
    }
}

/// A loop whose every iteration steps one guard-failed instruction before
/// the counter's `add`: in the faulty thread's quantum, failed guards come
/// before any flip that lands in a later iteration, so the thread's step
/// count runs ahead of its retirement count by one per iteration. The
/// detector may take the faulty thread's first snapshot only once its
/// `icnt` has passed the flip. A snapshot taken on the step count, or
/// before the flip at all, records an iteration that spans the flip and
/// reads the flipped bit as part of the counter's stride: a low-bit flip
/// that leaves a finite loop (an SDC a few dozen iterations later) would
/// then be predicted as a hang.
#[test]
fn faulty_thread_arms_once_it_has_retired_its_flip() {
    let gated = Synthetic::new(
        "flip_gate",
        r#"
        mov.u32 $r2, 0x10
        mov.u32 $r6, $r124
        set.eq.u32.u32 $p1/$o127, $r124, 0x1
        loop:
        @$p1.ne add.u32 $r6, $r6, 0x1
        add.u32 $r6, $r6, $r2
        add.u32 $r2, $r2, -1
        set.ne.u32.u32 $p0/$o127, $r2, $r124
        @$p0.ne bra loop
        st.global.u32 [$r124], $r6
        exit
        "#,
        1,
        16,
        (0, 1),
    );
    let (outcomes, _, hangs) = gated.check_exhaustively();
    assert!(
        count(&outcomes, HANG) > 10,
        "{} hangs",
        count(&outcomes, HANG)
    );
    assert!(
        count(&outcomes, Outcome::Sdc) > 100,
        "{} SDCs",
        count(&outcomes, Outcome::Sdc)
    );
    assert!(hangs > 0, "no hang was predicted");
}
