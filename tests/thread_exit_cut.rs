//! Differential oracle for the thread-exit cut.
//!
//! On the fast path an injected run also stops at the exit of its faulty
//! thread, when that thread's CTA releases no barrier: every earlier
//! thread is then done and every later one fresh, so once nothing after
//! that point loads a word the thread corrupted (for a shared word: its
//! CTA loads no shared memory afterwards) and the budget covers the golden
//! suffix, the rest of the run replays the golden run (DESIGN.md §10). The
//! slow path never cuts, so the two must agree byte for byte on every
//! outcome and every SDC severity, solo and batched.

use std::sync::Arc;

use fault_site_pruning::inject::{
    Experiment, FaultModel, FaultSite, InjectionTarget, WeightedSite,
};
use fault_site_pruning::isa::{assemble, KernelProgram};
use fault_site_pruning::pruning::{PruningConfig, PruningPipeline};
use fault_site_pruning::sim::{Launch, MemBlock};
use fault_site_pruning::stats::{Outcome, OutcomeKind};
use fault_site_pruning::workloads::{self, Scale};

/// Campaign threads per run (the reference host has 2 cores).
const WORKERS: usize = 2;

/// Runs cut so far at cut point `at` ("thread_exit" or "cta_end") for the
/// kernel named `kernel`, read from the process-wide registry.
fn cuts_at(kernel: &str, at: &str) -> u64 {
    let prefix = format!("fsp_inject_cta_cut_total{{kernel=\"{kernel}\",at=\"{at}\",");
    fsp_obs::registry()
        .render()
        .lines()
        .filter_map(|line| line.strip_prefix(&prefix))
        .filter_map(|rest| rest.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Runs `sites` under `model` through the slow path, then through the fast
/// path solo and with 16-lane batches: the outcomes must agree byte for
/// byte, and so must the severity of every SDC. Returns the outcomes.
fn check<T: InjectionTarget>(
    id: &str,
    fast: &mut Experiment<'_, T>,
    slow: &Experiment<'_, T>,
    sites: &[WeightedSite],
    model: FaultModel,
) -> Vec<Outcome> {
    let s = slow.run_campaign_with(sites, model, WORKERS);
    for batch in [1, 16] {
        fast.set_batch(batch);
        let f = fast.run_campaign_with(sites, model, WORKERS);
        assert_eq!(
            f.outcomes, s.outcomes,
            "{id}: outcomes diverged under {model:?} at batch {batch}"
        );
        assert_eq!(f.profile, s.profile, "{id}: profiles diverged");
    }
    for (ws, outcome) in sites.iter().zip(&s.outcomes) {
        if *outcome == Outcome::Sdc {
            assert_eq!(
                fast.run_one_detailed(ws.site, model),
                slow.run_one_detailed(ws.site, model),
                "{id}: SDC severity diverged at {:?} under {model:?}",
                ws.site
            );
        }
    }
    s.outcomes
}

fn pair<T: InjectionTarget>(target: &T) -> (Experiment<'_, T>, Experiment<'_, T>) {
    let fast = Experiment::prepare(target).expect("fault-free run");
    let slow = Experiment::prepare(target)
        .expect("fault-free run")
        .with_fast_path(false);
    (fast, slow)
}

/// A grid of `ctas` CTAs of `threads` threads running `source`, with
/// `words` words of global memory and the output region `out`.
struct Synthetic {
    program: Arc<KernelProgram>,
    ctas: u32,
    threads: u32,
    words: usize,
    out: (u32, usize),
}

impl Synthetic {
    fn new(name: &str, source: &str, grid: (u32, u32), words: usize, out: (u32, usize)) -> Self {
        Synthetic {
            program: Arc::new(assemble(name, source).expect("assembles")),
            ctas: grid.0,
            threads: grid.1,
            words,
            out,
        }
    }

    /// Every site of thread `tid` under every fault model, through
    /// [`check`]; returns the single-bit-flip outcomes.
    fn check_exhaustively(&self, tid: u32) -> Vec<Outcome> {
        let (mut fast, slow) = pair(self);
        let sites: Vec<WeightedSite> = fast
            .site_space([tid])
            .thread_site_iter(tid)
            .map(WeightedSite::from)
            .collect();
        let mut flips = Vec::new();
        for model in FaultModel::ALL {
            let outcomes = check(self.name(), &mut fast, &slow, &sites, model);
            if model == FaultModel::SingleBitFlip {
                flips = outcomes;
            }
        }
        flips
    }

    /// The outcome of one single-bit flip on thread `tid`, solo and in a
    /// one-lane-per-site batch, with the solo run's thread-exit cuts,
    /// CTA-end cuts and CTA-end refusals.
    fn flip(&self, tid: u32, dyn_idx: u32, bit: u32) -> (Outcome, [u64; 3]) {
        let (mut fast, slow) = pair(self);
        let site = FaultSite { tid, dyn_idx, bit };
        let name = self.name();
        let before = [
            cuts_at(name, "thread_exit"),
            cuts_at(name, "cta_end"),
            fast.cta_cut_refusals(),
        ];
        let outcome = fast.run_one(site);
        let after = [
            cuts_at(name, "thread_exit"),
            cuts_at(name, "cta_end"),
            fast.cta_cut_refusals(),
        ];
        assert_eq!(outcome, slow.run_one(site), "{name}: {site:?}");
        // The same site riding a batch with a clean neighbour lane.
        let neighbour = FaultSite {
            tid,
            dyn_idx: 0,
            bit: 31,
        };
        let sites = [WeightedSite::from(site), WeightedSite::from(neighbour)];
        fast.set_batch(16);
        assert_eq!(
            fast.run_campaign(&sites, 1).outcomes,
            slow.run_campaign(&sites, 1).outcomes,
            "{name}: batched {site:?}"
        );
        (outcome, std::array::from_fn(|i| after[i] - before[i]))
    }
}

impl InjectionTarget for Synthetic {
    fn name(&self) -> &str {
        self.program.name()
    }

    fn launch(&self) -> Launch {
        Launch::new(Arc::clone(&self.program))
            .grid(self.ctas, 1)
            .block(self.threads, 1, 1)
    }

    fn init_memory(&self) -> MemBlock {
        MemBlock::with_words(self.words)
    }

    fn output_region(&self) -> (u32, usize) {
        self.out
    }
}

/// Thread 0 of each CTA stores a scratch word, thread 1 copies it (plus
/// one) to the CTA's output word. A flip of the scratch value is not in
/// the output at thread 0's exit; cutting there would call it `Masked`.
/// The rule must refuse at the exit and cut at the CTA end: `Sdc`.
#[test]
fn later_reader_in_the_cta_refuses_until_the_cta_ends() {
    let target = Synthetic::new(
        "exit_later_reader",
        r#"
        cvt.u32.u16 $r1, %tid.x
        cvt.u32.u16 $r2, %ctaid.x
        shl.u32 $r4, $r2, 0x2
        set.eq.u32.u32 $p0/$o127, $r1, $r124
        @$p0.ne bra writer
        ld.global.u32 $r3, [$r4+0x20]
        add.u32 $r3, $r3, 0x1
        st.global.u32 [$r4], $r3
        exit
        writer:
        mov.u32 $r3, 0x2A
        st.global.u32 [$r4+0x20], $r3
        exit
        "#,
        (2, 2),
        16,
        (0, 2),
    );
    // Thread 0 retires cvt, cvt, shl, set, bra, then the mov at index 5.
    let (outcome, [exits, ends, refusals]) = target.flip(0, 5, 0);
    assert_eq!(outcome, Outcome::Sdc);
    assert_eq!((exits, ends, refusals), (0, 1, 0), "refused at the exit");
    assert!(target.check_exhaustively(0).contains(&Outcome::Sdc));
}

/// Both threads store the same output word, thread 1 last; a flip of
/// thread 0's value is overwritten, so the run cut at thread 0's exit must
/// be `Masked`. A flip of thread 0's own output word stays: `Sdc`.
#[test]
fn later_store_in_the_cta_restores_a_corrupted_output_word() {
    let target = Synthetic::new(
        "exit_later_store",
        r#"
        cvt.u32.u16 $r1, %tid.x
        mov.u32 $r2, 0x2A
        st.global.u32 [$r124], $r2
        shl.u32 $r4, $r1, 0x2
        add.u32 $r3, $r1, 0x5
        st.global.u32 [$r4+0x4], $r3
        exit
        "#,
        (1, 2),
        4,
        (0, 3),
    );
    let (outcome, [exits, ends, _]) = target.flip(0, 1, 3);
    assert_eq!(outcome, Outcome::Masked);
    assert_eq!((exits, ends), (1, 0));
    let (outcome, [exits, _, _]) = target.flip(0, 4, 0);
    assert_eq!(outcome, Outcome::Sdc);
    assert_eq!(exits, 1);
    let flips = target.check_exhaustively(0);
    assert!(flips.contains(&Outcome::Masked) && flips.contains(&Outcome::Sdc));
}

/// Thread 0 counts down from 0x10 and thread 1 from 0x400, four
/// instructions per iteration; each stores its iteration count. The golden
/// run retires 4171 instructions, so the budget is the 20 000 floor. A flip
/// of bit 12 of thread 0's counter leaves it exiting after 16 453
/// instructions, short of thread 1's 4102: the rule must refuse and the
/// run hang. One bit lower the suffix fits: cut at the exit as an SDC.
#[test]
fn budget_short_of_the_golden_suffix_hangs() {
    let target = Synthetic::new(
        "exit_short_budget",
        r#"
        cvt.u32.u16 $r1, %tid.x
        mov.u32 $r2, 0x10
        set.ne.u32.u32 $p0/$o127, $r1, $r124
        @$p0.ne mov.u32 $r2, 0x400
        loop:
        sub.u32 $r2, $r2, 0x1
        add.u32 $r3, $r3, 0x1
        set.ne.u32.u32 $p1/$o127, $r2, $r124
        @$p1.ne bra loop
        shl.u32 $r4, $r1, 0x2
        st.global.u32 [$r4], $r3
        exit
        "#,
        (1, 2),
        2,
        (0, 2),
    );
    assert_eq!(
        Experiment::prepare(&target)
            .expect("fault-free run")
            .fault_free_instructions(),
        4171
    );
    let (outcome, [exits, _, _]) = target.flip(0, 1, 12);
    assert_eq!(outcome, Outcome::Other(OutcomeKind::Hang));
    assert_eq!(exits, 0);
    let (outcome, [exits, _, _]) = target.flip(0, 1, 11);
    assert_eq!(outcome, Outcome::Sdc);
    assert_eq!(exits, 1);
    target.check_exhaustively(0);
}

/// Thread 0 stores a shared word that thread 1 then copies to the output,
/// with no barrier (the serial schedule orders them). A flip of the shared
/// value dies with the CTA, so cutting at thread 0's exit would call it
/// `Masked`; the CTA loads shared memory later, so the rule must refuse.
#[test]
fn later_shared_load_refuses() {
    let target = Synthetic::new(
        "exit_shared_reader",
        r#"
        cvt.u32.u16 $r1, %tid.x
        cvt.u32.u16 $r2, %ctaid.x
        shl.u32 $r4, $r2, 0x2
        set.eq.u32.u32 $p0/$o127, $r1, $r124
        @$p0.ne bra writer
        ld.shared.u32 $r3, s[0x0040]
        st.global.u32 [$r4], $r3
        exit
        writer:
        mov.u32 $r3, 0x2A
        st.shared.u32 s[0x0040], $r3
        exit
        "#,
        (2, 2),
        2,
        (0, 2),
    );
    let (outcome, [exits, ends, _]) = target.flip(0, 5, 2);
    assert_eq!(outcome, Outcome::Sdc);
    assert_eq!((exits, ends), (0, 1), "refused at the exit");
    assert!(target.check_exhaustively(0).contains(&Outcome::Sdc));
}

/// CTA 0 runs a guarded `bar`, CTA 1 skips it: the rule applies at thread
/// exits of CTA 1 only, and CTA 0's runs are cut at its end instead.
#[test]
fn a_cta_with_a_barrier_is_cut_at_its_end_only() {
    let target = Synthetic::new(
        "exit_guarded_bar",
        r#"
        cvt.u32.u16 $r1, %tid.x
        cvt.u32.u16 $r2, %ctaid.x
        set.eq.u32.u32 $p0/$o127, $r2, $r124
        @$p0.ne bar.sync 0x0
        mad.lo.u32 $r4, $r2, 0x2, $r1
        shl.u32 $r4, $r4, 0x2
        add.u32 $r3, $r4, 0x7
        st.global.u32 [$r4], $r3
        exit
        "#,
        (3, 2),
        6,
        (0, 6),
    );
    // Flip the stored value (the add at index 6 in CTA 0, 5 in CTA 1).
    let (outcome, [exits, ends, _]) = target.flip(0, 6, 0);
    assert_eq!(outcome, Outcome::Sdc);
    assert_eq!((exits, ends), (0, 1), "CTA 0 releases a barrier");
    let (outcome, [exits, ends, _]) = target.flip(2, 5, 0);
    assert_eq!(outcome, Outcome::Sdc);
    assert_eq!((exits, ends), (1, 0), "CTA 1 releases none");
    target.check_exhaustively(0);
    target.check_exhaustively(2);
}

/// Thread 0 normally skips a guarded `bar`, then stores a scratch word
/// that thread 1 copies to the output. A flip that makes thread 0 take
/// the `bar` lets thread 1 run first and copy the old word: `Sdc`, though
/// thread 0's own stores end golden. The run released a barrier, so the
/// rule must refuse at thread 0's exit.
#[test]
fn a_barrier_released_by_the_run_refuses() {
    let target = Synthetic::new(
        "exit_diverted_bar",
        r#"
        cvt.u32.u16 $r1, %tid.x
        cvt.u32.u16 $r2, %ctaid.x
        shl.u32 $r4, $r2, 0x2
        set.eq.u32.u32 $p0/$o127, $r1, 0x5
        @$p0.ne bar.sync 0x0
        set.eq.u32.u32 $p1/$o127, $r1, $r124
        @$p1.ne bra writer
        ld.global.u32 $r3, [$r4+0x20]
        st.global.u32 [$r4], $r3
        exit
        writer:
        mov.u32 $r3, 0x2A
        st.global.u32 [$r4+0x20], $r3
        exit
        "#,
        (2, 2),
        16,
        (0, 2),
    );
    // The compare at index 3 writes $p0's flags; one of its bits steers
    // the guard.
    let outcomes: Vec<(Outcome, [u64; 3])> = (0..4).map(|bit| target.flip(0, 3, bit)).collect();
    assert!(
        outcomes
            .iter()
            .any(|&(o, [exits, ends, _])| o == Outcome::Sdc && exits == 0 && ends == 1),
        "no flip took the barrier: {outcomes:?}"
    );
    target.check_exhaustively(0);
}

/// The thread-exit cut engages on the pruned plans of gemm, 2dconv and
/// kmeans_k2, solo and batched, and gemm's and mvt's plans match the slow
/// path (kmeans_k2's and 2dconv's are checked in `tests/cta_cut.rs`).
#[test]
fn thread_exit_cuts_engage_on_gemm_2dconv_and_kmeans() {
    for id in ["gemm", "2dconv", "kmeans_k2", "mvt"] {
        let w = workloads::by_id(id, Scale::Eval).expect("registry kernel");
        let (mut fast, slow) = pair(&w);
        let plan = PruningPipeline::new(PruningConfig::default())
            .plan_for(&fast)
            .expect("planning a registry kernel");
        let name = id.to_string();
        if matches!(id, "gemm" | "mvt") {
            check(id, &mut fast, &slow, &plan.sites, FaultModel::SingleBitFlip);
        }
        if id == "mvt" {
            continue;
        }
        for batch in [1, 16] {
            fast.set_batch(batch);
            let before = cuts_at(&name, "thread_exit");
            let _ = fast.run_campaign_with(&plan.sites, FaultModel::SingleBitFlip, WORKERS);
            assert!(
                cuts_at(&name, "thread_exit") > before,
                "{id}: no run was cut at a thread exit at batch {batch}"
            );
        }
    }
}
