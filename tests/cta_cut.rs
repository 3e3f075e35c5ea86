//! Differential oracle for the CTA-boundary cut.
//!
//! On the fast path an injected run stops at the end of the faulty CTA, or
//! of the first later CTA, once no later CTA loads a global word the run
//! corrupted and the remaining budget covers the golden suffix: the rest
//! of the run then replays the golden run (DESIGN.md §10). The outcome
//! follows from the corrupted words alone. The slow path never cuts, so
//! the two must agree byte for byte on every outcome and every SDC
//! severity, solo and batched.

use std::sync::Arc;

use fault_site_pruning::inject::{
    Experiment, FaultModel, FaultSite, InjectionTarget, WeightedSite,
};
use fault_site_pruning::isa::{assemble, KernelProgram};
use fault_site_pruning::pruning::{PruningConfig, PruningPipeline};
use fault_site_pruning::sim::{Launch, MemBlock};
use fault_site_pruning::stats::{Outcome, OutcomeKind};
use fault_site_pruning::workloads::{self, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Campaign threads per run (the reference host has 2 cores).
const WORKERS: usize = 2;

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

/// The paper-default pruned plans of three kernels where most solo time
/// went to CTAs after the faulty one: identical outcomes and severities,
/// and the cut engages on each.
#[test]
fn pruned_plans_match_the_slow_path() {
    for id in ["kmeans_k2", "2dconv", "pathfinder"] {
        let w = workloads::by_id(id, Scale::Eval).expect("registry kernel");
        let (mut fast, slow) = pair(&w);
        let plan = PruningPipeline::new(PruningConfig::default())
            .plan_for(&fast)
            .expect("planning a registry kernel");
        let before = fast.cta_cuts();
        check(id, &mut fast, &slow, &plan.sites, FaultModel::SingleBitFlip);
        assert!(fast.cta_cuts() > before, "{id}: no run was cut");
    }
}

/// Sampled sites on every multi-CTA registry kernel, under every fault
/// model, solo and batched.
#[test]
fn sampled_sites_on_multi_cta_kernels_match_the_slow_path() {
    let mut kernels = 0;
    for w in workloads::all(Scale::Eval) {
        if w.launch().num_ctas() < 2 {
            continue;
        }
        kernels += 1;
        let id = w.registry_id();
        let (mut fast, slow) = pair(&w);
        let space = fast.site_space(0..w.launch().num_threads());
        let mut rng = StdRng::seed_from_u64(0xC7A ^ fast.fault_free_instructions());
        let sites: Vec<WeightedSite> = space
            .sample_many(24, &mut rng)
            .into_iter()
            .map(WeightedSite::from)
            .collect();
        for model in FaultModel::ALL {
            check(id, &mut fast, &slow, &sites, model);
        }
    }
    assert!(kernels >= 10, "only {kernels} multi-CTA kernels");
}

/// The cut engages on the pruned plans of gemm, kmeans_k2 and pathfinder,
/// solo and batched.
#[test]
fn cuts_engage_on_gemm_kmeans_and_pathfinder() {
    for id in ["gemm", "kmeans_k2", "pathfinder"] {
        let w = workloads::by_id(id, Scale::Eval).expect("registry kernel");
        let mut fast = Experiment::prepare(&w).expect("fault-free run");
        let plan = PruningPipeline::new(PruningConfig::default())
            .plan_for(&fast)
            .expect("planning a registry kernel");
        for batch in [1, 16] {
            fast.set_batch(batch);
            let before = fast.cta_cuts();
            let _ = fast.run_campaign_with(&plan.sites, FaultModel::SingleBitFlip, WORKERS);
            assert!(
                fast.cta_cuts() > before,
                "{id}: no run was cut at batch {batch}"
            );
        }
    }
}

/// A grid of one-thread CTAs running `source`, with `words` words of
/// global memory and the output region `out`.
struct Synthetic {
    program: Arc<KernelProgram>,
    ctas: u32,
    words: usize,
    out: (u32, usize),
}

impl Synthetic {
    fn new(name: &str, source: &str, ctas: u32, words: usize, out: (u32, usize)) -> Self {
        Synthetic {
            program: Arc::new(assemble(name, source).expect("assembles")),
            ctas,
            words,
            out,
        }
    }

    /// Every site of CTA 0's thread under every fault model, through
    /// [`check`]; returns the single-bit-flip outcomes.
    fn check_exhaustively(&self) -> Vec<Outcome> {
        let (mut fast, slow) = pair(self);
        let sites: Vec<WeightedSite> = fast
            .site_space([0])
            .thread_site_iter(0)
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

    /// The outcome of one single-bit flip on CTA 0's thread, with the cuts
    /// and refusals it caused on the solo fast path.
    fn flip(&self, dyn_idx: u32, bit: u32) -> (Outcome, u64, u64) {
        let (fast, slow) = pair(self);
        let site = FaultSite {
            tid: 0,
            dyn_idx,
            bit,
        };
        let (cuts, refusals) = (fast.cta_cuts(), fast.cta_cut_refusals());
        let outcome = fast.run_one(site);
        assert_eq!(outcome, slow.run_one(site), "{}: {site:?}", self.name());
        (
            outcome,
            fast.cta_cuts() - cuts,
            fast.cta_cut_refusals() - refusals,
        )
    }
}

impl InjectionTarget for Synthetic {
    fn name(&self) -> &str {
        self.program.name()
    }

    fn launch(&self) -> Launch {
        Launch::new(Arc::clone(&self.program))
            .grid(self.ctas, 1)
            .block(1, 1, 1)
    }

    fn init_memory(&self) -> MemBlock {
        MemBlock::with_words(self.words)
    }

    fn output_region(&self) -> (u32, usize) {
        self.out
    }
}

/// CTA 0 stores a scratch word, CTA 1 copies it (plus one) to the output
/// and CTA 2 writes a constant. A flip of the scratch value is invisible in
/// the output at CTA 0's end; cutting there would call it `Masked`. The
/// rule must refuse until CTA 1 has read the word, then cut: `Sdc`.
#[test]
fn later_reader_refuses_until_its_cta_has_run() {
    let target = Synthetic::new(
        "cut_later_reader",
        r#"
        cvt.u32.u16 $r1, %ctaid.x
        shl.u32 $r4, $r1, 0x2
        set.eq.u32.u32 $p0/$o127, $r1, $r124
        @$p0.ne bra writer
        set.eq.u32.u32 $p1/$o127, $r1, 0x1
        @$p1.ne bra reader
        mov.u32 $r2, 0x7
        st.global.u32 [$r4], $r2
        exit
        writer:
        mov.u32 $r2, 0x2A
        st.global.u32 [$r124+0x20], $r2
        exit
        reader:
        ld.global.u32 $r2, [$r124+0x20]
        add.u32 $r2, $r2, 0x1
        st.global.u32 [$r4], $r2
        exit
        "#,
        3,
        16,
        (0, 3),
    );
    // CTA 0 retires cvt, shl, set, bra, then the mov at index 4.
    let (outcome, cuts, refusals) = target.flip(4, 0);
    assert_eq!(outcome, Outcome::Sdc);
    assert_eq!((cuts, refusals), (1, 1), "refused after CTA 0, cut after 1");
    let flips = target.check_exhaustively();
    assert!(flips.contains(&Outcome::Sdc));
}

/// Both CTAs store the same word of the output; a flip of CTA 0's value is
/// overwritten by CTA 1, so the run cut after CTA 0 must be `Masked`.
#[test]
fn later_store_restores_a_corrupted_output_word() {
    let target = Synthetic::new(
        "cut_later_store",
        r#"
        cvt.u32.u16 $r1, %ctaid.x
        mov.u32 $r2, 0x2A
        st.global.u32 [$r124], $r2
        shl.u32 $r4, $r1, 0x2
        add.u32 $r3, $r1, 0x5
        st.global.u32 [$r4+0x4], $r3
        exit
        "#,
        2,
        4,
        (0, 3),
    );
    let (outcome, cuts, refusals) = target.flip(1, 3);
    assert_eq!(outcome, Outcome::Masked);
    assert_eq!((cuts, refusals), (1, 0));
    // A flip of CTA 0's own output word is not restored: `Sdc`.
    let (outcome, cuts, _) = target.flip(4, 0);
    assert_eq!(outcome, Outcome::Sdc);
    assert_eq!(cuts, 1);
    let flips = target.check_exhaustively();
    assert!(flips.contains(&Outcome::Masked) && flips.contains(&Outcome::Sdc));
}

/// CTA 0 counts down from 0x10 and CTA 1 from 0x400, four instructions
/// per iteration; each stores its iteration count. The golden run retires
/// 4171 instructions, so the budget is the 20 000 floor. A flip of bit 12
/// of CTA 0's counter leaves CTA 0 finishing after 16 453 instructions,
/// short of CTA 1's 4102: the cut must refuse and the run hang.
#[test]
fn budget_short_of_the_golden_suffix_hangs() {
    let target = Synthetic::new(
        "cut_short_budget",
        r#"
        cvt.u32.u16 $r1, %ctaid.x
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
        2,
        2,
        (0, 2),
    );
    assert_eq!(
        Experiment::prepare(&target)
            .expect("fault-free run")
            .fault_free_instructions(),
        4171
    );
    let (outcome, cuts, refusals) = target.flip(1, 12);
    assert_eq!(outcome, Outcome::Other(OutcomeKind::Hang));
    assert_eq!((cuts, refusals), (0, 1));
    // One bit lower the suffix fits: cut after CTA 0 as an SDC.
    let (outcome, cuts, refusals) = target.flip(1, 11);
    assert_eq!(outcome, Outcome::Sdc);
    assert_eq!((cuts, refusals), (1, 0));
    target.check_exhaustively();
}
