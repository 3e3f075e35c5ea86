//! Differential oracle for hang prediction.
//!
//! On the fast path the simulator cuts a run short once a one-iteration
//! affine certificate proves that the loop a lone thread circles cannot
//! reach its exit within the remaining instruction budget (DESIGN.md §10).
//! The slow path never applies that rule: it runs every such hang out to
//! budget exhaustion. A prediction is only allowed where it is exact, so
//! the two paths must agree byte for byte on every outcome.

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
/// `tloop` or lud_k46's `iloop` leaves one thread circling alone.
const HANG_BOUND: [&str; 2] = ["pathfinder", "lud_k46"];

/// Campaign threads per run (the reference host has 2 cores).
const WORKERS: usize = 2;

const HANG: Outcome = Outcome::Other(OutcomeKind::Hang);

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
}

/// The paper-default pruned plans of both hang-bound kernels classify
/// identically with and without prediction, and prediction engages on
/// both.
#[test]
fn pruned_plans_of_hang_bound_kernels_match_the_slow_path() {
    for id in HANG_BOUND {
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
        assert!(hangs > 0, "{id}: the plan should contain hangs");
        assert!(predicted > 0, "{id}: no hang of {hangs} was predicted");
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
