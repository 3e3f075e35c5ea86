//! Batch lanes whose base register diverges follow their own addresses;
//! one whose address faults retires inside the batch as `Crash` (cause
//! `trapped`) with no solo rerun. This checks that such lanes really
//! occur on registry kernels and that the campaigns they ride in classify
//! every site exactly as the solo path does.

use fault_site_pruning::inject::{Experiment, WeightedSite};
use fault_site_pruning::workloads::{self, Scale};

#[test]
fn trapped_lanes_occur_on_registry_kernels_and_match_solo() {
    let trapped = fsp_obs::registry().counter_labeled(
        "fsp_inject_batch_lane_total",
        &[("cause", "trapped")],
        "Batched injection lanes by retirement cause.",
    );
    let mut trapping = Vec::new();
    for w in workloads::all(Scale::Eval) {
        let mut experiment = Experiment::prepare(&w).expect("fault-free run");
        // Thread 0's first sites: one checkpoint and one CTA, so they batch
        // together, and they cover the kernel's address arithmetic.
        let space = experiment.site_space(0..1);
        let sites: Vec<WeightedSite> = (0..space.total_sites().min(256))
            .map(|i| WeightedSite::from(space.site_at(i)))
            .collect();
        let before = trapped.get();
        let batched = experiment.run_campaign(&sites, 1);
        if trapped.get() > before {
            trapping.push(w.registry_id());
        }
        experiment.set_batch(1);
        let solo = experiment.run_campaign(&sites, 1);
        assert_eq!(
            batched.outcomes,
            solo.outcomes,
            "{}: batched outcomes diverged from solo",
            w.registry_id()
        );
    }
    eprintln!("kernels with trapped lanes: {trapping:?}");
    assert!(
        !trapping.is_empty(),
        "no registry kernel produced a trapped lane"
    );
}
