//! The data-oblivious verdict of every registry kernel, pinned.
//!
//! The verdict decides whether the injection fast path may certify a
//! flipped thread's hang while its CTA siblings still run, so a change to
//! a kernel or to the analysis that flips one shows up here first.

use fsp_analyze::data_oblivious;
use fsp_inject::InjectionTarget;
use fsp_isa::PARAM_BASE;
use fsp_workloads::{Scale, Workload};

/// Registry id → verdict. kmeans_k2 picks each point's nearest cluster
/// with a compare of two loaded distances, so a loaded value steers a
/// guard; every other kernel's guards and addresses read thread
/// coordinates, loop counters and parameters alone.
const VERDICTS: [(&str, bool); 17] = [
    ("hotspot", true),
    ("kmeans_k1", true),
    ("kmeans_k2", false),
    ("gaussian_k1", true),
    ("gaussian_k2", true),
    ("gaussian_k125", true),
    ("gaussian_k126", true),
    ("pathfinder", true),
    ("lud_k44", true),
    ("lud_k45", true),
    ("lud_k46", true),
    ("2dconv", true),
    ("mvt", true),
    ("2mm", true),
    ("gemm", true),
    ("syrk", true),
    ("nn", true),
];

fn verdict(w: &Workload) -> bool {
    let launch = w.launch();
    let params = PARAM_BASE..PARAM_BASE + 4 * launch.param_values().len() as u32;
    data_oblivious(launch.program(), params)
}

#[test]
fn every_registry_kernel_has_its_pinned_verdict() {
    let ids = fsp_workloads::registry_ids();
    assert_eq!(ids.len(), VERDICTS.len(), "a kernel without a verdict");
    for (id, want) in VERDICTS {
        for scale in [Scale::Eval, Scale::Paper] {
            let w = fsp_workloads::by_id(id, scale).expect("registry kernel");
            assert_eq!(verdict(&w), want, "{id} at {scale:?}");
        }
    }
}
