//! Differential oracle for the fast path at paper scale.
//!
//! Six registry kernels launch more than 4 096 threads at `Scale::Paper`:
//! hotspot, 2dconv, 2mm, gemm, syrk and nn. Their paper-scale grids are
//! what the eval-scale oracles (`checkpoint_equivalence`,
//! `batch_equivalence`, ...) never reach. Each kernel here must prepare
//! with golden checkpoints, and on sampled sites the fast path must give
//! the slow path's outcome and SDC severity, bit for bit.
//!
//! A slow gemm-class site re-executes ≈21 M instructions, so those three
//! kernels sample [`FEW_SITES`]; the others sample [`SITES`]. One test per
//! kernel lets the harness run them in parallel.

use std::sync::Arc;

use fault_site_pruning::inject::{Experiment, FaultModel, InjectionTarget, PreparedRun};
use fault_site_pruning::workloads::{self, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sites sampled per kernel whose slow path is cheap.
const SITES: usize = 64;

/// Sites sampled per gemm-class kernel (16 384 threads of 128-trip loops).
const FEW_SITES: usize = 12;

/// Seed of the site sample.
const SEED: u64 = 0x9A9E_5CA1;

/// The kernels this oracle covers: every registry kernel over 4 096
/// threads at paper scale.
const KERNELS: [&str; 6] = ["hotspot", "2dconv", "2mm", "gemm", "syrk", "nn"];

fn fast_matches_slow(id: &str, n: usize) {
    let w = workloads::by_id(id, Scale::Paper).expect("registered");
    let run = Arc::new(PreparedRun::prepare(&w).expect("fault-free run"));
    let fast = Experiment::from_prepared(&w, Arc::clone(&run));
    let slow = Experiment::from_prepared(&w, run).with_fast_path(false);
    assert!(
        fast.num_checkpoints() > 0,
        "{id}: paper-scale launch captured no checkpoints"
    );
    let space = fast.site_space(0..w.launch().num_threads());
    let mut rng = StdRng::seed_from_u64(SEED);
    for site in space.sample_many(n, &mut rng) {
        let f = fast.run_one_detailed(site, FaultModel::SingleBitFlip);
        let s = slow.run_one_detailed(site, FaultModel::SingleBitFlip);
        assert_eq!(f, s, "{id}: fast/slow diverged at {site:?}");
    }
}

#[test]
fn the_covered_kernels_are_the_ones_over_4096_threads() {
    let over: Vec<&str> = workloads::all(Scale::Paper)
        .iter()
        .filter(|w| w.launch().num_threads() > 4096)
        .map(|w| w.registry_id())
        .collect();
    assert_eq!(over, KERNELS);
}

#[test]
fn hotspot_fast_path_matches_slow_path() {
    fast_matches_slow("hotspot", SITES);
}

#[test]
fn conv2d_fast_path_matches_slow_path() {
    fast_matches_slow("2dconv", SITES);
}

#[test]
fn gemm_fast_path_matches_slow_path() {
    fast_matches_slow("gemm", FEW_SITES);
}

#[test]
fn mm2_fast_path_matches_slow_path() {
    fast_matches_slow("2mm", FEW_SITES);
}

#[test]
fn syrk_fast_path_matches_slow_path() {
    fast_matches_slow("syrk", FEW_SITES);
}

#[test]
fn nn_fast_path_matches_slow_path() {
    fast_matches_slow("nn", SITES);
}
