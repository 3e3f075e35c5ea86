//! Differential oracle for batched multi-lane injection.
//!
//! Batching is a pure amortization: up to N fault sites sharing a resume
//! checkpoint and a CTA ride one golden replay as shadow lanes, but every
//! lane must classify exactly as its own solo run would. Because the
//! simulator is deterministic and a lane budget of 1 routes every site
//! through the solo path untouched, outcome vectors must be byte-identical
//! across *all* batch sizes, fault models and worker counts.

use fault_site_pruning::inject::{
    Experiment, FaultModel, FaultSite, InjectionTarget, WeightedSite, MAX_BATCH,
};
use fault_site_pruning::workloads::{self, Scale};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Batch sizes swept by the oracle: 1 (the solo baseline), a couple of
/// odd-sized partial batches, 16, and the lane-mask ceiling, which is the
/// default.
const BATCH_SIZES: [usize; 5] = [1, 2, 7, 16, 64];

/// Consecutive sites drawn from the start of the space — same thread /
/// CTA / checkpoint, so batch groups actually fill with multiple lanes.
const DENSE_SITES: u64 = 24;

/// Random sites drawn on top (mostly singleton groups, exercising the
/// solo fallback inside a batched campaign).
const SAMPLED_SITES: usize = 6;

fn sites_for(space: &fault_site_pruning::inject::SiteSpace, seed: u64) -> Vec<WeightedSite> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = space.total_sites();
    let mut sites: Vec<FaultSite> = (0..DENSE_SITES.min(total))
        .map(|i| space.site_at(i))
        .collect();
    sites.push(space.site_at(total - 1));
    sites.extend(space.sample_many(SAMPLED_SITES, &mut rng));
    sites.into_iter().map(WeightedSite::from).collect()
}

/// Outcome vectors are byte-identical across every batch size, on every
/// registry kernel, under every fault model.
#[test]
fn batch_sizes_agree_on_all_kernels_and_models() {
    for w in workloads::all(Scale::Eval) {
        let id = w.registry_id();
        let mut experiment = Experiment::prepare(&w).expect("fault-free run");
        assert_eq!(experiment.batch(), MAX_BATCH, "{id}: default lanes");
        let space = experiment.site_space(0..w.launch().num_threads());
        let sites = sites_for(&space, 0xBA7C4 ^ experiment.fault_free_instructions());
        for model in FaultModel::ALL {
            experiment.set_batch(1);
            let baseline = experiment.run_campaign_with(&sites, model, 4);
            for &lanes in &BATCH_SIZES[1..] {
                experiment.set_batch(lanes);
                let batched = experiment.run_campaign_with(&sites, model, 4);
                assert_eq!(
                    baseline.outcomes, batched.outcomes,
                    "{id}: batch {lanes} diverged from batch 1 under {model:?}"
                );
                assert_eq!(
                    baseline.profile, batched.profile,
                    "{id}: batch {lanes} profile diverged under {model:?}"
                );
            }
        }
    }
}

/// Batched campaigns are worker-count invariant: units are claimed by a
/// racing pool, but outcomes index by site position.
#[test]
fn batched_campaign_is_worker_count_invariant() {
    for w in workloads::all(Scale::Eval).into_iter().take(4) {
        let id = w.registry_id();
        let experiment = Experiment::prepare(&w)
            .expect("fault-free run")
            .with_batch(16);
        let space = experiment.site_space(0..w.launch().num_threads());
        let sites = sites_for(&space, 11);
        let one = experiment.run_campaign_with(&sites, FaultModel::SingleBitFlip, 1);
        let four = experiment.run_campaign_with(&sites, FaultModel::SingleBitFlip, 4);
        assert_eq!(
            one.outcomes, four.outcomes,
            "{id}: batched outcomes depend on worker count"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Random (kernel, model, batch size, seed) quadruples: the batched
    /// outcome vector equals the batch-1 vector.
    #[test]
    fn random_batched_campaign_matches_solo(
        kernel in 0usize..32,
        model_idx in 0usize..FaultModel::ALL.len(),
        lanes in prop::sample::select(BATCH_SIZES.to_vec()),
        seed in 0u64..1024,
    ) {
        let registry = workloads::all(Scale::Eval);
        let w = &registry[kernel % registry.len()];
        let model = FaultModel::ALL[model_idx];
        let mut experiment = Experiment::prepare(w).expect("fault-free run");
        experiment.set_batch(lanes);
        prop_assert!(experiment.batch() == lanes.clamp(1, MAX_BATCH));
        let space = experiment.site_space(0..w.launch().num_threads());
        let sites = sites_for(&space, seed);
        experiment.set_batch(1);
        let solo = experiment.run_campaign_with(&sites, model, 2);
        experiment.set_batch(lanes);
        let batched = experiment.run_campaign_with(&sites, model, 2);
        prop_assert_eq!(
            &solo.outcomes, &batched.outcomes,
            "batch {} diverged from solo under {:?}", lanes, model
        );
        prop_assert_eq!(&solo.profile, &batched.profile);
    }
}
