//! Adaptive loop-iteration sampling.
//!
//! The paper picks the number of sampled loop iterations manually, by
//! inspecting when the outcome distribution stabilizes (Figure 6: "we
//! randomly add iterations one by one, until the result is stable" —
//! needing 3 for PathFinder, 8 for SYRK, 15 for K-Means K1). This module
//! automates that procedure: it grows the per-loop sample one iteration at
//! a time, re-running the pruned campaign, and stops once the profile has
//! been stable for a configurable number of consecutive increments.

use fsp_inject::{Experiment, InjectionTarget};
use fsp_sim::SimFault;
use fsp_stats::ResilienceProfile;

use crate::pipeline::{PruningConfig, PruningPipeline, PruningPlan};

/// Stopping criterion for [`PruningPipeline::run_adaptive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Maximum per-class percentage movement still considered "stable".
    pub epsilon: f64,
    /// Consecutive stable increments required before stopping.
    pub stable_increments: usize,
    /// Hard cap on sampled iterations per loop.
    pub max_samples: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        // The paper's kernels converged within 3..=15 sampled iterations.
        AdaptiveConfig {
            epsilon: 2.0,
            stable_increments: 2,
            max_samples: 15,
        }
    }
}

/// Result of an adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// The converged per-loop sample count.
    pub loop_samples: usize,
    /// The plan at convergence.
    pub plan: PruningPlan,
    /// The profile at convergence.
    pub profile: ResilienceProfile,
    /// `(loop_samples, profile)` for every increment tried, in order.
    pub history: Vec<(usize, ResilienceProfile)>,
}

impl PruningPipeline {
    /// Grows the loop-iteration sample until the pruned profile stabilizes
    /// (the automated version of the paper's Figure 6 procedure). All other
    /// stages follow this pipeline's configuration; the `loop_samples`
    /// field is overridden per increment.
    ///
    /// For a loop-free kernel this degenerates to a single campaign.
    ///
    /// # Errors
    ///
    /// Propagates a [`SimFault`] from the tracing runs.
    pub fn run_adaptive<T: InjectionTarget>(
        &self,
        experiment: &Experiment<'_, T>,
        adaptive: &AdaptiveConfig,
        workers: usize,
    ) -> Result<AdaptiveResult, SimFault> {
        let mut history = Vec::new();
        let mut stable = 0usize;
        let mut current: Option<(usize, PruningPlan, ResilienceProfile)> = None;

        for samples in 1..=adaptive.max_samples.max(1) {
            let pipeline = PruningPipeline::new(PruningConfig {
                loop_samples: samples,
                ..*self.config()
            });
            let plan = pipeline.plan_for(experiment)?;
            let no_loops = plan.loop_stats.max_trip == 0;
            let profile = pipeline.run(experiment, &plan, workers);
            history.push((samples, profile));

            if let Some((_, _, prev)) = &current {
                if profile.max_abs_diff(prev) <= adaptive.epsilon {
                    stable += 1;
                } else {
                    stable = 0;
                }
            }
            let converged = stable >= adaptive.stable_increments;
            current = Some((samples, plan, profile));
            if converged || no_loops {
                break;
            }
        }
        let (loop_samples, plan, profile) = current.expect("at least one increment always runs");
        Ok(AdaptiveResult {
            loop_samples,
            plan,
            profile,
            history,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_inject::testing::CountdownTarget;

    #[test]
    fn converges_on_a_loopy_kernel() {
        let target = CountdownTarget::new();
        let experiment = Experiment::prepare(&target).unwrap();
        let pipeline = PruningPipeline::new(PruningConfig::default());
        let result = pipeline
            .run_adaptive(&experiment, &AdaptiveConfig::default(), 4)
            .unwrap();
        assert!(result.loop_samples >= 1);
        assert!(result.loop_samples <= 15);
        assert_eq!(
            result.history.last().map(|(n, _)| *n),
            Some(result.loop_samples)
        );
        // The converged profile accounts for the full population.
        assert!(
            (result.profile.total() - result.plan.stages.exhaustive as f64).abs()
                < 1e-6 * result.plan.stages.exhaustive as f64
        );
    }

    #[test]
    fn history_is_monotone_in_samples() {
        let target = CountdownTarget::new();
        let experiment = Experiment::prepare(&target).unwrap();
        let pipeline = PruningPipeline::new(PruningConfig::default());
        let result = pipeline
            .run_adaptive(
                &experiment,
                &AdaptiveConfig {
                    epsilon: 0.0,
                    stable_increments: 99,
                    max_samples: 4,
                },
                4,
            )
            .unwrap();
        let ns: Vec<usize> = result.history.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            ns,
            vec![1, 2, 3, 4],
            "runs every increment when never stable"
        );
    }
}
