//! CTA grouping from fault-injection outcomes — the paper's ground-truth
//! classifier (Section III-B.1, Figure 2).
//!
//! Before trusting the cheap iCnt classifier, the paper validates it with
//! a large injection campaign: faults are injected at one target
//! instruction across all threads, and CTAs whose per-thread masked-rate
//! distributions coincide form a group. This module implements that
//! campaign; [`crate::ThreadGrouping`] is the iCnt-based classifier it is
//! compared against (via `fsp_stats::rand_index`, Figure 2 vs Figure 3).

use std::collections::BTreeMap;

use fsp_inject::{Experiment, InjectionTarget, SiteSpace, WeightedSite};
use fsp_stats::{FiveNumber, Outcome};

/// Per-CTA outcome statistics and the induced grouping.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeGrouping {
    /// The static instruction injected.
    pub target_pc: u32,
    /// Per-CTA distribution of per-thread masked percentages.
    pub distributions: Vec<FiveNumber>,
    /// Per-CTA mean masked percentage.
    pub means: Vec<f64>,
    /// CTA ids grouped by mean masked% within the tolerance, ordered by
    /// first member.
    pub groups: Vec<Vec<u32>>,
}

impl OutcomeGrouping {
    /// Runs the grouping campaign: every site of `target_pc` in every
    /// thread is injected (the per-thread site count at one pc is small —
    /// at most the destination width times its loop trip count), and CTAs
    /// are grouped by mean masked% within `tolerance` percentage points.
    ///
    /// `space` must carry full traces for every thread.
    ///
    /// # Panics
    ///
    /// Panics if a thread lacks a full trace.
    #[must_use]
    pub fn analyze<T: InjectionTarget>(
        experiment: &Experiment<'_, T>,
        space: &SiteSpace,
        target_pc: u32,
        tolerance: f64,
        workers: usize,
    ) -> Self {
        let trace = space.trace();
        let mut distributions = Vec::new();
        let mut means = Vec::new();
        for cta in 0..trace.num_ctas() {
            let mut sites = Vec::new();
            let mut owner = Vec::new();
            for tid in trace.cta_threads(cta) {
                for s in space.thread_pc_sites(tid, target_pc) {
                    sites.push(WeightedSite::from(s));
                    owner.push(tid);
                }
            }
            if sites.is_empty() {
                // No thread of this CTA executes the target: by definition
                // every (non-existent) injection is masked.
                distributions.push(FiveNumber::of(&[100.0]));
                means.push(100.0);
                continue;
            }
            let result = experiment.run_campaign(&sites, workers);
            let mut per_thread: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
            for (outcome, tid) in result.outcomes.iter().zip(&owner) {
                let slot = per_thread.entry(*tid).or_default();
                slot.1 += 1;
                if *outcome == Outcome::Masked {
                    slot.0 += 1;
                }
            }
            let pct: Vec<f64> = per_thread
                .values()
                .map(|&(m, n)| 100.0 * f64::from(m) / f64::from(n))
                .collect();
            means.push(pct.iter().sum::<f64>() / pct.len() as f64);
            distributions.push(FiveNumber::of(&pct));
        }
        // Group CTAs by mean within the tolerance.
        let mut groups: Vec<(f64, Vec<u32>)> = Vec::new();
        for (cta, &mean) in means.iter().enumerate() {
            match groups
                .iter_mut()
                .find(|(m, _)| (*m - mean).abs() <= tolerance)
            {
                Some((_, members)) => members.push(cta as u32),
                None => groups.push((mean, vec![cta as u32])),
            }
        }
        OutcomeGrouping {
            target_pc,
            distributions,
            means,
            groups: groups.into_iter().map(|(_, g)| g).collect(),
        }
    }

    /// Per-element group labels (for `fsp_stats::rand_index`).
    #[must_use]
    pub fn labels(&self) -> Vec<usize> {
        fsp_stats::labels_from_groups(&self.groups, self.means.len())
    }

    /// Picks the target instruction with the largest dynamic site volume
    /// among the traced threads — a "busy" instruction like the ones the
    /// paper selects manually.
    #[must_use]
    pub fn default_target_pc(space: &SiteSpace) -> u32 {
        let mut volume: BTreeMap<u32, u64> = BTreeMap::new();
        for full in space.trace().full.values() {
            for e in &full.entries {
                *volume.entry(e.pc).or_default() += u64::from(e.dest_bits);
            }
        }
        volume
            .into_iter()
            .max_by_key(|&(_, v)| v)
            .map(|(pc, _)| pc)
            .expect("trace contains at least one instruction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_inject::testing::CountdownTarget;

    #[test]
    fn countdown_threads_group_by_outcome() {
        let target = CountdownTarget::new();
        let experiment = Experiment::prepare(&target).unwrap();
        let space = experiment.site_space(0..CountdownTarget::THREADS);
        let pc = OutcomeGrouping::default_target_pc(&space);
        let grouping = OutcomeGrouping::analyze(&experiment, &space, pc, 2.0, 4);
        // One CTA -> one distribution, one group.
        assert_eq!(grouping.distributions.len(), 1);
        assert_eq!(grouping.groups, vec![vec![0]]);
        assert_eq!(grouping.labels(), vec![0]);
    }
}
