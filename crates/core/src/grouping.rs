//! Stage 1 — thread-wise pruning (Section III-B).
//!
//! The classifier is the per-thread dynamic instruction count (iCnt), which
//! the paper shows to track the error-resilience profile (Figures 2 vs 3):
//! CTAs are grouped by their *mean* thread iCnt, then threads inside a
//! representative CTA of each group are grouped by their *exact* iCnt. One
//! representative thread per (CTA group × thread group) is injected; its
//! outcomes are extrapolated to every site the group covers.

use fsp_sim::KernelTrace;

/// How CTAs are keyed into groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CtaKey {
    /// Group CTAs whose threads execute the same *total* (equivalently,
    /// mean) number of dynamic instructions — the paper's classifier.
    #[default]
    MeanIcnt,
    /// Group CTAs with identical iCnt *distributions* (stricter; groups are
    /// never coarser than [`CtaKey::MeanIcnt`]).
    Distribution,
}

/// A group of threads with identical iCnt inside the representative CTA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadGroup {
    /// The shared dynamic instruction count.
    pub icnt: u32,
    /// Flat thread ids of the members *within the representative CTA*.
    pub members: Vec<u32>,
    /// The representative (lowest member id).
    pub representative: u32,
    /// Number of threads across *all* CTAs of the owning CTA group with
    /// this iCnt.
    pub population: u64,
    /// Total fault sites across all threads this group covers (summed from
    /// the trace, all CTAs of the group).
    pub site_population: u64,
}

/// A group of CTAs with the same classifier key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtaGroup {
    /// Mean per-thread iCnt of the group's CTAs.
    pub mean_icnt_x1000: u64,
    /// CTA ids in the group.
    pub ctas: Vec<u32>,
    /// The representative CTA (lowest id).
    pub representative_cta: u32,
    /// Thread groups within the representative CTA.
    pub thread_groups: Vec<ThreadGroup>,
}

impl CtaGroup {
    /// Mean per-thread iCnt as a float. `0.0` for a group with no CTAs
    /// (nothing was traced into it).
    #[must_use]
    pub fn mean_icnt(&self) -> f64 {
        if self.ctas.is_empty() {
            return 0.0;
        }
        self.mean_icnt_x1000 as f64 / 1000.0
    }

    /// Fraction of the kernel's CTAs in this group. `0.0` when the launch
    /// reportedly has no CTAs at all (never a division by zero).
    #[must_use]
    pub fn cta_proportion(&self, total_ctas: u32) -> f64 {
        if total_ctas == 0 {
            return 0.0;
        }
        self.ctas.len() as f64 / f64::from(total_ctas)
    }
}

/// A representative thread together with its extrapolation totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Representative {
    /// Flat thread id of the representative.
    pub tid: u32,
    /// The representative's own fault-site count.
    pub own_sites: u64,
    /// Fault sites of the whole population it stands for (its own
    /// included).
    pub covered_sites: u64,
    /// Threads it stands for (itself included).
    pub covered_threads: u64,
}

impl Representative {
    /// Per-site extrapolation weight: covered sites per own site.
    #[must_use]
    pub fn site_weight(&self) -> f64 {
        if self.own_sites == 0 {
            0.0
        } else {
            self.covered_sites as f64 / self.own_sites as f64
        }
    }
}

/// The full two-level grouping of a kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadGrouping {
    /// CTA groups, ordered by representative CTA id.
    pub groups: Vec<CtaGroup>,
    /// Total CTAs in the launch.
    pub total_ctas: u32,
    /// Threads whose iCnt matched no thread group of their CTA group's
    /// representative CTA (folded into the nearest-iCnt group; nonzero
    /// values signal that iCnt is an imperfect classifier for this kernel).
    pub mismatched_threads: u64,
}

impl ThreadGrouping {
    /// Classifies the threads of a traced launch.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no threads.
    #[must_use]
    pub fn analyze(trace: &KernelTrace) -> Self {
        Self::analyze_with(trace, CtaKey::MeanIcnt)
    }

    /// Classifies with an explicit CTA key.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no threads.
    #[must_use]
    pub fn analyze_with(trace: &KernelTrace, key: CtaKey) -> Self {
        let num_ctas = trace.num_ctas();
        assert!(num_ctas > 0, "trace has no threads");
        let per = trace.threads_per_cta;

        // 1. Key each CTA.
        let cta_key = |cta: u32| -> Vec<u32> {
            let range = trace.cta_threads(cta);
            match key {
                CtaKey::MeanIcnt => {
                    vec![range.map(|t| trace.icnt[t as usize]).sum::<u32>()]
                }
                CtaKey::Distribution => {
                    let mut v: Vec<u32> = range.map(|t| trace.icnt[t as usize]).collect();
                    v.sort_unstable();
                    v
                }
            }
        };
        let mut by_key: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        for cta in 0..num_ctas {
            let k = cta_key(cta);
            match by_key.iter_mut().find(|(kk, _)| *kk == k) {
                Some((_, ctas)) => ctas.push(cta),
                None => by_key.push((k, vec![cta])),
            }
        }
        by_key.sort_by_key(|(_, ctas)| ctas[0]);

        // 2. Thread groups inside each representative CTA, then attribute
        //    the population of every CTA in the group.
        let mut groups = Vec::with_capacity(by_key.len());
        let mut mismatched = 0u64;
        for (_, ctas) in by_key {
            let rep_cta = ctas[0];
            let mut tgroups: Vec<ThreadGroup> = Vec::new();
            for t in trace.cta_threads(rep_cta) {
                let icnt = trace.icnt[t as usize];
                match tgroups.iter_mut().find(|g| g.icnt == icnt) {
                    Some(g) => g.members.push(t),
                    None => tgroups.push(ThreadGroup {
                        icnt,
                        members: vec![t],
                        representative: t,
                        population: 0,
                        site_population: 0,
                    }),
                }
            }
            tgroups.sort_by_key(|g| g.icnt);
            // Attribute every thread of every CTA in this group.
            for &cta in &ctas {
                for t in trace.cta_threads(cta) {
                    let icnt = trace.icnt[t as usize];
                    let sites = trace.fault_bits[t as usize];
                    let slot = match tgroups.iter_mut().find(|g| g.icnt == icnt) {
                        Some(g) => g,
                        None => {
                            mismatched += 1;
                            tgroups
                                .iter_mut()
                                .min_by_key(|g| u64::from(g.icnt.abs_diff(icnt)))
                                .expect("representative CTA has at least one group")
                        }
                    };
                    slot.population += 1;
                    slot.site_population += sites;
                }
            }
            let sum_icnt: u64 = trace
                .cta_threads(rep_cta)
                .map(|t| u64::from(trace.icnt[t as usize]))
                .sum();
            groups.push(CtaGroup {
                // `per == 0` cannot happen after the no-threads assert, but
                // an empty trace must not divide by zero either way.
                mean_icnt_x1000: if per == 0 {
                    0
                } else {
                    sum_icnt * 1000 / u64::from(per)
                },
                ctas,
                representative_cta: rep_cta,
                thread_groups: tgroups,
            });
        }
        ThreadGrouping {
            groups,
            total_ctas: num_ctas,
            mismatched_threads: mismatched,
        }
    }

    /// All representative threads with their extrapolation totals.
    #[must_use]
    pub fn representatives(&self, trace: &KernelTrace) -> Vec<Representative> {
        let mut reps = Vec::new();
        for g in &self.groups {
            for tg in &g.thread_groups {
                reps.push(Representative {
                    tid: tg.representative,
                    own_sites: trace.fault_bits[tg.representative as usize],
                    covered_sites: tg.site_population,
                    covered_threads: tg.population,
                });
            }
        }
        reps
    }

    /// Number of representative threads (injection targets after stage 1).
    #[must_use]
    pub fn num_representatives(&self) -> usize {
        self.groups.iter().map(|g| g.thread_groups.len()).sum()
    }

    /// Fault sites that remain after thread-wise pruning: the sum of the
    /// representatives' own sites.
    #[must_use]
    pub fn pruned_site_count(&self, trace: &KernelTrace) -> u64 {
        self.representatives(trace)
            .iter()
            .map(|r| r.own_sites)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::assemble;
    use fsp_sim::{Launch, MemBlock, Simulator, Tracer};

    /// Kernel with iCnt diversity: even tids run a longer path, and CTA 0
    /// behaves differently from the rest (ctaid-dependent branch).
    fn diverse_trace() -> KernelTrace {
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            cvt.u32.u16 $r2, %ctaid.x
            and.b32 $r3, $r1, 0x1
            set.eq.u32.u32 $p0/$o127, $r3, $r124
            @$p0.eq bra odd                     // odd threads skip the block
            add.u32 $r4, $r4, 0x1
            add.u32 $r4, $r4, 0x2
            add.u32 $r4, $r4, 0x3
            odd:
            set.eq.u32.u32 $p1/$o127, $r2, $r124
            @$p1.ne bra cta0                    // CTA 0 runs an extra block
            bra done
            cta0:
            add.u32 $r5, $r5, 0x1
            add.u32 $r5, $r5, 0x2
            done:
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p).grid(4, 1).block(8, 1, 1);
        let mut tracer = Tracer::new(launch.num_threads(), launch.threads_per_cta());
        let mut g = MemBlock::with_words(16);
        Simulator::new().run(&launch, &mut g, &mut tracer).unwrap();
        tracer.finish()
    }

    #[test]
    fn groups_ctas_by_mean_icnt() {
        let trace = diverse_trace();
        let grouping = ThreadGrouping::analyze(&trace);
        // CTA 0 differs from CTAs 1..3.
        assert_eq!(grouping.groups.len(), 2);
        assert_eq!(grouping.groups[0].ctas, vec![0]);
        assert_eq!(grouping.groups[1].ctas, vec![1, 2, 3]);
        assert_eq!(grouping.mismatched_threads, 0);
    }

    #[test]
    fn thread_groups_by_exact_icnt() {
        let trace = diverse_trace();
        let grouping = ThreadGrouping::analyze(&trace);
        for g in &grouping.groups {
            // Even vs odd threads -> two thread groups per CTA group.
            assert_eq!(g.thread_groups.len(), 2, "group {g:?}");
            // Within the rep CTA, 4 even + 4 odd members.
            assert!(g.thread_groups.iter().all(|tg| tg.members.len() == 4));
        }
        // Group covering CTAs 1..3 has population 12 per thread group.
        let big = &grouping.groups[1];
        assert!(big.thread_groups.iter().all(|tg| tg.population == 12));
    }

    #[test]
    fn weights_conserve_population() {
        let trace = diverse_trace();
        let grouping = ThreadGrouping::analyze(&trace);
        let reps = grouping.representatives(&trace);
        let covered: u64 = reps.iter().map(|r| r.covered_sites).sum();
        assert_eq!(covered, trace.total_fault_sites());
        let threads: u64 = reps.iter().map(|r| r.covered_threads).sum();
        assert_eq!(threads, u64::from(trace.num_threads()));
    }

    #[test]
    fn pruning_reduces_sites() {
        let trace = diverse_trace();
        let grouping = ThreadGrouping::analyze(&trace);
        let pruned = grouping.pruned_site_count(&trace);
        assert!(pruned < trace.total_fault_sites());
        assert_eq!(grouping.num_representatives(), 4);
    }

    #[test]
    fn distribution_key_is_at_least_as_fine() {
        let trace = diverse_trace();
        let by_mean = ThreadGrouping::analyze_with(&trace, CtaKey::MeanIcnt);
        let by_dist = ThreadGrouping::analyze_with(&trace, CtaKey::Distribution);
        assert!(by_dist.groups.len() >= by_mean.groups.len());
    }

    #[test]
    fn degenerate_group_accessors_return_zero() {
        // A group that covers nothing (e.g. deserialized from a truncated
        // report) must not divide by zero in its accessors.
        let empty = CtaGroup {
            mean_icnt_x1000: 0,
            ctas: Vec::new(),
            representative_cta: 0,
            thread_groups: Vec::new(),
        };
        assert_eq!(empty.mean_icnt(), 0.0);
        assert_eq!(empty.cta_proportion(0), 0.0);
        assert_eq!(empty.cta_proportion(4), 0.0);
        let one = CtaGroup {
            mean_icnt_x1000: 1500,
            ctas: vec![0],
            representative_cta: 0,
            thread_groups: Vec::new(),
        };
        assert_eq!(one.cta_proportion(0), 0.0, "zero-CTA launch stays finite");
        assert!((one.mean_icnt() - 1.5).abs() < 1e-12);
    }
}
