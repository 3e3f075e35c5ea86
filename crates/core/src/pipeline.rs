//! The progressive pruning pipeline (Section III, Figure 1), extended with
//! a static Stage 0 (ACE analysis, see [`fsp_analyze::ace`]).

use fsp_analyze::{AbsContext, AceSummary, ClassifyReport, ClassifySummary, StaticAceReport};
use fsp_inject::{Experiment, FaultSite, InjectionTarget, SiteSpace, WeightedSite};
use fsp_isa::KernelProgram;
use fsp_sim::{KernelTrace, SimFault, LOCAL_WORDS};
use fsp_stats::{Outcome, ResilienceProfile};

use crate::bits::BitSampler;
use crate::commonality::{Commonality, CommonalityConfig, RepRole};
use crate::grouping::{CtaKey, ThreadGrouping};
use crate::loops::{LoopStats, LoopTagging};

/// Configuration of the four pruning stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruningConfig {
    /// Stage 0: static ACE pruning. Destination bits the dataflow analysis
    /// proves can never reach kernel output are accounted masked without
    /// injection, before any dynamic stage runs.
    pub static_ace: bool,
    /// Abstract-interpretation classification (see [`fsp_analyze::absint`]):
    /// bits whose flip provably crashes or traps are recorded as predicted
    /// DUEs without injection, and static equivalence classes inject one
    /// representative carrying the class weight. Requires launch context,
    /// so it only takes effect through [`PruningPipeline::plan_for`] or an
    /// explicit [`PruningPipeline::plan_classified`] call.
    pub absint: bool,
    /// CTA classifier for thread-wise pruning.
    pub cta_key: CtaKey,
    /// Instruction-wise pruning; `None` disables the stage.
    pub commonality: Option<CommonalityConfig>,
    /// Loop iterations sampled per loop; `0` disables the stage. The paper
    /// needs 3–15 across kernels, averaging 7.22.
    pub loop_samples: usize,
    /// Seed for the loop-iteration sampler.
    pub loop_seed: u64,
    /// Bit-position sampler.
    pub bits: BitSampler,
}

impl Default for PruningConfig {
    fn default() -> Self {
        PruningConfig {
            static_ace: true,
            absint: true,
            cta_key: CtaKey::MeanIcnt,
            commonality: Some(CommonalityConfig::default()),
            loop_samples: 7,
            loop_seed: 0x5EED,
            bits: BitSampler::default(),
        }
    }
}

impl PruningConfig {
    /// A configuration with every stage other than thread-wise pruning
    /// disabled (used by ablations and by the stage-by-stage accounting of
    /// Fig. 10): no static ACE filtering, no commonality, no loop sampling,
    /// exhaustive bits.
    #[must_use]
    pub fn thread_wise_only() -> Self {
        PruningConfig {
            static_ace: false,
            absint: false,
            cta_key: CtaKey::MeanIcnt,
            commonality: None,
            loop_samples: 0,
            loop_seed: 0,
            bits: BitSampler::exhaustive(),
        }
    }
}

/// Fault sites remaining after each progressive stage (the bars of
/// Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCounts {
    /// Equation (1): the exhaustive population.
    pub exhaustive: u64,
    /// After static ACE pruning (Stage 0); equals `exhaustive` when the
    /// stage is disabled. Estimated over the whole population by weighting
    /// each representative's statically-dead bits.
    pub after_static: u64,
    /// After the abstract-interpretation stage (predicted-DUE bits and
    /// equivalence-class members removed); equals `after_static` when the
    /// stage is disabled. Whole-population estimate like `after_static`.
    pub after_absint: u64,
    /// After thread-wise pruning (statically-dead bits of the
    /// representatives excluded when Stage 0 is enabled).
    pub after_thread: u64,
    /// After instruction-wise pruning.
    pub after_instruction: u64,
    /// After loop-wise pruning.
    pub after_loop: u64,
    /// After bit-wise pruning — the number of injection runs actually
    /// performed.
    pub after_bit: u64,
}

impl StageCounts {
    /// Orders of magnitude of total reduction.
    #[must_use]
    pub fn reduction_orders(&self) -> f64 {
        if self.after_bit == 0 {
            0.0
        } else {
            (self.exhaustive as f64 / self.after_bit as f64).log10()
        }
    }
}

/// The pruned campaign: weighted sites plus the bits accounted masked
/// without injection.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningPlan {
    /// Sites to inject, with extrapolation weights.
    pub sites: Vec<WeightedSite>,
    /// Exhaustive-site weight declared masked without running (inert
    /// predicate flag bits).
    pub assumed_masked_weight: f64,
    /// Per-stage accounting.
    pub stages: StageCounts,
    /// The thread grouping behind stage 1.
    pub grouping: ThreadGrouping,
    /// The commonality analysis behind stage 2 (when enabled and >1 rep).
    pub commonality: Option<Commonality>,
    /// Loop statistics of the representative threads (Table VII).
    pub loop_stats: LoopStats,
    /// Static ACE summary behind Stage 0 (when enabled).
    pub static_ace: Option<AceSummary>,
    /// Exhaustive-site weight statically predicted to crash (provable
    /// OOB / misaligned access under the flip) and skipped by injection.
    pub predicted_crash_weight: f64,
    /// Exhaustive-site weight statically predicted Detected (always-taken
    /// trap guard under the flip) and skipped by injection.
    pub predicted_detected_weight: f64,
    /// Weight of equivalence-class member bits folded onto their class
    /// representatives (injected once, extrapolated).
    pub class_redistributed_weight: f64,
    /// Abstract-interpretation classification summary (when enabled).
    pub classify: Option<ClassifySummary>,
}

impl PruningPlan {
    /// Total exhaustive weight accounted by the plan: injected weights
    /// (class-member weight rides on its representative's site) plus
    /// assumed-masked and predicted-DUE weight. Equals `stages.exhaustive`
    /// by construction (weight conservation).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.sites.iter().map(|s| s.weight).sum::<f64>()
            + self.assumed_masked_weight
            + self.predicted_crash_weight
            + self.predicted_detected_weight
    }

    /// Weight skipped by the abstract-interpretation stage (predicted DUEs
    /// plus class members), as a fraction of the exhaustive population.
    #[must_use]
    pub fn static_skip_fraction(&self) -> f64 {
        if self.stages.exhaustive == 0 {
            return 0.0;
        }
        (self.predicted_crash_weight
            + self.predicted_detected_weight
            + self.class_redistributed_weight)
            / self.stages.exhaustive as f64
    }
}

/// The four-stage progressive pruner.
#[derive(Debug, Clone, Copy, Default)]
pub struct PruningPipeline {
    config: PruningConfig,
}

impl PruningPipeline {
    /// Creates a pipeline with the given configuration.
    #[must_use]
    pub fn new(config: PruningConfig) -> Self {
        PruningPipeline { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PruningConfig {
        &self.config
    }

    /// Plans a pruned campaign for a prepared experiment from the golden
    /// trace [`Experiment::prepare`] recorded, in one pass.
    ///
    /// # Errors
    ///
    /// None: planning reads the trace `prepare` recorded and runs nothing,
    /// so no error arm is reachable.
    pub fn plan_for<T: InjectionTarget>(
        &self,
        experiment: &Experiment<'_, T>,
    ) -> Result<PruningPlan, SimFault> {
        let launch = experiment.target().launch();
        let space = experiment.site_space(std::iter::empty());
        let classify = self.config.absint.then(|| {
            ClassifyReport::analyze(launch.program(), &abs_context_for(experiment.target()))
        });
        Ok(self.plan_classified(launch.program(), space.trace(), classify.as_ref()))
    }

    /// Builds a plan from a program and a trace that contains full traces
    /// for every representative thread, without the launch-context-aware
    /// abstract-interpretation stage (equivalent to
    /// [`PruningPipeline::plan_classified`] with no report).
    ///
    /// # Panics
    ///
    /// Panics if a representative thread lacks a full trace.
    #[must_use]
    pub fn plan(&self, program: &KernelProgram, trace: &KernelTrace) -> PruningPlan {
        self.plan_classified(program, trace, None)
    }

    /// Builds a plan from a program, a trace with full traces for every
    /// representative thread, and an optional abstract-interpretation
    /// classification (predicted-DUE sites are skipped and recorded as
    /// predicted weight; equivalence-class members fold their weight onto
    /// their representative's site).
    ///
    /// # Panics
    ///
    /// Panics if a representative thread lacks a full trace.
    #[must_use]
    pub fn plan_classified(
        &self,
        program: &KernelProgram,
        trace: &KernelTrace,
        classify: Option<&ClassifyReport>,
    ) -> PruningPlan {
        let grouping = ThreadGrouping::analyze_with(trace, self.config.cta_key);
        let reps = grouping.representatives(trace);
        let exhaustive = trace.total_fault_sites();

        let rep_traces: Vec<&fsp_sim::ThreadTrace> = reps
            .iter()
            .map(|r| {
                trace
                    .full
                    .get(r.tid)
                    .unwrap_or_else(|| panic!("representative {} lacks a full trace", r.tid))
            })
            .collect();

        // Stage 0: static ACE pruning. Statically-dead destination bits are
        // excluded from every downstream stage count and never injected
        // (stage 4 folds their weight into the assumed-masked total).
        let static_report = if self.config.static_ace {
            Some(StaticAceReport::analyze(program))
        } else {
            None
        };
        let dead_at = |pc: u32| -> u64 {
            static_report
                .as_ref()
                .map_or(0, |r| u64::from(r.dead_bits_at(pc as usize)))
        };
        // Statically skipped bits per pc: ACE-dead plus absint-predicted
        // plus class members (all three verdict spaces are disjoint).
        let pruned_at = |pc: u32| -> u64 {
            let mut n = dead_at(pc);
            if let Some(c) = classify {
                let pc = pc as usize;
                n += u64::from(
                    c.crash_bits_at(pc) + c.detected_bits_at(pc) + c.class_pruned_bits_at(pc),
                );
            }
            n
        };
        let rep_dead: Vec<u64> = rep_traces
            .iter()
            .map(|t| t.entries.iter().map(|e| dead_at(e.pc)).sum())
            .collect();
        let rep_pruned: Vec<u64> = rep_traces
            .iter()
            .map(|t| t.entries.iter().map(|e| pruned_at(e.pc)).sum())
            .collect();
        let after_thread: u64 = reps
            .iter()
            .zip(&rep_pruned)
            .map(|(r, &d)| r.own_sites - d)
            .sum();
        // Whole-population estimates: each representative's statically
        // skipped bits stand for its covered threads, exactly like its
        // injected sites do.
        let population = |skipped: &[u64], floor: u64| -> u64 {
            let live: f64 = reps
                .iter()
                .zip(skipped)
                .map(|(r, &d)| r.site_weight() * (r.own_sites - d) as f64)
                .sum();
            (live.round() as u64).clamp(floor, exhaustive)
        };
        let after_static = if static_report.is_some() {
            population(&rep_dead, after_thread)
        } else {
            exhaustive
        };
        let after_absint = if classify.is_some() {
            population(&rep_pruned, after_thread).min(after_static)
        } else {
            after_static
        };

        // Per-representative, per-dynamic-instruction site weight. `None`
        // marks a pruned instruction.
        let mut weights: Vec<Vec<Option<f64>>> = reps
            .iter()
            .zip(&rep_traces)
            .map(|(r, t)| vec![Some(r.site_weight()); t.entries.len()])
            .collect();

        // Stage 2: instruction-wise pruning.
        let commonality = match &self.config.commonality {
            Some(cfg) if reps.len() > 1 => Some(Commonality::analyze(&rep_traces, cfg)),
            _ => None,
        };
        if let Some(c) = &commonality {
            for (rep_idx, role) in c.roles.iter().enumerate() {
                let RepRole::Pruned { matches } = role else {
                    continue;
                };
                let scale = reps[rep_idx].site_weight();
                for &(own, reference) in matches {
                    // Move this instruction's weight onto its reference
                    // partner (same pc and width, so per-site addition is
                    // exact).
                    weights[rep_idx][own as usize] = None;
                    if let Some(w) = &mut weights[c.reference][reference as usize] {
                        *w += scale;
                    }
                }
            }
        }
        let count_bits = |weights: &[Vec<Option<f64>>]| -> u64 {
            weights
                .iter()
                .zip(&rep_traces)
                .map(|(ws, t)| {
                    ws.iter()
                        .zip(&t.entries)
                        .filter(|(w, _)| w.is_some())
                        .map(|(_, e)| u64::from(e.dest_bits) - pruned_at(e.pc))
                        .sum::<u64>()
                })
                .sum()
        };
        let after_instruction = count_bits(&weights);

        // Stage 3: loop-wise pruning.
        let forest = program.cfg().loops(program);
        let taggings: Vec<LoopTagging> = rep_traces
            .iter()
            .map(|t| LoopTagging::analyze(t, &forest))
            .collect();
        let loop_stats = LoopStats::aggregate(&taggings);
        if self.config.loop_samples > 0 && !forest.is_empty() {
            for (rep_idx, tagging) in taggings.iter().enumerate() {
                let kept = tagging.sample_iterations(
                    self.config.loop_samples,
                    self.config.loop_seed.wrapping_add(rep_idx as u64),
                );
                // Weighted-bit totals per loop, over instructions that
                // survived stage 2.
                let n_loops = tagging.trip_counts.len();
                let mut total_wb = vec![0.0f64; n_loops];
                let mut sampled_wb = vec![0.0f64; n_loops];
                for (i, tag) in tagging.tags.iter().enumerate() {
                    let (Some(tag), Some(w)) = (tag, weights[rep_idx][i]) else {
                        continue;
                    };
                    let wb = w * f64::from(rep_traces[rep_idx].entries[i].dest_bits);
                    total_wb[tag.loop_id as usize] += wb;
                    if tagging.survives(i, &kept) {
                        sampled_wb[tag.loop_id as usize] += wb;
                    }
                }
                for (i, tag) in tagging.tags.iter().enumerate() {
                    let Some(tag) = tag else { continue };
                    if weights[rep_idx][i].is_none() {
                        continue;
                    }
                    let l = tag.loop_id as usize;
                    if sampled_wb[l] == 0.0 {
                        // Degenerate selection: keep the loop unpruned.
                        continue;
                    }
                    if tagging.survives(i, &kept) {
                        let scale = total_wb[l] / sampled_wb[l];
                        if let Some(w) = &mut weights[rep_idx][i] {
                            *w *= scale;
                        }
                    } else {
                        weights[rep_idx][i] = None;
                    }
                }
            }
        }
        let after_loop = count_bits(&weights);

        // Stage 4: bit-wise pruning, composed with the static verdicts:
        // dead bits are assumed masked, predicted bits move to the
        // predicted-DUE pools, class members ride on their representative.
        let mut sites = Vec::new();
        let mut assumed_masked_weight = 0.0f64;
        let mut predicted_crash_weight = 0.0f64;
        let mut predicted_detected_weight = 0.0f64;
        let mut class_redistributed_weight = 0.0f64;
        for (rep_idx, rep) in reps.iter().enumerate() {
            for (i, entry) in rep_traces[rep_idx].entries.iter().enumerate() {
                let Some(w) = weights[rep_idx][i] else {
                    continue;
                };
                let pc = entry.pc as usize;
                let instr = program.instr(pc);
                let dead_masks = static_report
                    .as_ref()
                    .map(|r| r.slot_dead_masks(pc))
                    .unwrap_or_default();
                let cls = classify.map(|c| c.slots(pc)).unwrap_or(&[]);
                // The bit selector treats every statically-skipped bit as
                // "dead"; the weight split between masked / predicted /
                // class pools happens below.
                let mut skip_masks = dead_masks.clone();
                skip_masks.resize(skip_masks.len().max(cls.len()), 0);
                for (m, s) in skip_masks.iter_mut().zip(cls) {
                    *m |= s.predicted_mask() | s.class_mask;
                }
                let mut offset = 0u32;
                for (slot_idx, sel) in self
                    .config
                    .bits
                    .select_instruction_masked(instr, &skip_masks)
                    .iter()
                    .enumerate()
                {
                    let (crash, detected, class_mask, rep_bit) = cls
                        .get(slot_idx)
                        .map(|s| {
                            let flat_rep = s.class_rep.map(|r| r + offset);
                            offset += s.width;
                            (s.crash_mask, s.detected_mask, s.class_mask, flat_rep)
                        })
                        .unwrap_or((0, 0, 0, None));
                    predicted_crash_weight += w * f64::from(crash.count_ones());
                    predicted_detected_weight += w * f64::from(detected.count_ones());
                    let members = class_mask.count_ones();
                    class_redistributed_weight += w * f64::from(members);
                    // `assumed_masked_bits` counted every skipped bit (plus
                    // policy-masked predicate flags); carve out the
                    // predicted and class bits accounted above.
                    let masked =
                        sel.assumed_masked_bits - (crash | detected).count_ones() - members;
                    assumed_masked_weight += w * f64::from(masked);
                    let mut rep_injected = false;
                    for &bit in &sel.bits {
                        let mut weight = w * sel.weight_per_bit;
                        if rep_bit == Some(bit) {
                            // The representative carries its class members'
                            // weight: all members provably share its
                            // outcome per dynamic instance.
                            weight += w * f64::from(members);
                            rep_injected = true;
                        }
                        sites.push(WeightedSite {
                            site: FaultSite {
                                tid: rep.tid,
                                dyn_idx: i as u32,
                                bit,
                            },
                            weight,
                        });
                    }
                    if let (Some(bit), false, true) = (rep_bit, rep_injected, members > 0) {
                        // Bit sampling skipped the representative: inject
                        // it anyway so the class weight lands on a run.
                        sites.push(WeightedSite {
                            site: FaultSite {
                                tid: rep.tid,
                                dyn_idx: i as u32,
                                bit,
                            },
                            weight: w * f64::from(members),
                        });
                    }
                }
            }
        }
        let stages = StageCounts {
            exhaustive,
            after_static,
            after_absint,
            after_thread,
            after_instruction,
            after_loop,
            after_bit: sites.len() as u64,
        };
        let plan = PruningPlan {
            sites,
            assumed_masked_weight,
            stages,
            grouping,
            commonality,
            loop_stats,
            static_ace: static_report.as_ref().map(StaticAceReport::summary),
            predicted_crash_weight,
            predicted_detected_weight,
            class_redistributed_weight,
            classify: classify.map(ClassifyReport::summary),
        };
        debug_assert!(
            (plan.total_weight() - exhaustive as f64).abs() <= 1e-6 * (exhaustive as f64).max(1.0),
            "weight conservation violated: {} vs {}",
            plan.total_weight(),
            exhaustive,
        );
        plan
    }

    /// Runs the plan as an injection campaign and returns the extrapolated
    /// resilience profile.
    #[must_use]
    pub fn run<T: InjectionTarget>(
        &self,
        experiment: &Experiment<'_, T>,
        plan: &PruningPlan,
        workers: usize,
    ) -> ResilienceProfile {
        let mut profile = experiment.run_campaign(&plan.sites, workers).profile;
        profile.record_weighted(Outcome::Masked, plan.assumed_masked_weight);
        // Predicted DUEs were never run; their statically-proven outcome
        // weight is folded in directly (weight conservation).
        if plan.predicted_crash_weight > 0.0 {
            profile.record_weighted(Outcome::CRASH, plan.predicted_crash_weight);
        }
        if plan.predicted_detected_weight > 0.0 {
            profile.record_weighted(Outcome::Detected, plan.predicted_detected_weight);
        }
        profile
    }
}

/// The abstract-interpretation context of a target's launch: grid and
/// block geometry, parameter values, and the sizes of the three memory
/// spaces the simulator enforces.
#[must_use]
pub fn abs_context_for<T: InjectionTarget>(target: &T) -> AbsContext {
    let launch = target.launch();
    AbsContext {
        block: launch.block_dim(),
        grid: launch.grid_dim(),
        params: launch.param_values().to_vec(),
        shared_bytes: launch.shared_size(),
        global_bytes: target.init_memory().len_bytes() as u32,
        local_bytes: (4 * LOCAL_WORDS) as u32,
    }
}

/// Runs the paper's statistical baseline: `n` uniformly sampled sites from
/// the exhaustive population (Section II-D).
#[must_use]
pub fn run_baseline<T: InjectionTarget>(
    experiment: &Experiment<'_, T>,
    space: &SiteSpace,
    n: usize,
    seed: u64,
    workers: usize,
) -> ResilienceProfile {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let sites: Vec<WeightedSite> = space
        .sample_many(n, &mut rng)
        .into_iter()
        .map(WeightedSite::from)
        .collect();
    experiment.run_campaign(&sites, workers).profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_inject::testing::CountdownTarget;

    fn plan_with(config: PruningConfig) -> (PruningPlan, ResilienceProfile, ResilienceProfile) {
        let target = CountdownTarget::new();
        let experiment = Experiment::prepare(&target).unwrap();
        let pipeline = PruningPipeline::new(config);
        let plan = pipeline.plan_for(&experiment).unwrap();
        let pruned = pipeline.run(&experiment, &plan, 4);
        // Exhaustive ground truth over the full site space.
        let space = experiment.site_space(0..CountdownTarget::THREADS);
        let all: Vec<WeightedSite> = (0..space.total_sites())
            .map(|i| WeightedSite::from(space.site_at(i)))
            .collect();
        let truth = experiment.run_campaign(&all, 4).profile;
        (plan, pruned, truth)
    }

    #[test]
    fn weight_conservation() {
        let (plan, _, _) = plan_with(PruningConfig::default());
        assert!(
            (plan.total_weight() - plan.stages.exhaustive as f64).abs() < 1e-6,
            "total weight {} != exhaustive {}",
            plan.total_weight(),
            plan.stages.exhaustive
        );
    }

    #[test]
    fn stages_monotonically_shrink() {
        let (plan, _, _) = plan_with(PruningConfig::default());
        let s = plan.stages;
        assert!(s.after_static <= s.exhaustive);
        assert!(s.after_absint <= s.after_static);
        assert!(s.after_thread <= s.after_absint);
        assert!(s.after_instruction <= s.after_thread);
        assert!(s.after_loop <= s.after_instruction);
        assert!(s.after_bit <= s.after_loop);
        assert!(s.after_bit > 0);
    }

    #[test]
    fn static_stage_preserves_accuracy() {
        // Exhaustive bit sampling isolates Stage 0: the two runs then
        // inject the *same* sites except for the statically-dead bits.
        let base = PruningConfig {
            bits: BitSampler::exhaustive(),
            ..PruningConfig::default()
        };
        let with = plan_with(PruningConfig {
            static_ace: true,
            ..base
        });
        let without = plan_with(PruningConfig {
            static_ace: false,
            ..base
        });
        assert!(with.0.static_ace.is_some());
        assert!(without.0.static_ace.is_none());
        assert_eq!(without.0.stages.after_static, without.0.stages.exhaustive);
        assert!(with.0.stages.after_bit <= without.0.stages.after_bit);
        // Dropping statically-dead bits must not move the profile: they
        // classify Masked under injection, which is exactly how Stage 0
        // accounts them.
        let diff = with.1.max_abs_diff(&without.1);
        assert!(
            diff < 1e-9,
            "static stage changed the profile by {diff:.4}%"
        );
    }

    #[test]
    fn absint_stage_preserves_profile() {
        // Exhaustive bit sampling isolates the absint stage: predicted
        // DUEs are claimed without running and class members ride their
        // representative, so any unsound verdict moves the profile.
        let base = PruningConfig {
            bits: BitSampler::exhaustive(),
            ..PruningConfig::default()
        };
        let with = plan_with(PruningConfig {
            absint: true,
            ..base
        });
        let without = plan_with(PruningConfig {
            absint: false,
            ..base
        });
        assert!(with.0.classify.is_some());
        assert!(without.0.classify.is_none());
        assert!(
            (with.0.total_weight() - with.0.stages.exhaustive as f64).abs() < 1e-6,
            "absint plan lost weight"
        );
        let diff = with.1.max_abs_diff(&without.1);
        assert!(
            diff < 1e-6,
            "absint stage changed the profile by {diff:.4}%"
        );
    }

    #[test]
    fn pruned_profile_tracks_exhaustive_truth() {
        let (plan, pruned, truth) = plan_with(PruningConfig::default());
        // The 4 countdown threads all have distinct iCnt, so thread-wise
        // pruning keeps all 4; the remaining stages sample. The pruned
        // profile must stay close to ground truth.
        assert!(plan.stages.after_bit < plan.stages.exhaustive);
        let diff = pruned.max_abs_diff(&truth);
        assert!(
            diff < 12.0,
            "pruned {pruned} deviates from truth {truth} by {diff:.2}%"
        );
    }

    #[test]
    fn thread_wise_only_is_exact_per_rep() {
        let (plan, pruned, truth) = plan_with(PruningConfig::thread_wise_only());
        assert_eq!(plan.stages.after_bit, plan.stages.after_thread);
        assert_eq!(plan.assumed_masked_weight, 0.0);
        // All four threads are their own representatives here, so the
        // "pruned" campaign IS the exhaustive campaign.
        assert!(pruned.max_abs_diff(&truth) < 1e-9);
    }

    #[test]
    fn baseline_sampler_is_seeded() {
        let target = CountdownTarget::new();
        let experiment = Experiment::prepare(&target).unwrap();
        let space = experiment.site_space(0..CountdownTarget::THREADS);
        let a = run_baseline(&experiment, &space, 64, 9, 2);
        let b = run_baseline(&experiment, &space, 64, 9, 4);
        assert_eq!(a.percentages(), b.percentages());
    }
}
