//! Stage 3 — loop-wise pruning (Section III-D).
//!
//! Most dynamic instructions of loopy kernels come from loop iterations
//! (65–99.7%, Table VII), and the evaluated kernels' iterations neither
//! depend on loop-carried register state in a resilience-relevant way nor
//! communicate across iterations — so a random subset of iterations
//! captures the outcome distribution (Figure 6). This module tags each
//! dynamic instruction of a thread trace with its innermost loop and
//! iteration number, and samples iterations to keep.

use fsp_isa::LoopForest;
use fsp_sim::ThreadTrace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Loop membership of one dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopTag {
    /// Static loop id (index into the [`LoopForest`]).
    pub loop_id: u32,
    /// 0-based iteration of that loop at the time of execution.
    pub iteration: u32,
}

/// Per-thread dynamic loop analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopTagging {
    /// Tag per dynamic instruction (`None` = not inside any loop), parallel
    /// to the trace entries.
    pub tags: Vec<Option<LoopTag>>,
    /// Observed trip count per loop id: the maximum iterations of a single
    /// entry into the loop (0 for loops this thread never entered). This is
    /// the population iteration-sampling draws from.
    pub trip_counts: Vec<u32>,
    /// Total dynamic iterations per loop id across all entries — for a
    /// nested loop entered five times with 34 iterations each this is 170.
    /// Table VII's "# loop iter." reports the per-thread maximum of this.
    pub total_iterations: Vec<u64>,
}

impl LoopTagging {
    /// Tags a thread trace against the program's loop forest.
    ///
    /// Iteration counting: executing a loop's header via its back edge
    /// increments the iteration; entering from outside resets it to zero.
    #[must_use]
    pub fn analyze(trace: &ThreadTrace, forest: &LoopForest) -> Self {
        let n_loops = forest.loops.len();
        let mut iter = vec![0u32; n_loops];
        let mut trip = vec![0u32; n_loops];
        let mut total = vec![0u64; n_loops];
        let mut tags = Vec::with_capacity(trace.entries.len());
        let mut prev_pc: Option<usize> = None;

        for entry in &trace.entries {
            let pc = entry.pc as usize;
            for l in &forest.loops {
                if pc == l.header {
                    let from_latch = prev_pc.is_some_and(|p| l.latches.contains(&p));
                    if from_latch {
                        iter[l.id] += 1;
                        total[l.id] += 1;
                    } else if prev_pc.is_none_or(|p| !l.contains(p)) {
                        iter[l.id] = 0;
                        total[l.id] += 1;
                    }
                    trip[l.id] = trip[l.id].max(iter[l.id] + 1);
                }
            }
            let tag = forest.innermost(pc).map(|l| LoopTag {
                loop_id: l.id as u32,
                iteration: iter[l.id],
            });
            tags.push(tag);
            prev_pc = Some(pc);
        }
        LoopTagging {
            tags,
            trip_counts: trip,
            total_iterations: total,
        }
    }

    /// Number of dynamic instructions inside loops.
    #[must_use]
    pub fn instructions_in_loops(&self) -> usize {
        self.tags.iter().filter(|t| t.is_some()).count()
    }

    /// Fraction of dynamic instructions inside loops (Table VII's
    /// "% insn in loop").
    #[must_use]
    pub fn loop_fraction(&self) -> f64 {
        if self.tags.is_empty() {
            0.0
        } else {
            self.instructions_in_loops() as f64 / self.tags.len() as f64
        }
    }

    /// Largest single-entry trip count across loops.
    #[must_use]
    pub fn max_trip_count(&self) -> u32 {
        self.trip_counts.iter().copied().max().unwrap_or(0)
    }

    /// Largest *total* dynamic iteration count across loops — Table VII's
    /// "# loop iter." (e.g. 170 for K-Means K2: 5 clusters × 34 features).
    #[must_use]
    pub fn max_total_iterations(&self) -> u64 {
        self.total_iterations.iter().copied().max().unwrap_or(0)
    }

    /// Randomly selects up to `num_iter` iterations *per loop* to keep
    /// (seeded, deterministic). Returns, per loop id, the sorted kept
    /// iteration numbers; loops with trip count `<= num_iter` keep all.
    #[must_use]
    pub fn sample_iterations(&self, num_iter: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.trip_counts
            .iter()
            .map(|&trip| {
                let all: Vec<u32> = (0..trip).collect();
                if all.len() <= num_iter {
                    return all;
                }
                let mut chosen: Vec<u32> =
                    all.choose_multiple(&mut rng, num_iter).copied().collect();
                chosen.sort_unstable();
                chosen
            })
            .collect()
    }

    /// Whether the dynamic instruction at `idx` survives the given
    /// iteration selection.
    #[must_use]
    pub fn survives(&self, idx: usize, kept: &[Vec<u32>]) -> bool {
        match self.tags[idx] {
            None => true,
            Some(tag) => kept[tag.loop_id as usize]
                .binary_search(&tag.iteration)
                .is_ok(),
        }
    }
}

/// Per-kernel loop statistics for Table VII.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopStats {
    /// Maximum total dynamic iterations across loops and analyzed threads
    /// (Table VII's "# loop iter.").
    pub max_iterations: u64,
    /// Maximum single-entry trip count across loops and analyzed threads.
    pub max_trip: u32,
    /// Fraction of dynamic instructions inside loops, over the analyzed
    /// threads.
    pub loop_fraction: f64,
}

impl LoopStats {
    /// Aggregates loop statistics over several threads' taggings.
    #[must_use]
    pub fn aggregate(taggings: &[LoopTagging]) -> Self {
        let max_iterations = taggings
            .iter()
            .map(LoopTagging::max_total_iterations)
            .max()
            .unwrap_or(0);
        let max_trip = taggings
            .iter()
            .map(LoopTagging::max_trip_count)
            .max()
            .unwrap_or(0);
        let total: usize = taggings.iter().map(|t| t.tags.len()).sum();
        let inside: usize = taggings
            .iter()
            .map(LoopTagging::instructions_in_loops)
            .sum();
        LoopStats {
            max_iterations,
            max_trip,
            loop_fraction: if total == 0 {
                0.0
            } else {
                inside as f64 / total as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::assemble;
    use fsp_sim::{Launch, MemBlock, Simulator, Tracer};

    fn traced(src: &str) -> (fsp_isa::KernelProgram, ThreadTrace) {
        let p = assemble("t", src).unwrap();
        let launch = Launch::new(p.clone()).grid(1, 1).block(1, 1, 1);
        let mut tracer = Tracer::new(1, 1).with_full_traces([0]);
        let mut g = MemBlock::with_words(16);
        Simulator::new().run(&launch, &mut g, &mut tracer).unwrap();
        let trace = tracer.finish().full.remove(0).unwrap();
        (p, trace)
    }

    const LOOP_SRC: &str = r#"
        mov.u32 $r1, 0x0
        loop:
        add.u32 $r2, $r2, $r1
        add.u32 $r1, $r1, 0x1
        set.ne.u32.u32 $p0/$o127, $r1, 0x8
        @$p0.ne bra loop
        exit
    "#;

    #[test]
    fn tags_iterations() {
        let (p, trace) = traced(LOOP_SRC);
        let forest = p.cfg().loops(&p);
        let tagging = LoopTagging::analyze(&trace, &forest);
        assert_eq!(tagging.trip_counts, vec![8]);
        assert_eq!(tagging.max_trip_count(), 8);
        // mov outside; 7 full iterations of 4 instructions plus a final
        // iteration of 3 (the exit-side guarded branch does not retire);
        // exit outside.
        assert_eq!(tagging.instructions_in_loops(), 31);
        assert_eq!(tagging.tags.len(), 33);
        assert_eq!(tagging.tags[0], None);
        assert_eq!(
            tagging.tags[1],
            Some(LoopTag {
                loop_id: 0,
                iteration: 0
            })
        );
        assert_eq!(
            tagging.tags[5],
            Some(LoopTag {
                loop_id: 0,
                iteration: 1
            })
        );
        assert_eq!(*tagging.tags.last().unwrap(), None);
        assert!((tagging.loop_fraction() - 31.0 / 33.0).abs() < 1e-12);
    }

    #[test]
    fn nested_loop_iterations_reset() {
        let (p, trace) = traced(
            r#"
            mov.u32 $r1, 0x0
            outer:
            mov.u32 $r2, 0x0
            inner:
            add.u32 $r3, $r3, 0x1
            add.u32 $r2, $r2, 0x1
            set.ne.u32.u32 $p0/$o127, $r2, 0x3
            @$p0.ne bra inner
            add.u32 $r1, $r1, 0x1
            set.ne.u32.u32 $p0/$o127, $r1, 0x2
            @$p0.ne bra outer
            exit
            "#,
        );
        let forest = p.cfg().loops(&p);
        let tagging = LoopTagging::analyze(&trace, &forest);
        // Outer loop id 0 (bigger body), inner id 1.
        assert_eq!(tagging.trip_counts[0], 2);
        assert_eq!(
            tagging.trip_counts[1], 3,
            "inner trip resets per outer iter"
        );
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let (p, trace) = traced(LOOP_SRC);
        let forest = p.cfg().loops(&p);
        let tagging = LoopTagging::analyze(&trace, &forest);
        let a = tagging.sample_iterations(3, 42);
        let b = tagging.sample_iterations(3, 42);
        assert_eq!(a, b);
        assert_eq!(a[0].len(), 3);
        assert!(a[0].windows(2).all(|w| w[0] < w[1]));
        assert!(a[0].iter().all(|&i| i < 8));
        // Oversampling keeps everything.
        let all = tagging.sample_iterations(100, 1);
        assert_eq!(all[0], (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn survives_filters_unsampled_iterations() {
        let (p, trace) = traced(LOOP_SRC);
        let forest = p.cfg().loops(&p);
        let tagging = LoopTagging::analyze(&trace, &forest);
        let kept = vec![vec![0, 7]];
        // Non-loop instructions always survive.
        assert!(tagging.survives(0, &kept));
        assert!(tagging.survives(32, &kept));
        // Iteration 0 survives, iteration 1 does not.
        assert!(tagging.survives(1, &kept));
        assert!(!tagging.survives(5, &kept));
        let survivors = (0..tagging.tags.len())
            .filter(|&i| tagging.survives(i, &kept))
            .count();
        // mov + exit, iteration 0 (4 instructions) and the final iteration
        // 7 (3 instructions — its guarded back-branch never retires).
        assert_eq!(survivors, 2 + 4 + 3);
    }

    #[test]
    fn stats_aggregate() {
        let (p, trace) = traced(LOOP_SRC);
        let forest = p.cfg().loops(&p);
        let t1 = LoopTagging::analyze(&trace, &forest);
        let stats = LoopStats::aggregate(&[t1.clone(), t1]);
        assert_eq!(stats.max_iterations, 8);
        assert!((stats.loop_fraction - 31.0 / 33.0).abs() < 1e-12);
    }
}
