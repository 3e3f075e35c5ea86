//! Experiment drivers behind the `fsp` binary.
//!
//! Each table and figure of the paper's evaluation has a driver here that
//! regenerates it (on this repository's simulator substrate — see
//! `EXPERIMENTS.md` for the paper-vs-measured record):
//!
//! | Driver | Paper artifact |
//! |---|---|
//! | [`tables::table1`] | Table I — exhaustive fault-site counts |
//! | [`tables::table2`] | Table II — statistical sample sizes (GEMM) |
//! | [`tables::table3`] | Table III — 2DCONV CTA/thread groups |
//! | [`tables::table4`] | Table IV — HotSpot CTA/thread groups |
//! | [`tables::table5`] | Table V — PathFinder common-block outcomes |
//! | [`tables::table6`] | Table VI — instruction-wise pruning accuracy |
//! | [`tables::table7`] | Table VII — loop statistics |
//! | [`figures::fig2`] | Fig. 2 — CTA grouping by injection outcomes |
//! | [`figures::fig3`] | Fig. 3 — CTA grouping by iCnt |
//! | [`figures::fig4`] | Fig. 4 — thread grouping inside one CTA |
//! | [`figures::fig5`] | Fig. 5 — PathFinder trace alignment |
//! | [`figures::fig6`] | Fig. 6 — loop-iteration sampling convergence |
//! | [`figures::fig7`] | Fig. 7 — outcomes by bit-position section |
//! | [`figures::fig8`] | Fig. 8 — outcomes by sampled-bit count |
//! | [`figures::fig9`] | Fig. 9 — pruned vs baseline profiles |
//! | [`figures::fig10`] | Fig. 10 — per-stage fault-site reduction |
//!
//! Beyond the paper's artifacts, the binary also exposes the static
//! analyses of `fsp-analyze`: `fsp lint [kernel]` (kernel linter) and
//! `fsp ace <kernel>` (per-instruction static ACE classification).

pub mod extensions;
pub mod figures;
pub mod output;
pub mod tables;

/// Shared driver options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Worker threads for injection campaigns.
    pub workers: usize,
    /// Reduced statistical baseline (quick mode) instead of the paper's
    /// 60K-run ground truth.
    pub quick: bool,
    /// RNG seed for baselines and sampling.
    pub seed: u64,
    /// Lane budget for batched multi-lane injection (clamped to
    /// `1..=fsp_inject::MAX_BATCH`; 1 disables batching).
    pub batch: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            quick: false,
            seed: 0xF5EED,
            batch: fsp_inject::MAX_BATCH,
        }
    }
}

impl Options {
    /// The (confidence, error margin) pair the baselines target: the
    /// paper's (99.8%, ±0.63%), or (99%, ±1.66%) in quick mode.
    #[must_use]
    pub fn stat_pair(&self) -> (f64, f64) {
        if self.quick {
            (0.99, 0.0166)
        } else {
            (0.998, 0.0063)
        }
    }

    /// The statistical-baseline sample count: the paper's 60K (99.8% CI,
    /// ±0.63%), or ~6K in quick mode (99% CI, ±1.66%).
    #[must_use]
    pub fn baseline_samples(&self) -> usize {
        let (confidence, margin) = self.stat_pair();
        fsp_stats::required_samples_infinite(confidence, margin) as usize
    }
}
