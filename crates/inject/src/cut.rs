//! The CTA-boundary cut: stop an injected run as soon as its remaining
//! CTAs provably replay the golden run.
//!
//! Under the serial schedule nothing but global memory crosses a CTA
//! boundary: the next CTA starts with fresh threads and freshly reset
//! shared memory. At the end of CTA `c` (at or after the faulty CTA), let
//! D be the global words where the injected run differs from the golden
//! image after `c`. If no CTA after `c` loads a word of D in the golden
//! run, then by induction over the remaining instructions every later CTA
//! loads golden values, computes golden values and stores them to golden
//! addresses: it replays the golden run exactly, retiring exactly the
//! golden suffix. So when the remaining budget covers that suffix the run
//! can stop at `c`, and its final output is the golden output except at
//! words of D that no later CTA stores: the run is `Sdc` iff such a word
//! lies in the output region, and `Masked` otherwise. When the budget
//! falls short the run would hang in the replayed suffix, so it must go on.

use fsp_sim::{GlobalWriteProfile, GoldenBoundaries, MemBlock};
use fsp_stats::Outcome;

/// How a run stopped at a CTA boundary ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cut {
    /// `Sdc` or `Masked`.
    pub(crate) outcome: Outcome,
    /// Every word of D is stored again by a later CTA: the run would have
    /// re-converged onto the golden state had it gone on.
    pub(crate) restored: bool,
}

/// Why the rule refused to cut at a boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// A later CTA loads a word of D.
    Reader,
    /// The remaining budget is below the golden suffix.
    Budget,
}

/// Process-wide cut counters for one kernel.
#[derive(Debug)]
pub(crate) struct CutMetrics {
    /// `fsp_inject_cta_cut_total{kernel, outcome="masked"|"sdc"}`.
    cut: [fsp_obs::Counter; 2],
    /// `fsp_inject_cta_cut_refused_total{kernel, reason="reader"|"budget"}`.
    refused: [fsp_obs::Counter; 2],
}

impl CutMetrics {
    /// The counters of the kernel named `kernel` (the program name, as
    /// `fsp_inject_hang_predicted_total` is labelled).
    pub(crate) fn new(kernel: &str) -> Self {
        let r = fsp_obs::registry();
        let cut = |outcome| {
            r.counter_labeled(
                "fsp_inject_cta_cut_total",
                &[("kernel", kernel), ("outcome", outcome)],
                "Fast-path injected runs stopped at a CTA boundary, by kernel and outcome.",
            )
        };
        let refused = |reason| {
            r.counter_labeled(
                "fsp_inject_cta_cut_refused_total",
                &[("kernel", kernel), ("reason", reason)],
                "CTA boundaries where the cut rule refused to stop a run, by kernel and reason.",
            )
        };
        CutMetrics {
            cut: [cut("masked"), cut("sdc")],
            refused: [refused("reader"), refused("budget")],
        }
    }

    /// Runs cut so far, process-wide.
    pub(crate) fn cuts(&self) -> u64 {
        self.cut.iter().map(fsp_obs::Counter::get).sum()
    }

    /// Boundaries refused so far, process-wide.
    pub(crate) fn refusals(&self) -> u64 {
        self.refused.iter().map(fsp_obs::Counter::get).sum()
    }
}

/// The golden facts the rule reads, for one prepared experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CtaCut<'a> {
    boundaries: &'a GoldenBoundaries,
    writers: &'a GlobalWriteProfile,
    /// Output region `[out_lo, out_hi)` in global byte addresses.
    out_lo: u32,
    out_hi: u32,
    metrics: &'a CutMetrics,
}

impl<'a> CtaCut<'a> {
    pub(crate) fn new(
        boundaries: &'a GoldenBoundaries,
        writers: &'a GlobalWriteProfile,
        out_region: (u32, usize),
        metrics: &'a CutMetrics,
    ) -> Self {
        CtaCut {
            boundaries,
            writers,
            out_lo: out_region.0,
            out_hi: out_region.0.saturating_add((out_region.1 as u32) * 4),
            metrics,
        }
    }

    /// Whether stopping after `cta` would skip anything: never after the
    /// last CTA, where the run ends anyway.
    pub(crate) fn applies(&self, cta: u32) -> bool {
        cta + 1 < self.boundaries.num_ctas()
    }

    /// Whether a golden store to `addr` lies in a CTA after `cta`.
    fn stored_after(&self, addr: u32, cta: u32) -> bool {
        self.writers.get(addr).is_some_and(|w| w.last_cta > cta)
    }

    fn in_output(&self, addr: u32) -> bool {
        (self.out_lo..self.out_hi).contains(&addr)
    }

    /// Applies the rule at the end of `cta` to a run with `budget` left
    /// whose global divergence from the golden image after `cta` is the
    /// word set `d` (byte addresses). `None` means the run must go on.
    pub(crate) fn judge(
        &self,
        cta: u32,
        budget: u64,
        d: impl IntoIterator<Item = u32>,
    ) -> Option<Cut> {
        match self.rule(cta, budget, d) {
            Ok(cut) => {
                self.metrics.cut[usize::from(cut.outcome == Outcome::Sdc)].inc();
                Some(cut)
            }
            Err(refusal) => {
                self.metrics.refused[refusal as usize].inc();
                None
            }
        }
    }

    fn rule(
        &self,
        cta: u32,
        budget: u64,
        d: impl IntoIterator<Item = u32>,
    ) -> Result<Cut, Refusal> {
        if budget < self.boundaries.retirements_after(cta) {
            return Err(Refusal::Budget);
        }
        let reads = self.boundaries.reads();
        let (mut sdc, mut restored) = (false, true);
        for addr in d {
            if reads.last_cta(addr).is_some_and(|r| r > cta) {
                return Err(Refusal::Reader);
            }
            if self.stored_after(addr, cta) {
                continue;
            }
            restored = false;
            sdc |= self.in_output(addr);
        }
        let outcome = if sdc { Outcome::Sdc } else { Outcome::Masked };
        Ok(Cut { outcome, restored })
    }

    /// [`CtaCut::judge`] for a run whose global memory after `cta` is
    /// `global`: D is its diff against the golden image.
    pub(crate) fn judge_memory(&self, cta: u32, global: &MemBlock, budget: u64) -> Option<Cut> {
        let image = self.boundaries.image(cta)?;
        // The diff is lazy: a budget refusal never runs it.
        self.judge(cta, budget, global.diff(image).map(|(addr, _, _)| addr))
    }

    /// The final output of a run cut after `cta` with global memory
    /// `global`: `golden` (the golden output words) with every word of D
    /// that no later CTA stores overlaid.
    pub(crate) fn output(&self, cta: u32, global: &MemBlock, golden: &[u32]) -> Vec<u32> {
        let mut out = golden.to_vec();
        let image = self.boundaries.image(cta).expect("cut at a recorded CTA");
        for (addr, value, _) in global.diff(image) {
            if self.in_output(addr) && !self.stored_after(addr, cta) {
                out[((addr - self.out_lo) / 4) as usize] = value;
            }
        }
        out
    }
}
