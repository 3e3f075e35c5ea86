//! The replay cut: stop an injected run as soon as the rest of it
//! provably replays the golden run.
//!
//! The rule is checked at two kinds of golden *position* P (see
//! [`GoldenBoundaries`]): the end of a CTA at or after the faulty one, and
//! the exit of the faulty thread t in a CTA c that releases no barrier.
//! At either point let D be the memory words where the injected run
//! differs from the golden run at P. At a CTA end only global words
//! survive (the next CTA starts with fresh threads and freshly reset
//! shared memory). At t's exit every earlier thread of c is done and
//! every later one is fresh, exactly as at P, provided c has released no
//! barrier in this run either: only t has run since the flip, and its
//! registers die with it, so D holds global and shared words t stored.
//!
//! If no word of D is loaded after P in the golden run (for a shared word:
//! c loads no shared memory after P), then by induction over the remaining
//! instructions every later retirement loads golden values, computes
//! golden values and stores them to golden addresses: the run replays the
//! golden run exactly, retiring exactly the golden suffix. So when the
//! remaining budget covers that suffix the run can stop at P, and its
//! final output is the golden output except at global words of D that no
//! later golden store overwrites: the run is `Sdc` iff such a word lies in
//! the output region, and `Masked` otherwise. When the budget falls short
//! the run would hang in the replayed suffix, so it must go on.

use fsp_isa::MemSpace;
use fsp_sim::{GoldenBoundaries, MemBlock};
use fsp_stats::Outcome;

use crate::site::FaultSite;

/// Where a run is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum At {
    /// The end of a CTA at or after the faulty one.
    CtaEnd,
    /// The faulty thread's exit.
    ThreadExit,
}

/// A word that may differ from the golden run at the judged position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Word {
    /// A shared-memory word of the judged CTA (else global).
    pub(crate) shared: bool,
    /// Byte address.
    pub(crate) addr: u32,
}

impl Word {
    pub(crate) fn global(addr: u32) -> Self {
        Word {
            shared: false,
            addr,
        }
    }

    /// The word at `addr` in `space`; `None` for local memory, which dies
    /// with its thread.
    pub(crate) fn of(space: MemSpace, addr: u32) -> Option<Self> {
        (space != MemSpace::Local).then_some(Word {
            shared: space == MemSpace::Shared,
            addr,
        })
    }
}

/// How a stopped run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cut {
    /// `Sdc` or `Masked`.
    pub(crate) outcome: Outcome,
    /// Every word of D is stored again later or dies with its CTA: the
    /// run would have re-converged onto the golden state had it gone on.
    pub(crate) restored: bool,
    /// The golden position the run stopped at.
    pub(crate) pos: u32,
}

/// Why the rule refused to cut at a CTA boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// A word of D is loaded after the position.
    Reader,
    /// The remaining budget is below the golden suffix.
    Budget,
}

/// Process-wide cut counters for one kernel.
#[derive(Debug)]
pub(crate) struct CutMetrics {
    /// `fsp_inject_cta_cut_total{kernel, at, outcome}`, indexed by
    /// `[at][sdc]`.
    cut: [[fsp_obs::Counter; 2]; 2],
    /// `fsp_inject_cta_cut_refused_total{kernel, reason="reader"|"budget"}`
    /// (CTA boundaries only).
    refused: [fsp_obs::Counter; 2],
}

impl CutMetrics {
    /// The counters of the kernel named `kernel`: the target's name, which
    /// for a registry kernel is its registry id, as
    /// `fsp_inject_hang_predicted_total` is labelled.
    pub(crate) fn new(kernel: &str) -> Self {
        let r = fsp_obs::registry();
        let cut = |at, outcome| {
            r.counter_labeled(
                "fsp_inject_cta_cut_total",
                &[("kernel", kernel), ("at", at), ("outcome", outcome)],
                "Fast-path injected runs stopped because the rest provably replays the golden run, by kernel, cut point and outcome.",
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
            cut: [
                [cut("cta_end", "masked"), cut("cta_end", "sdc")],
                [cut("thread_exit", "masked"), cut("thread_exit", "sdc")],
            ],
            refused: [refused("reader"), refused("budget")],
        }
    }

    /// Runs cut so far at either point, process-wide.
    pub(crate) fn cuts(&self) -> u64 {
        self.cut.iter().flatten().map(fsp_obs::Counter::get).sum()
    }

    /// CTA boundaries refused so far, process-wide.
    pub(crate) fn refusals(&self) -> u64 {
        self.refused.iter().map(fsp_obs::Counter::get).sum()
    }
}

/// The golden facts the rule reads, for one prepared experiment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CtaCut<'a> {
    boundaries: &'a GoldenBoundaries,
    /// Output region `[out_lo, out_hi)` in global byte addresses.
    out_lo: u32,
    out_hi: u32,
    metrics: &'a CutMetrics,
}

impl<'a> CtaCut<'a> {
    pub(crate) fn new(
        boundaries: &'a GoldenBoundaries,
        out_region: (u32, usize),
        metrics: &'a CutMetrics,
    ) -> Self {
        CtaCut {
            boundaries,
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

    /// The CTA of thread `tid` and the position of its exit, if the rule
    /// can stop a run there (see [`GoldenBoundaries::thread_exit`]).
    pub(crate) fn thread_exit(&self, tid: u32) -> Option<(u32, u32)> {
        self.boundaries.thread_exit(tid)
    }

    /// The position at the end of `cta`.
    pub(crate) fn end(&self, cta: u32) -> u32 {
        self.boundaries.end(cta)
    }

    fn in_output(&self, addr: u32) -> bool {
        (self.out_lo..self.out_hi).contains(&addr)
    }

    /// Applies the rule at position `pos` of CTA `cta`, reached `at` the
    /// CTA end or the faulty thread's exit, to a run with `budget` left
    /// whose divergence from the golden run at `pos` is the word set `d`.
    /// `None` means the run must go on.
    pub(crate) fn judge(
        &self,
        at: At,
        cta: u32,
        pos: u32,
        budget: u64,
        d: impl IntoIterator<Item = Word>,
    ) -> Option<Cut> {
        match self.rule(cta, pos, budget, d) {
            Ok(cut) => {
                self.metrics.cut[at as usize][usize::from(cut.outcome == Outcome::Sdc)].inc();
                Some(cut)
            }
            Err(refusal) => {
                if at == At::CtaEnd {
                    self.metrics.refused[refusal as usize].inc();
                }
                None
            }
        }
    }

    fn rule(
        &self,
        cta: u32,
        pos: u32,
        budget: u64,
        d: impl IntoIterator<Item = Word>,
    ) -> Result<Cut, Refusal> {
        let b = self.boundaries;
        if budget < b.retirements_after(pos) {
            return Err(Refusal::Budget);
        }
        let (mut sdc, mut restored) = (false, true);
        for w in d {
            if w.shared {
                // Shared memory dies with the CTA and is never output.
                if b.shared_loaded_after(cta, pos) {
                    return Err(Refusal::Reader);
                }
                continue;
            }
            if b.loaded_after(w.addr, pos) {
                return Err(Refusal::Reader);
            }
            if b.stored_after(w.addr, pos) {
                continue;
            }
            restored = false;
            sdc |= self.in_output(w.addr);
        }
        let outcome = if sdc { Outcome::Sdc } else { Outcome::Masked };
        Ok(Cut {
            outcome,
            restored,
            pos,
        })
    }

    /// [`CtaCut::judge`] at the end of `cta` for a run whose global memory
    /// there is `global`: D is its diff against the golden image.
    pub(crate) fn judge_cta_end(&self, cta: u32, global: &MemBlock, budget: u64) -> Option<Cut> {
        let image = self.boundaries.image(cta)?;
        let pos = self.boundaries.end(cta);
        // The diff is lazy: a budget refusal never runs it.
        let d = global.diff(image).map(|(addr, _, _)| Word::global(addr));
        self.judge(At::CtaEnd, cta, pos, budget, d)
    }

    /// [`CtaCut::judge`] at the exit of `site`'s thread for a run whose
    /// global memory there is `global`. D is within the words the thread
    /// stored since the flip: `written` in this run, or in the golden run.
    /// A global candidate no later golden store overwrites is in D iff it
    /// differs from the final golden image; the others stay in, which can
    /// only make the rule refuse.
    pub(crate) fn judge_thread_exit(
        &self,
        site: FaultSite,
        global: &MemBlock,
        budget: u64,
        written: &[Word],
    ) -> Option<Cut> {
        let (cta, pos) = self.thread_exit(site.tid)?;
        let last = self.boundaries.final_image()?;
        let golden = self
            .boundaries
            .stores_from(site.tid, site.dyn_idx)
            .filter_map(|(space, addr)| Word::of(space, addr));
        let d = written.iter().copied().chain(golden).filter(|w| {
            w.shared
                || self.boundaries.stored_after(w.addr, pos)
                || global.load(w.addr).ok() != last.load(w.addr).ok()
        });
        self.judge(At::ThreadExit, cta, pos, budget, d)
    }

    /// The final output of a run stopped at `pos` with global memory
    /// `global`: the run's words where no later golden store overwrites
    /// them, the `golden` output words elsewhere.
    pub(crate) fn output(&self, pos: u32, global: &MemBlock, golden: &[u32]) -> Vec<u32> {
        let mut out = global.read_words(self.out_lo, golden.len());
        for (i, (w, &g)) in out.iter_mut().zip(golden).enumerate() {
            if self
                .boundaries
                .stored_after(self.out_lo + 4 * i as u32, pos)
            {
                *w = g;
            }
        }
        out
    }
}
