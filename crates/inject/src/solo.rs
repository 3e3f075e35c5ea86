//! The solo engine: one injected run, stopped at the replay cut.
//!
//! [`SoloHook`] runs a single fault through [`InjectionHook`] and applies
//! the replay cut (`crate::cut`) at the faulty thread's exit, when its CTA
//! releases no barrier, and at the end of the faulty CTA and of every later
//! one: once nothing after that point reads a word the run corrupted, the
//! rest of the run replays the golden run, and the outcome follows from
//! the corrupted words alone ([`ExecHook::on_thread_exit`],
//! [`ExecHook::on_cta_end`]). It also lets the simulator cut a run short on
//! a hang or crash certificate ([`ExecHook::PREDICT_HANGS`]), in a
//! data-oblivious kernel even while the faulty thread's CTA siblings still
//! run ([`ExecHook::siblings_follow_golden`]). It tracks no
//! values: the lanes of a batched replay do that (`crate::batch`), and a
//! campaign runs solo only the lanes they demote and every site at
//! `--batch 1`.
//! The slow path is its oracle (`tests/cta_cut.rs`,
//! `tests/thread_exit_cut.rs`, `tests/hang_prediction.rs`).

use std::ops::Range;

use fsp_sim::{ExecHook, MemBlock, RetireEvent, SimFault, Writeback};

use crate::campaign::stores_into;
use crate::cut::{CtaCut, Cut, Word};
use crate::hook::InjectionHook;
use crate::model::FaultModel;
use crate::site::FaultSite;

/// Distinct global/shared words the faulty thread may store after the
/// flip and still be judged at its exit. Past this many the thread-exit
/// rule refuses (the CTA-end rule still applies): a thread that scatters
/// this widely almost always corrupts a word a later thread reads.
const EXIT_STORE_CAP: usize = 32;

/// An [`ExecHook`] that injects one fault (delegating to [`InjectionHook`])
/// and stops the run at the replay cut.
#[derive(Debug, Clone)]
pub(crate) struct SoloHook<'a> {
    inner: InjectionHook,
    /// The fault the simulator proved the run ends in, when it cut the run
    /// short on a certificate, and whether a CTA sibling of the faulty
    /// thread was live.
    predicted: Option<(SimFault, bool)>,
    /// The parameter block while the faulty thread's siblings follow their
    /// golden paths: until the thread stores into it. `None` otherwise.
    follow: Option<Range<u32>>,
    cut: CtaCut<'a>,
    site: FaultSite,
    /// CTA of the site's thread: the CTA-end rule applies from its end on.
    site_cta: u32,
    /// The site's thread while the thread-exit rule can fire for it (its
    /// CTA releases no barrier in the golden run and it has not outgrown
    /// [`EXIT_STORE_CAP`]), else `u32::MAX`: the store log below costs
    /// nothing where the rule cannot fire.
    exit_tid: u32,
    /// Global and shared words `exit_tid` stored since the flip.
    written: Vec<Word>,
    /// How the run was cut.
    cut_at: Option<Cut>,
}

impl<'a> SoloHook<'a> {
    /// Arms a hook for `site` under `model`, cut under `rule`. With
    /// `params`, the parameter block, it answers
    /// [`ExecHook::siblings_follow_golden`] with `true` until the faulty
    /// thread stores into it: only for a kernel whose siblings follow their
    /// golden paths as long as their parameters do (a data-oblivious
    /// program whose golden run stores nothing there).
    pub(crate) fn new(
        site: FaultSite,
        model: FaultModel,
        threads_per_cta: u32,
        rule: CtaCut<'a>,
        params: Option<Range<u32>>,
    ) -> Self {
        SoloHook {
            inner: InjectionHook::with_model(site, model),
            predicted: None,
            follow: params,
            cut: rule,
            site,
            site_cta: site.tid / threads_per_cta.max(1),
            exit_tid: if rule.thread_exit(site.tid).is_some() {
                site.tid
            } else {
                u32::MAX
            },
            written: Vec::new(),
            cut_at: None,
        }
    }

    /// How the run was cut, if it was.
    pub(crate) fn cut(&self) -> Option<Cut> {
        self.cut_at
    }

    /// The fault the simulator proved the run ends in — a hang or an
    /// out-of-bounds access — when it cut the run short instead of running
    /// into it, and whether a CTA sibling of the faulty thread was live.
    pub(crate) fn predicted(&self) -> Option<(SimFault, bool)> {
        self.predicted
    }

    /// Stops answering [`ExecHook::siblings_follow_golden`] with `true`
    /// once the faulty thread stores into the parameter block.
    #[inline(never)]
    fn watch_params(&mut self, ev: &RetireEvent<'_>) {
        if self
            .follow
            .as_ref()
            .is_some_and(|params| stores_into(ev, params))
        {
            self.follow = None;
        }
    }

    /// Logs the global and shared words the faulty thread stores after the
    /// flip, for the thread-exit rule.
    #[inline(never)]
    fn log_stores(&mut self, ev: &RetireEvent<'_>) {
        for a in ev.accesses.iter().filter(|a| a.is_store) {
            let Some(w) = Word::of(a.space, a.addr) else {
                continue;
            };
            if !self.written.contains(&w) {
                if self.written.len() == EXIT_STORE_CAP {
                    self.exit_tid = u32::MAX;
                    return;
                }
                self.written.push(w);
            }
        }
    }
}

impl ExecHook for SoloHook<'_> {
    // A predicted fault ends the run with the fault the full run raises:
    // the oracle for it is the slow path, which runs every loop out.
    const PREDICT_HANGS: bool = true;

    /// The faulty thread arms its spin detector at the flip.
    fn flip_at(&self, tid: u32) -> Option<u32> {
        (tid == self.site.tid).then_some(self.site.dyn_idx)
    }

    /// Before its flip the faulty thread runs its golden path, which
    /// stores nothing into the parameter block, so a store there is one
    /// made since the flip.
    fn siblings_follow_golden(&self) -> bool {
        self.follow.is_some()
    }

    fn on_fault_predicted(&mut self, fault: SimFault, live: bool) {
        self.predicted = Some((fault, live));
    }

    #[inline]
    fn writeback(&mut self, wb: &Writeback) -> Option<u32> {
        self.inner.writeback(wb)
    }

    #[inline]
    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        if ev.tid == self.exit_tid && self.inner.triggered() {
            self.log_stores(&ev);
        }
        if ev.tid == self.site.tid && self.follow.is_some() && !ev.accesses.is_empty() {
            self.watch_params(&ev);
        }
    }

    fn on_cta_end(&mut self, cta: u32, global: &MemBlock, budget: u64) -> bool {
        if cta < self.site_cta || !self.cut.applies(cta) {
            return false;
        }
        self.cut_at = self.cut.judge_cta_end(cta, global, budget);
        self.cut_at.is_some()
    }

    /// The thread-exit rule at the faulty thread's exit. D is within the
    /// words it stored since the flip, in this run or in the golden run.
    fn on_thread_exit(&mut self, tid: u32, released: bool, global: &MemBlock, budget: u64) -> bool {
        if tid != self.exit_tid || released || !self.inner.triggered() {
            return false;
        }
        self.cut_at = self
            .cut
            .judge_thread_exit(self.site, global, budget, &self.written);
        self.cut_at.is_some()
    }
}
