//! Early-convergence tracking for injected runs.
//!
//! [`FastInjectionHook`] wraps [`InjectionHook`] and maintains the exact
//! *divergence set* of the faulty run: every register and memory word whose
//! value currently differs from the fault-free run at the same retirement
//! point. The fault-free values come from the [`GoldenTrace`] recorded
//! during `Experiment::prepare`, indexed positionally — thread `t`'s `k`-th
//! retirement in the faulty run lines up with golden coordinate `(t, k)`
//! because the simulator's schedule is deterministic.
//!
//! The tracker compares every committed register write-back and every store
//! of a *tracked* thread against the golden value at the same coordinate:
//! a differing value inserts the register/word into the set, a matching
//! value removes it (the faulty run has recomputed the golden value — the
//! common fate of a flipped bit that is overwritten or truncated away).
//! Threads stay cheap through two structural facts: registers and local
//! memory are thread-private, so while no shared/global word diverges,
//! threads without private divergence provably replay the golden stream
//! and are skipped wholesale; and divergence dies with its scope — a
//! thread's private set on exit, a CTA's shared-memory set when a later
//! CTA starts (CTAs run serially).
//!
//! Positional comparison is only meaningful while the faulty run retires
//! the *same instruction stream*: the tracker checks every tracked
//! retirement's PC against the golden PC at the same `(t, k)` and *bails*
//! permanently on any mismatch (control divergence — a corrupted value
//! steered a guard or branch), on a store whose address differs from the
//! golden one (unknown word overwritten), on running past the golden
//! stream's end, or when a post-flip fuel budget runs out (beyond it,
//! tracking the suffix costs more than the output comparison it saves).
//! A bailed run is classified by the ordinary output comparison.
//!
//! When the set empties without a bail, the machine state — registers,
//! predicates, memory, PCs, barrier phases — equals the golden state at
//! the same schedule point; determinism then forces the golden outcome,
//! so the campaign stops the run and records `Masked` immediately
//! ([`ExecHook::converged`]).
//!
//! Bailed or not, the hook also applies the CTA-boundary cut
//! (`crate::cut`) at the end of the faulty CTA and of every later one:
//! once no later CTA reads a global word the run corrupted, the rest of
//! the run replays the golden run, and the outcome follows from the
//! corrupted words alone ([`ExecHook::on_cta_end`]).

use std::collections::HashSet;

use fsp_isa::{MemSpace, Opcode, Register};
use fsp_sim::{
    ExecHook, GlobalWriteProfile, GoldenTrace, MemAccess, MemBlock, RetireEvent, Writeback,
};

use crate::cut::{CtaCut, Cut};
use crate::hook::InjectionHook;
use crate::model::FaultModel;
use crate::site::FaultSite;

/// Post-flip budget of *tracked* retirements (threads holding private
/// divergence; clean threads are free). Most masking overwrites land
/// within a few hundred instructions of the flip; runs still divergent
/// after this much tracked work almost always stay divergent, so the
/// tracker bails and lets the output comparison decide.
const TRACK_WINDOW: u32 = 4096;

/// Divergent shared/global words are mirrored into a flat array scanned on
/// every memory access of clean threads; past this many the scan stops
/// being effectively free, and divergence that wide almost never converges
/// — bail.
const SG_SCAN_CAP: usize = 16;

/// Compact key for a register: thread-private, so keyed per tid elsewhere.
/// `None` for registers that cannot carry state (`$r124`, `$o127`,
/// specials) — writes to them are discarded and never diverge.
pub(crate) fn reg_key(reg: Register) -> Option<u16> {
    match reg {
        Register::Special(_) | Register::Discard => None,
        Register::Gpr(124) => None,
        Register::Gpr(n) => Some(u16::from(n)),
        Register::Pred(n) => Some(0x100 | u16::from(n)),
        Register::Ofs(n) => Some(0x200 | u16::from(n)),
    }
}

/// Key for a memory word: `(space code, owner, byte address)`. Global
/// words have one owner (0); shared words are owned by their CTA; local
/// words by their thread.
pub(crate) fn space_code(space: MemSpace) -> u8 {
    match space {
        MemSpace::Global => 0,
        MemSpace::Shared => 1,
        MemSpace::Local => 2,
    }
}

/// An [`ExecHook`] that injects one fault (delegating to [`InjectionHook`])
/// and tracks the divergence set it causes against the golden value trace,
/// reporting convergence through [`ExecHook::converged`] once the set
/// provably empties.
#[derive(Debug, Clone)]
pub struct FastInjectionHook<'a> {
    inner: InjectionHook,
    golden: &'a GoldenTrace,
    /// Golden store count and last-writer CTA per global word
    /// ([`GoldenTrace::global_write_profile`]): proves when a divergent
    /// output word can never be restored, so tracking can stop on the
    /// spot (the dominant SDC case).
    writers: &'a GlobalWriteProfile,
    threads_per_cta: u32,
    /// The flip has committed; tracking is live.
    armed: bool,
    /// Tracking abandoned (control/address divergence or fuel exhausted);
    /// the run must be classified by output comparison.
    bailed: bool,
    /// Tracked retirements left before bailing (see [`TRACK_WINDOW`]).
    fuel: u32,
    /// CTA whose threads last produced a tracked event; events from a later
    /// CTA retire all earlier CTAs' divergence (CTAs run serially).
    current_cta: u32,
    /// Flat-tid bounds of `current_cta` (`[cta_lo, cta_hi)`), cached so the
    /// per-retirement turnover test is two compares, not a division.
    cta_lo: u32,
    cta_hi: u32,
    /// Currently-divergent registers, keyed `(tid, reg)`.
    reg_div: HashSet<(u32, u16)>,
    /// Currently-divergent memory words, keyed `(space, owner, addr)`.
    mem_div: HashSet<(u8, u32, u32)>,
    /// Packed mirror of `mem_div`'s shared/global entries, kept tiny
    /// (≤ [`SG_SCAN_CAP`]) so clean threads can screen their memory
    /// accesses with a linear scan instead of a hash probe.
    sg_keys: Vec<u64>,
    /// Byte addresses of `sg_keys`, scanned first: the screen's hot path
    /// is a miss, and an address-only compare needs no space/owner
    /// resolution.
    sg_addrs: Vec<u32>,
    /// Per-thread count of reg + local-memory divergence, indexed by tid —
    /// the fast-skip test runs on every retirement grid-wide, so it must
    /// be a flat array load, not a hash probe. Registers and local memory
    /// are thread-private, so a thread with a zero here touches divergent
    /// state only through shared/global words.
    per_thread: Vec<u32>,
    /// Count of divergent shared + global words.
    shared_global: u32,
    /// The simulator cut the run short on a hang certificate.
    hang_predicted: bool,
    /// The CTA-boundary cut rule, when enabled.
    cut: Option<CtaCut<'a>>,
    /// CTA of the site's thread: the cut applies from its end on.
    site_cta: u32,
    /// The CTA after which the run was cut, and how it ends.
    cut_at: Option<(u32, Cut)>,
}

impl<'a> FastInjectionHook<'a> {
    /// Arms a tracking hook for `site` under `model`, comparing against
    /// the fault-free commit log `golden`. `threads_per_cta` scopes
    /// shared-memory divergence to the owning CTA.
    #[must_use]
    pub fn new(
        site: FaultSite,
        model: FaultModel,
        golden: &'a GoldenTrace,
        writers: &'a GlobalWriteProfile,
        threads_per_cta: u32,
    ) -> Self {
        let threads_per_cta = threads_per_cta.max(1);
        FastInjectionHook {
            inner: InjectionHook::with_model(site, model),
            golden,
            writers,
            threads_per_cta,
            armed: false,
            bailed: false,
            fuel: TRACK_WINDOW,
            current_cta: 0,
            cta_lo: 0,
            cta_hi: u32::MAX,
            reg_div: HashSet::new(),
            mem_div: HashSet::new(),
            sg_keys: Vec::new(),
            sg_addrs: Vec::new(),
            per_thread: vec![0; golden.num_threads() as usize],
            shared_global: 0,
            hang_predicted: false,
            cut: None,
            site_cta: site.tid / threads_per_cta,
            cut_at: None,
        }
    }

    /// Enables the CTA-boundary cut under `rule`.
    pub(crate) fn with_cut(mut self, rule: CtaCut<'a>) -> Self {
        self.cut = Some(rule);
        self
    }

    /// The CTA after which the run was cut, and how it ends.
    pub(crate) fn cut(&self) -> Option<(u32, Cut)> {
        self.cut_at
    }

    /// Whether the flip actually happened.
    #[must_use]
    pub fn triggered(&self) -> bool {
        self.inner.triggered()
    }

    /// Whether tracking was abandoned (the run needs the full output
    /// comparison; `converged` can never become true after a bail).
    #[must_use]
    pub fn bailed(&self) -> bool {
        self.bailed
    }

    /// Whether the simulator proved the run a hang and cut it short
    /// instead of spending the rest of its budget.
    #[must_use]
    pub fn hang_predicted(&self) -> bool {
        self.hang_predicted
    }

    /// Whether `tid` needs full value comparison: only threads holding
    /// private divergence. Clean threads provably replay the golden stream
    /// — the divergent-load screen in `on_retire` bails the moment that
    /// would stop being true.
    fn tracked(&self, tid: u32) -> bool {
        self.per_thread.get(tid as usize).is_some_and(|&n| n > 0)
    }

    fn mem_key(&self, access: &MemAccess, tid: u32) -> (u8, u32, u32) {
        let owner = match access.space {
            MemSpace::Global => 0,
            MemSpace::Shared => tid / self.threads_per_cta,
            MemSpace::Local => tid,
        };
        (space_code(access.space), owner, access.addr)
    }

    /// Packs a shared/global key for the clean-thread scan array.
    fn pack(key: (u8, u32, u32)) -> u64 {
        (u64::from(key.0) << 56) | (u64::from(key.1) << 32) | u64::from(key.2)
    }

    /// Caches `cta`'s flat-tid bounds for the turnover test.
    fn set_cta(&mut self, cta: u32) {
        self.current_cta = cta;
        self.cta_lo = cta * self.threads_per_cta;
        self.cta_hi = self.cta_lo + self.threads_per_cta;
    }

    fn insert_reg(&mut self, tid: u32, reg: Register) {
        if let Some(k) = reg_key(reg) {
            if self.reg_div.insert((tid, k)) {
                self.per_thread[tid as usize] += 1;
            }
        }
    }

    fn remove_reg(&mut self, tid: u32, reg: Register) {
        if let Some(k) = reg_key(reg) {
            if self.reg_div.remove(&(tid, k)) {
                self.dec_thread(tid);
            }
        }
    }

    fn insert_mem(&mut self, key: (u8, u32, u32), tid: u32) {
        if self.mem_div.insert(key) {
            if key.0 == space_code(MemSpace::Local) {
                self.per_thread[tid as usize] += 1;
            } else {
                // A divergent global word is only ever removed by a later
                // store of the golden value at a golden store position. If
                // the golden run stores this word exactly once — the store
                // that just diverged — no such position remains anywhere in
                // the schedule: the run provably cannot converge, so stop
                // tracking it now (the output comparison will see the SDC).
                // This is the common fate of a corrupted output element in
                // single-assignment kernels, and it drops the per-retirement
                // screen for the whole remaining run.
                if key.0 == space_code(MemSpace::Global)
                    && self.writers.get(key.2).is_none_or(|w| w.count <= 1)
                {
                    self.bailed = true;
                    return;
                }
                self.shared_global += 1;
                self.sg_keys.push(Self::pack(key));
                self.sg_addrs.push(key.2);
                if self.sg_keys.len() > SG_SCAN_CAP {
                    self.bailed = true;
                }
            }
        }
    }

    fn remove_mem(&mut self, key: (u8, u32, u32), tid: u32) {
        if self.mem_div.remove(&key) {
            if key.0 == space_code(MemSpace::Local) {
                self.dec_thread(tid);
            } else {
                self.shared_global -= 1;
                let packed = Self::pack(key);
                if let Some(p) = self.sg_keys.iter().position(|&k| k == packed) {
                    self.sg_keys.swap_remove(p);
                    self.sg_addrs.swap_remove(p);
                }
            }
        }
    }

    fn dec_thread(&mut self, tid: u32) {
        let n = &mut self.per_thread[tid as usize];
        *n = n.saturating_sub(1);
    }

    /// Drops a finished thread's private divergence (registers and local
    /// memory): nothing can read it after the thread exits.
    fn drop_thread(&mut self, tid: u32) {
        if self.per_thread[tid as usize] == 0 {
            return;
        }
        self.per_thread[tid as usize] = 0;
        self.reg_div.retain(|&(t, _)| t != tid);
        let local = space_code(MemSpace::Local);
        self.mem_div
            .retain(|&(s, owner, _)| s != local || owner != tid);
    }

    /// Retires every CTA before `cta`: their threads are dead (private
    /// divergence unreachable) and their shared memory is reset before the
    /// next CTA runs.
    fn retire_ctas_before(&mut self, cta: u32) {
        let first_tid = (cta * self.threads_per_cta) as usize;
        let end = first_tid.min(self.per_thread.len());
        for tid in 0..end {
            if self.per_thread[tid] > 0 {
                self.drop_thread(tid as u32);
            }
        }
        let shared = space_code(MemSpace::Shared);
        let before = self.mem_div.len();
        self.mem_div
            .retain(|&(s, owner, _)| s != shared || owner >= cta);
        let dropped = (before - self.mem_div.len()) as u32;
        if dropped > 0 {
            self.shared_global -= dropped;
            let local = space_code(MemSpace::Local);
            self.sg_keys.clear();
            self.sg_addrs.clear();
            for &k in self.mem_div.iter().filter(|&&(s, _, _)| s != local) {
                self.sg_keys.push(Self::pack(k));
                self.sg_addrs.push(k.2);
            }
        }
    }
}

impl ExecHook for FastInjectionHook<'_> {
    // A predicted hang ends the run exactly where budget exhaustion would
    // have: the oracle for it is the slow path, which runs the budget out.
    const PREDICT_HANGS: bool = true;

    fn on_hang_predicted(&mut self) {
        self.hang_predicted = true;
    }

    fn on_cta_end(&mut self, cta: u32, global: &MemBlock, budget: u64) -> bool {
        let Some(rule) = &self.cut else {
            return false;
        };
        if cta < self.site_cta || !rule.applies(cta) {
            return false;
        }
        self.cut_at = rule.judge_memory(cta, global, budget).map(|c| (cta, c));
        self.cut_at.is_some()
    }

    fn writeback(&mut self, wb: &Writeback) -> Option<u32> {
        let before = self.inner.triggered();
        let out = self.inner.writeback(wb);
        if self.bailed {
            return out;
        }
        if !before && self.inner.triggered() {
            // The flip. The pre-flip stream is golden by determinism, so
            // the committed value diverges iff the model changed it.
            self.armed = true;
            self.set_cta(wb.tid / self.threads_per_cta);
            if out.is_some_and(|v| v != wb.value) {
                self.insert_reg(wb.tid, wb.reg);
            }
            return out;
        }
        if !self.armed || !self.tracked(wb.tid) {
            return out;
        }
        // Compare the committed value against the golden one at the same
        // (thread, retirement, slot) coordinate. The PC guard rejects
        // comparisons on a control-divergent stream before they could
        // spuriously shrink the set.
        let Some(t) = self.golden.thread(wb.tid) else {
            self.bailed = true;
            return out;
        };
        if t.pc(wb.dyn_idx) != Some(wb.pc as u32) {
            self.bailed = true;
            return out;
        }
        let committed = out.unwrap_or(wb.value);
        match t.value(t.wb_index(wb.dyn_idx) + u32::from(wb.slot)) {
            Some(gv) if committed == gv => self.remove_reg(wb.tid, wb.reg),
            Some(_) => self.insert_reg(wb.tid, wb.reg),
            None => self.bailed = true,
        }
        out
    }

    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        if self.bailed || !self.armed {
            return;
        }
        // CTA turnover: CTAs run serially, so an event from a later CTA
        // means every earlier one finished and its divergence is dead.
        // Only needed while shared/global divergence exists (private
        // divergence dies at its own thread's exit).
        if self.shared_global > 0 {
            if ev.tid >= self.cta_hi {
                let cta = ev.tid / self.threads_per_cta;
                self.retire_ctas_before(cta);
                self.set_cta(cta);
                // Every CTA that could still store a surviving divergent
                // global word lies at or after `cta`. A word whose last
                // golden writer is behind the schedule can never be
                // restored — the run provably cannot converge.
                for i in 0..self.sg_keys.len() {
                    if (self.sg_keys[i] >> 56) as u8 == space_code(MemSpace::Global)
                        && self
                            .writers
                            .get(self.sg_addrs[i])
                            .is_none_or(|w| w.last_cta < cta)
                    {
                        self.bailed = true;
                        return;
                    }
                }
            } else if ev.tid < self.cta_lo {
                self.bailed = true;
                return;
            }
        }
        if !self.tracked(ev.tid) {
            // Clean thread: its registers are golden (the screen here
            // promotes or bails before that could stop being true), so its
            // addresses and stored values are golden too. A store to a
            // divergent word therefore restores the golden value; a load
            // from one propagates corruption — *promote* the thread by
            // marking every register this instruction writes divergent
            // (an over-approximation; the compare path removes them as
            // they are proven golden again), after which it is tracked
            // like the faulty thread itself.
            if self.shared_global > 0 {
                let mut promoted = false;
                for a in ev.accesses {
                    // Address-only prefilter: the hot path is a miss.
                    if !self.sg_addrs.contains(&a.addr) {
                        continue;
                    }
                    let key = self.mem_key(a, ev.tid);
                    if self.sg_keys.contains(&Self::pack(key)) {
                        if a.is_store {
                            self.remove_mem(key, ev.tid);
                        } else {
                            promoted = true;
                        }
                    }
                }
                if promoted {
                    for d in ev.instr.dst.iter().flatten() {
                        match d {
                            fsp_isa::Dest::Reg(r) => self.insert_reg(ev.tid, *r),
                            // A store fed by the divergent load in the same
                            // instruction: unverifiable here — give up.
                            fsp_isa::Dest::Mem(_) => {
                                self.bailed = true;
                                return;
                            }
                        }
                    }
                }
            }
            return;
        }
        match self.fuel.checked_sub(1) {
            Some(f) => self.fuel = f,
            None => {
                self.bailed = true;
                return;
            }
        }
        let Some(t) = self.golden.thread(ev.tid) else {
            self.bailed = true;
            return;
        };
        // Control divergence (a corrupted guard or branch steered the
        // thread off the golden path) shows up as a PC mismatch at the
        // same retirement index; running past the golden stream's end
        // (`pc() == None`) is the hang-flavored special case.
        if t.pc(ev.dyn_idx) != Some(ev.pc as u32) {
            self.bailed = true;
            return;
        }
        // Stores compare positionally against the golden store stream: a
        // matching word is re-proven golden, a differing one diverges, a
        // differing *address* overwrites an unknown word — bail.
        let stores = ev.accesses.iter().filter(|a| a.is_store);
        for (idx, a) in (t.store_index(ev.dyn_idx)..).zip(stores) {
            match t.store(idx) {
                Some(gs) if gs.space == a.space && gs.addr == a.addr => {
                    let key = self.mem_key(a, ev.tid);
                    if a.value == gs.value {
                        self.remove_mem(key, ev.tid);
                    } else {
                        self.insert_mem(key, ev.tid);
                    }
                }
                _ => {
                    self.bailed = true;
                    return;
                }
            }
        }
        // A finished thread's private divergence is dead.
        if matches!(ev.instr.opcode, Opcode::Exit | Opcode::Ret | Opcode::Retp) {
            self.drop_thread(ev.tid);
        }
    }

    #[inline]
    fn converged(&self) -> bool {
        self.armed && !self.bailed && self.reg_div.is_empty() && self.mem_div.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::assemble;
    use fsp_sim::{GoldenRecorder, Launch, MemBlock, Simulator};

    fn golden_of(launch: &Launch, words: usize) -> (GoldenTrace, GlobalWriteProfile) {
        let mut mem = MemBlock::with_words(words);
        let mut rec = GoldenRecorder::new(launch.num_threads());
        Simulator::new()
            .run(launch, &mut mem, &mut rec)
            .expect("golden run");
        let trace = rec.finish();
        let writers = trace.global_write_profile(launch.threads_per_cta());
        (trace, writers)
    }

    /// A kernel whose fault at `$r1` (dyn 0) is overwritten by dyn 2 before
    /// anything reads it: the divergence set must empty and the run stop.
    #[test]
    fn overwritten_fault_converges() {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x5
            mov.u32 $r2, 0x7
            mov.u32 $r1, 0x9
            st.global.u32 [$r124], $r1
            st.global.u32 [$r124+0x4], $r2
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p);
        let (trace, writers) = golden_of(&launch, 2);
        let mut g = MemBlock::with_words(2);
        let mut hook = FastInjectionHook::new(
            FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 3,
            },
            FaultModel::SingleBitFlip,
            &trace,
            &writers,
            1,
        );
        let stats = Simulator::new().run(&launch, &mut g, &mut hook).unwrap();
        assert!(hook.triggered());
        assert!(hook.converged());
        // Stopped after the overwrite at dyn 2, before the stores retired.
        assert!(stats.instructions < 6, "run stopped early: {stats:?}");
    }

    /// A corrupted value that reaches a store keeps the word divergent:
    /// the run must NOT converge, and the output comparison sees the SDC.
    #[test]
    fn stored_fault_does_not_converge() {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x5
            st.global.u32 [$r124], $r1
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p);
        let (trace, writers) = golden_of(&launch, 1);
        let mut g = MemBlock::with_words(1);
        let mut hook = FastInjectionHook::new(
            FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 3,
            },
            FaultModel::SingleBitFlip,
            &trace,
            &writers,
            1,
        );
        Simulator::new().run(&launch, &mut g, &mut hook).unwrap();
        assert!(hook.triggered());
        assert!(!hook.converged());
        assert_eq!(g.load(0).unwrap(), 0x5 ^ 0x8);
    }

    /// A flipped predicate that steers a guard must bail: the faulty PC
    /// stream falls out of alignment with the golden one.
    #[test]
    fn control_divergence_bails() {
        let p = assemble(
            "t",
            r#"
            set.eq.u32.u32 $p0/$o127, $r124, $r124
            @$p0.eq bra skip
            mov.u32 $r1, 0x1
            skip:
            st.global.u32 [$r124], $r1
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p);
        let (trace, writers) = golden_of(&launch, 1);
        let mut g = MemBlock::with_words(1);
        // Flip a predicate flag bit of dyn 0.
        let mut hook = FastInjectionHook::new(
            FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 0,
            },
            FaultModel::SingleBitFlip,
            &trace,
            &writers,
            1,
        );
        Simulator::new().run(&launch, &mut g, &mut hook).unwrap();
        assert!(hook.triggered());
        assert!(hook.bailed());
        assert!(!hook.converged());
    }

    /// A stuck-at fault that commits the golden value converges on the
    /// spot (the "flip" is a no-op).
    #[test]
    fn noop_flip_converges_immediately() {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x1
            st.global.u32 [$r124], $r1
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p);
        let (trace, writers) = golden_of(&launch, 1);
        let mut g = MemBlock::with_words(1);
        // Bit 0 of 0x1 is already 1: StuckAt1 commits the golden value.
        let mut hook = FastInjectionHook::new(
            FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 0,
            },
            FaultModel::StuckAt1,
            &trace,
            &writers,
            1,
        );
        let stats = Simulator::new().run(&launch, &mut g, &mut hook).unwrap();
        assert!(hook.triggered());
        assert!(hook.converged());
        assert!(stats.instructions <= 2);
    }

    /// A corrupted register that is never read, never stored and never
    /// overwritten dies with its thread: convergence through scope death,
    /// which value comparison alone can never prove.
    #[test]
    fn unread_divergence_dies_with_thread() {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x5
            st.global.u32 [$r124], $r2
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p);
        let (trace, writers) = golden_of(&launch, 1);
        let mut g = MemBlock::with_words(1);
        let mut hook = FastInjectionHook::new(
            FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 3,
            },
            FaultModel::SingleBitFlip,
            &trace,
            &writers,
            1,
        );
        Simulator::new().run(&launch, &mut g, &mut hook).unwrap();
        assert!(hook.triggered());
        assert!(!hook.bailed());
        assert!(hook.converged());
    }
}
