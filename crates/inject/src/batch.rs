//! Batched multi-lane injection: one golden sweep drives N fault sites.
//!
//! A campaign over sites that resume from the same golden checkpoint and
//! trigger inside the same CTA repeats the same work per site: checkpoint
//! restore, instruction decode/dispatch, operand resolution and the golden
//! comparison all walk the *same* instruction stream. [`BatchInjectionHook`]
//! amortizes that walk: it rides a **single** fault-free replay (the machine
//! state stays golden throughout — the hook never overrides a write-back)
//! and maintains up to [`MAX_BATCH`] fault "shadow lanes", each the exact
//! divergence set of one injected run relative to the golden stream flowing
//! past.
//!
//! The key identity making this sound is the one the solo fast path
//! ([`crate::FastInjectionHook`]) already relies on, applied in reverse:
//! as long as an injected run retires the *same instruction stream* as the
//! golden run, its machine state is `golden state + divergence set`. The
//! solo tracker executes the faulty run and diffs against a recorded golden
//! trace; the batch tracker executes the golden run and *recomputes* each
//! lane's divergent values from [`fsp_sim::RetireEvent::srcs`] through
//! [`fsp_sim::eval_op`] — the very evaluator the simulator commits through,
//! so lane values are bit-identical to a real faulty execution by
//! construction.
//!
//! Per dynamic instruction the stream is decoded, its operands resolved and
//! its result evaluated **once**; each lane then pays only for events that
//! can touch its divergence set (screened by per-thread and per-address
//! bitmasks over all lanes at once). Lanes retire independently:
//!
//! * **Converged** — the lane's set empties after its flip: machine state
//!   equals golden state, determinism forces the golden outcome → `Masked`.
//! * **Untriggered** — the site's destination bit was never written (stale
//!   site): the run is the golden run → `Masked`.
//! * **End of stream** — at the end of the lane's CTA, or of a later one,
//!   the CTA-boundary cut (`crate::cut`) proves that the rest of the run
//!   replays the golden run: the lane's global overlay is exactly the set
//!   of corrupted words the rule needs, so the lane is settled there as
//!   `Sdc` or `Masked` without materializing its memory. A lane the rule
//!   refuses keeps tracking until a later boundary or the end of the
//!   replay, where the overlay decides the same way.
//! * **Demoted** — the lane would leave the golden stream (a diverged
//!   predicate flips a guard, a diverged register feeds an address) or
//!   outgrows its set budget: only *that lane* falls back to the solo path;
//!   the batch keeps going.
//!
//! A lane that is never demoted provably retires exactly the golden stream
//! (every guard it would evaluate differently and every address it would
//! compute differently demotes it first), so tracked lanes can never crash,
//! hang or trap — those outcomes always surface through the solo fallback.

use fsp_isa::{Dest, MemRef, MemSpace, Opcode, Operand, PredTest, Register};
use fsp_sim::{
    apply_half_neg, eval_op, flags_of, operand_ty, pred_test, ExecHook, MemBlock, RetireEvent,
};
use fsp_stats::Outcome;

use crate::cut::CtaCut;
use crate::fastpath::{reg_key, space_code};
use crate::model::FaultModel;
use crate::site::FaultSite;

/// Hard lane-count ceiling: lane sets are screened through `u64` bitmasks.
pub const MAX_BATCH: usize = 64;

/// Default lanes per batched replay. Chosen with the workload suite:
/// occupancy (lanes that stay tracked) falls off past a few dozen lanes
/// because groups sharing a (checkpoint, CTA) are rarely larger, while the
/// per-event screening cost keeps growing with divergent-set size.
pub const DEFAULT_BATCH: usize = 16;

/// Per-lane cap on total divergence entries (registers + memory words).
/// Sets this wide almost never converge; scanning them per event costs more
/// than re-running the lane solo.
const LANE_ENTRY_CAP: usize = 192;

/// Per-lane budget of *processed* events after its flip, mirroring the solo
/// tracker's `TRACK_WINDOW`: most masking overwrites land within a few
/// hundred instructions, and a lane still divergent after this much tracked
/// work almost always stays divergent.
const LANE_TRACK_WINDOW: u32 = 4096;

/// Space codes (see [`space_code`]), named for the scans below.
const GLOBAL: u8 = 0;
const SHARED: u8 = 1;
const LOCAL: u8 = 2;

/// Why a tracked lane retired with a classified outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RetireCause {
    /// Divergence set emptied post-flip: early `Masked`.
    Converged,
    /// The site's destination bit was never written.
    Untriggered,
    /// Stream ended, or was cut at a CTA boundary, with divergence
    /// outside the output region.
    EndMasked,
    /// Stream ended, or was cut at a CTA boundary, with a divergent output
    /// word.
    EndSdc,
}

/// Why a lane was handed back to the solo path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DemoteCause {
    /// A diverged predicate would steer a guard differently.
    Control,
    /// A diverged register feeds an address computation.
    Address,
    /// Divergence-set entry cap exceeded.
    Capacity,
    /// Post-flip tracking budget exhausted.
    Fuel,
    /// The shared replay errored; no lane outcome can be attributed.
    Replay,
}

/// How one lane of a finished batch replay ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneEnd {
    /// Outcome determined inside the batch.
    Resolved(Outcome, RetireCause),
    /// Lane must be re-run through the solo path.
    Demoted(DemoteCause),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    /// Waiting for its flip to retire.
    Pending,
    /// Flip committed; divergence set live.
    Tracking,
    /// Outcome classified.
    Done(Outcome, RetireCause),
    /// Handed back to the solo path.
    Demoted(DemoteCause),
}

/// One shadow lane: a fault site and its exact divergence set relative to
/// the golden stream.
#[derive(Debug, Clone)]
struct Lane {
    site: FaultSite,
    state: LaneState,
    triggered: bool,
    fuel: u32,
    /// Diverged registers: `(tid, reg key, lane raw value)`. The raw value
    /// is what the lane's machine would hold after `write_reg` (predicate
    /// flags masked to 4 bits).
    regs: Vec<(u32, u16, u32)>,
    /// Diverged memory words: `(space code, owner, byte addr, lane value)`.
    mem: Vec<(u8, u32, u32, u32)>,
}

/// An [`ExecHook`] driving up to [`MAX_BATCH`] fault lanes off one golden
/// replay. See the module docs for the lane model.
#[derive(Debug, Clone)]
pub(crate) struct BatchInjectionHook<'a> {
    model: FaultModel,
    threads_per_cta: u32,
    /// Output region `[out_lo, out_hi)` in global byte addresses, for the
    /// end-of-stream overlay classification.
    out_lo: u32,
    out_hi: u32,
    lanes: Vec<Lane>,
    /// Bit `i` set ⇔ lane `i` is `Pending` or `Tracking`.
    active: u64,
    /// Per-tid mask of lanes holding private divergence (registers or local
    /// memory) on that thread — the per-event screen, one array load.
    tid_private: Vec<u64>,
    /// Per-tid mask of lanes whose flip is still ahead on that thread.
    trigger_pending: Vec<u64>,
    /// Sorted `(byte addr, lane mask)` prefilter over shared/global
    /// divergence: a memory access screens against all lanes with one
    /// binary search.
    sg: Vec<(u32, u64)>,
    /// CTA of the last retirement seen; a later CTA retires all earlier
    /// CTAs' private and shared divergence (CTAs run serially).
    current_cta: Option<u32>,
    /// The CTA-boundary cut rule, when enabled.
    cut: Option<CtaCut<'a>>,
}

impl<'a> BatchInjectionHook<'a> {
    /// Arms one lane per site. `sites` must not exceed [`MAX_BATCH`];
    /// `out_region` is `(byte addr, word count)` of the kernel output.
    pub(crate) fn new(
        sites: &[FaultSite],
        model: FaultModel,
        num_threads: u32,
        threads_per_cta: u32,
        out_region: (u32, usize),
    ) -> Self {
        assert!(
            !sites.is_empty() && sites.len() <= MAX_BATCH,
            "batch of {} lanes outside 1..={MAX_BATCH}",
            sites.len()
        );
        let mut trigger_pending = vec![0u64; num_threads as usize];
        for (i, site) in sites.iter().enumerate() {
            if let Some(m) = trigger_pending.get_mut(site.tid as usize) {
                *m |= 1u64 << i;
            }
            // Sites on out-of-range tids never trigger: they finish as
            // `Untriggered`, exactly like the solo hook.
        }
        BatchInjectionHook {
            model,
            threads_per_cta: threads_per_cta.max(1),
            out_lo: out_region.0,
            out_hi: out_region.0.saturating_add((out_region.1 as u32) * 4),
            lanes: sites
                .iter()
                .map(|&site| Lane {
                    site,
                    state: LaneState::Pending,
                    triggered: false,
                    fuel: LANE_TRACK_WINDOW,
                    regs: Vec::new(),
                    mem: Vec::new(),
                })
                .collect(),
            active: if sites.len() == MAX_BATCH {
                u64::MAX
            } else {
                (1u64 << sites.len()) - 1
            },
            tid_private: vec![0; num_threads as usize],
            trigger_pending,
            sg: Vec::new(),
            current_cta: None,
            cut: None,
        }
    }

    /// Enables the CTA-boundary cut under `rule`.
    pub(crate) fn with_cut(mut self, rule: CtaCut<'a>) -> Self {
        self.cut = Some(rule);
        self
    }

    /// Demotes every unresolved lane (shared replay failed).
    pub(crate) fn demote_all(&mut self) {
        let mut m = self.active;
        while m != 0 {
            let li = m.trailing_zeros() as usize;
            m &= m - 1;
            self.demote(li, DemoteCause::Replay);
        }
    }

    /// Consumes the hook after the replay, classifying still-open lanes:
    /// `Pending` never flipped (`Masked`), `Tracking` lanes classify by
    /// whether their overlay touches the output region.
    pub(crate) fn finish(self) -> Vec<LaneEnd> {
        let (out_lo, out_hi) = (self.out_lo, self.out_hi);
        self.lanes
            .into_iter()
            .map(|lane| match lane.state {
                LaneState::Done(o, cause) => LaneEnd::Resolved(o, cause),
                LaneState::Demoted(cause) => LaneEnd::Demoted(cause),
                LaneState::Pending => LaneEnd::Resolved(Outcome::Masked, RetireCause::Untriggered),
                LaneState::Tracking => {
                    // Overlay invariant: an entry exists iff the lane's word
                    // differs from the golden word *right now* — so the
                    // output comparison is an overlay range scan.
                    let sdc = lane
                        .mem
                        .iter()
                        .any(|e| e.0 == GLOBAL && e.2 >= out_lo && e.2 < out_hi);
                    if sdc {
                        LaneEnd::Resolved(Outcome::Sdc, RetireCause::EndSdc)
                    } else {
                        LaneEnd::Resolved(Outcome::Masked, RetireCause::EndMasked)
                    }
                }
            })
            .collect()
    }

    fn mem_owner(&self, space: MemSpace, tid: u32) -> u32 {
        match space {
            MemSpace::Global => 0,
            MemSpace::Shared => tid / self.threads_per_cta,
            MemSpace::Local => tid,
        }
    }

    fn lane_reg(&self, li: usize, tid: u32, key: u16) -> Option<u32> {
        self.lanes[li]
            .regs
            .iter()
            .find(|e| e.0 == tid && e.1 == key)
            .map(|e| e.2)
    }

    fn lane_mem(&self, li: usize, space: u8, owner: u32, addr: u32) -> Option<u32> {
        self.lanes[li]
            .mem
            .iter()
            .find(|e| e.0 == space && e.1 == owner && e.2 == addr)
            .map(|e| e.3)
    }

    fn sg_add(&mut self, addr: u32, bit: u64) {
        match self.sg.binary_search_by_key(&addr, |e| e.0) {
            Ok(i) => self.sg[i].1 |= bit,
            Err(i) => self.sg.insert(i, (addr, bit)),
        }
    }

    fn sg_remove(&mut self, addr: u32, bit: u64) {
        if let Ok(i) = self.sg.binary_search_by_key(&addr, |e| e.0) {
            self.sg[i].1 &= !bit;
            if self.sg[i].1 == 0 {
                self.sg.remove(i);
            }
        }
    }

    fn insert_reg(&mut self, li: usize, tid: u32, key: u16, raw: u32) {
        if self.lanes[li].state != LaneState::Tracking {
            return;
        }
        {
            let lane = &mut self.lanes[li];
            if let Some(e) = lane.regs.iter_mut().find(|e| e.0 == tid && e.1 == key) {
                e.2 = raw;
                return;
            }
            lane.regs.push((tid, key, raw));
        }
        if let Some(m) = self.tid_private.get_mut(tid as usize) {
            *m |= 1u64 << li;
        }
        if self.lanes[li].regs.len() + self.lanes[li].mem.len() > LANE_ENTRY_CAP {
            self.demote(li, DemoteCause::Capacity);
        }
    }

    fn remove_reg(&mut self, li: usize, tid: u32, key: u16) {
        if self.lanes[li].state != LaneState::Tracking {
            return;
        }
        let lane = &mut self.lanes[li];
        let Some(pos) = lane.regs.iter().position(|e| e.0 == tid && e.1 == key) else {
            return;
        };
        lane.regs.swap_remove(pos);
        let still_private = lane.regs.iter().any(|e| e.0 == tid)
            || lane.mem.iter().any(|e| e.0 == LOCAL && e.1 == tid);
        if !still_private {
            if let Some(m) = self.tid_private.get_mut(tid as usize) {
                *m &= !(1u64 << li);
            }
        }
    }

    fn insert_mem(&mut self, li: usize, space: u8, owner: u32, addr: u32, value: u32) {
        if self.lanes[li].state != LaneState::Tracking {
            return;
        }
        {
            let lane = &mut self.lanes[li];
            if let Some(e) = lane
                .mem
                .iter_mut()
                .find(|e| e.0 == space && e.1 == owner && e.2 == addr)
            {
                e.3 = value;
                return;
            }
            lane.mem.push((space, owner, addr, value));
        }
        if space == LOCAL {
            if let Some(m) = self.tid_private.get_mut(owner as usize) {
                *m |= 1u64 << li;
            }
        } else {
            self.sg_add(addr, 1u64 << li);
        }
        if self.lanes[li].regs.len() + self.lanes[li].mem.len() > LANE_ENTRY_CAP {
            self.demote(li, DemoteCause::Capacity);
        }
    }

    fn remove_mem(&mut self, li: usize, space: u8, owner: u32, addr: u32) {
        if self.lanes[li].state != LaneState::Tracking {
            return;
        }
        let lane = &mut self.lanes[li];
        let Some(pos) = lane
            .mem
            .iter()
            .position(|e| e.0 == space && e.1 == owner && e.2 == addr)
        else {
            return;
        };
        lane.mem.swap_remove(pos);
        if space == LOCAL {
            let still_private = lane.regs.iter().any(|e| e.0 == owner)
                || lane.mem.iter().any(|e| e.0 == LOCAL && e.1 == owner);
            if !still_private {
                if let Some(m) = self.tid_private.get_mut(owner as usize) {
                    *m &= !(1u64 << li);
                }
            }
        } else {
            // Another space's entry at the same byte address keeps the
            // prefilter bit alive.
            let still_addressed = lane.mem.iter().any(|e| e.0 != LOCAL && e.2 == addr);
            if !still_addressed {
                self.sg_remove(addr, 1u64 << li);
            }
        }
    }

    /// Drops lane `li` from every screen and empties its sets.
    fn clear_lane(&mut self, li: usize) {
        let bit = 1u64 << li;
        let site_tid = self.lanes[li].site.tid as usize;
        if let Some(m) = self.trigger_pending.get_mut(site_tid) {
            *m &= !bit;
        }
        let regs = std::mem::take(&mut self.lanes[li].regs);
        let mem = std::mem::take(&mut self.lanes[li].mem);
        for (tid, _, _) in &regs {
            if let Some(m) = self.tid_private.get_mut(*tid as usize) {
                *m &= !bit;
            }
        }
        for (space, owner, addr, _) in &mem {
            if *space == LOCAL {
                if let Some(m) = self.tid_private.get_mut(*owner as usize) {
                    *m &= !bit;
                }
            } else {
                self.sg_remove(*addr, bit);
            }
        }
        self.active &= !bit;
    }

    fn resolve(&mut self, li: usize, outcome: Outcome, cause: RetireCause) {
        self.lanes[li].state = LaneState::Done(outcome, cause);
        self.clear_lane(li);
    }

    fn demote(&mut self, li: usize, cause: DemoteCause) {
        self.lanes[li].state = LaneState::Demoted(cause);
        self.clear_lane(li);
    }

    fn check_converged(&mut self, li: usize) {
        let lane = &self.lanes[li];
        if lane.state == LaneState::Tracking
            && lane.triggered
            && lane.regs.is_empty()
            && lane.mem.is_empty()
        {
            self.resolve(li, Outcome::Masked, RetireCause::Converged);
        }
    }

    /// CTAs run serially: a retirement from `new_cta` means every earlier
    /// CTA finished — its threads' private divergence is unreachable and
    /// its shared memory is reset before the next CTA starts.
    fn cta_turnover(&mut self, new_cta: u32) {
        self.current_cta = Some(new_cta);
        let tid_lo = new_cta * self.threads_per_cta;
        let mut m = self.active;
        while m != 0 {
            let li = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.lanes[li].state != LaneState::Tracking {
                continue;
            }
            let stale_regs: Vec<(u32, u16)> = self.lanes[li]
                .regs
                .iter()
                .filter(|e| e.0 < tid_lo)
                .map(|e| (e.0, e.1))
                .collect();
            for (tid, key) in stale_regs {
                self.remove_reg(li, tid, key);
            }
            let stale_mem: Vec<(u8, u32, u32)> = self.lanes[li]
                .mem
                .iter()
                .filter(|e| match e.0 {
                    LOCAL => e.1 < tid_lo,
                    SHARED => e.1 < new_cta,
                    _ => false,
                })
                .map(|e| (e.0, e.1, e.2))
                .collect();
            for (space, owner, addr) in stale_mem {
                self.remove_mem(li, space, owner, addr);
            }
            self.check_converged(li);
        }
    }

    /// Replicates [`crate::InjectionHook`]'s write-back corruption for lane
    /// `li` at its trigger retirement: walk the destination slots in
    /// write-back order, find the slot the site's flat bit lands in, apply
    /// the fault model to the value the golden run committed there, and
    /// record the divergence (if the model actually changed the value).
    fn fire_trigger(
        &mut self,
        li: usize,
        ev: &RetireEvent<'_>,
        golden_res: &mut Option<(u32, bool, bool)>,
    ) {
        let site = self.lanes[li].site;
        self.lanes[li].state = LaneState::Tracking;
        self.lanes[li].triggered = true;
        let instr = ev.instr;
        let mut bits_seen = 0u32;
        for dest in instr.dst.iter() {
            let Some(Dest::Reg(reg)) = dest else { continue };
            if reg.is_discard() {
                // No write-back fires for discard destinations; they
                // contribute no width to the site's bit index.
                continue;
            }
            let width = instr.register_dest_bits(*reg);
            let offset = site.bit.wrapping_sub(bits_seen);
            if offset < width {
                let (v, c, o) = *golden_res.get_or_insert_with(|| eval_op(instr, ev.srcs));
                let commit = match reg {
                    Register::Pred(_) => flags_of(v, instr.ty, c, o),
                    _ => v,
                };
                let key = (u64::from(site.tid) << 40)
                    ^ (u64::from(site.dyn_idx) << 8)
                    ^ u64::from(site.bit);
                let faulty = self.model.apply(commit, offset, width, key);
                // Mirror `write_reg`: predicate registers retain 4 bits.
                let (g_raw, l_raw) = match reg {
                    Register::Pred(_) => (commit & 0xF, faulty & 0xF),
                    _ => (commit, faulty),
                };
                if l_raw != g_raw {
                    if let Some(k) = reg_key(*reg) {
                        self.insert_reg(li, site.tid, k, l_raw);
                    }
                    // `reg_key` of a non-discard register is only `None`
                    // for specials, whose writes the machine drops — the
                    // flip lands nowhere, the lane stays golden.
                }
                return;
            }
            bits_seen += width;
        }
        // The site's bit indexes past this instruction's destination bits:
        // the solo hook never fires either (a site from a stale trace), and
        // the run is the golden run.
        self.lanes[li].triggered = false;
        self.resolve(li, Outcome::Masked, RetireCause::Untriggered);
    }

    /// Does `m`'s base register currently diverge in lane `li`?
    fn divergent_base(&self, li: usize, tid: u32, m: &MemRef) -> bool {
        m.base
            .and_then(reg_key)
            .is_some_and(|k| self.lane_reg(li, tid, k).is_some())
    }

    /// Re-executes one retirement from lane `li`'s perspective: substitute
    /// the lane's diverged register/memory values into the source operands,
    /// re-evaluate through [`eval_op`], and diff the committed destinations
    /// against the golden ones.
    fn process_lane(
        &mut self,
        li: usize,
        ev: &RetireEvent<'_>,
        has_result: bool,
        golden_res: &mut Option<(u32, bool, bool)>,
    ) {
        if self.lanes[li].fuel == 0 {
            self.demote(li, DemoteCause::Fuel);
            return;
        }
        self.lanes[li].fuel -= 1;
        let tid = ev.tid;
        let instr = ev.instr;
        // A diverged guard predicate: the golden run executed this
        // instruction, so a lane whose flags fail the test leaves the
        // stream — structural control divergence.
        if let Some(g) = &instr.guard {
            if let Some(flags) = self.lane_reg(li, tid, 0x100 | u16::from(g.pred)) {
                if !pred_test(flags as u8, g.test) {
                    self.demote(li, DemoteCause::Control);
                    return;
                }
            }
        }
        // A diverged register feeding an address: the lane touches a word
        // the golden stream does not — untrackable.
        for op in instr.src.iter().flatten() {
            if let Operand::Mem(m) = op {
                if self.divergent_base(li, tid, m) {
                    self.demote(li, DemoteCause::Address);
                    return;
                }
            }
        }
        for d in instr.dst.iter().flatten() {
            if let Dest::Mem(m) = d {
                if self.divergent_base(li, tid, m) {
                    self.demote(li, DemoteCause::Address);
                    return;
                }
            }
        }
        // Build the lane's source values: golden unless the lane holds a
        // divergence for the register read or the word loaded.
        let n = ev.srcs.len();
        let mut lane_srcs = [0u32; 4];
        let mut differs = false;
        let mut access_cursor = 0usize;
        for (i, src) in lane_srcs.iter_mut().enumerate().take(n.min(4)) {
            let gv = ev.srcs[i];
            let lv = match instr.src.get(i).and_then(Option::as_ref) {
                Some(Operand::Reg { reg, half, neg }) => {
                    if instr.opcode == Opcode::Selp && i == 2 {
                        // `selp` steers on raw predicate flags; no operand
                        // processing applies.
                        match reg {
                            Register::Pred(p) => {
                                self.lane_reg(li, tid, 0x100 | u16::from(*p)).unwrap_or(gv)
                            }
                            _ => gv,
                        }
                    } else {
                        match reg_key(*reg) {
                            Some(k) => match self.lane_reg(li, tid, k) {
                                Some(raw) => apply_half_neg(raw, *half, *neg, operand_ty(instr, i)),
                                None => gv,
                            },
                            None => gv,
                        }
                    }
                }
                Some(Operand::Mem(_)) => {
                    // The next load access, in operand order (the base was
                    // proven non-divergent above, so the lane loads the
                    // same address).
                    let mut lv = gv;
                    while access_cursor < ev.accesses.len() {
                        let a = ev.accesses[access_cursor];
                        access_cursor += 1;
                        if a.is_store {
                            continue;
                        }
                        let space = space_code(a.space);
                        let owner = self.mem_owner(a.space, tid);
                        lv = self.lane_mem(li, space, owner, a.addr).unwrap_or(gv);
                        break;
                    }
                    lv
                }
                _ => gv,
            };
            if lv != gv {
                differs = true;
            }
            *src = lv;
        }
        let store = ev.accesses.iter().find(|a| a.is_store).copied();
        if !differs {
            // The lane executes this instruction identically: every
            // destination it writes is re-proven golden.
            if has_result {
                for d in instr.dst.iter().flatten() {
                    if let Dest::Reg(reg) = d {
                        if let Some(k) = reg_key(*reg) {
                            self.remove_reg(li, tid, k);
                        }
                    }
                }
            }
            if let Some(a) = store {
                let space = space_code(a.space);
                let owner = self.mem_owner(a.space, tid);
                self.remove_mem(li, space, owner, a.addr);
            }
            return;
        }
        // Divergent sources: re-evaluate the instruction for the lane and
        // diff each committed destination.
        if instr.opcode == Opcode::St {
            if let Some(a) = store {
                let space = space_code(a.space);
                let owner = self.mem_owner(a.space, tid);
                if lane_srcs[0] != a.value {
                    self.insert_mem(li, space, owner, a.addr, lane_srcs[0]);
                } else {
                    self.remove_mem(li, space, owner, a.addr);
                }
            }
            return;
        }
        if !has_result {
            return;
        }
        let g = *golden_res.get_or_insert_with(|| eval_op(instr, ev.srcs));
        let l = eval_op(instr, &lane_srcs[..n.min(4)]);
        for d in instr.dst.iter().flatten() {
            match d {
                Dest::Reg(reg) if !reg.is_discard() => {
                    let commit_raw = |r: (u32, bool, bool)| match reg {
                        Register::Pred(_) => flags_of(r.0, instr.ty, r.1, r.2) & 0xF,
                        _ => r.0,
                    };
                    let (gc, lc) = (commit_raw(g), commit_raw(l));
                    if let Some(k) = reg_key(*reg) {
                        if lc != gc {
                            self.insert_reg(li, tid, k, lc);
                        } else {
                            self.remove_reg(li, tid, k);
                        }
                    }
                }
                Dest::Mem(_) => {
                    // Store-through-mov: the raw result value goes to
                    // memory at the golden address.
                    if let Some(a) = store {
                        let space = space_code(a.space);
                        let owner = self.mem_owner(a.space, tid);
                        if l.0 != a.value {
                            self.insert_mem(li, space, owner, a.addr, l.0);
                        } else {
                            self.remove_mem(li, space, owner, a.addr);
                        }
                    }
                }
                Dest::Reg(_) => {}
            }
        }
    }
}

/// Opcodes for which `step()` computes a committed result through
/// [`eval_op`] (everything except control flow and `st`).
fn has_eval_result(op: Opcode) -> bool {
    !matches!(
        op,
        Opcode::Nop
            | Opcode::Ssy
            | Opcode::Bra
            | Opcode::Bar
            | Opcode::Ret
            | Opcode::Retp
            | Opcode::Exit
            | Opcode::Trap
            | Opcode::St
    )
}

impl ExecHook for BatchInjectionHook<'_> {
    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        if self.active == 0 {
            return;
        }
        let tid = ev.tid;
        let cta = tid / self.threads_per_cta;
        match self.current_cta {
            Some(c) if cta > c => self.cta_turnover(cta),
            None => self.current_cta = Some(cta),
            _ => {}
        }
        let t = tid as usize;
        let has_result = has_eval_result(ev.instr.opcode);
        // The golden (value, carry, overflow), evaluated at most once per
        // retirement no matter how many lanes look at it.
        let mut golden_res: Option<(u32, bool, bool)> = None;
        // 1. Flips scheduled on this retirement.
        let mut fresh = 0u64;
        let pending_here = self.trigger_pending.get(t).copied().unwrap_or(0);
        if pending_here != 0 {
            let mut m = pending_here;
            while m != 0 {
                let li = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.lanes[li].site.dyn_idx != ev.dyn_idx {
                    continue;
                }
                self.trigger_pending[t] &= !(1u64 << li);
                fresh |= 1u64 << li;
                self.fire_trigger(li, &ev, &mut golden_res);
            }
        }
        // 2. Lanes whose divergence this retirement can touch: private
        // divergence on this thread, or a shared/global word among the
        // instruction's accesses. Freshly-flipped lanes are excluded —
        // their divergence postdates this instruction's reads.
        let mut affected = self.tid_private.get(t).copied().unwrap_or(0);
        if !self.sg.is_empty() {
            for a in ev.accesses {
                if a.space != MemSpace::Local {
                    if let Ok(i) = self.sg.binary_search_by_key(&a.addr, |e| e.0) {
                        affected |= self.sg[i].1;
                    }
                }
            }
        }
        affected &= !fresh;
        let mut m = affected;
        while m != 0 {
            let li = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.lanes[li].state != LaneState::Tracking {
                continue;
            }
            self.process_lane(li, &ev, has_result, &mut golden_res);
        }
        // 3. A finished thread's private divergence is dead.
        let mut dropped = 0u64;
        if matches!(ev.instr.opcode, Opcode::Exit | Opcode::Ret | Opcode::Retp) {
            let mut m = self.tid_private.get(t).copied().unwrap_or(0);
            while m != 0 {
                let li = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.lanes[li].state != LaneState::Tracking {
                    continue;
                }
                dropped |= 1u64 << li;
                let stale_regs: Vec<u16> = self.lanes[li]
                    .regs
                    .iter()
                    .filter(|e| e.0 == tid)
                    .map(|e| e.1)
                    .collect();
                for key in stale_regs {
                    self.remove_reg(li, tid, key);
                }
                let stale_local: Vec<u32> = self.lanes[li]
                    .mem
                    .iter()
                    .filter(|e| e.0 == LOCAL && e.1 == tid)
                    .map(|e| e.2)
                    .collect();
                for addr in stale_local {
                    self.remove_mem(li, LOCAL, tid, addr);
                }
            }
        }
        // 4. Convergence sweep over everything this event touched.
        let mut m = (fresh | affected | dropped) & self.active;
        while m != 0 {
            let li = m.trailing_zeros() as usize;
            m &= m - 1;
            self.check_converged(li);
        }
    }

    fn on_guard_fail(&mut self, tid: u32, pred: u8, test: PredTest) {
        // The golden run skipped this instruction; a lane whose diverged
        // flags pass the test would execute it — structural divergence.
        let mut m = self.tid_private.get(tid as usize).copied().unwrap_or(0);
        while m != 0 {
            let li = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.lanes[li].state != LaneState::Tracking {
                continue;
            }
            if let Some(flags) = self.lane_reg(li, tid, 0x100 | u16::from(pred)) {
                if pred_test(flags as u8, test) {
                    self.demote(li, DemoteCause::Control);
                }
            }
        }
    }

    #[inline]
    fn converged(&self) -> bool {
        self.active == 0
    }

    /// Settles every lane whose CTA has ended and that the cut rule admits;
    /// the shared replay stops once no lane is left.
    fn on_cta_end(&mut self, cta: u32, _global: &MemBlock, budget: u64) -> bool {
        let Some(rule) = self.cut else {
            return false;
        };
        if !rule.applies(cta) {
            return false;
        }
        // A lane never demoted has retired the golden stream, so the
        // replay's budget is its own.
        let mut m = self.active;
        while m != 0 {
            let li = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.lanes[li].site.tid / self.threads_per_cta > cta {
                continue;
            }
            match self.lanes[li].state {
                LaneState::Pending => {
                    self.resolve(li, Outcome::Masked, RetireCause::Untriggered);
                }
                LaneState::Tracking => {
                    let d = self.lanes[li]
                        .mem
                        .iter()
                        .filter(|e| e.0 == GLOBAL)
                        .map(|e| e.2);
                    if let Some(cut) = rule.judge(cta, budget, d) {
                        let cause = if cut.restored {
                            RetireCause::Converged
                        } else if cut.outcome == Outcome::Sdc {
                            RetireCause::EndSdc
                        } else {
                            RetireCause::EndMasked
                        };
                        self.resolve(li, cut.outcome, cause);
                    }
                }
                LaneState::Done(..) | LaneState::Demoted(_) => {}
            }
        }
        self.active == 0
    }
}

/// Stable version tag of the batched-execution format. Persistent outcome
/// stores fold this into their keys (alongside
/// [`crate::classifier_hash`]) so results computed under a different lane
/// model miss instead of being served as current. Bump on any change to
/// the lane semantics above.
#[must_use]
pub fn batch_version() -> u64 {
    let mut h = fsp_obs::Fnv1a::new();
    h.write_u64(1); // lane-model revision
    h.write_u64(MAX_BATCH as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::assemble;
    use fsp_sim::{Launch, MemBlock, Simulator};

    fn run_batch(
        src: &str,
        words: usize,
        sites: &[FaultSite],
        model: FaultModel,
    ) -> (Vec<LaneEnd>, MemBlock) {
        let p = assemble("t", src).unwrap();
        let launch = Launch::new(p);
        let mut mem = MemBlock::with_words(words);
        let mut hook = BatchInjectionHook::new(
            sites,
            model,
            launch.num_threads(),
            launch.threads_per_cta(),
            (0, words),
        );
        Simulator::new().run(&launch, &mut mem, &mut hook).unwrap();
        (hook.finish(), mem)
    }

    #[test]
    fn overwritten_lane_converges_early() {
        let ends = run_batch(
            r#"
            mov.u32 $r1, 0x5
            mov.u32 $r2, 0x7
            mov.u32 $r1, 0x9
            st.global.u32 [$r124], $r1
            st.global.u32 [$r124+0x4], $r2
            exit
            "#,
            2,
            &[FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 3,
            }],
            FaultModel::SingleBitFlip,
        )
        .0;
        assert_eq!(
            ends,
            vec![LaneEnd::Resolved(Outcome::Masked, RetireCause::Converged)]
        );
    }

    #[test]
    fn stored_lane_classifies_sdc_and_memory_stays_golden() {
        let (ends, mem) = run_batch(
            r#"
            mov.u32 $r1, 0x5
            st.global.u32 [$r124], $r1
            exit
            "#,
            1,
            &[FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 3,
            }],
            FaultModel::SingleBitFlip,
        );
        assert_eq!(
            ends,
            vec![LaneEnd::Resolved(Outcome::Sdc, RetireCause::EndSdc)]
        );
        // The shared replay is fault-free: memory holds the *golden* value.
        assert_eq!(mem.load(0).unwrap(), 0x5);
    }

    #[test]
    fn control_divergence_demotes_only_that_lane() {
        let ends = run_batch(
            r#"
            set.eq.u32.u32 $p0/$o127, $r124, $r124
            @$p0.eq bra skip
            mov.u32 $r1, 0x1
            skip:
            mov.u32 $r2, 0x3
            mov.u32 $r2, 0x4
            st.global.u32 [$r124], $r1
            exit
            "#,
            1,
            &[
                // Lane 0 flips a predicate flag of dyn 0: the guard at dyn 1
                // steers differently -> demoted.
                FaultSite {
                    tid: 0,
                    dyn_idx: 0,
                    bit: 0,
                },
                // Lane 1 flips $r2 at dyn 2 (the taken branch retires as
                // dyn 1), overwritten at dyn 3 -> converges.
                FaultSite {
                    tid: 0,
                    dyn_idx: 2,
                    bit: 1,
                },
            ],
            FaultModel::SingleBitFlip,
        )
        .0;
        assert_eq!(ends[0], LaneEnd::Demoted(DemoteCause::Control));
        assert_eq!(
            ends[1],
            LaneEnd::Resolved(Outcome::Masked, RetireCause::Converged)
        );
    }

    #[test]
    fn untriggered_site_is_masked() {
        let ends = run_batch(
            r#"
            mov.u32 $r1, 0x5
            st.global.u32 [$r124], $r1
            exit
            "#,
            1,
            &[FaultSite {
                tid: 0,
                dyn_idx: 99,
                bit: 0,
            }],
            FaultModel::SingleBitFlip,
        )
        .0;
        assert_eq!(
            ends,
            vec![LaneEnd::Resolved(Outcome::Masked, RetireCause::Untriggered)]
        );
    }

    #[test]
    fn noop_stuck_at_converges() {
        // Bit 0 of 0x1 is already 1: StuckAt1 commits the golden value.
        let ends = run_batch(
            r#"
            mov.u32 $r1, 0x1
            st.global.u32 [$r124], $r1
            exit
            "#,
            1,
            &[FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 0,
            }],
            FaultModel::StuckAt1,
        )
        .0;
        assert_eq!(
            ends,
            vec![LaneEnd::Resolved(Outcome::Masked, RetireCause::Converged)]
        );
    }

    #[test]
    fn unread_divergence_dies_with_thread() {
        let ends = run_batch(
            r#"
            mov.u32 $r1, 0x5
            st.global.u32 [$r124], $r2
            exit
            "#,
            1,
            &[FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 3,
            }],
            FaultModel::SingleBitFlip,
        )
        .0;
        assert_eq!(
            ends,
            vec![LaneEnd::Resolved(Outcome::Masked, RetireCause::Converged)]
        );
    }

    #[test]
    fn divergence_propagates_through_arithmetic() {
        // $r1 flipped at dyn 0; $r3 = $r1 + 1 inherits the divergence and
        // reaches the output -> SDC on the *derived* word.
        let ends = run_batch(
            r#"
            mov.u32 $r1, 0x10
            add.u32 $r3, $r1, 0x1
            st.global.u32 [$r124], $r3
            exit
            "#,
            1,
            &[FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 0,
            }],
            FaultModel::SingleBitFlip,
        )
        .0;
        assert_eq!(
            ends,
            vec![LaneEnd::Resolved(Outcome::Sdc, RetireCause::EndSdc)]
        );
    }

    #[test]
    fn masking_and_restores_convergence() {
        // The flipped high bit of $r1 is ANDed away before the store.
        let ends = run_batch(
            r#"
            mov.u32 $r1, 0x3
            and.u32 $r3, $r1, 0xF
            st.global.u32 [$r124], $r3
            exit
            "#,
            1,
            &[FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 31,
            }],
            FaultModel::SingleBitFlip,
        )
        .0;
        // $r1 stays divergent (never overwritten before exit) but $r3 is
        // proven golden; $r1 dies with the thread -> converged.
        assert_eq!(
            ends,
            vec![LaneEnd::Resolved(Outcome::Masked, RetireCause::Converged)]
        );
    }

    #[test]
    fn batch_version_is_stable() {
        assert_eq!(batch_version(), batch_version());
        assert_ne!(batch_version(), 0);
    }
}
