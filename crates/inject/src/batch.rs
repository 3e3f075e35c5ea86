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
//! The key identity making this sound: as long as an injected run retires
//! the *same instruction stream* as the golden run, its machine state is
//! `golden state + divergence set`. The hook executes the golden run and
//! *recomputes* each lane's divergent values from
//! [`fsp_sim::RetireEvent::srcs`] through [`fsp_sim::eval_op`] — the very
//! evaluator the simulator commits through, so lane values are
//! bit-identical to a real faulty execution by construction.
//!
//! Per dynamic instruction the stream is decoded, its operands resolved and
//! its result evaluated **once**; each lane then pays only for events that
//! can touch its divergence set (screened by per-thread and per-address
//! bitmasks over all lanes at once).
//!
//! A lane whose base register diverges follows its own address
//! `lane base + offset` through [`fsp_sim::RetireEvent::mem`], a read-only
//! view of the memories after the retirement. A load reads the lane's
//! overlay entry, else the golden word — the overwritten word
//! ([`fsp_sim::MemAccess::prev`]) if this same instruction stored there.
//! A store leaves the golden address holding the lane's previous word and
//! the lane address holding the lane's value: two ordinary overlay
//! entries, which the screens, the convergence check and the CTA cut
//! handle like any other. Lanes retire independently:
//!
//! * **Converged** — the lane's set empties after its flip: machine state
//!   equals golden state, determinism forces the golden outcome → `Masked`.
//! * **Untriggered** — the site's destination bit was never written (stale
//!   site), or its thread exited before the flip: the run is the golden
//!   run → `Masked`.
//! * **End of stream** — at the exit of the lane's thread (its CTA
//!   releasing no barrier), or at the end of the lane's CTA or a later
//!   one, the replay cut (`crate::cut`) proves that the rest of the run
//!   replays the golden run: the lane's overlay is exactly the set of
//!   corrupted words the rule needs, so the lane is settled there as
//!   `Sdc` or `Masked` without materializing its memory. A lane the rule
//!   refuses keeps tracking until a later boundary or the end of the
//!   replay, where the overlay decides the same way.
//! * **Trapped** — the lane's own address is out of bounds or misaligned:
//!   its run faults on this instruction → `Crash`, with no run at all.
//! * **Demoted** — a diverged predicate would steer a guard differently
//!   (the lane leaves the golden stream), or the lane outgrows its set
//!   budget: only *that lane* falls back to the solo path; the batch keeps
//!   going.
//!
//! A lane that is never demoted provably retires exactly the golden
//! *instruction* stream (every guard it would evaluate differently demotes
//! it first), so the first fault its run can take is an access through a
//! divergent address — and that is exactly where `Trapped` resolves it.
//! Tracked lanes can never hang or exit through `trap`: those outcomes
//! surface only through the solo fallback.

use fsp_isa::{Dest, MemRef, MemSpace, Opcode, Operand, PredTest, Register};
use fsp_sim::{
    apply_half_neg, eval_op, flags_of, operand_ty, pred_test, ExecHook, MemAccess, MemBlock,
    RetireEvent,
};
use fsp_stats::Outcome;

use crate::cut::{At, CtaCut, Cut, Word};
use crate::model::FaultModel;
use crate::site::FaultSite;

/// Lane-count ceiling, and the default lane budget of a batched replay:
/// lane sets are screened through `u64` bitmasks, and a replay carries as
/// many lanes as they hold.
pub const MAX_BATCH: usize = 64;

/// Per-lane cap on total divergence entries (registers + memory words).
/// Sets this wide almost never converge; scanning them per event costs more
/// than re-running the lane solo.
const LANE_ENTRY_CAP: usize = 192;

/// Per-lane budget of *processed* events after its flip: most masking
/// overwrites land within a few hundred instructions, and a lane still
/// divergent after this much tracked work almost always stays divergent.
const LANE_TRACK_WINDOW: u32 = 4096;

/// Space codes (see [`space_code`]), named for the scans below.
const GLOBAL: u8 = 0;
const SHARED: u8 = 1;
const LOCAL: u8 = 2;

/// Compact key for a register: thread-private, so keyed per tid elsewhere.
/// `None` for registers that cannot carry state (`$r124`, `$o127`,
/// specials) — writes to them are discarded and never diverge.
fn reg_key(reg: Register) -> Option<u16> {
    match reg {
        Register::Special(_) | Register::Discard => None,
        Register::Gpr(124) => None,
        Register::Gpr(n) => Some(u16::from(n)),
        Register::Pred(n) => Some(0x100 | u16::from(n)),
        Register::Ofs(n) => Some(0x200 | u16::from(n)),
    }
}

/// Code of a memory word's space in a lane's overlay key `(space code,
/// owner, byte address)`. Global words have one owner (0); shared words
/// are owned by their CTA; local words by their thread.
fn space_code(space: MemSpace) -> u8 {
    match space {
        MemSpace::Global => GLOBAL,
        MemSpace::Shared => SHARED,
        MemSpace::Local => LOCAL,
    }
}

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
    /// The lane's own address for a memory operand is out of bounds or
    /// misaligned: its run faults on that instruction → `Crash`.
    Trapped,
}

/// Why a lane was handed back to the solo path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DemoteCause {
    /// A diverged predicate would steer a guard differently.
    Control,
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

/// Where a lane's store lands, and the golden word there after the
/// retirement.
#[derive(Debug, Clone, Copy)]
struct LaneAddr {
    addr: u32,
    golden: u32,
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
    /// Flat-tid bounds `[cta_lo, cta_hi)` of the CTA of the last
    /// retirement seen (empty before the first); a later CTA retires all
    /// earlier CTAs' private and shared divergence (CTAs run serially).
    cta_lo: u32,
    cta_hi: u32,
    /// The replay cut rule, when enabled.
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
            cta_lo: 0,
            cta_hi: 0,
            cut: None,
        }
    }

    /// Enables the replay cut under `rule`.
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

    /// Resolves lane `li`, stopped by the replay cut as `cut`.
    fn settle(&mut self, li: usize, cut: Cut) {
        let cause = if cut.restored {
            RetireCause::Converged
        } else if cut.outcome == Outcome::Sdc {
            RetireCause::EndSdc
        } else {
            RetireCause::EndMasked
        };
        self.resolve(li, cut.outcome, cause);
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
        let tid_lo = new_cta * self.threads_per_cta;
        self.cta_lo = tid_lo;
        self.cta_hi = tid_lo + self.threads_per_cta;
        let mut m = self.active;
        while m != 0 {
            let li = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.lanes[li].state != LaneState::Tracking {
                continue;
            }
            let bit = 1u64 << li;
            let Self {
                lanes, tid_private, ..
            } = self;
            let lane = &mut lanes[li];
            let mut unmask = |tid: u32| {
                if let Some(m) = tid_private.get_mut(tid as usize) {
                    *m &= !bit;
                }
            };
            // Every private entry of an earlier thread goes, so its mask
            // bit goes with it.
            lane.regs.retain(|e| {
                let keep = e.0 >= tid_lo;
                if !keep {
                    unmask(e.0);
                }
                keep
            });
            let mut shared_dropped = false;
            lane.mem.retain(|e| {
                let keep = match e.0 {
                    LOCAL => e.1 >= tid_lo,
                    SHARED => e.1 >= new_cta,
                    _ => true,
                };
                if !keep {
                    if e.0 == LOCAL {
                        unmask(e.1);
                    } else {
                        shared_dropped = true;
                    }
                }
                keep
            });
            if shared_dropped {
                self.rescreen(li);
            }
            self.check_converged(li);
        }
    }

    /// Rebuilds lane `li`'s bits in the shared/global prefilter from its
    /// overlay.
    fn rescreen(&mut self, li: usize) {
        let bit = 1u64 << li;
        for e in &mut self.sg {
            e.1 &= !bit;
        }
        self.sg.retain(|e| e.1 != 0);
        for i in 0..self.lanes[li].mem.len() {
            let e = self.lanes[li].mem[i];
            if e.0 != LOCAL {
                self.sg_add(e.2, bit);
            }
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

    /// Lane `li`'s address for memory operand `m`, whose golden access
    /// is `a`: the golden address unless `m`'s base register diverges.
    fn lane_addr(&self, li: usize, tid: u32, m: &MemRef, a: &MemAccess) -> u32 {
        match m
            .base
            .and_then(reg_key)
            .and_then(|k| self.lane_reg(li, tid, k))
        {
            Some(base) => base.wrapping_add(m.offset),
            None => a.addr,
        }
    }

    /// The word lane `li` loads at `addr` for the golden load `a`: its own
    /// overlay entry, else the golden word as it stood before this
    /// retirement. `None` if `addr` faults.
    fn lane_load(&self, li: usize, ev: &RetireEvent<'_>, a: &MemAccess, addr: u32) -> Option<u32> {
        let golden = if addr == a.addr {
            a.value
        } else {
            let now = ev.mem.load(a.space, addr).ok()?;
            // A store of this same instruction has already overwritten the
            // word the lane reads before it.
            ev.accesses
                .iter()
                .find(|s| s.is_store && s.space == a.space && s.addr == addr)
                .map_or(now, |s| s.prev)
        };
        let owner = self.mem_owner(a.space, ev.tid);
        Some(
            self.lane_mem(li, space_code(a.space), owner, addr)
                .unwrap_or(golden),
        )
    }

    /// Commits lane `li`'s store of `value` to `at.addr`, where the golden
    /// word now is `at.golden`, against the golden store `a`. A store to
    /// another address leaves the golden address holding the lane's
    /// previous word.
    fn lane_store(&mut self, li: usize, tid: u32, a: &MemAccess, at: LaneAddr, value: u32) {
        let space = space_code(a.space);
        let owner = self.mem_owner(a.space, tid);
        if at.addr != a.addr {
            let before = self.lane_mem(li, space, owner, a.addr).unwrap_or(a.prev);
            self.set_mem(li, space, owner, a.addr, before, a.value);
        }
        self.set_mem(li, space, owner, at.addr, value, at.golden);
    }

    /// Records lane `li`'s word at `addr` against the golden word there.
    fn set_mem(&mut self, li: usize, space: u8, owner: u32, addr: u32, lane: u32, golden: u32) {
        if lane != golden {
            self.insert_mem(li, space, owner, addr, lane);
        } else {
            self.remove_mem(li, space, owner, addr);
        }
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
        // The store, if any, and the address the lane stores to. A lane
        // address the machine would fault on is the lane run's first
        // fault: every earlier retirement of it matched the golden stream.
        let mut store = None;
        if let Some(a) = ev.accesses.iter().find(|a| a.is_store) {
            let m = instr.dst.iter().flatten().find_map(|d| match d {
                Dest::Mem(m) => Some(m),
                Dest::Reg(_) => None,
            });
            let addr = m.map_or(a.addr, |m| self.lane_addr(li, tid, m, a));
            let golden = if addr == a.addr {
                Ok(a.value)
            } else {
                ev.mem.load(a.space, addr)
            };
            let Ok(golden) = golden else {
                self.resolve(li, Outcome::CRASH, RetireCause::Trapped);
                return;
            };
            store = Some((*a, LaneAddr { addr, golden }));
        }
        // Build the lane's source values: golden unless the lane holds a
        // divergence for the register read or loads a different word.
        let n = ev.srcs.len();
        let mut lane_srcs = [0u32; 4];
        let mut differs = false;
        let mut loads = ev.accesses.iter().filter(|a| !a.is_store);
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
                // The next load access, in operand order.
                Some(Operand::Mem(m)) => match loads.next() {
                    Some(a) => {
                        let addr = self.lane_addr(li, tid, m, a);
                        let Some(lv) = self.lane_load(li, ev, a, addr) else {
                            self.resolve(li, Outcome::CRASH, RetireCause::Trapped);
                            return;
                        };
                        lv
                    }
                    None => gv,
                },
                _ => gv,
            };
            if lv != gv {
                differs = true;
            }
            *src = lv;
        }
        let moved = store.is_some_and(|(a, at)| at.addr != a.addr);
        if !differs && !moved {
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
            if let Some((a, _)) = store {
                let space = space_code(a.space);
                let owner = self.mem_owner(a.space, tid);
                self.remove_mem(li, space, owner, a.addr);
            }
            return;
        }
        // Divergent sources or store address: re-evaluate the instruction
        // for the lane and diff each committed destination.
        if instr.opcode == Opcode::St {
            if let Some((a, at)) = store {
                self.lane_store(li, tid, &a, at, lane_srcs[0]);
            }
            return;
        }
        if !has_result {
            return;
        }
        let g = *golden_res.get_or_insert_with(|| eval_op(instr, ev.srcs));
        let l = if differs {
            eval_op(instr, &lane_srcs[..n.min(4)])
        } else {
            g
        };
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
                    // memory.
                    if let Some((a, at)) = store {
                        self.lane_store(li, tid, &a, at, l.0);
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

impl BatchInjectionHook<'_> {
    /// Whether retirement `ev` leaves every lane as it is: no flip is
    /// pending on its thread, no lane holds private divergence there, none
    /// of its accesses touches a divergent shared/global word, and it does
    /// not start a new CTA.
    #[inline]
    fn quiet(&self, ev: &RetireEvent<'_>) -> bool {
        let t = ev.tid as usize;
        ev.tid < self.cta_hi
            && self.trigger_pending.get(t).is_none_or(|&m| m == 0)
            && self.tid_private.get(t).is_none_or(|&m| m == 0)
            && (self.sg.is_empty()
                || ev.accesses.iter().all(|a| {
                    a.space == MemSpace::Local
                        || self.sg.binary_search_by_key(&a.addr, |e| e.0).is_err()
                }))
    }

    /// [`ExecHook::on_retire`] past the [`BatchInjectionHook::quiet`]
    /// screen.
    #[inline(never)]
    fn retire(&mut self, ev: RetireEvent<'_>) {
        let tid = ev.tid;
        if tid >= self.cta_hi {
            self.cta_turnover(tid / self.threads_per_cta);
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
                let lane = &mut self.lanes[li];
                lane.regs.retain(|e| e.0 != tid);
                lane.mem.retain(|e| e.0 != LOCAL || e.1 != tid);
                self.tid_private[t] &= !(1u64 << li);
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
}

impl ExecHook for BatchInjectionHook<'_> {
    #[inline]
    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        if self.active != 0 && !self.quiet(&ev) {
            self.retire(ev);
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
                        .map(|e| Word::global(e.2));
                    if let Some(cut) = rule.judge(At::CtaEnd, cta, rule.end(cta), budget, d) {
                        self.settle(li, cut);
                    }
                }
                LaneState::Done(..) | LaneState::Demoted(_) => {}
            }
        }
        self.active == 0
    }

    /// Settles the lanes whose site is on the exiting thread `tid`: a
    /// pending one never flips, and a tracking one is judged by the
    /// thread-exit rule, its overlay being D. The replay is golden and a
    /// lane that would steer into a `bar` is demoted at the guard, so no
    /// tracking lane has released a barrier where the rule applies. The
    /// shared replay stops once no lane is left.
    fn on_thread_exit(
        &mut self,
        tid: u32,
        _released: bool,
        _global: &MemBlock,
        budget: u64,
    ) -> bool {
        let exit = self
            .cut
            .and_then(|rule| Some((rule, rule.thread_exit(tid)?)));
        let mut m = self.active;
        while m != 0 {
            let li = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.lanes[li].site.tid != tid {
                continue;
            }
            match self.lanes[li].state {
                LaneState::Pending => {
                    self.resolve(li, Outcome::Masked, RetireCause::Untriggered);
                }
                LaneState::Tracking => {
                    let Some((rule, (cta, pos))) = exit else {
                        continue;
                    };
                    let d = self.lanes[li]
                        .mem
                        .iter()
                        .filter(|e| e.0 != LOCAL)
                        .map(|e| Word {
                            shared: e.0 == SHARED,
                            addr: e.2,
                        });
                    if let Some(cut) = rule.judge(At::ThreadExit, cta, pos, budget, d) {
                        self.settle(li, cut);
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
    h.write_u64(2); // lane-model revision
    h.write_u64(MAX_BATCH as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InjectionHook;
    use fsp_isa::assemble;
    use fsp_sim::{Launch, MemBlock, NopHook, SimFault, Simulator};

    /// Runs `sites` as lanes of one batched replay over `words` words of
    /// global memory (all of it the output region), and checks every lane
    /// the batch resolved against the site's own injected run.
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
        let ends = hook.finish();
        // The replay stops once every lane resolved: the lanes' runs are
        // judged against a full golden run.
        let mut golden = MemBlock::with_words(words);
        Simulator::new()
            .run(&launch, &mut golden, &mut NopHook)
            .unwrap();
        for (&site, end) in sites.iter().zip(&ends) {
            if let LaneEnd::Resolved(outcome, _) = end {
                let mut faulty = MemBlock::with_words(words);
                let mut solo = InjectionHook::with_model(site, model);
                let solo_outcome = match Simulator::new().run(&launch, &mut faulty, &mut solo) {
                    Err(SimFault::BudgetExceeded) => Outcome::HANG,
                    Err(SimFault::DetectedExit { .. }) => Outcome::Detected,
                    Err(_) => Outcome::CRASH,
                    Ok(_) if faulty == golden => Outcome::Masked,
                    Ok(_) => Outcome::Sdc,
                };
                assert_eq!(
                    *outcome, solo_outcome,
                    "lane {site:?} disagrees with its run"
                );
            }
        }
        (ends, mem)
    }

    fn site(dyn_idx: u32, bit: u32) -> FaultSite {
        FaultSite {
            tid: 0,
            dyn_idx,
            bit,
        }
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
    fn divergent_load_reads_another_words_golden_value() {
        let ends = run_batch(
            r#"
            mov.u32 $r5, 0x7
            st.global.u32 [$r124], $r5
            st.global.u32 [$r124+0x4], $r5
            mov.u32 $r6, 0x9
            st.global.u32 [$r124+0x8], $r6
            mov.u32 $r1, 0x0
            ld.global.u32 $r2, [$r1]
            st.global.u32 [$r124+0xc], $r2
            exit
            "#,
            4,
            // The base flips to word 1 (same golden value as word 0) and
            // to word 2 (a different one).
            &[site(5, 2), site(5, 3)],
            FaultModel::SingleBitFlip,
        )
        .0;
        assert_eq!(
            ends,
            vec![
                LaneEnd::Resolved(Outcome::Masked, RetireCause::Converged),
                LaneEnd::Resolved(Outcome::Sdc, RetireCause::EndSdc),
            ]
        );
    }

    #[test]
    fn divergent_store_keeps_the_golden_address_divergent() {
        // The lane stores to word 1 and leaves word 0 at its old value;
        // the golden run then writes word 1 too, so only word 0 differs.
        let ends = run_batch(
            r#"
            mov.u32 $r5, 0x9
            mov.u32 $r1, 0x0
            st.global.u32 [$r1], $r5
            st.global.u32 [$r124+0x4], $r5
            exit
            "#,
            2,
            &[site(1, 2)],
            FaultModel::SingleBitFlip,
        )
        .0;
        assert_eq!(
            ends,
            vec![LaneEnd::Resolved(Outcome::Sdc, RetireCause::EndSdc)]
        );
    }

    #[test]
    fn divergent_store_converges_once_both_words_are_rewritten() {
        let ends = run_batch(
            r#"
            mov.u32 $r5, 0x9
            mov.u32 $r1, 0x0
            st.global.u32 [$r1], $r5
            st.global.u32 [$r124], $r5
            st.global.u32 [$r124+0x4], $r5
            exit
            "#,
            2,
            &[site(1, 2)],
            FaultModel::SingleBitFlip,
        )
        .0;
        assert_eq!(
            ends,
            vec![LaneEnd::Resolved(Outcome::Masked, RetireCause::Converged)]
        );
    }

    #[test]
    fn faulting_lane_addresses_trap_as_crash() {
        // Global is 8 bytes, shared 16 KiB, local 4 KiB: bit 0 of a base
        // misaligns it, bit 20 puts it out of bounds in every space.
        let (ends, _) = run_batch(
            r#"
            mov.u32 $r1, 0x0
            ld.global.u32 $r2, [$r1]
            mov.u32 $r3, 0x20
            st.shared.u32 s[$r3], $r2
            mov.u32 $r4, 0x24
            ld.shared.u32 $r5, s[$r4]
            mov.u32 $r6, 0x4
            st.global.u32 [$r6], $r5
            mov.u32 $r7, 0x8
            st.local.u32 l[$r7], $r5
            exit
            "#,
            2,
            &[
                site(0, 0),
                site(0, 20),
                site(2, 0),
                site(2, 20),
                site(4, 0),
                site(4, 20),
                site(6, 0),
                site(6, 20),
                site(8, 0),
                site(8, 20),
                // In bounds: the lane reads word 1 (golden 0) and tracks on.
                site(0, 2),
            ],
            FaultModel::SingleBitFlip,
        );
        let trapped = LaneEnd::Resolved(Outcome::CRASH, RetireCause::Trapped);
        assert_eq!(ends[..10], [trapped; 10]);
        assert_eq!(
            ends[10],
            LaneEnd::Resolved(Outcome::Masked, RetireCause::Converged)
        );
    }

    #[test]
    fn lane_load_of_a_word_stored_by_the_same_instruction_reads_the_old_word() {
        // `mov [$r124], [$r1]` copies word 1 over word 0; the lane's base
        // points at word 0 itself, so it copies word 0's old value.
        let ends = run_batch(
            r#"
            mov.u32 $r5, 0x5
            st.global.u32 [$r124], $r5
            mov.u32 $r6, 0x9
            st.global.u32 [$r124+0x4], $r6
            mov.u32 $r1, 0x4
            mov.u32 [$r124], [$r1]
            exit
            "#,
            2,
            &[site(4, 2)],
            FaultModel::SingleBitFlip,
        )
        .0;
        assert_eq!(
            ends,
            vec![LaneEnd::Resolved(Outcome::Sdc, RetireCause::EndSdc)]
        );
    }

    #[test]
    fn batch_version_is_stable() {
        assert_eq!(batch_version(), batch_version());
        assert_ne!(batch_version(), 0);
    }
}
