//! Execution hooks: the attachment point for tracing and fault injection.

use fsp_isa::{Instruction, MemSpace, PredTest, Register};

use crate::exec::SimFault;
use crate::mem::MemBlock;
use crate::thread::LOCAL_WORDS;

/// One memory word touched by a retiring instruction.
///
/// Reported through [`RetireEvent::accesses`] in operand order (loads as
/// the sources are fetched, then the store, if any), so divergence-tracking
/// hooks can follow corrupted values through memory without re-decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Address space of the access.
    pub space: MemSpace,
    /// Resolved byte address.
    pub addr: u32,
    /// `true` for a store, `false` for a load.
    pub is_store: bool,
    /// The word transferred: the value read for a load, the value
    /// committed for a store.
    pub value: u32,
    /// The word the access overwrote: for a store, the word held there
    /// before it; for a load, equal to `value`.
    pub prev: u32,
}

/// Read-only view of the memories a retiring instruction's thread can
/// address, as they stand after the retirement.
#[derive(Debug, Clone, Copy)]
pub struct MemView<'a> {
    /// Global memory.
    pub global: &'a MemBlock,
    /// The running CTA's shared memory.
    pub shared: &'a MemBlock,
    /// The retiring thread's local memory; `None` until the thread first
    /// touches it (it then reads as zeroes).
    pub local: Option<&'a MemBlock>,
}

impl MemView<'_> {
    /// Loads the word at byte address `addr` in `space`, failing exactly
    /// as the machine would for the retiring thread.
    ///
    /// # Errors
    ///
    /// [`SimFault::Unaligned`] or [`SimFault::InvalidAccess`].
    pub fn load(&self, space: MemSpace, addr: u32) -> Result<u32, SimFault> {
        match (space, self.local) {
            (MemSpace::Global, _) => self.global.load(addr),
            (MemSpace::Shared, _) => self.shared.load(addr),
            (MemSpace::Local, Some(local)) => local.load(addr),
            (MemSpace::Local, None) => MemBlock::with_space(LOCAL_WORDS, space).load(addr),
        }
    }
}

/// An executed ("retired") instruction, reported once per guard-passing
/// dynamic instruction.
#[derive(Debug, Clone, Copy)]
pub struct RetireEvent<'a> {
    /// Grid-wide flat thread id.
    pub tid: u32,
    /// 0-based dynamic instruction index within the thread.
    pub dyn_idx: u32,
    /// Static instruction index (program counter).
    pub pc: usize,
    /// The instruction.
    pub instr: &'a Instruction,
    /// Memory words the instruction touched, in operand order.
    pub accesses: &'a [MemAccess],
    /// The memories after the instruction retired, for hooks that follow
    /// a shadow value to an address the instruction did not touch.
    pub mem: MemView<'a>,
    /// Processed source-operand values (after half-word selection and
    /// negation), in source-slot order. For `selp`, slot 2 holds the raw
    /// 4-bit flags of the steering predicate. Empty for control
    /// instructions. Feeding these to [`crate::eval_op`] reproduces the
    /// committed result bit-for-bit.
    pub srcs: &'a [u32],
}

/// A register write-back about to be committed.
#[derive(Debug, Clone, Copy)]
pub struct Writeback {
    /// Grid-wide flat thread id.
    pub tid: u32,
    /// 0-based dynamic instruction index within the thread.
    pub dyn_idx: u32,
    /// Static instruction index.
    pub pc: usize,
    /// Destination slot (0 or 1; `set.eq $p0/$r1` writes two).
    pub slot: u8,
    /// Destination register.
    pub reg: Register,
    /// The value the instruction produced (4-bit flags for predicate
    /// registers, right-aligned).
    pub value: u32,
    /// Fault-site width of this destination in bits (4 for predicates,
    /// 16/32 for general-purpose registers).
    pub width: u32,
}

/// Observer/interceptor of kernel execution.
///
/// `on_retire` fires once per executed instruction; `writeback` fires once
/// per destination-register write and may override the committed value —
/// returning `Some(v)` commits `v` instead. A single-bit fault injection is
/// `Some(value ^ (1 << bit))`.
///
/// Instructions whose guard fails do not retire and do not write back,
/// matching the paper's fault-site definition (a site is a bit of a
/// destination register that is actually written); they are reported via
/// `on_guard_fail` instead, so divergence trackers can tell whether a
/// corrupted predicate steered control flow.
pub trait ExecHook {
    /// Whether the thread-serial schedule may cut a run short on an
    /// *affine* certificate (see the spin detector in `machine.rs`): a
    /// loop whose changing registers are counters stepping by constants
    /// and data that never steers it. The certificate names the fault the
    /// loop ends in: budget exhaustion, when no compare can flip within the
    /// remaining budget, or the first out-of-bounds access of a pointer
    /// the loop walks. Off by default, so hook-free runs and the slow
    /// injection path keep the exact-recurrence rule only and serve as the
    /// oracle for the prediction.
    const PREDICT_HANGS: bool = false;

    /// Called after an instruction retires (all write-backs committed).
    #[inline]
    fn on_retire(&mut self, _ev: RetireEvent<'_>) {}

    /// Called before a destination-register write commits; may override the
    /// value.
    #[inline]
    fn writeback(&mut self, _wb: &Writeback) -> Option<u32> {
        None
    }

    /// Called when an instruction's guard fails (the instruction does not
    /// retire). `pred` is the guard's predicate register number and `test`
    /// the condition it evaluated, so shadow-lane trackers can re-evaluate
    /// the guard against a lane's diverged flags.
    #[inline]
    fn on_guard_fail(&mut self, _tid: u32, _pred: u8, _test: PredTest) {}

    /// Polled between steps (thread-serial schedule only): returning `true`
    /// stops the run early with whatever state has accumulated. Injection
    /// fast paths use this to cut a run short once the fault provably can
    /// no longer change the outcome.
    #[inline]
    fn converged(&self) -> bool {
        false
    }

    /// The retirement ordinal (`dyn_idx`) of the fault this hook injects
    /// into thread `tid`, if it injects one there. Consulted only under
    /// [`ExecHook::PREDICT_HANGS`], as a thread-serial quantum of `tid`
    /// starts: an affine certificate is only sound with the flip behind
    /// its snapshot, so the named thread takes its first snapshot once its
    /// retirement count has passed the flip, where every other thread
    /// waits out the detector's fixed step threshold. The named thread
    /// also gets a spin detector of its own, which may span the barriers
    /// of its CTA while siblings are live if the hook answers
    /// [`ExecHook::siblings_follow_golden`].
    #[inline]
    fn flip_at(&self, _tid: u32) -> Option<u32> {
        None
    }

    /// Whether every live CTA sibling of the thread [`ExecHook::flip_at`]
    /// names provably retires its golden instruction stream at golden
    /// addresses, whatever that thread does from now on, short of storing
    /// shared memory. Asked only under [`ExecHook::PREDICT_HANGS`], for the
    /// named thread while a sibling is live: as its quanta start, and again
    /// before a hang certified across the siblings' quanta ends the run.
    /// Answering `true` lets that hang end the run (the live-sibling rule
    /// of the spin detector in `machine.rs`); the default `false` keeps
    /// the named thread's detector to one quantum until it is alone.
    #[inline]
    fn siblings_follow_golden(&self) -> bool {
        false
    }

    /// Called when the spin detector proves how the run ends and aborts it
    /// early with that fault: [`crate::SimFault::BudgetExceeded`] before
    /// the budget is spent, or the [`crate::SimFault::InvalidAccess`] a
    /// pointer walk would run into. `live` says whether the proof spans
    /// quanta of other live threads of the CTA and so was admitted by the
    /// live-sibling rule ([`ExecHook::siblings_follow_golden`]).
    #[inline]
    fn on_fault_predicted(&mut self, _fault: crate::SimFault, _live: bool) {}

    /// Called after CTA `cta` (linear launch index) finishes under the
    /// thread-serial schedule, with the global memory it left behind and
    /// the instruction budget still unspent. Returning `true` stops the
    /// run there, like [`ExecHook::converged`]. Golden recorders use it to
    /// snapshot CTA boundaries; the injection fast path uses it to stop a
    /// run whose remaining CTAs provably replay the golden run.
    #[inline]
    fn on_cta_end(&mut self, _cta: u32, _global: &MemBlock, _budget: u64) -> bool {
        false
    }

    /// Called after thread `tid` exits under the thread-serial schedule,
    /// with the global memory and the budget it left behind. `released`
    /// says whether its CTA has released a barrier in this run so far
    /// (for a resumed run, counting the checkpointed prefix). Returning
    /// `true` stops the run there, like [`ExecHook::on_cta_end`]. The
    /// injection fast path uses it to stop a run once the faulty thread
    /// has exited and the rest of the run provably replays the golden run.
    #[inline]
    fn on_thread_exit(
        &mut self,
        _tid: u32,
        _released: bool,
        _global: &MemBlock,
        _budget: u64,
    ) -> bool {
        false
    }
}

/// The do-nothing hook (fault-free, untraced execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct NopHook;

impl ExecHook for NopHook {}

impl<H: ExecHook + ?Sized> ExecHook for &mut H {
    const PREDICT_HANGS: bool = H::PREDICT_HANGS;

    #[inline]
    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        (**self).on_retire(ev);
    }

    #[inline]
    fn writeback(&mut self, wb: &Writeback) -> Option<u32> {
        (**self).writeback(wb)
    }

    #[inline]
    fn on_guard_fail(&mut self, tid: u32, pred: u8, test: PredTest) {
        (**self).on_guard_fail(tid, pred, test);
    }

    #[inline]
    fn converged(&self) -> bool {
        (**self).converged()
    }

    #[inline]
    fn flip_at(&self, tid: u32) -> Option<u32> {
        (**self).flip_at(tid)
    }

    #[inline]
    fn siblings_follow_golden(&self) -> bool {
        (**self).siblings_follow_golden()
    }

    #[inline]
    fn on_fault_predicted(&mut self, fault: crate::SimFault, live: bool) {
        (**self).on_fault_predicted(fault, live);
    }

    #[inline]
    fn on_cta_end(&mut self, cta: u32, global: &MemBlock, budget: u64) -> bool {
        (**self).on_cta_end(cta, global, budget)
    }

    #[inline]
    fn on_thread_exit(&mut self, tid: u32, released: bool, global: &MemBlock, budget: u64) -> bool {
        (**self).on_thread_exit(tid, released, global, budget)
    }
}
