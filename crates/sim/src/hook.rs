//! Execution hooks: the attachment point for tracing and fault injection.

use fsp_isa::{Instruction, MemSpace, PredTest, Register};

use crate::mem::MemBlock;

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
    /// *affine* hang certificate (see the spin detector in
    /// `machine.rs`): a loop whose changing registers are counters
    /// stepping by constants that provably cannot reach any compare's
    /// flip point within the remaining budget. Off by default, so
    /// hook-free runs and the slow injection path keep the exact-recurrence
    /// rule only and serve as the oracle for the prediction.
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

    /// Called when the spin detector proves the run can never finish and
    /// aborts it with [`crate::SimFault::BudgetExceeded`] before the budget
    /// is spent.
    #[inline]
    fn on_hang_predicted(&mut self) {}

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
    fn on_hang_predicted(&mut self) {
        (**self).on_hang_predicted();
    }

    #[inline]
    fn on_cta_end(&mut self, cta: u32, global: &MemBlock, budget: u64) -> bool {
        (**self).on_cta_end(cta, global, budget)
    }
}
