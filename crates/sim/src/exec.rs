//! The instruction interpreter.

use std::error::Error;
use std::fmt;

use fsp_isa::{CmpOp, Half, Instruction, MemSpace, Opcode, PredTest, Register, ScalarType};

use crate::decode::{Addr, Class, Dst, Op, RegRead, Src};
use crate::hook::{ExecHook, MemAccess, MemView, RetireEvent, Writeback};
use crate::launch::Launch;
use crate::mem::MemBlock;
use crate::thread::{ThreadState, ThreadStatus};

/// A fatal execution fault.
///
/// Injection campaigns classify any `SimFault` as an *Other* outcome:
/// memory faults are crashes, budget exhaustion is a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimFault {
    /// Out-of-bounds memory access.
    InvalidAccess {
        /// Address space of the access.
        space: MemSpace,
        /// Faulting byte address.
        addr: u32,
    },
    /// Misaligned memory access.
    Unaligned {
        /// Address space of the access.
        space: MemSpace,
        /// Faulting byte address.
        addr: u32,
    },
    /// The launch exceeded its dynamic-instruction budget (hang detector).
    BudgetExceeded,
    /// A warp executed `bar.sync` while diverged (warp-lockstep mode only)
    /// — undefined behaviour on real SIMT hardware, refused
    /// deterministically here.
    BarrierDivergence {
        /// Program counter of the offending `bar.sync`.
        pc: u32,
    },
    /// A thread executed `trap`: an in-kernel detector (e.g. a DMR
    /// compare inserted by the hardening pass) observed corrupted state
    /// and aborted the launch. Injection campaigns classify this as a
    /// *Detected* outcome, not a crash.
    DetectedExit {
        /// Program counter of the `trap` instruction.
        pc: u32,
    },
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFault::InvalidAccess { space, addr } => {
                write!(f, "invalid {:?} access at {addr:#010x}", space)
            }
            SimFault::Unaligned { space, addr } => {
                write!(f, "unaligned {:?} access at {addr:#010x}", space)
            }
            SimFault::BudgetExceeded => write!(f, "dynamic instruction budget exceeded"),
            SimFault::BarrierDivergence { pc } => {
                write!(f, "bar.sync at pc {pc} executed by a diverged warp")
            }
            SimFault::DetectedExit { pc } => {
                write!(f, "detected-error exit (trap) at pc {pc}")
            }
        }
    }
}

impl Error for SimFault {}

/// What a single step did to the thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepEffect {
    /// Keep running.
    Continue,
    /// Reached `bar.sync`; the thread is now waiting.
    Barrier,
    /// The thread exited.
    Done,
}

/// Per-step log of the memory words an instruction touches, surfaced to
/// hooks through [`RetireEvent::accesses`].
#[derive(Debug)]
pub(crate) struct AccessLog {
    buf: [MemAccess; 6],
    len: usize,
}

impl Default for AccessLog {
    fn default() -> Self {
        AccessLog {
            buf: [MemAccess {
                space: MemSpace::Global,
                addr: 0,
                is_store: false,
                value: 0,
                prev: 0,
            }; 6],
            len: 0,
        }
    }
}

impl AccessLog {
    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    fn push(&mut self, access: MemAccess) {
        // An instruction touches at most 4 words (3 memory sources + one
        // store); the buffer is generously sized, so this never saturates.
        if self.len < self.buf.len() {
            self.buf[self.len] = access;
            self.len += 1;
        }
    }

    #[inline]
    fn as_slice(&self) -> &[MemAccess] {
        &self.buf[..self.len]
    }

    /// Whether the most recent step wrote memory in any address space.
    #[inline]
    pub(crate) fn has_store(&self) -> bool {
        self.buf[..self.len].iter().any(|a| a.is_store)
    }
}

/// Per-step log of the processed source-operand values an instruction
/// consumed, surfaced to hooks through [`RetireEvent::srcs`]. Values are
/// recorded after half-word selection and negation, in source-slot order,
/// so a hook can re-evaluate the instruction against substituted inputs
/// (shadow-lane recompute) without re-resolving operands.
#[derive(Debug, Default)]
pub(crate) struct SrcLog {
    buf: [u32; 4],
    len: usize,
}

impl SrcLog {
    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    fn push(&mut self, v: u32) {
        // At most 3 sources per instruction (plus slack).
        if self.len < self.buf.len() {
            self.buf[self.len] = v;
            self.len += 1;
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        &self.buf[..self.len]
    }
}

/// Mutable execution context shared by the threads of a run: built once
/// per run and pointed at each quantum's thread through [`ExecCtx::tid`].
pub(crate) struct ExecCtx<'a> {
    /// The launch's decoded op table.
    pub ops: &'a [Op],
    /// The program's instructions, for [`RetireEvent::instr`] and
    /// [`eval_op`].
    pub instrs: &'a [Instruction],
    pub global: &'a mut MemBlock,
    pub shared: &'a mut MemBlock,
    pub accesses: AccessLog,
    pub srcs: SrcLog,
    /// Grid-wide flat id of the thread being stepped. Set once per
    /// quantum (per lane step in warp-lockstep mode) rather than
    /// recomputed from the coordinates on every step; kept here, not in
    /// `ThreadState`, so resume images do not grow.
    pub tid: u32,
}

impl<'a> ExecCtx<'a> {
    pub fn new(launch: &'a Launch, global: &'a mut MemBlock, shared: &'a mut MemBlock) -> Self {
        ExecCtx {
            ops: launch.ops(),
            instrs: launch.program().instructions(),
            global,
            shared,
            accesses: AccessLog::default(),
            srcs: SrcLog::default(),
            tid: 0,
        }
    }

    #[inline]
    fn load(&mut self, thread: &mut ThreadState, a: Addr) -> Result<u32, SimFault> {
        let addr = read_reg(thread, a.base).wrapping_add(a.offset);
        let value = match a.space {
            MemSpace::Global => self.global.load(addr),
            MemSpace::Shared => self.shared.load(addr),
            MemSpace::Local => thread.local_mut().load(addr),
        }?;
        self.accesses.push(MemAccess {
            space: a.space,
            addr,
            is_store: false,
            value,
            prev: value,
        });
        Ok(value)
    }

    #[inline]
    fn store(&mut self, thread: &mut ThreadState, a: Addr, value: u32) -> Result<(), SimFault> {
        let addr = read_reg(thread, a.base).wrapping_add(a.offset);
        let prev = match a.space {
            MemSpace::Global => self.global.store(addr, value),
            MemSpace::Shared => self.shared.store(addr, value),
            MemSpace::Local => thread.local_mut().store(addr, value),
        }?;
        self.accesses.push(MemAccess {
            space: a.space,
            addr,
            is_store: true,
            value,
            prev,
        });
        Ok(())
    }

    /// Fetches one source slot and logs the processed value in
    /// [`ExecCtx::srcs`].
    #[inline(always)]
    fn fetch(&mut self, thread: &mut ThreadState, src: Src) -> Result<(), SimFault> {
        let v = match src {
            Src::Gpr(n) => thread.gprs[n as usize],
            Src::Imm(v) => v,
            Src::Reg { reg, half, neg, ty } => apply_half_neg(read_reg(thread, reg), half, neg, ty),
            Src::Mem(a) => self.load(thread, a)?,
            Src::Flags(p) => u32::from(thread.preds[p as usize]),
            Src::Bad(m) => panic!("{}", m.message()),
        };
        self.srcs.push(v);
        Ok(())
    }
}

/// Reads a register (specials come from the thread coordinates; zero
/// registers read zero; predicates read their 4 flag bits).
#[inline(always)]
fn read_reg(thread: &ThreadState, reg: RegRead) -> u32 {
    match reg {
        RegRead::Zero => 0,
        RegRead::Gpr(n) => thread.gprs[n as usize],
        RegRead::Pred(n) => u32::from(thread.preds[n as usize]),
        RegRead::Ofs(n) => thread.ofs[n as usize],
        RegRead::Special(s) => thread.coords.special(s),
    }
}

/// Writes a register that is not write-discard (specials ignore writes).
#[inline(always)]
fn write_reg(thread: &mut ThreadState, reg: Register, value: u32) {
    match reg {
        Register::Gpr(n) => thread.gprs[n as usize] = value,
        Register::Pred(n) => thread.preds[n as usize] = (value & 0xF) as u8,
        Register::Ofs(n) => thread.ofs[n as usize] = value,
        Register::Special(_) | Register::Discard => {}
    }
}

/// Evaluates a predicate test against a 4-bit condition-code word
/// (zero = bit 0, sign = bit 1).
#[must_use]
#[inline]
pub fn pred_test(flags: u8, test: PredTest) -> bool {
    let zero = flags & 0b0001 != 0;
    let sign = flags & 0b0010 != 0;
    match test {
        PredTest::Eq => zero,
        PredTest::Ne => !zero,
        PredTest::Lt => sign,
        PredTest::Ge => !sign,
        PredTest::Le => zero || sign,
        PredTest::Gt => !zero && !sign,
    }
}

/// Condition-code flags derived from a result value.
#[must_use]
#[inline]
pub fn flags_of(value: u32, ty: ScalarType, carry: bool, overflow: bool) -> u32 {
    let zero = value == 0;
    let sign = if ty.is_float() {
        f32::from_bits(value) < 0.0
    } else {
        (value as i32) < 0
    };
    u32::from(zero) | (u32::from(sign) << 1) | (u32::from(carry) << 2) | (u32::from(overflow) << 3)
}

/// Applies half-word selection and negation to a raw register word —
/// the processing the interpreter performs on register operands. Public
/// so shadow-lane recompute can re-process a substituted raw value.
#[must_use]
#[inline]
pub fn apply_half_neg(raw: u32, half: Option<Half>, neg: bool, ty: ScalarType) -> u32 {
    let mut v = raw;
    match half {
        Some(Half::Lo) => v &= 0xFFFF,
        Some(Half::Hi) => v >>= 16,
        None => {}
    }
    if neg {
        v = negate(v, ty);
    }
    v
}

#[inline]
fn negate(v: u32, ty: ScalarType) -> u32 {
    if ty.is_float() {
        v ^ 0x8000_0000
    } else {
        v.wrapping_neg()
    }
}

/// Sign- or zero-extends a 16-bit source for `wide` arithmetic.
#[inline]
fn widen(v: u32, ty: ScalarType) -> i64 {
    if ty.is_signed() {
        i64::from(v as u16 as i16)
    } else {
        i64::from(v as u16)
    }
}

#[inline]
fn compare(a: u32, b: u32, cmp: CmpOp, ty: ScalarType) -> bool {
    if ty.is_float() {
        let (x, y) = (f32::from_bits(a), f32::from_bits(b));
        match cmp {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    } else if ty.is_signed() {
        let (x, y) = (a as i32, b as i32);
        match cmp {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    } else {
        match cmp {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

#[inline]
fn convert(v: u32, from: ScalarType, to: ScalarType) -> u32 {
    use ScalarType as T;
    // Normalize the source to a wide signed/float value, then narrow.
    match (from, to) {
        (T::F32, T::F32) => v,
        (T::F32, t) => {
            let f = f32::from_bits(v);
            if t.is_signed() {
                let x = f as i32; // saturating in Rust
                mask(x as u32, t)
            } else {
                mask(f as u32, t)
            }
        }
        (f, T::F32) => {
            let x = int_value(v, f);
            #[allow(clippy::cast_precision_loss)]
            (x as f32).to_bits()
        }
        (f, t) => mask(int_value(v, f) as u32, t),
    }
}

/// Interprets raw bits as a signed 64-bit integer per `ty`.
#[inline]
fn int_value(v: u32, ty: ScalarType) -> i64 {
    use ScalarType as T;
    match ty {
        T::U16 => i64::from(v as u16),
        T::S16 => i64::from(v as u16 as i16),
        T::S32 => i64::from(v as i32),
        _ => i64::from(v),
    }
}

#[inline]
fn mask(v: u32, ty: ScalarType) -> u32 {
    match ty.bits() {
        16 => v & 0xFFFF,
        4 => v & 0xF,
        _ => v,
    }
}

/// Evaluates a value-producing instruction over already-processed source
/// values (`RetireEvent::srcs` order), returning `(value, carry, overflow)`.
///
/// This is the single evaluator the interpreter commits through, so a hook
/// re-running it over substituted sources (shadow-lane recompute) gets
/// bit-identical semantics by construction. `Selp` expects the raw 4-bit
/// flags of its predicate operand in slot 2.
///
/// # Panics
/// On control opcodes and `st`, which produce no register result.
#[must_use]
#[inline]
#[allow(clippy::too_many_lines)]
pub fn eval_op(instr: &Instruction, s: &[u32]) -> (u32, bool, bool) {
    let ty = instr.ty;
    match instr.opcode {
        Opcode::Mov | Opcode::Ld => (mask(s[0], ty), false, false),
        Opcode::Cvt => (convert(s[0], instr.src_ty, ty), false, false),
        Opcode::Add | Opcode::Sub => {
            let (a, b) = (s[0], s[1]);
            if ty.is_float() {
                let (x, y) = (f32::from_bits(a), f32::from_bits(b));
                let r = if instr.opcode == Opcode::Add {
                    x + y
                } else {
                    x - y
                };
                (r.to_bits(), false, false)
            } else if instr.opcode == Opcode::Add {
                let (r, carry) = a.overflowing_add(b);
                let (_, overflow) = (a as i32).overflowing_add(b as i32);
                (mask(r, ty), carry, overflow)
            } else {
                let (r, borrow) = a.overflowing_sub(b);
                let (_, overflow) = (a as i32).overflowing_sub(b as i32);
                (mask(r, ty), borrow, overflow)
            }
        }
        Opcode::Mul | Opcode::Mad => {
            let (a, b) = (s[0], s[1]);
            let prod: u32 = if ty.is_float() {
                (f32::from_bits(a) * f32::from_bits(b)).to_bits()
            } else if instr.wide {
                (widen(a, ty).wrapping_mul(widen(b, ty))) as u32
            } else if instr.hi {
                if ty.is_signed() {
                    ((i64::from(a as i32).wrapping_mul(i64::from(b as i32))) >> 32) as u32
                } else {
                    ((u64::from(a).wrapping_mul(u64::from(b))) >> 32) as u32
                }
            } else {
                mask(a.wrapping_mul(b), ty)
            };
            let v = if instr.opcode == Opcode::Mad {
                let c = s[2];
                if ty.is_float() {
                    (f32::from_bits(prod) + f32::from_bits(c)).to_bits()
                } else if instr.wide {
                    prod.wrapping_add(c)
                } else {
                    mask(prod.wrapping_add(c), ty)
                }
            } else {
                prod
            };
            (v, false, false)
        }
        Opcode::Div | Opcode::Rem => {
            let (a, b) = (s[0], s[1]);
            let v = if ty.is_float() {
                (f32::from_bits(a) / f32::from_bits(b)).to_bits()
            } else if b == 0 {
                // CUDA integer division by zero produces all-ones, not a trap.
                if instr.opcode == Opcode::Div {
                    u32::MAX
                } else {
                    a
                }
            } else if ty.is_signed() {
                let (x, y) = (a as i32, b as i32);
                let r = if instr.opcode == Opcode::Div {
                    x.wrapping_div(y)
                } else {
                    x.wrapping_rem(y)
                };
                mask(r as u32, ty)
            } else {
                mask(
                    if instr.opcode == Opcode::Div {
                        a / b
                    } else {
                        a % b
                    },
                    ty,
                )
            };
            (v, false, false)
        }
        Opcode::Min | Opcode::Max => {
            let (a, b) = (s[0], s[1]);
            let take_a = if instr.opcode == Opcode::Min {
                compare(a, b, CmpOp::Le, ty)
            } else {
                compare(a, b, CmpOp::Ge, ty)
            };
            (if take_a { a } else { b }, false, false)
        }
        Opcode::Abs => {
            let a = s[0];
            let v = if ty.is_float() {
                a & 0x7FFF_FFFF
            } else {
                mask((a as i32).wrapping_abs() as u32, ty)
            };
            (v, false, false)
        }
        Opcode::Neg => (mask(negate(s[0], ty), ty), false, false),
        Opcode::Rcp | Opcode::Sqrt | Opcode::Rsqrt | Opcode::Ex2 | Opcode::Lg2 => {
            let x = f32::from_bits(s[0]);
            let r = match instr.opcode {
                Opcode::Rcp => 1.0 / x,
                Opcode::Sqrt => x.sqrt(),
                Opcode::Rsqrt => 1.0 / x.sqrt(),
                Opcode::Ex2 => x.exp2(),
                Opcode::Lg2 => x.log2(),
                _ => unreachable!(),
            };
            (r.to_bits(), false, false)
        }
        Opcode::And | Opcode::Or | Opcode::Xor => {
            let (a, b) = (s[0], s[1]);
            let v = match instr.opcode {
                Opcode::And => a & b,
                Opcode::Or => a | b,
                Opcode::Xor => a ^ b,
                _ => unreachable!(),
            };
            (mask(v, ty), false, false)
        }
        Opcode::Not => (mask(!s[0], ty), false, false),
        Opcode::Shl | Opcode::Shr => {
            let (a, amt) = (s[0], s[1]);
            let v = if amt >= 32 {
                match (instr.opcode, ty.is_signed(), (a as i32) < 0) {
                    (Opcode::Shr, true, true) => u32::MAX,
                    _ => 0,
                }
            } else if instr.opcode == Opcode::Shl {
                a.wrapping_shl(amt)
            } else if ty.is_signed() {
                ((a as i32) >> amt) as u32
            } else {
                a >> amt
            };
            (mask(v, ty), false, false)
        }
        Opcode::Set => {
            let hit = compare(
                s[0],
                s[1],
                instr.cmp.expect("assembler enforces set.cmp"),
                instr.src_ty,
            );
            let v = if ty.is_float() {
                if hit {
                    1.0f32.to_bits()
                } else {
                    0
                }
            } else if hit {
                mask(u32::MAX, ty)
            } else {
                0
            };
            (v, false, false)
        }
        Opcode::Selp => {
            let test = match instr.cmp {
                Some(CmpOp::Eq) => PredTest::Eq,
                Some(CmpOp::Lt) => PredTest::Lt,
                Some(CmpOp::Le) => PredTest::Le,
                Some(CmpOp::Gt) => PredTest::Gt,
                Some(CmpOp::Ge) => PredTest::Ge,
                _ => PredTest::Ne,
            };
            (
                if pred_test(s[2] as u8, test) {
                    s[0]
                } else {
                    s[1]
                },
                false,
                false,
            )
        }
        Opcode::Nop
        | Opcode::Ssy
        | Opcode::Bra
        | Opcode::Bar
        | Opcode::Ret
        | Opcode::Retp
        | Opcode::Exit
        | Opcode::Trap
        | Opcode::St => unreachable!("eval_op on a non-value opcode"),
    }
}

/// Executes one instruction of `thread`, whose flat id is `ctx.tid`.
///
/// `budget` counts down per retirement; hitting zero aborts with
/// [`SimFault::BudgetExceeded`].
#[inline(always)]
pub(crate) fn step<H: ExecHook>(
    thread: &mut ThreadState,
    ctx: &mut ExecCtx<'_>,
    hook: &mut H,
    budget: &mut u64,
) -> Result<StepEffect, SimFault> {
    let pc = thread.pc;
    let ops = ctx.ops;
    let Some(op) = ops.get(pc) else {
        // Falling off the end is an implicit return.
        thread.status = ThreadStatus::Done;
        return Ok(StepEffect::Done);
    };
    if let Some(g) = op.guard {
        if !pred_test(thread.preds[g.pred as usize], g.test) {
            hook.on_guard_fail(ctx.tid, g.pred, g.test);
            thread.pc = pc + 1;
            return Ok(StepEffect::Continue);
        }
    }
    ctx.accesses.clear();
    ctx.srcs.clear();
    if *budget == 0 {
        return Err(SimFault::BudgetExceeded);
    }
    *budget -= 1;

    let instr = &ctx.instrs[pc];
    let mut next_pc = pc + 1;
    let mut effect = StepEffect::Continue;
    match op.class {
        Class::Alu => {
            for &src in &op.srcs[..usize::from(op.nsrc)] {
                ctx.fetch(thread, src)?;
            }
            let (value, carry, overflow) = eval_op(instr, ctx.srcs.as_slice());
            // Commit destinations through the write-back hook.
            for (slot, &dst) in op.dsts.iter().enumerate() {
                match dst {
                    Dst::None => {}
                    Dst::Reg { reg, width, flags } => {
                        let commit = if flags {
                            flags_of(value, op.ty, carry, overflow)
                        } else {
                            value
                        };
                        let wb = Writeback {
                            tid: ctx.tid,
                            dyn_idx: thread.icnt,
                            pc,
                            slot: slot as u8,
                            reg,
                            value: commit,
                            width: u32::from(width),
                        };
                        let final_value = hook.writeback(&wb).unwrap_or(commit);
                        write_reg(thread, reg, final_value);
                    }
                    // `mov.u32 s[...], $r2` style store-through-mov.
                    Dst::Mem(a) => ctx.store(thread, a, value)?,
                }
            }
        }
        Class::St => {
            ctx.fetch(thread, op.srcs[0])?;
            let Dst::Mem(a) = op.dsts[0] else {
                unreachable!("assembler guarantees st has a memory destination");
            };
            let v = ctx.srcs.as_slice()[0];
            ctx.store(thread, a, v)?;
        }
        Class::Bra(target) => {
            next_pc = target.expect("assembler resolves branch targets") as usize;
        }
        Class::Bar => {
            thread.status = ThreadStatus::AtBarrier;
            effect = StepEffect::Barrier;
        }
        Class::Exit => {
            thread.status = ThreadStatus::Done;
            effect = StepEffect::Done;
        }
        Class::Trap => return Err(SimFault::DetectedExit { pc: pc as u32 }),
        Class::Nop => {}
    }

    hook.on_retire(RetireEvent {
        tid: ctx.tid,
        dyn_idx: thread.icnt,
        pc,
        instr,
        accesses: ctx.accesses.as_slice(),
        srcs: ctx.srcs.as_slice(),
        mem: MemView {
            global: ctx.global,
            shared: ctx.shared,
            local: thread.local.as_deref(),
        },
    });
    thread.icnt += 1;
    thread.pc = next_pc;
    Ok(effect)
}
