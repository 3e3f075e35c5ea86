//! The instruction interpreter.

use std::error::Error;
use std::fmt;

use fsp_isa::{
    CmpOp, Dest, Half, MemRef, MemSpace, Opcode, Operand, PredTest, Register, ScalarType,
};

use crate::hook::{ExecHook, MemAccess, MemView, RetireEvent, Writeback};
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
    fn clear(&mut self) {
        self.len = 0;
    }

    fn push(&mut self, access: MemAccess) {
        // An instruction touches at most 4 words (3 memory sources + one
        // store); the buffer is generously sized, so this never saturates.
        if self.len < self.buf.len() {
            self.buf[self.len] = access;
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[MemAccess] {
        &self.buf[..self.len]
    }

    /// Whether the most recent step wrote memory in any address space.
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
    fn clear(&mut self) {
        self.len = 0;
    }

    fn push(&mut self, v: u32) {
        // At most 3 sources per instruction (plus slack).
        if self.len < self.buf.len() {
            self.buf[self.len] = v;
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[u32] {
        &self.buf[..self.len]
    }
}

/// Mutable memory context shared by the threads of the running CTA.
pub(crate) struct ExecCtx<'a> {
    pub program: &'a fsp_isa::KernelProgram,
    pub global: &'a mut MemBlock,
    pub shared: &'a mut MemBlock,
    pub accesses: AccessLog,
    pub srcs: SrcLog,
}

impl ExecCtx<'_> {
    fn load(&mut self, thread: &mut ThreadState, m: MemRef) -> Result<u32, SimFault> {
        let addr = self.resolve(thread, m);
        let value = match m.space {
            MemSpace::Global => self.global.load(addr),
            MemSpace::Shared => self.shared.load(addr),
            MemSpace::Local => thread.local_mut().load(addr),
        }?;
        self.accesses.push(MemAccess {
            space: m.space,
            addr,
            is_store: false,
            value,
            prev: value,
        });
        Ok(value)
    }

    fn store(&mut self, thread: &mut ThreadState, m: MemRef, value: u32) -> Result<(), SimFault> {
        let addr = self.resolve(thread, m);
        let prev = match m.space {
            MemSpace::Global => self.global.store(addr, value),
            MemSpace::Shared => self.shared.store(addr, value),
            MemSpace::Local => thread.local_mut().store(addr, value),
        }?;
        self.accesses.push(MemAccess {
            space: m.space,
            addr,
            is_store: true,
            value,
            prev,
        });
        Ok(())
    }

    fn resolve(&self, thread: &ThreadState, m: MemRef) -> u32 {
        let base = m.base.map_or(0, |r| read_reg(thread, r));
        base.wrapping_add(m.offset)
    }
}

/// Reads a register (specials come from the thread coordinates; `$r124`
/// reads zero; predicates read their 4 flag bits).
fn read_reg(thread: &ThreadState, reg: Register) -> u32 {
    match reg {
        Register::Gpr(124) => 0,
        Register::Gpr(n) => thread.gprs[n as usize],
        Register::Pred(n) => u32::from(thread.preds[n as usize]),
        Register::Ofs(n) => thread.ofs[n as usize],
        Register::Special(s) => thread.coords.special(s),
        Register::Discard => 0,
    }
}

fn write_reg(thread: &mut ThreadState, reg: Register, value: u32) {
    match reg {
        Register::Gpr(124) | Register::Discard | Register::Special(_) => {}
        Register::Gpr(n) => thread.gprs[n as usize] = value,
        Register::Pred(n) => thread.preds[n as usize] = (value & 0xF) as u8,
        Register::Ofs(n) => thread.ofs[n as usize] = value,
    }
}

/// Evaluates a predicate test against a 4-bit condition-code word
/// (zero = bit 0, sign = bit 1).
#[must_use]
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

/// Evaluates a guard against a predicate register's condition codes.
fn guard_passes(thread: &ThreadState, pred: u8, test: PredTest) -> bool {
    pred_test(thread.preds[pred as usize], test)
}

/// Condition-code flags derived from a result value.
#[must_use]
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
/// the processing [`operand_value`] performs on register operands. Public
/// so shadow-lane recompute can re-process a substituted raw value.
#[must_use]
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

/// Fetches an operand value, applying half-word selection and negation,
/// and logs the processed value in [`ExecCtx::srcs`].
fn operand_value(
    thread: &mut ThreadState,
    ctx: &mut ExecCtx<'_>,
    op: &Operand,
    ty: ScalarType,
) -> Result<u32, SimFault> {
    let v = match op {
        Operand::Reg { reg, half, neg } => apply_half_neg(read_reg(thread, *reg), *half, *neg, ty),
        Operand::Imm(v) => *v,
        Operand::Mem(m) => ctx.load(thread, *m)?,
    };
    ctx.srcs.push(v);
    Ok(v)
}

fn negate(v: u32, ty: ScalarType) -> u32 {
    if ty.is_float() {
        v ^ 0x8000_0000
    } else {
        v.wrapping_neg()
    }
}

/// Sign- or zero-extends a 16-bit source for `wide` arithmetic.
fn widen(v: u32, ty: ScalarType) -> i64 {
    if ty.is_signed() {
        i64::from(v as u16 as i16)
    } else {
        i64::from(v as u16)
    }
}

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
fn int_value(v: u32, ty: ScalarType) -> i64 {
    use ScalarType as T;
    match ty {
        T::U16 => i64::from(v as u16),
        T::S16 => i64::from(v as u16 as i16),
        T::S32 => i64::from(v as i32),
        _ => i64::from(v),
    }
}

fn mask(v: u32, ty: ScalarType) -> u32 {
    match ty.bits() {
        16 => v & 0xFFFF,
        4 => v & 0xF,
        _ => v,
    }
}

/// The scalar type governing half/neg processing of source slot `slot`.
#[must_use]
pub fn operand_ty(instr: &fsp_isa::Instruction, slot: usize) -> ScalarType {
    match instr.opcode {
        Opcode::Cvt | Opcode::Set => instr.src_ty,
        Opcode::Mad if instr.wide && slot == 2 => ScalarType::U32,
        _ => instr.ty,
    }
}

/// Number of source values a value-producing opcode consumes (the length
/// of [`RetireEvent::srcs`] for its retirement).
fn src_count(op: Opcode) -> usize {
    match op {
        Opcode::Mov
        | Opcode::Ld
        | Opcode::Cvt
        | Opcode::Abs
        | Opcode::Neg
        | Opcode::Rcp
        | Opcode::Sqrt
        | Opcode::Rsqrt
        | Opcode::Ex2
        | Opcode::Lg2
        | Opcode::Not => 1,
        Opcode::Mad | Opcode::Selp => 3,
        _ => 2,
    }
}

/// Evaluates a value-producing instruction over already-processed source
/// values (`RetireEvent::srcs` order), returning `(value, carry, overflow)`.
///
/// This is the single evaluator [`step`] itself commits through, so a hook
/// re-running it over substituted sources (shadow-lane recompute) gets
/// bit-identical semantics by construction. `Selp` expects the raw 4-bit
/// flags of its predicate operand in slot 2.
///
/// # Panics
/// On control opcodes and `st`, which produce no register result.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn eval_op(instr: &fsp_isa::Instruction, s: &[u32]) -> (u32, bool, bool) {
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

/// Executes one instruction of `thread`.
///
/// `budget` counts down per retirement; hitting zero aborts with
/// [`SimFault::BudgetExceeded`].
pub(crate) fn step<H: ExecHook>(
    thread: &mut ThreadState,
    ctx: &mut ExecCtx<'_>,
    hook: &mut H,
    budget: &mut u64,
) -> Result<StepEffect, SimFault> {
    let Some(instr) = ctx.program.get(thread.pc) else {
        // Falling off the end is an implicit return.
        thread.status = ThreadStatus::Done;
        return Ok(StepEffect::Done);
    };
    if let Some(g) = &instr.guard {
        if !guard_passes(thread, g.pred, g.test) {
            hook.on_guard_fail(thread.coords.flat_tid(), g.pred, g.test);
            thread.pc += 1;
            return Ok(StepEffect::Continue);
        }
    }
    ctx.accesses.clear();
    ctx.srcs.clear();
    if *budget == 0 {
        return Err(SimFault::BudgetExceeded);
    }
    *budget -= 1;

    let pc = thread.pc;
    let mut next_pc = pc + 1;
    let mut effect = StepEffect::Continue;
    // (value, carry, overflow) produced by the operation, if any.
    let mut result: Option<(u32, bool, bool)> = None;

    let ty = instr.ty;
    match instr.opcode {
        Opcode::Nop
        | Opcode::Ssy
        | Opcode::Bra
        | Opcode::Bar
        | Opcode::Ret
        | Opcode::Retp
        | Opcode::Exit
        | Opcode::Trap => match instr.opcode {
            Opcode::Bra => {
                next_pc = instr.target.expect("assembler resolves branch targets");
            }
            Opcode::Bar => {
                thread.status = ThreadStatus::AtBarrier;
                effect = StepEffect::Barrier;
            }
            Opcode::Ret | Opcode::Retp | Opcode::Exit => {
                thread.status = ThreadStatus::Done;
                effect = StepEffect::Done;
            }
            Opcode::Trap => {
                return Err(SimFault::DetectedExit { pc: pc as u32 });
            }
            _ => {}
        },
        Opcode::St => {
            let v = operand_value(
                thread,
                ctx,
                instr.src[0].as_ref().expect("st needs a source"),
                ty,
            )?;
            let Some(Dest::Mem(m)) = instr.dst[0] else {
                unreachable!("assembler guarantees st has a memory destination");
            };
            ctx.store(thread, m, v)?;
        }
        _ => {
            for i in 0..src_count(instr.opcode) {
                if instr.opcode == Opcode::Selp && i == 2 {
                    // `selp` steers on raw predicate flags, not a fetched
                    // operand; log them so `eval_op` (and shadow-lane
                    // recompute) sees them in slot 2.
                    let Some(Operand::Reg {
                        reg: Register::Pred(p),
                        ..
                    }) = instr.src[2]
                    else {
                        panic!("selp requires a predicate third operand");
                    };
                    ctx.srcs.push(u32::from(thread.preds[p as usize]));
                } else {
                    let op = instr.src[i].as_ref().expect("missing source operand");
                    operand_value(thread, ctx, op, operand_ty(instr, i))?;
                }
            }
            result = Some(eval_op(instr, ctx.srcs.as_slice()));
        }
    }

    // Commit destinations through the write-back hook.
    if let Some((value, carry, overflow)) = result {
        let dyn_idx = thread.icnt;
        let tid = thread.coords.flat_tid();
        for (slot, dest) in instr.dst.iter().enumerate() {
            match dest {
                Some(Dest::Reg(reg)) if !reg.is_discard() => {
                    let commit = match reg {
                        Register::Pred(_) => flags_of(value, ty, carry, overflow),
                        _ => value,
                    };
                    let width = instr.register_dest_bits(*reg);
                    let wb = Writeback {
                        tid,
                        dyn_idx,
                        pc,
                        slot: slot as u8,
                        reg: *reg,
                        value: commit,
                        width,
                    };
                    let final_value = hook.writeback(&wb).unwrap_or(commit);
                    write_reg(thread, *reg, final_value);
                }
                Some(Dest::Mem(m)) => {
                    // `mov.u32 s[...], $r2` style store-through-mov.
                    ctx.store(thread, *m, value)?;
                }
                _ => {}
            }
        }
    }

    hook.on_retire(RetireEvent {
        tid: thread.coords.flat_tid(),
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
