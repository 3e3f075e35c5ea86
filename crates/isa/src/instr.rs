//! Instruction representation.

use std::fmt;

use crate::operand::{MemRef, MemSpace, Operand};
use crate::reg::Register;
use crate::ty::ScalarType;

/// Operation code.
///
/// The set covers everything the Rodinia/Polybench kernels of the paper
/// need, in PTXPlus spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opcode {
    /// Register/memory move (PTXPlus uses `mov` with memory operands for
    /// shared-memory loads and stores).
    Mov,
    /// Explicit load (`ld.global.u32 $r2, [$r2]`).
    Ld,
    /// Explicit store (`st.global.u32 [$r2], $r3`).
    St,
    /// Type conversion (also used for register-negation:
    /// `cvt.s32.s32 $r2, -$r2`).
    Cvt,
    /// Integer/float addition.
    Add,
    /// Integer/float subtraction.
    Sub,
    /// Multiplication. `wide` multiplies two 16-bit halves into 32 bits;
    /// `hi` returns the upper half of the full product.
    Mul,
    /// Multiply-add (`mad.wide.u16 d, a, b, c` = `a * b + c`).
    Mad,
    /// Division.
    Div,
    /// Remainder.
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Absolute value.
    Abs,
    /// Negation.
    Neg,
    /// Reciprocal (`rcp.f32`).
    Rcp,
    /// Square root.
    Sqrt,
    /// Reciprocal square root.
    Rsqrt,
    /// Base-2 exponential.
    Ex2,
    /// Base-2 logarithm.
    Lg2,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT.
    Not,
    /// Shift left.
    Shl,
    /// Shift right (arithmetic for signed types).
    Shr,
    /// Compare-and-set: writes an all-ones/zero boolean to the GPR
    /// destination and condition codes to the predicate destination
    /// (`set.eq.s32.s32 $p0/$o127, $r6, $r1`).
    Set,
    /// Select on predicate test (`selp.u32 d, a, b, $p0`, selects `a` when
    /// the guard test passes).
    Selp,
    /// Branch (guarded or unconditional).
    Bra,
    /// Reconvergence-point marker; a no-op for functional simulation.
    Ssy,
    /// CTA-wide barrier (`bar.sync 0`).
    Bar,
    /// Return from the kernel.
    Ret,
    /// Predicated return (`@$p0.eq retp`).
    Retp,
    /// Thread exit.
    Exit,
    /// Detected-error exit: terminates the whole launch with a
    /// detection fault (the DMR hardening pass branches here on a
    /// shadow/original mismatch).
    Trap,
    /// No operation.
    Nop,
}

impl Opcode {
    const NAMES: [(Opcode, &'static str); 36] = [
        (Opcode::Mov, "mov"),
        (Opcode::Ld, "ld"),
        (Opcode::St, "st"),
        (Opcode::Cvt, "cvt"),
        (Opcode::Add, "add"),
        (Opcode::Sub, "sub"),
        (Opcode::Mul, "mul"),
        (Opcode::Mad, "mad"),
        (Opcode::Div, "div"),
        (Opcode::Rem, "rem"),
        (Opcode::Min, "min"),
        (Opcode::Max, "max"),
        (Opcode::Abs, "abs"),
        (Opcode::Neg, "neg"),
        (Opcode::Rcp, "rcp"),
        (Opcode::Sqrt, "sqrt"),
        (Opcode::Rsqrt, "rsqrt"),
        (Opcode::Ex2, "ex2"),
        (Opcode::Lg2, "lg2"),
        (Opcode::And, "and"),
        (Opcode::Or, "or"),
        (Opcode::Xor, "xor"),
        (Opcode::Not, "not"),
        (Opcode::Shl, "shl"),
        (Opcode::Shr, "shr"),
        (Opcode::Set, "set"),
        (Opcode::Selp, "selp"),
        (Opcode::Bra, "bra"),
        (Opcode::Ssy, "ssy"),
        (Opcode::Bar, "bar"),
        (Opcode::Ret, "ret"),
        (Opcode::Retp, "retp"),
        (Opcode::Exit, "exit"),
        (Opcode::Trap, "trap"),
        (Opcode::Nop, "nop"),
        (Opcode::Bar, "bar.sync"),
    ];

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(op, _)| *op == self)
            .expect("all variants listed")
            .1
    }

    /// Parses an assembler mnemonic.
    #[must_use]
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Self::NAMES.iter().find(|(_, n)| *n == s).map(|(op, _)| *op)
    }

    /// Number of source operands the opcode consumes: what a
    /// value-producing opcode evaluates over (3 for `mad` and `selp`), 1
    /// for `st`, 0 for control and no-op instructions.
    #[must_use]
    pub const fn source_count(self) -> usize {
        match self {
            Opcode::Bra
            | Opcode::Ssy
            | Opcode::Bar
            | Opcode::Ret
            | Opcode::Retp
            | Opcode::Exit
            | Opcode::Trap
            | Opcode::Nop => 0,
            Opcode::Mov
            | Opcode::Ld
            | Opcode::St
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

    /// How many type suffixes the opcode's assembler spelling carries:
    /// two for `cvt` and `set` (`cvt.u32.u16`), none for control and no-op
    /// instructions, one otherwise.
    #[must_use]
    pub const fn type_suffixes(self) -> usize {
        match self {
            Opcode::Cvt | Opcode::Set => 2,
            _ if self.source_count() == 0 => 0,
            _ => 1,
        }
    }

    /// Whether the opcode is a control-flow instruction.
    #[must_use]
    pub const fn is_control(self) -> bool {
        matches!(
            self,
            Opcode::Bra | Opcode::Ret | Opcode::Retp | Opcode::Exit | Opcode::Trap | Opcode::Bar
        )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison operator of a [`Opcode::Set`] instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    const NAMES: [(CmpOp, &'static str); 6] = [
        (CmpOp::Eq, "eq"),
        (CmpOp::Ne, "ne"),
        (CmpOp::Lt, "lt"),
        (CmpOp::Le, "le"),
        (CmpOp::Gt, "gt"),
        (CmpOp::Ge, "ge"),
    ];

    /// Assembler spelling (`eq`, `ne`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(c, _)| *c == self)
            .expect("all variants listed")
            .1
    }

    /// Parses an assembler spelling.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::NAMES.iter().find(|(_, n)| *n == s).map(|(c, _)| *c)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Condition-code test of an instruction guard (`@$p0.eq ...`).
///
/// Predicate registers hold 4 condition-code bits (zero, sign, carry,
/// overflow) set by the most recent instruction that targeted them. A guard
/// test reads those bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredTest {
    /// Zero flag set (last result was zero).
    Eq,
    /// Zero flag clear.
    Ne,
    /// Sign flag set.
    Lt,
    /// Sign or zero flag set.
    Le,
    /// Neither sign nor zero flag set.
    Gt,
    /// Sign flag clear.
    Ge,
}

impl PredTest {
    const NAMES: [(PredTest, &'static str); 6] = [
        (PredTest::Eq, "eq"),
        (PredTest::Ne, "ne"),
        (PredTest::Lt, "lt"),
        (PredTest::Le, "le"),
        (PredTest::Gt, "gt"),
        (PredTest::Ge, "ge"),
    ];

    /// Assembler spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(c, _)| *c == self)
            .expect("all variants listed")
            .1
    }

    /// Parses an assembler spelling.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::NAMES.iter().find(|(_, n)| *n == s).map(|(c, _)| *c)
    }
}

impl fmt::Display for PredTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Instruction guard: `@$pN.test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// Predicate register index.
    pub pred: u8,
    /// Condition-code test.
    pub test: PredTest,
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@$p{}.{}", self.pred, self.test)
    }
}

/// A write destination: a register or a memory location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// Register destination.
    Reg(Register),
    /// Memory destination (PTXPlus `mov.u32 s[$ofs3+0x440], $r2` and `st`).
    Mem(MemRef),
}

impl Dest {
    /// The destination register, if this is a register destination.
    #[must_use]
    pub const fn register(&self) -> Option<Register> {
        match self {
            Dest::Reg(r) => Some(*r),
            Dest::Mem(_) => None,
        }
    }
}

impl fmt::Display for Dest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dest::Reg(r) => write!(f, "{r}"),
            Dest::Mem(m) => write!(f, "{m}"),
        }
    }
}

/// A decoded instruction.
///
/// Fields are public in the spirit of a passive data structure: the
/// assembler builds them, the simulator interprets them and the pruning
/// stages inspect them.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// Optional guard (`@$p0.eq`).
    pub guard: Option<Guard>,
    /// Operation.
    pub opcode: Opcode,
    /// Operation type (`.u32`, `.f32`, ...).
    pub ty: ScalarType,
    /// Source type for two-type operations (`cvt.u32.u16`,
    /// `set.eq.s32.s32`). Equal to [`Instruction::ty`] otherwise.
    pub src_ty: ScalarType,
    /// Comparison operator for [`Opcode::Set`].
    pub cmp: Option<CmpOp>,
    /// `mul.wide` / `mad.wide`: 16-bit × 16-bit → 32-bit.
    pub wide: bool,
    /// `mul.hi`: upper 32 bits of the full product.
    pub hi: bool,
    /// Destinations (up to two: `$p0|$r1`).
    pub dst: [Option<Dest>; 2],
    /// Source operands (up to three for `mad`/`selp`).
    pub src: [Option<Operand>; 3],
    /// Resolved branch target: an instruction index into the program.
    pub target: Option<usize>,
}

impl Instruction {
    /// Creates a blank instruction of the given opcode with `u32` type and
    /// no operands; used by the assembler and by tests.
    #[must_use]
    pub fn new(opcode: Opcode) -> Self {
        Instruction {
            guard: None,
            opcode,
            ty: ScalarType::U32,
            src_ty: ScalarType::U32,
            cmp: None,
            wide: false,
            hi: false,
            dst: [None, None],
            src: [None, None, None],
            target: None,
        }
    }

    /// Iterates over the source operands that are present.
    pub fn sources(&self) -> impl Iterator<Item = &Operand> {
        self.src.iter().flatten()
    }

    /// Iterates over the destinations that are present.
    pub fn dests(&self) -> impl Iterator<Item = &Dest> {
        self.dst.iter().flatten()
    }

    /// Total number of *destination-register* bits of this instruction — the
    /// `bit(t, i)` term of Equation (1). Write-discard destinations
    /// (`$o127`, `$r124`) and memory destinations contribute nothing;
    /// predicate destinations contribute 4 bits; general-purpose
    /// destinations contribute the operation width.
    #[must_use]
    pub fn dest_bits(&self) -> u32 {
        self.dests()
            .filter_map(Dest::register)
            .map(|r| self.register_dest_bits(r))
            .sum()
    }

    /// Bit width contributed by one destination register of this
    /// instruction.
    #[must_use]
    pub fn register_dest_bits(&self, reg: Register) -> u32 {
        match reg {
            Register::Pred(_) => 4,
            r if r.is_discard() => 0,
            _ => {
                if self.wide {
                    32
                } else {
                    self.ty.bits()
                }
            }
        }
    }

    /// Whether this instruction can transfer control (including falling out
    /// of the kernel).
    #[must_use]
    pub const fn is_control(&self) -> bool {
        self.opcode.is_control()
    }

    /// Whether this instruction is a branch with a resolved target.
    #[must_use]
    pub const fn is_branch(&self) -> bool {
        matches!(self.opcode, Opcode::Bra)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = &self.guard {
            write!(f, "{g} ")?;
        }
        write!(f, "{}", self.opcode)?;
        if let Some(cmp) = self.cmp {
            write!(f, ".{cmp}")?;
        }
        if self.wide {
            write!(f, ".wide")?;
        }
        if self.hi {
            write!(f, ".hi")?;
        }
        match (self.opcode, self.opcode.type_suffixes()) {
            (_, 0) => {}
            (Opcode::Ld | Opcode::St, _) => write!(f, ".global.{}", self.ty)?,
            (_, 2) => write!(f, ".{}.{}", self.ty, self.src_ty)?,
            _ => write!(f, ".{}", self.ty)?,
        }
        let mut sep = " ";
        let dests: Vec<_> = self.dests().collect();
        if dests.len() == 2 {
            write!(f, " {}|{}", dests[0], dests[1])?;
            sep = ", ";
        } else if let Some(d) = dests.first() {
            write!(f, " {d}")?;
            sep = ", ";
        }
        for s in self.sources() {
            if matches!(self.opcode, Opcode::Ld) || matches!(self.opcode, Opcode::St) {
                if let Operand::Mem(
                    m @ MemRef {
                        space: MemSpace::Global,
                        ..
                    },
                ) = s
                {
                    // ld/st spell a global memory operand in brackets
                    // without the space prefix (bare brackets assemble
                    // as global).
                    if let Some(base) = m.base {
                        if m.offset == 0 {
                            write!(f, "{sep}[{base}]")?;
                        } else {
                            write!(f, "{sep}[{base}+{:#06x}]", m.offset)?;
                        }
                    } else {
                        write!(f, "{sep}[{:#010x}]", m.offset)?;
                    }
                    sep = ", ";
                    continue;
                }
            }
            write!(f, "{sep}{s}")?;
            sep = ", ";
        }
        if let Some(t) = self.target {
            write!(f, "{sep}@{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_roundtrip() {
        for op in [
            Opcode::Mov,
            Opcode::Mad,
            Opcode::Set,
            Opcode::Bra,
            Opcode::Bar,
            Opcode::Exit,
        ] {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        // `bar.sync` is an accepted alias.
        assert_eq!(Opcode::from_mnemonic("bar.sync"), Some(Opcode::Bar));
        assert_eq!(Opcode::from_mnemonic("frobnicate"), None);
    }

    #[test]
    fn dest_bits_gpr() {
        let mut i = Instruction::new(Opcode::Add);
        i.dst[0] = Some(Dest::Reg(Register::Gpr(3)));
        assert_eq!(i.dest_bits(), 32);
        i.ty = ScalarType::U16;
        assert_eq!(i.dest_bits(), 16);
        i.wide = true;
        assert_eq!(i.dest_bits(), 32, "wide ops produce 32-bit results");
    }

    #[test]
    fn dest_bits_pred_and_dual() {
        let mut i = Instruction::new(Opcode::Set);
        i.dst[0] = Some(Dest::Reg(Register::Pred(0)));
        i.dst[1] = Some(Dest::Reg(Register::Discard));
        assert_eq!(i.dest_bits(), 4, "pred + discard = 4 bits");
        i.dst[1] = Some(Dest::Reg(Register::Gpr(1)));
        assert_eq!(i.dest_bits(), 36, "pred + gpr = 36 bits");
    }

    #[test]
    fn dest_bits_store_is_zero() {
        let mut i = Instruction::new(Opcode::St);
        i.dst[0] = Some(Dest::Mem(MemRef::relative(
            MemSpace::Global,
            Register::Gpr(2),
            0,
        )));
        assert_eq!(i.dest_bits(), 0);
    }

    #[test]
    fn display_basic() {
        let mut i = Instruction::new(Opcode::Add);
        i.dst[0] = Some(Dest::Reg(Register::Gpr(3)));
        i.src[0] = Some(Operand::neg_reg(Register::Gpr(3)));
        i.src[1] = Some(Operand::Imm(0x100));
        assert_eq!(i.to_string(), "add.u32 $r3, -$r3, 0x00000100");
    }

    #[test]
    fn display_guarded_branch() {
        let mut i = Instruction::new(Opcode::Bra);
        i.guard = Some(Guard {
            pred: 0,
            test: PredTest::Eq,
        });
        i.target = Some(17);
        assert_eq!(i.to_string(), "@$p0.eq bra @17");
    }
}
