//! Instruction operands: registers (with half-word selection and negation),
//! immediates and memory references.

use std::fmt;

use crate::reg::Register;

/// Memory address space of a memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device-wide global memory (`g[...]`).
    Global,
    /// Per-CTA shared memory (`s[...]`). Kernel parameters are pre-loaded at
    /// the bottom of shared memory, PTXPlus-style.
    Shared,
    /// Per-thread local memory (`l[...]`).
    Local,
}

impl MemSpace {
    /// Assembler prefix character.
    #[must_use]
    pub const fn prefix(self) -> char {
        match self {
            MemSpace::Global => 'g',
            MemSpace::Shared => 's',
            MemSpace::Local => 'l',
        }
    }
}

/// Half-word selection on a 32-bit register operand (`$r1.lo` / `$r1.hi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Half {
    /// Bits `[15:0]`.
    Lo,
    /// Bits `[31:16]`.
    Hi,
}

/// A memory reference `space[base + offset]`.
///
/// `base` may be a general-purpose or offset register; `offset` is a byte
/// offset added to the base. Absolute addressing uses `base = None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Address space.
    pub space: MemSpace,
    /// Optional base register (`$rN` or `$ofsN`).
    pub base: Option<Register>,
    /// Constant byte offset.
    pub offset: u32,
}

impl MemRef {
    /// Absolute reference `space[offset]`.
    #[must_use]
    pub const fn absolute(space: MemSpace, offset: u32) -> Self {
        MemRef {
            space,
            base: None,
            offset,
        }
    }

    /// Register-relative reference `space[base + offset]`.
    #[must_use]
    pub const fn relative(space: MemSpace, base: Register, offset: u32) -> Self {
        MemRef {
            space,
            base: Some(base),
            offset,
        }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.space.prefix())?;
        match (self.base, self.offset) {
            (None, off) => write!(f, "{off:#010x}")?,
            (Some(base), 0) => write!(f, "{base}")?,
            (Some(base), off) => write!(f, "{base}+{off:#06x}")?,
        }
        write!(f, "]")
    }
}

/// A source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register source, optionally half-word selected and/or negated
    /// (`-$r3`, `$r1.lo`).
    Reg {
        /// The register read.
        reg: Register,
        /// Optional half-word selection.
        half: Option<Half>,
        /// Arithmetic negation of the fetched value.
        neg: bool,
    },
    /// 32-bit immediate (raw bits; interpretation depends on the operation
    /// type).
    Imm(u32),
    /// Memory source (PTXPlus allows memory operands directly in ALU
    /// instructions, e.g. `add.u32 $r3, s[0x10], $r1`).
    Mem(MemRef),
}

impl Operand {
    /// Plain register operand.
    #[must_use]
    pub const fn reg(reg: Register) -> Self {
        Operand::Reg {
            reg,
            half: None,
            neg: false,
        }
    }

    /// Negated register operand (`-$rN`).
    #[must_use]
    pub const fn neg_reg(reg: Register) -> Self {
        Operand::Reg {
            reg,
            half: None,
            neg: true,
        }
    }

    /// Half-word register operand (`$rN.lo` / `$rN.hi`).
    #[must_use]
    pub const fn half_reg(reg: Register, half: Half) -> Self {
        Operand::Reg {
            reg,
            half: Some(half),
            neg: false,
        }
    }

    /// The register read by this operand, if any.
    #[must_use]
    pub const fn register(&self) -> Option<Register> {
        match self {
            Operand::Reg { reg, .. } => Some(*reg),
            Operand::Mem(m) => m.base,
            Operand::Imm(_) => None,
        }
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v)
    }
}

impl From<Register> for Operand {
    fn from(reg: Register) -> Self {
        Operand::reg(reg)
    }
}

impl From<MemRef> for Operand {
    fn from(m: MemRef) -> Self {
        Operand::Mem(m)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg { reg, half, neg } => {
                if *neg {
                    write!(f, "-")?;
                }
                write!(f, "{reg}")?;
                match half {
                    Some(Half::Lo) => write!(f, ".lo"),
                    Some(Half::Hi) => write!(f, ".hi"),
                    None => Ok(()),
                }
            }
            Operand::Imm(v) => write!(f, "{v:#010x}"),
            Operand::Mem(m) => write!(f, "{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Register;

    #[test]
    fn memref_display() {
        let abs = MemRef::absolute(MemSpace::Shared, 0x10);
        assert_eq!(abs.to_string(), "s[0x00000010]");
        let rel = MemRef::relative(MemSpace::Shared, Register::Ofs(2), 0x40);
        assert_eq!(rel.to_string(), "s[$ofs2+0x0040]");
        let reg = MemRef::relative(MemSpace::Global, Register::Gpr(2), 0);
        assert_eq!(reg.to_string(), "g[$r2]");
    }

    #[test]
    fn operand_display() {
        assert_eq!(Operand::reg(Register::Gpr(3)).to_string(), "$r3");
        assert_eq!(Operand::neg_reg(Register::Gpr(3)).to_string(), "-$r3");
        assert_eq!(
            Operand::half_reg(Register::Gpr(1), Half::Lo).to_string(),
            "$r1.lo"
        );
        assert_eq!(Operand::Imm(0x100).to_string(), "0x00000100");
    }

    #[test]
    fn operand_register_extraction() {
        assert_eq!(
            Operand::reg(Register::Gpr(3)).register(),
            Some(Register::Gpr(3))
        );
        assert_eq!(Operand::Imm(0).register(), None);
        let m = Operand::Mem(MemRef::relative(MemSpace::Global, Register::Gpr(2), 0));
        assert_eq!(m.register(), Some(Register::Gpr(2)));
    }
}
