//! Register classes.

use std::fmt;

/// Number of general-purpose registers per thread.
pub const NUM_GPRS: u8 = 128;
/// Number of predicate (condition-code) registers per thread.
pub const NUM_PREDS: u8 = 8;
/// Number of address-offset registers per thread.
pub const NUM_OFS: u8 = 4;
/// The general-purpose register hardwired to zero (`$r124` in PTXPlus).
pub const ZERO_GPR: u8 = 124;

/// Special read-only registers exposing the thread's position in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// `%tid.x` — thread index within the CTA, x dimension.
    TidX,
    /// `%tid.y` — thread index within the CTA, y dimension.
    TidY,
    /// `%tid.z` — thread index within the CTA, z dimension.
    TidZ,
    /// `%ntid.x` — CTA size, x dimension.
    NTidX,
    /// `%ntid.y` — CTA size, y dimension.
    NTidY,
    /// `%ctaid.x` — CTA index within the grid, x dimension.
    CtaIdX,
    /// `%ctaid.y` — CTA index within the grid, y dimension.
    CtaIdY,
    /// `%nctaid.x` — grid size, x dimension.
    NCtaIdX,
    /// `%nctaid.y` — grid size, y dimension.
    NCtaIdY,
}

impl Special {
    const ALL: [(Special, &'static str); 9] = [
        (Special::TidX, "%tid.x"),
        (Special::TidY, "%tid.y"),
        (Special::TidZ, "%tid.z"),
        (Special::NTidX, "%ntid.x"),
        (Special::NTidY, "%ntid.y"),
        (Special::CtaIdX, "%ctaid.x"),
        (Special::CtaIdY, "%ctaid.y"),
        (Special::NCtaIdX, "%nctaid.x"),
        (Special::NCtaIdY, "%nctaid.y"),
    ];

    /// Assembler spelling, e.g. `"%tid.x"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(s, _)| *s == self)
            .expect("all variants listed")
            .1
    }

    /// Parses an assembler spelling.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().find(|(_, n)| *n == name).map(|(s, _)| *s)
    }
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A register reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Register {
    /// General-purpose 32-bit register `$rN`. `$r124` reads as zero and
    /// discards writes, matching PTXPlus.
    Gpr(u8),
    /// 4-bit predicate / condition-code register `$pN`.
    Pred(u8),
    /// Address-offset register `$ofsN` used in shared-memory operand
    /// addressing (`s[$ofs1+0x40]`).
    Ofs(u8),
    /// Special read-only register (`%tid.x`, `%ctaid.x`, ...).
    Special(Special),
    /// The write-discard output register `$o127`.
    Discard,
}

impl Register {
    /// Bit width of the register (used for fault-site accounting).
    #[must_use]
    pub const fn bits(self) -> u32 {
        match self {
            Register::Pred(_) => 4,
            Register::Discard => 0,
            _ => 32,
        }
    }

    /// Whether writes to this register are discarded (`$o127`, `$r124`).
    #[must_use]
    pub const fn is_discard(self) -> bool {
        matches!(self, Register::Discard | Register::Gpr(ZERO_GPR))
    }

    /// Parses an assembler register spelling (`$r5`, `$p0`, `$ofs2`,
    /// `$o127`, `%tid.x`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        if let Some(sp) = Special::from_name(name) {
            return Some(Register::Special(sp));
        }
        let rest = name.strip_prefix('$')?;
        if rest == "o127" {
            return Some(Register::Discard);
        }
        if let Some(n) = rest.strip_prefix("ofs") {
            let idx: u8 = n.parse().ok()?;
            return (idx < NUM_OFS).then_some(Register::Ofs(idx));
        }
        if let Some(n) = rest.strip_prefix('r') {
            let idx: u8 = n.parse().ok()?;
            return (idx < NUM_GPRS).then_some(Register::Gpr(idx));
        }
        if let Some(n) = rest.strip_prefix('p') {
            let idx: u8 = n.parse().ok()?;
            return (idx < NUM_PREDS).then_some(Register::Pred(idx));
        }
        None
    }
}

impl fmt::Display for Register {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Register::Gpr(n) => write!(f, "$r{n}"),
            Register::Pred(n) => write!(f, "$p{n}"),
            Register::Ofs(n) => write!(f, "$ofs{n}"),
            Register::Special(s) => write!(f, "{s}"),
            Register::Discard => write!(f, "$o127"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_gpr() {
        assert_eq!(Register::from_name("$r0"), Some(Register::Gpr(0)));
        assert_eq!(Register::from_name("$r127"), Some(Register::Gpr(127)));
        assert_eq!(Register::from_name("$r128"), None);
        assert_eq!(Register::from_name("r5"), None);
    }

    #[test]
    fn parse_pred_ofs_discard() {
        assert_eq!(Register::from_name("$p3"), Some(Register::Pred(3)));
        assert_eq!(Register::from_name("$p8"), None);
        assert_eq!(Register::from_name("$ofs2"), Some(Register::Ofs(2)));
        assert_eq!(Register::from_name("$o127"), Some(Register::Discard));
    }

    #[test]
    fn parse_specials() {
        assert_eq!(
            Register::from_name("%tid.x"),
            Some(Register::Special(Special::TidX))
        );
        assert_eq!(
            Register::from_name("%nctaid.y"),
            Some(Register::Special(Special::NCtaIdY))
        );
        assert_eq!(Register::from_name("%tid.w"), None);
    }

    #[test]
    fn display_roundtrip() {
        for name in ["$r17", "$p0", "$ofs1", "$o127", "%ctaid.x"] {
            let reg = Register::from_name(name).unwrap();
            assert_eq!(reg.to_string(), name);
        }
    }

    #[test]
    fn discard_semantics() {
        assert!(Register::Discard.is_discard());
        assert!(Register::Gpr(ZERO_GPR).is_discard());
        assert!(!Register::Gpr(0).is_discard());
        assert_eq!(Register::Discard.bits(), 0);
        assert_eq!(Register::Pred(0).bits(), 4);
    }
}
