//! Scalar operation types.

use std::fmt;

/// Scalar type of an operation or register value.
///
/// The type determines both the arithmetic semantics of an instruction and
/// the *bit width of its destination register* — the quantity `bit(t, i)` in
/// Equation (1) of the paper, which defines the exhaustive fault-site count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// 4-bit predicate / condition-code value (zero, sign, carry, overflow).
    Pred,
    /// Unsigned 16-bit integer.
    U16,
    /// Signed 16-bit integer.
    S16,
    /// Unsigned 32-bit integer.
    U32,
    /// Signed 32-bit integer.
    S32,
    /// Untyped 32-bit bits (logic operations, PTX `.b32`).
    B32,
    /// IEEE-754 single-precision float.
    F32,
}

impl ScalarType {
    /// Bit width of a value of this type.
    ///
    /// ```
    /// use fsp_isa::ScalarType;
    /// assert_eq!(ScalarType::U32.bits(), 32);
    /// assert_eq!(ScalarType::Pred.bits(), 4);
    /// ```
    #[must_use]
    pub const fn bits(self) -> u32 {
        match self {
            ScalarType::Pred => 4,
            ScalarType::U16 | ScalarType::S16 => 16,
            ScalarType::U32 | ScalarType::S32 | ScalarType::B32 | ScalarType::F32 => 32,
        }
    }

    /// Whether the type is interpreted as a signed integer.
    #[must_use]
    pub const fn is_signed(self) -> bool {
        matches!(self, ScalarType::S16 | ScalarType::S32)
    }

    /// Whether the type is a floating-point type.
    #[must_use]
    pub const fn is_float(self) -> bool {
        matches!(self, ScalarType::F32)
    }

    /// The assembler suffix for this type (e.g. `"u32"`).
    #[must_use]
    pub const fn suffix(self) -> &'static str {
        match self {
            ScalarType::Pred => "pred",
            ScalarType::U16 => "u16",
            ScalarType::S16 => "s16",
            ScalarType::U32 => "u32",
            ScalarType::S32 => "s32",
            ScalarType::B32 => "b32",
            ScalarType::F32 => "f32",
        }
    }

    /// Parses an assembler type suffix.
    #[must_use]
    pub fn from_suffix(s: &str) -> Option<Self> {
        Some(match s {
            "pred" => ScalarType::Pred,
            "u16" => ScalarType::U16,
            "s16" => ScalarType::S16,
            "u32" => ScalarType::U32,
            "s32" => ScalarType::S32,
            "b32" => ScalarType::B32,
            "f32" => ScalarType::F32,
            _ => return None,
        })
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(ScalarType::Pred.bits(), 4);
        assert_eq!(ScalarType::U16.bits(), 16);
        assert_eq!(ScalarType::S16.bits(), 16);
        assert_eq!(ScalarType::U32.bits(), 32);
        assert_eq!(ScalarType::S32.bits(), 32);
        assert_eq!(ScalarType::B32.bits(), 32);
        assert_eq!(ScalarType::F32.bits(), 32);
    }

    #[test]
    fn suffix_roundtrip() {
        for ty in [
            ScalarType::Pred,
            ScalarType::U16,
            ScalarType::S16,
            ScalarType::U32,
            ScalarType::S32,
            ScalarType::B32,
            ScalarType::F32,
        ] {
            assert_eq!(ScalarType::from_suffix(ty.suffix()), Some(ty));
        }
        assert_eq!(ScalarType::from_suffix("u64"), None);
    }

    #[test]
    fn signedness() {
        assert!(ScalarType::S32.is_signed());
        assert!(ScalarType::S16.is_signed());
        assert!(!ScalarType::U32.is_signed());
        assert!(!ScalarType::F32.is_signed());
        assert!(ScalarType::F32.is_float());
        assert!(!ScalarType::B32.is_float());
    }
}
