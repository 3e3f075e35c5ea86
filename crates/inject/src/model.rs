//! Fault models beyond the paper's single-bit flip.
//!
//! The paper (and its baseline tools GPU-Qin / SASSIFI / LLFI-GPU) centers
//! on transient single-bit flips in destination registers; SASSIFI also
//! supports richer corruption modes. This module provides those as an
//! extension — the pruning methodology is fault-model-agnostic as long as
//! the model targets destination-register sites.

/// How the destination value is corrupted at the fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultModel {
    /// The paper's model: flip the addressed bit.
    #[default]
    SingleBitFlip,
    /// Flip the addressed bit and its upper neighbour (wrapping within the
    /// destination width) — models a double-cell upset.
    DoubleBitFlip,
    /// Force the addressed bit to 0 (masked whenever the bit already was 0).
    StuckAt0,
    /// Force the addressed bit to 1.
    StuckAt1,
    /// Replace the whole destination with a deterministic pseudo-random
    /// value derived from the site (SASSIFI's "random value" mode).
    RandomValue,
}

impl FaultModel {
    /// All models, for sweeps.
    pub const ALL: [FaultModel; 5] = [
        FaultModel::SingleBitFlip,
        FaultModel::DoubleBitFlip,
        FaultModel::StuckAt0,
        FaultModel::StuckAt1,
        FaultModel::RandomValue,
    ];

    /// Looks a model up by its [`FaultModel::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<FaultModel> {
        FaultModel::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Stable single-byte wire/storage code (the campaign service keys its
    /// persistent outcome store by it). Inverse of [`FaultModel::from_code`];
    /// the mapping is frozen — extend, never renumber.
    #[must_use]
    pub const fn code(self) -> u8 {
        match self {
            FaultModel::SingleBitFlip => 0,
            FaultModel::DoubleBitFlip => 1,
            FaultModel::StuckAt0 => 2,
            FaultModel::StuckAt1 => 3,
            FaultModel::RandomValue => 4,
        }
    }

    /// Decodes a wire/storage code; `None` for unknown codes.
    #[must_use]
    pub const fn from_code(code: u8) -> Option<FaultModel> {
        match code {
            0 => Some(FaultModel::SingleBitFlip),
            1 => Some(FaultModel::DoubleBitFlip),
            2 => Some(FaultModel::StuckAt0),
            3 => Some(FaultModel::StuckAt1),
            4 => Some(FaultModel::RandomValue),
            _ => None,
        }
    }

    /// Short display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultModel::SingleBitFlip => "single-bit-flip",
            FaultModel::DoubleBitFlip => "double-bit-flip",
            FaultModel::StuckAt0 => "stuck-at-0",
            FaultModel::StuckAt1 => "stuck-at-1",
            FaultModel::RandomValue => "random-value",
        }
    }

    /// Corrupts `value` at bit `offset` within a destination of `width`
    /// bits.
    #[must_use]
    pub fn apply(self, value: u32, offset: u32, width: u32, site_key: u64) -> u32 {
        let mask = if width >= 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        match self {
            FaultModel::SingleBitFlip => value ^ (1 << offset),
            FaultModel::DoubleBitFlip => {
                let second = (offset + 1) % width.max(1);
                value ^ (1 << offset) ^ (1 << second)
            }
            FaultModel::StuckAt0 => value & !(1 << offset),
            FaultModel::StuckAt1 => value | (1 << offset),
            FaultModel::RandomValue => {
                // SplitMix64 of the site key: deterministic per site.
                let mut z = site_key.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let random = (z ^ (z >> 31)) as u32;
                (value & !mask) | (random & mask)
            }
        }
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bit_flips_exactly_one_bit() {
        let v = FaultModel::SingleBitFlip.apply(0b1010, 0, 32, 0);
        assert_eq!(v, 0b1011);
        assert_eq!(
            FaultModel::SingleBitFlip.apply(v, 0, 32, 0),
            0b1010,
            "involution"
        );
    }

    #[test]
    fn double_bit_flips_adjacent_pair_and_wraps() {
        assert_eq!(FaultModel::DoubleBitFlip.apply(0, 0, 32, 0), 0b11);
        // Wraps at the destination width, not at 32 bits.
        assert_eq!(FaultModel::DoubleBitFlip.apply(0, 3, 4, 0), 0b1001);
    }

    #[test]
    fn stuck_at_models_are_idempotent() {
        for model in [FaultModel::StuckAt0, FaultModel::StuckAt1] {
            let once = model.apply(0b0101, 1, 32, 0);
            assert_eq!(model.apply(once, 1, 32, 0), once);
        }
        assert_eq!(FaultModel::StuckAt0.apply(0b0010, 1, 32, 0), 0);
        assert_eq!(FaultModel::StuckAt1.apply(0, 1, 32, 0), 0b0010);
        // Stuck-at can be a no-op (inherently maskable).
        assert_eq!(FaultModel::StuckAt0.apply(0, 5, 32, 0), 0);
    }

    #[test]
    fn random_value_is_deterministic_and_width_bounded() {
        let a = FaultModel::RandomValue.apply(0xFFFF_FFFF, 0, 4, 42);
        let b = FaultModel::RandomValue.apply(0xFFFF_FFFF, 0, 4, 42);
        assert_eq!(a, b);
        assert_eq!(a & !0xF, 0xFFFF_FFF0, "bits outside the width untouched");
        let c = FaultModel::RandomValue.apply(0xFFFF_FFFF, 0, 4, 43);
        assert_ne!(a, c, "different sites draw different values");
    }

    #[test]
    fn codes_and_names_round_trip() {
        for m in FaultModel::ALL {
            assert_eq!(FaultModel::from_code(m.code()), Some(m));
            assert_eq!(FaultModel::from_name(m.name()), Some(m));
        }
        assert_eq!(FaultModel::from_code(5), None);
        assert_eq!(FaultModel::from_name("nonesuch"), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = FaultModel::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultModel::ALL.len());
    }

    #[test]
    fn all_covers_every_variant() {
        // `ALL` is the ground truth for sweeps: every variant must appear
        // exactly once, and codes must be a bijection onto 0..ALL.len().
        let mut codes: Vec<u8> = FaultModel::ALL.iter().map(|m| m.code()).collect();
        codes.sort_unstable();
        let expected: Vec<u8> = (0..FaultModel::ALL.len() as u8).collect();
        assert_eq!(codes, expected, "codes are dense and unique");
        for m in [
            FaultModel::SingleBitFlip,
            FaultModel::DoubleBitFlip,
            FaultModel::StuckAt0,
            FaultModel::StuckAt1,
            FaultModel::RandomValue,
        ] {
            assert!(FaultModel::ALL.contains(&m));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn model_strategy() -> impl Strategy<Value = FaultModel> {
            (0usize..FaultModel::ALL.len()).prop_map(|i| FaultModel::ALL[i])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn name_round_trips(m in model_strategy()) {
                prop_assert_eq!(FaultModel::from_name(m.name()), Some(m));
            }

            #[test]
            fn code_round_trips(m in model_strategy()) {
                prop_assert_eq!(FaultModel::from_code(m.code()), Some(m));
            }

            #[test]
            fn unknown_codes_decode_to_none(code in any::<u8>()) {
                prop_assume!(code >= FaultModel::ALL.len() as u8);
                prop_assert_eq!(FaultModel::from_code(code), None);
            }

            #[test]
            fn apply_stays_within_width(
                m in model_strategy(),
                value in any::<u32>(),
                width in 1u32..33,
                offset in 0u32..32,
                key in any::<u64>(),
            ) {
                prop_assume!(offset < width);
                let out = m.apply(value, offset, width, key);
                let outside = if width >= 32 { 0 } else { !((1u32 << width) - 1) };
                prop_assert_eq!(
                    out & outside,
                    value & outside,
                    "bits outside the destination width must be untouched"
                );
            }

            #[test]
            fn single_bit_flip_is_an_involution(
                value in any::<u32>(),
                width in 1u32..33,
                offset in 0u32..32,
                key in any::<u64>(),
            ) {
                prop_assume!(offset < width);
                let m = FaultModel::SingleBitFlip;
                prop_assert_eq!(m.apply(m.apply(value, offset, width, key), offset, width, key), value);
            }
        }
    }
}
