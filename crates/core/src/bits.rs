//! Stage 4 — bit-wise pruning (Section III-E).
//!
//! Not all destination bits need injection: sampling equally spaced bit
//! positions reproduces the outcome distribution (Figure 8 stabilizes at 16
//! of 32 bits), and the predicate registers' sign/carry/overflow flags are
//! architecturally inert in the evaluated kernels (only the zero flag feeds
//! branch guards — Figure 7), so those bits are *known masked* and need no
//! runs at all.

use fsp_isa::{Dest, Instruction, Register};

/// Policy for predicate (4-bit condition code) destinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredBitPolicy {
    /// Inject only the zero flag; account the other three flags as masked
    /// without running them (the paper's choice).
    #[default]
    ZeroFlagOnly,
    /// Inject all four flags.
    All,
}

/// Selection of bits for one write-back slot of one instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSelection {
    /// Bit positions to inject, *relative to the slot* (ascending).
    pub bits: Vec<u32>,
    /// Extrapolation weight per injected bit (`slot_width / bits.len()`
    /// for sampled slots, 1 for exhaustive slots).
    pub weight_per_bit: f64,
    /// Slot bits accounted as masked without injection (predicate policy).
    pub assumed_masked_bits: u32,
}

/// Equally spaced bit-position sampler.
///
/// With `samples_per_32 = 8` a 32-bit register contributes positions
/// `{3, 7, 11, 15, 19, 23, 27, 31}` — two per byte-section, matching the
/// paper's example; `0` disables sampling (all bits kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitSampler {
    /// Sampled bits per 32-bit register; narrower registers scale down
    /// proportionally. `0` = exhaustive.
    pub samples_per_32: u32,
    /// Predicate policy.
    pub pred_policy: PredBitPolicy,
}

impl Default for BitSampler {
    fn default() -> Self {
        // Figure 8: percentages stabilize at 16 sampled bits.
        BitSampler {
            samples_per_32: 16,
            pred_policy: PredBitPolicy::ZeroFlagOnly,
        }
    }
}

impl BitSampler {
    /// An exhaustive sampler (no bit-wise pruning).
    #[must_use]
    pub fn exhaustive() -> Self {
        BitSampler {
            samples_per_32: 0,
            pred_policy: PredBitPolicy::All,
        }
    }

    /// Equally spaced positions for a register of `width` bits.
    #[must_use]
    pub fn positions(&self, width: u32) -> Vec<u32> {
        if self.samples_per_32 == 0 || self.samples_per_32 >= width {
            return (0..width).collect();
        }
        // Scale the per-32 budget to the width, keep spacing equal, anchor
        // at the top of each section (..., 2*step-1, width-1).
        let n = (self.samples_per_32 * width / 32).max(1);
        let step = width / n;
        (1..=n).map(|i| i * step - 1).collect()
    }

    /// Bit selection for one destination slot of `instr`.
    #[must_use]
    pub fn select_slot(&self, instr: &Instruction, reg: Register) -> SlotSelection {
        self.select_slot_masked(instr, reg, 0)
    }

    /// Bit selection for one destination slot of `instr`, excluding the
    /// bits of `dead_mask` (statically un-ACE positions, Stage 0): dead
    /// bits are never injected and are accounted in `assumed_masked_bits`;
    /// sampling and weights cover only the surviving bits. With
    /// `dead_mask == 0` this is exactly [`BitSampler::select_slot`].
    #[must_use]
    pub fn select_slot_masked(
        &self,
        instr: &Instruction,
        reg: Register,
        dead_mask: u32,
    ) -> SlotSelection {
        let width = instr.register_dest_bits(reg);
        let width_mask = if width >= 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        let dead = dead_mask & width_mask;
        if matches!(reg, Register::Pred(_)) {
            return match self.pred_policy {
                // The policy already assumes sign/carry/overflow masked; a
                // statically-dead zero flag removes the last injected bit.
                PredBitPolicy::ZeroFlagOnly if dead & 1 != 0 => SlotSelection {
                    bits: Vec::new(),
                    weight_per_bit: 1.0,
                    assumed_masked_bits: width,
                },
                PredBitPolicy::ZeroFlagOnly => SlotSelection {
                    bits: vec![0],
                    weight_per_bit: 1.0,
                    assumed_masked_bits: width.saturating_sub(1),
                },
                PredBitPolicy::All => SlotSelection {
                    bits: (0..width).filter(|b| dead & (1 << b) == 0).collect(),
                    weight_per_bit: 1.0,
                    assumed_masked_bits: dead.count_ones(),
                },
            };
        }
        let survivors: Vec<u32> = (0..width).filter(|b| dead & (1 << b) == 0).collect();
        if survivors.is_empty() {
            return SlotSelection {
                bits: Vec::new(),
                weight_per_bit: 1.0,
                assumed_masked_bits: width,
            };
        }
        // Scale the per-32 budget by the *architectural* width (sampling
        // density is a property of the register), then sample equally
        // spaced positions from the surviving bits only.
        let count = survivors.len() as u32;
        let n = if self.samples_per_32 == 0 {
            count
        } else {
            (self.samples_per_32 * width / 32).clamp(1, count)
        };
        let bits: Vec<u32> = if n == count {
            survivors
        } else {
            let step = count / n;
            (1..=n)
                .map(|i| survivors[(i * step - 1) as usize])
                .collect()
        };
        let weight_per_bit = f64::from(count) / bits.len() as f64;
        SlotSelection {
            bits,
            weight_per_bit,
            assumed_masked_bits: dead.count_ones(),
        }
    }

    /// Bit selections for every register destination slot of `instr`, in
    /// write-back order, with slot-relative positions already offset into
    /// the instruction's flat bit index space.
    #[must_use]
    pub fn select_instruction(&self, instr: &Instruction) -> Vec<SlotSelection> {
        self.select_instruction_masked(instr, &[])
    }

    /// Like [`BitSampler::select_instruction`], but excluding per-slot
    /// statically-dead bits. `dead_masks` is aligned with the instruction's
    /// non-discard register destination slots (missing entries mean no dead
    /// bits — the empty slice reproduces the unmasked selection).
    #[must_use]
    pub fn select_instruction_masked(
        &self,
        instr: &Instruction,
        dead_masks: &[u32],
    ) -> Vec<SlotSelection> {
        let mut selections = Vec::new();
        let mut offset = 0u32;
        let mut slot = 0usize;
        for dest in instr.dests() {
            let Dest::Reg(reg) = dest else { continue };
            if reg.is_discard() {
                continue;
            }
            let dead = dead_masks.get(slot).copied().unwrap_or(0);
            slot += 1;
            let mut sel = self.select_slot_masked(instr, *reg, dead);
            for b in &mut sel.bits {
                *b += offset;
            }
            offset += instr.register_dest_bits(*reg);
            selections.push(sel);
        }
        selections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::assemble;

    #[test]
    fn paper_example_positions() {
        let s = BitSampler {
            samples_per_32: 8,
            pred_policy: PredBitPolicy::ZeroFlagOnly,
        };
        assert_eq!(s.positions(32), vec![3, 7, 11, 15, 19, 23, 27, 31]);
        let s16 = BitSampler {
            samples_per_32: 16,
            pred_policy: PredBitPolicy::ZeroFlagOnly,
        };
        assert_eq!(
            s16.positions(32),
            (0..16).map(|i| 2 * i + 1).collect::<Vec<_>>()
        );
        let s4 = BitSampler {
            samples_per_32: 4,
            pred_policy: PredBitPolicy::ZeroFlagOnly,
        };
        assert_eq!(s4.positions(32), vec![7, 15, 23, 31]);
    }

    #[test]
    fn exhaustive_keeps_all() {
        let s = BitSampler::exhaustive();
        assert_eq!(s.positions(32).len(), 32);
        assert_eq!(s.positions(16).len(), 16);
    }

    #[test]
    fn narrow_registers_scale() {
        let s = BitSampler {
            samples_per_32: 8,
            pred_policy: PredBitPolicy::ZeroFlagOnly,
        };
        // 16-bit register gets 4 samples.
        assert_eq!(s.positions(16), vec![3, 7, 11, 15]);
    }

    #[test]
    fn weights_conserve_width() {
        for spb in [4, 8, 16] {
            let s = BitSampler {
                samples_per_32: spb,
                pred_policy: PredBitPolicy::All,
            };
            for width in [16u32, 32] {
                let bits = s.positions(width);
                let w = f64::from(width) / bits.len() as f64;
                assert!((w * bits.len() as f64 - f64::from(width)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pred_zero_flag_policy() {
        let p = assemble("t", "set.eq.u32.u32 $p0/$r1, $r2, $r3\nexit").unwrap();
        let instr = p.instr(0);
        let s = BitSampler::default();
        let sels = s.select_instruction(instr);
        assert_eq!(sels.len(), 2);
        // Predicate slot: only bit 0, 3 bits assumed masked.
        assert_eq!(sels[0].bits, vec![0]);
        assert_eq!(sels[0].assumed_masked_bits, 3);
        // GPR slot offsets start at 4 (after the predicate's width).
        assert_eq!(sels[1].bits.len(), 16);
        assert_eq!(sels[1].bits[0], 4 + 1);
        assert!((sels[1].weight_per_bit - 2.0).abs() < 1e-12);
    }

    #[test]
    fn masked_selection_skips_dead_bits() {
        let p = assemble("t", "and.b32 $r1, $r2, 0xFF\nexit").unwrap();
        let instr = p.instr(0);
        let s = BitSampler::exhaustive();
        // High 24 bits statically dead: only the low byte is injected and
        // the dead bits are assumed masked.
        let sels = s.select_instruction_masked(instr, &[!0xFFu32]);
        assert_eq!(sels.len(), 1);
        assert_eq!(sels[0].bits, (0..8).collect::<Vec<_>>());
        assert!((sels[0].weight_per_bit - 1.0).abs() < 1e-12);
        assert_eq!(sels[0].assumed_masked_bits, 24);
    }

    #[test]
    fn masked_selection_samples_survivors_evenly() {
        let p = assemble("t", "mov.u32 $r1, $r2\nexit").unwrap();
        let instr = p.instr(0);
        let s = BitSampler {
            samples_per_32: 4,
            pred_policy: PredBitPolicy::All,
        };
        // 16 surviving bits (low half), budget 4 -> every 4th survivor.
        let sels = s.select_instruction_masked(instr, &[0xFFFF_0000]);
        assert_eq!(sels[0].bits, vec![3, 7, 11, 15]);
        assert!((sels[0].weight_per_bit - 4.0).abs() < 1e-12);
        assert_eq!(sels[0].assumed_masked_bits, 16);
    }

    #[test]
    fn masked_selection_conserves_slot_width() {
        let p = assemble("t", "set.lt.s32.s32 $p0/$r1, $r2, $r3\nexit").unwrap();
        let instr = p.instr(0);
        for spb in [0u32, 4, 8, 16] {
            for policy in [PredBitPolicy::ZeroFlagOnly, PredBitPolicy::All] {
                let s = BitSampler {
                    samples_per_32: spb,
                    pred_policy: policy,
                };
                for dead in [[0u32, 0], [0b1101, 0xFFFF_0000], [0b1111, u32::MAX]] {
                    let sels = s.select_instruction_masked(instr, &dead);
                    let total: f64 = sels
                        .iter()
                        .map(|sel| {
                            sel.weight_per_bit * sel.bits.len() as f64
                                + f64::from(sel.assumed_masked_bits)
                        })
                        .sum();
                    assert!(
                        (total - f64::from(instr.dest_bits())).abs() < 1e-12,
                        "spb={spb} policy={policy:?} dead={dead:?}: {total}"
                    );
                }
            }
        }
    }

    #[test]
    fn fully_dead_slot_yields_no_injections() {
        let p = assemble("t", "mov.u32 $r1, $r2\nexit").unwrap();
        let sels = BitSampler::default().select_instruction_masked(p.instr(0), &[u32::MAX]);
        assert!(sels[0].bits.is_empty());
        assert_eq!(sels[0].assumed_masked_bits, 32);
    }

    #[test]
    fn empty_masks_match_unmasked_selection() {
        let p = assemble("t", "set.eq.u32.u32 $p0/$r1, $r2, $r3\nexit").unwrap();
        let instr = p.instr(0);
        let s = BitSampler::default();
        assert_eq!(
            s.select_instruction(instr),
            s.select_instruction_masked(instr, &[])
        );
        assert_eq!(
            s.select_instruction(instr),
            s.select_instruction_masked(instr, &[0, 0])
        );
    }

    #[test]
    fn discard_slots_skipped() {
        let p = assemble("t", "set.eq.u32.u32 $p0/$o127, $r2, $r3\nexit").unwrap();
        let sels = BitSampler::default().select_instruction(p.instr(0));
        assert_eq!(sels.len(), 1);
        assert_eq!(sels[0].bits, vec![0]);
    }
}
