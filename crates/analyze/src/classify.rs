//! Static fault-site outcome pre-classification on top of [`crate::absint`].
//!
//! Two verdicts, both validated dynamically by the absint oracle test:
//!
//! - **Predicted DUE**: a destination bit whose flip provably drives an
//!   out-of-bounds / misaligned access (→ `CRASH`) or an always-taken trap
//!   guard (→ `Detected`). The injector skips these sites and the pipeline
//!   records their weight under the predicted outcome.
//! - **Equivalence classes**: remaining provably-zero address bits of one
//!   definition whose flip faults at *every* reachable use. All members of
//!   a class share their outcome per dynamic instance (the first executed
//!   use crashes, or no use executes and the flip is masked), so injecting
//!   one representative and multiplying its weight by the class size is
//!   exact — the same contract the dynamic pruning stages rely on.
//!
//! # Soundness argument (summarised in DESIGN.md §11)
//!
//! Injection targets retirements, so the flipped definition always
//! committed. Until the first dynamic use of the flipped register
//! executes, every other register, memory word and guard behaves exactly
//! as in the golden run (nothing else read the register, and guards read
//! predicates, not GPRs). A provably-faulting use therefore terminates the
//! launch with a `SimFault` the campaign maps to `CRASH`; a trap guard
//! that provably flips from failing to passing raises `DetectedExit`.
//! The crash prediction additionally requires the use to sit in the same
//! basic block as the definition with no intervening mention and no guard
//! on the use, so the use executes whenever the definition retires.

use fsp_isa::{KernelProgram, Opcode, PredTest, Register};

use crate::absint::{AbsContext, AbsVal, AbsintReport, PredSet};
use crate::ace::StaticAceReport;
use crate::dataflow::{ProgramDataflow, UseKind};

/// Version stamp of the abstract-interpretation + classification
/// semantics. Folded into `fsp-serve` outcome-store keys so cached
/// outcomes from an older classifier miss instead of being served; bump on
/// any semantic change to `absint`/`classify`.
#[must_use]
pub fn absint_version() -> u64 {
    0x6162_7369_6E74_0001 // "absint" | revision 1
}

/// Which DUE class a predicted site falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictedKind {
    /// The flipped bit provably faults an address → `Outcome::Crash`.
    Crash,
    /// The flipped bit provably takes a trap guard → `Outcome::Detected`.
    Detected,
}

/// Static verdicts for one write-back slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotClassify {
    /// Write-back slot (index into `Instruction::dst`).
    pub slot: u8,
    /// Register written.
    pub reg: Register,
    /// Injectable bit width of the slot.
    pub width: u32,
    /// Bits predicted to crash (flip provably drives an OOB or misaligned
    /// access).
    pub crash_mask: u32,
    /// Bits predicted detected (flip provably takes a trap guard).
    pub detected_mask: u32,
    /// Equivalence-class member bits *excluding* the representative; the
    /// pruner drops them and re-weights the representative.
    pub class_mask: u32,
    /// The class representative bit, when the slot carries a class.
    pub class_rep: Option<u32>,
}

impl SlotClassify {
    /// All predicted-DUE bits of the slot.
    #[must_use]
    pub fn predicted_mask(&self) -> u32 {
        self.crash_mask | self.detected_mask
    }

    /// Class size including the representative (0 when no class).
    #[must_use]
    pub fn class_size(&self) -> u32 {
        if self.class_rep.is_some() {
            self.class_mask.count_ones() + 1
        } else {
            0
        }
    }
}

/// One equivalence class in the flat destination-bit space of a pc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatClass {
    /// Write-back slot the class lives in.
    pub slot: u8,
    /// Representative flat bit (injected, carries the class weight).
    pub rep: u32,
    /// Member flat bits excluding the representative (pruned).
    pub members: Vec<u32>,
}

/// Whole-program static classification report.
#[derive(Debug, Clone)]
pub struct ClassifyReport {
    /// Per-pc slot verdicts, in write-back order (aligned with
    /// [`StaticAceReport::slots`]).
    per_pc: Vec<Vec<SlotClassify>>,
}

impl ClassifyReport {
    /// Analyzes `program` under launch context `ctx`.
    ///
    /// ACE-dead bits (Stage 0) are always excluded from predictions and
    /// classes, whether or not the pipeline runs Stage 0 — the verdict
    /// spaces stay disjoint.
    #[must_use]
    pub fn analyze(program: &KernelProgram, ctx: &AbsContext) -> Self {
        let pd = ProgramDataflow::new(program);
        let df = pd.run();
        let cfg = pd.cfg();
        let ace = StaticAceReport::analyze(program);
        let abs = AbsintReport::analyze(program, ctx);

        let mut per_pc: Vec<Vec<SlotClassify>> = vec![Vec::new(); program.len()];
        for (id, site) in df.defs.iter().enumerate() {
            let width = site.def.width;
            if width == 0 {
                continue;
            }
            let pc = site.pc;
            let reg = site.def.reg;
            let width_mask = if width >= 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            let dead = ace
                .slots(pc)
                .iter()
                .find(|s| s.slot == site.def.slot)
                .map_or(0, |s| s.dead_mask);
            let mut out = SlotClassify {
                slot: site.def.slot,
                reg,
                width,
                crash_mask: 0,
                detected_mask: 0,
                class_mask: 0,
                class_rep: None,
            };

            let slot_abs = abs
                .reached(pc)
                .then(|| abs.slots(pc).iter().find(|s| s.slot == site.def.slot))
                .flatten();
            if let Some(sa) = slot_abs {
                // First in-block mention of the register after the def:
                // stop at any read (candidate use) or any redefinition.
                let block = cfg.block_of(pc);
                let mut first_use = None;
                for pc2 in cfg.blocks()[block].range() {
                    if pc2 <= pc {
                        continue;
                    }
                    if df.def_use[pc2].uses.iter().any(|u| u.reg == reg) {
                        first_use = Some(pc2);
                        break;
                    }
                    if df.def_use[pc2].defs.iter().any(|d| d.reg == reg) {
                        break;
                    }
                }

                match reg {
                    Register::Gpr(_) | Register::Ofs(_) => {
                        if let Some(upc) = first_use {
                            if program.instr(upc).guard.is_none() {
                                for k in 0..width.min(32) {
                                    let bit = 1u32 << k;
                                    if dead & bit != 0 {
                                        continue;
                                    }
                                    let faults = df.def_use[upc].uses.iter().any(|u| {
                                        u.reg == reg
                                            && matches!(
                                                u.kind,
                                                UseKind::MemBase { space, offset, .. }
                                                    if flip_provably_faults(
                                                        &sa.value, k, space, offset, ctx,
                                                    )
                                            )
                                    });
                                    if faults {
                                        out.crash_mask |= bit;
                                    }
                                }
                            }
                        }
                        classify_equivalence(&mut out, &sa.value, dead, width_mask, id, &df, ctx);
                    }
                    Register::Pred(p) => {
                        if let Some(upc) = first_use {
                            let ti = program.instr(upc);
                            if ti.opcode == Opcode::Trap {
                                if let Some(g) = &ti.guard {
                                    if g.pred == p {
                                        out.detected_mask =
                                            trap_detected_mask(sa.flags, g.test, dead, width_mask);
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            per_pc[pc].push(out);
        }
        ClassifyReport { per_pc }
    }

    /// Slot verdicts of instruction `pc`, in write-back order.
    #[must_use]
    pub fn slots(&self, pc: usize) -> &[SlotClassify] {
        &self.per_pc[pc]
    }

    /// Predicted-DUE bits of `pc` in the flat destination-bit space (the
    /// indexing `FaultSite::bit` uses), with their predicted outcome.
    #[must_use]
    pub fn predicted_flat_bits(&self, pc: usize) -> Vec<(u32, PredictedKind)> {
        let mut bits = Vec::new();
        let mut offset = 0u32;
        for slot in &self.per_pc[pc] {
            for b in 0..slot.width {
                if slot.crash_mask & (1 << b) != 0 {
                    bits.push((offset + b, PredictedKind::Crash));
                } else if slot.detected_mask & (1 << b) != 0 {
                    bits.push((offset + b, PredictedKind::Detected));
                }
            }
            offset += slot.width;
        }
        bits
    }

    /// Equivalence classes of `pc` in the flat destination-bit space.
    #[must_use]
    pub fn classes_flat(&self, pc: usize) -> Vec<FlatClass> {
        let mut classes = Vec::new();
        let mut offset = 0u32;
        for slot in &self.per_pc[pc] {
            if let Some(rep) = slot.class_rep {
                classes.push(FlatClass {
                    slot: slot.slot,
                    rep: offset + rep,
                    members: (0..slot.width)
                        .filter(|b| slot.class_mask & (1 << b) != 0)
                        .map(|b| offset + b)
                        .collect(),
                });
            }
            offset += slot.width;
        }
        classes
    }

    /// Number of predicted-crash bits at `pc`.
    #[must_use]
    pub fn crash_bits_at(&self, pc: usize) -> u32 {
        self.per_pc[pc]
            .iter()
            .map(|s| s.crash_mask.count_ones())
            .sum()
    }

    /// Number of predicted-detected bits at `pc`.
    #[must_use]
    pub fn detected_bits_at(&self, pc: usize) -> u32 {
        self.per_pc[pc]
            .iter()
            .map(|s| s.detected_mask.count_ones())
            .sum()
    }

    /// Number of class-member bits pruned at `pc` (members minus reps).
    #[must_use]
    pub fn class_pruned_bits_at(&self, pc: usize) -> u32 {
        self.per_pc[pc]
            .iter()
            .map(|s| s.class_mask.count_ones())
            .sum()
    }

    /// Summary over the whole program.
    #[must_use]
    pub fn summary(&self) -> ClassifySummary {
        let mut s = ClassifySummary::default();
        for slots in &self.per_pc {
            for slot in slots {
                s.total_bits += u64::from(slot.width);
                s.predicted_crash_bits += u64::from(slot.crash_mask.count_ones());
                s.predicted_detected_bits += u64::from(slot.detected_mask.count_ones());
                s.class_pruned_bits += u64::from(slot.class_mask.count_ones());
                if slot.class_rep.is_some() {
                    s.classes += 1;
                }
            }
        }
        s
    }
}

/// Program-level classification statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifySummary {
    /// Total static destination bits across register write-back slots.
    pub total_bits: u64,
    /// Bits predicted `CRASH` (skipped by injection).
    pub predicted_crash_bits: u64,
    /// Bits predicted `Detected` (skipped by injection).
    pub predicted_detected_bits: u64,
    /// Class-member bits folded into representatives (skipped).
    pub class_pruned_bits: u64,
    /// Number of equivalence classes.
    pub classes: usize,
}

impl ClassifySummary {
    /// All statically-skipped bits (predicted + class members).
    #[must_use]
    pub fn skipped_bits(&self) -> u64 {
        self.predicted_crash_bits + self.predicted_detected_bits + self.class_pruned_bits
    }

    /// Fraction of static destination bits skipped, in `[0, 1]`.
    #[must_use]
    pub fn skipped_fraction(&self) -> f64 {
        if self.total_bits == 0 {
            0.0
        } else {
            self.skipped_bits() as f64 / self.total_bits as f64
        }
    }
}

/// Whether flipping bit `k` of a base register bounded by `v` provably
/// faults an access at `base + offset` into `space`.
fn flip_provably_faults(
    v: &AbsVal,
    k: u32,
    space: fsp_isa::MemSpace,
    offset: u32,
    ctx: &AbsContext,
) -> bool {
    let kz = v.known_zeros();
    // Misalignment: a word-aligned address with bit 0 or 1 flipped is
    // congruent to 2^k mod 4 — `MemBlock` rejects it. Wrapping cannot
    // restore alignment (2^32 is a multiple of 4).
    if k <= 1 && kz & 0b11 == 0b11 && offset.is_multiple_of(4) {
        return true;
    }
    // Out of bounds high: bit k is provably zero, so the flip adds 2^k;
    // if even the smallest flipped address lands past the space and the
    // largest does not wrap, every instance faults.
    if kz & (1u32 << k) != 0 {
        let limit = u64::from(4 * ctx.space_bytes(space).div_ceil(4));
        let add = 1u64 << k;
        let lo = u64::from(v.lo) + u64::from(offset) + add;
        let hi = u64::from(v.hi) + u64::from(offset) + add;
        if lo >= limit && hi <= u64::from(u32::MAX) {
            return true;
        }
    }
    false
}

/// `exec::guard_passes` over a 4-bit flag word.
fn guard_test(test: PredTest, f: u16) -> bool {
    let zero = f & 0b0001 != 0;
    let sign = f & 0b0010 != 0;
    match test {
        PredTest::Eq => zero,
        PredTest::Ne => !zero,
        PredTest::Lt => sign,
        PredTest::Ge => !sign,
        PredTest::Le => zero || sign,
        PredTest::Gt => !zero && !sign,
    }
}

/// Bits of a trap-guarding predicate whose flip provably passes the guard.
///
/// The golden run completed, so on every dynamic instance the guard
/// failed; bit `k` is predicted `Detected` when every abstractly-possible
/// failing flag word passes after the flip.
fn trap_detected_mask(flags: PredSet, test: PredTest, dead: u32, width_mask: u32) -> u32 {
    let mut mask = 0u32;
    for k in 0..4u32 {
        let bit = 1u32 << k;
        if width_mask & bit == 0 || dead & bit != 0 {
            continue;
        }
        let mut all_flip = true;
        let mut any_failing = false;
        for f in 0..16u16 {
            if flags & (1 << f) == 0 || guard_test(test, f) {
                continue;
            }
            any_failing = true;
            if !guard_test(test, f ^ (1 << k as u16)) {
                all_flip = false;
                break;
            }
        }
        if any_failing && all_flip {
            mask |= bit;
        }
    }
    mask
}

/// Folds qualifying provably-zero bits of one definition into an
/// equivalence class: a bit joins when *every* reachable use site of the
/// definition has at least one memory-base use that provably faults under
/// the flip. All members then share their outcome per dynamic instance
/// (first executed use crashes; no executed use is masked), so one
/// representative carries the class weight exactly.
fn classify_equivalence(
    out: &mut SlotClassify,
    v: &AbsVal,
    dead: u32,
    width_mask: u32,
    def_id: usize,
    df: &crate::dataflow::DataflowResult,
    ctx: &AbsContext,
) {
    let sites = &df.use_sites[def_id];
    if sites.is_empty() {
        return;
    }
    let use_pcs: std::collections::BTreeSet<usize> = sites.iter().map(|s| s.pc).collect();
    let candidates = v.known_zeros() & width_mask & !dead & !out.predicted_mask();
    let mut class = 0u32;
    for k in 0..32u32 {
        let bit = 1u32 << k;
        if candidates & bit == 0 {
            continue;
        }
        let all_fault = use_pcs.iter().all(|&upc| {
            df.def_use[upc].uses.iter().any(|u| {
                u.reg == out.reg
                    && matches!(
                        u.kind,
                        UseKind::MemBase { space, offset, .. }
                            if flip_provably_faults(v, k, space, offset, ctx)
                    )
            })
        });
        if all_fault {
            class |= bit;
        }
    }
    // A single qualifying bit is just itself — a class needs ≥ 2 members
    // to prune anything.
    if class.count_ones() >= 2 {
        let rep = class.trailing_zeros();
        out.class_rep = Some(rep);
        out.class_mask = class & !(1u32 << rep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::assemble;

    fn ctx(global_bytes: u32) -> AbsContext {
        AbsContext {
            block: (8, 1, 1),
            grid: (1, 1),
            params: Vec::new(),
            shared_bytes: 1024,
            global_bytes,
            local_bytes: 4096,
        }
    }

    #[test]
    fn high_address_bits_predict_crash() {
        // 8 threads, word-indexed into a 64-byte global buffer: the base
        // register is bounded by [0, 28] and word-aligned. Flipping any
        // provably-zero high bit lands past the 64-byte space.
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            shl.u32 $r2, $r1, 0x2
            ld.global.u32 $r3, [$r2]
            add.u32 $r3, $r3, 0x1
            st.global.u32 [$r2], $r3
            exit
            "#,
        )
        .unwrap();
        let r = ClassifyReport::analyze(&p, &ctx(64));
        // $r2's def at pc 1; first use at pc 2 (ld base).
        let slot = &r.slots(1)[0];
        // Bit 6 (+64) and above are provably zero and overshoot the space.
        assert_ne!(slot.crash_mask & (1 << 6), 0, "{:032b}", slot.crash_mask);
        assert_ne!(slot.crash_mask & (1 << 20), 0);
        // Bits 0/1 misalign the access.
        assert_ne!(slot.crash_mask & 0b11, 0b00);
        // In-bounds bits (2..5 cover [4,32)) are not predicted.
        assert_eq!(slot.crash_mask & (1 << 2), 0);
        assert!(!r.predicted_flat_bits(1).is_empty());
    }

    #[test]
    fn guarded_use_is_not_predicted() {
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            shl.u32 $r2, $r1, 0x2
            set.eq.u32.u32 $p0/$o127, $r1, 0x0
            @$p0.eq ld.global.u32 $r3, [$r2]
            st.global.u32 [$r124], $r3
            exit
            "#,
        )
        .unwrap();
        let r = ClassifyReport::analyze(&p, &ctx(64));
        // The first mention of $r2 after its def is the guarded load —
        // no crash prediction (the guard may skip the use), but the class
        // machinery may still fold bits (every use faults when executed).
        assert_eq!(r.slots(1)[0].crash_mask, 0);
    }

    #[test]
    fn always_taken_trap_guard_predicts_detected() {
        // set.eq against an impossible value: the compare is always false,
        // so the flag word has zero SET (flags_of(0)) and the `.ne` guard
        // always fails golden; flipping the zero flag takes the trap.
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            set.eq.u32.u32 $p0/$o127, $r1, 0x100
            @$p0.ne trap
            st.global.u32 [$r124], $r1
            exit
            "#,
        )
        .unwrap();
        let r = ClassifyReport::analyze(&p, &ctx(64));
        let slot = r
            .slots(1)
            .iter()
            .find(|s| matches!(s.reg, Register::Pred(0)))
            .expect("pred slot");
        // tid < 8 ≠ 0x100, so `set` writes 0 and the zero flag is set;
        // flipping bit 0 clears it and the ne guard passes.
        assert_ne!(slot.detected_mask & 0b1, 0, "{:04b}", slot.detected_mask);
        // Flipping the sign flag never makes eq pass.
        assert_eq!(slot.detected_mask & 0b10, 0);
    }

    #[test]
    fn equivalence_class_covers_oob_bits_at_every_use() {
        // The base is used by two unguarded accesses in different blocks;
        // provably-zero high bits fault at both → one class.
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            shl.u32 $r2, $r1, 0x2
            ld.global.u32 $r3, [$r2]
            set.eq.u32.u32 $p0/$o127, $r3, 0x0
            @$p0.eq bra skip
            st.global.u32 [$r2], $r3
            skip:
            exit
            "#,
        )
        .unwrap();
        let r = ClassifyReport::analyze(&p, &ctx(64));
        let slot = &r.slots(1)[0];
        // Crash-predicted bits (first use, same block) take priority; the
        // class absorbs nothing extra here because every qualifying bit
        // already faults at the first use.
        assert!(slot.crash_mask != 0);
        assert_eq!(slot.class_mask & slot.crash_mask, 0, "verdicts disjoint");
    }

    #[test]
    fn class_forms_when_first_use_is_guarded() {
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            shl.u32 $r2, $r1, 0x2
            set.eq.u32.u32 $p0/$o127, $r1, 0x0
            @$p0.eq ld.global.u32 $r3, [$r2]
            @$p0.eq st.global.u32 [$r2], $r3
            exit
            "#,
        )
        .unwrap();
        let r = ClassifyReport::analyze(&p, &ctx(64));
        let slot = &r.slots(1)[0];
        assert_eq!(slot.crash_mask, 0, "guarded first use blocks prediction");
        assert!(
            slot.class_rep.is_some(),
            "every use faults when executed → class"
        );
        assert!(slot.class_size() >= 2);
        let classes = r.classes_flat(1);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].members.len() as u32 + 1, slot.class_size());
    }

    #[test]
    fn summary_accounts_all_verdicts() {
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            shl.u32 $r2, $r1, 0x2
            ld.global.u32 $r3, [$r2]
            st.global.u32 [$r2], $r3
            exit
            "#,
        )
        .unwrap();
        let r = ClassifyReport::analyze(&p, &ctx(64));
        let s = r.summary();
        assert!(s.predicted_crash_bits > 0);
        assert!(s.total_bits > 0);
        assert!(s.skipped_fraction() > 0.0 && s.skipped_fraction() <= 1.0);
        assert_eq!(
            s.skipped_bits(),
            s.predicted_crash_bits + s.predicted_detected_bits + s.class_pruned_bits
        );
    }

    #[test]
    fn version_is_stable() {
        assert_eq!(absint_version(), absint_version());
        assert_ne!(absint_version(), 0);
    }
}
