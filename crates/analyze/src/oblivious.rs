//! Data obliviousness: whether any value read from memory can steer a
//! kernel's control flow or addresses.
//!
//! In a data-oblivious kernel every guard predicate, address base register
//! and offset register is computed from thread coordinates, immediates and
//! launch parameters alone. Each thread then retires the same instruction
//! stream at the same addresses whatever memory holds — including memory a
//! corrupted thread has scribbled on. The injection fast path relies on
//! that to certify a flipped thread's hang while its CTA siblings still
//! run (the live-sibling rule of the spin detector in `fsp-sim`).

use std::ops::Range;

use fsp_isa::{KernelProgram, MemRef, MemSpace, Operand};

use crate::dataflow::{def_use, reg_index, BitSet, UseKind, TRACKED_REGS};

/// Whether `program` is *data-oblivious*: flow-insensitively, no value
/// read from memory reaches a guard predicate, an address base register or
/// an offset register.
///
/// A register is *tainted* when some instruction writes it from a memory
/// read or from a tainted register read as data; the taint is closed to a
/// fixpoint over all instructions at once, ignoring control flow. A read
/// of the parameter block — `params`, as shared-memory byte addresses — at
/// a constant address is not counted as a memory read: parameters are
/// fixed for the launch, as long as nothing stores into the block, which
/// the caller must check for the run in question.
#[must_use]
pub fn data_oblivious(program: &KernelProgram, params: Range<u32>) -> bool {
    let summaries: Vec<_> = (0..program.len())
        .map(|pc| {
            let instr = program.instr(pc);
            let loads = instr
                .src
                .iter()
                .flatten()
                .any(|op| matches!(op, Operand::Mem(m) if !is_param(m, &params)));
            (loads, def_use(instr))
        })
        .collect();
    let mut tainted = BitSet::new(TRACKED_REGS);
    let is_tainted =
        |tainted: &BitSet, reg| reg_index(reg).is_some_and(|i: usize| tainted.contains(i));
    loop {
        let mut changed = false;
        for (loads, du) in &summaries {
            let reads = *loads
                || du
                    .uses
                    .iter()
                    .any(|u| u.kind == UseKind::Data && is_tainted(&tainted, u.reg));
            if reads {
                for d in &du.defs {
                    if let Some(i) = reg_index(d.reg) {
                        changed |= tainted.insert(i);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    summaries.iter().all(|(_, du)| {
        du.uses
            .iter()
            .all(|u| u.kind == UseKind::Data || !is_tainted(&tainted, u.reg))
    })
}

/// A read of the parameter block at a constant address.
fn is_param(m: &MemRef, params: &Range<u32>) -> bool {
    m.space == MemSpace::Shared
        && m.base.is_none_or(|b| b.is_discard())
        && params.contains(&m.offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::{assemble, PARAM_BASE};

    const PARAMS: Range<u32> = PARAM_BASE..PARAM_BASE + 8;

    fn oblivious(body: &str) -> bool {
        data_oblivious(&assemble("t", body).expect("assembles"), PARAMS)
    }

    #[test]
    fn coordinates_and_parameters_steer_an_oblivious_kernel() {
        assert!(oblivious(
            r#"
            cvt.u32.u16 $r1, %tid.x
            shl.u32 $r2, $r1, 0x2
            add.u32 $r2, $r2, s[0x0010]
            ld.global.u32 $r3, [$r2]
            add.u32 $r3, $r3, 0x1
            set.lt.u32.u32 $p0/$o127, $r1, s[0x0014]
            @$p0.ne st.global.u32 [$r2], $r3
            exit
            "#
        ));
    }

    #[test]
    fn a_loaded_value_reaching_a_guard_is_not_oblivious() {
        // Through a copy and a compare: the taint is transitive.
        assert!(!oblivious(
            r#"
            ld.global.u32 $r3, [$r124]
            mov.u32 $r4, $r3
            set.eq.u32.u32 $p0/$o127, $r4, 0x7
            @$p0.ne bra out
            out:
            exit
            "#
        ));
    }

    #[test]
    fn a_loaded_value_reaching_an_address_is_not_oblivious() {
        assert!(!oblivious(
            r#"
            mov.u32 $r3, s[0x0040]
            add.u32 $r5, $r3, 0x4
            st.global.u32 [$r5], $r3
            exit
            "#
        ));
    }

    #[test]
    fn a_loaded_value_reaching_an_offset_register_is_not_oblivious() {
        assert!(!oblivious(
            r#"
            ld.global.u32 $r3, [$r124]
            mov.u32 $ofs1, $r3
            st.global.u32 [$ofs1], $r3
            exit
            "#
        ));
    }

    #[test]
    fn only_constant_parameter_reads_are_exempt() {
        // A word past the parameter block is memory, and so is a
        // parameter read through a register.
        assert!(!oblivious(
            r#"
            add.u32 $r2, $r124, s[0x0018]
            st.global.u32 [$r2], $r2
            exit
            "#
        ));
        assert!(!oblivious(
            r#"
            mov.u32 $r1, 0x10
            mov.u32 $r2, s[$r1]
            st.global.u32 [$r2], $r2
            exit
            "#
        ));
    }

    #[test]
    fn the_taint_ignores_control_flow() {
        // The loaded value reaches the guard only around the back edge.
        assert!(!oblivious(
            r#"
            mov.u32 $r1, $r124
            loop:
            set.ne.u32.u32 $p0/$o127, $r1, 0x3
            ld.global.u32 $r1, [$r124]
            @$p0.ne bra loop
            exit
            "#
        ));
    }
}
