//! The decoded op table: each kernel instruction lowered once into the
//! form the interpreter dispatches on.
//!
//! An [`Instruction`] is a passive record the assembler builds and the
//! analyses inspect. Interpreting it directly re-derives the same facts on
//! every dynamic instruction: how many sources the opcode consumes, the
//! type each source is processed under, whether a register operand is a
//! plain read, each destination's fault-site width. [`decode`] computes
//! all of that once per program. A [`crate::Launch`] builds its
//! table on first use and shares it with every clone, so a prepared
//! kernel's golden run, checkpoint capture, batch replays, solo reruns
//! and slow-path oracle runs all dispatch on one table.
//!
//! Decoding is total: a malformed instruction (a `selp` without a
//! predicate operand, an `st` without a memory destination, an unresolved
//! branch, a missing source) lowers to an op that panics with the same
//! message as before, and only when it retires.

use fsp_isa::{
    Dest, Guard, Half, Instruction, KernelProgram, MemRef, MemSpace, Opcode, Operand, Register,
    ScalarType, Special, ZERO_GPR,
};

/// What an op does when its guard passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Value-producing: fetch the sources, evaluate, write back.
    Alu,
    /// `st`: fetch the source, store it.
    St,
    /// Branch to the resolved target (`None` panics when it retires).
    Bra(Option<u32>),
    /// `bar.sync`.
    Bar,
    /// `exit`, `ret`, `retp`.
    Exit,
    /// `trap`: the detected-error exit.
    Trap,
    /// `nop`, `ssy`.
    Nop,
}

/// A register read, lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegRead {
    /// `$r124`, `$o127`, or no register at all: reads zero.
    Zero,
    Gpr(u8),
    /// The 4 flag bits of `$pN`.
    Pred(u8),
    Ofs(u8),
    Special(Special),
}

impl RegRead {
    fn lower(reg: Register) -> Self {
        match reg {
            Register::Gpr(ZERO_GPR) | Register::Discard => RegRead::Zero,
            Register::Gpr(n) => RegRead::Gpr(n),
            Register::Pred(n) => RegRead::Pred(n),
            Register::Ofs(n) => RegRead::Ofs(n),
            Register::Special(s) => RegRead::Special(s),
        }
    }
}

/// A memory reference, lowered: `space[base + offset]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Addr {
    pub space: MemSpace,
    pub base: RegRead,
    pub offset: u32,
}

impl Addr {
    fn lower(m: MemRef) -> Self {
        Addr {
            space: m.space,
            base: m.base.map_or(RegRead::Zero, RegRead::lower),
            offset: m.offset,
        }
    }
}

/// Why a source slot cannot be fetched; the op panics with the message
/// when it reaches the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Malformed {
    /// An `st` with no source operand.
    StSource,
    /// A value-producing op with fewer operands than its opcode consumes.
    MissingSource,
    /// A `selp` whose third operand is not a predicate register.
    SelpPredicate,
}

impl Malformed {
    pub(crate) fn message(self) -> &'static str {
        match self {
            Malformed::StSource => "st needs a source",
            Malformed::MissingSource => "missing source operand",
            Malformed::SelpPredicate => "selp requires a predicate third operand",
        }
    }
}

/// A source slot, lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// A plain `$rN` read: no half-word selection, no negation.
    Gpr(u8),
    /// Any other register read, with half-word selection and negation
    /// under the slot's operand type.
    Reg {
        reg: RegRead,
        half: Option<Half>,
        neg: bool,
        ty: ScalarType,
    },
    /// An immediate (also a plain read of a zero register).
    Imm(u32),
    /// A memory load.
    Mem(Addr),
    /// `selp`'s steering predicate: its raw 4 flag bits.
    Flags(u8),
    /// A slot the instruction does not fill properly.
    Bad(Malformed),
}

/// A destination slot, lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dst {
    /// No destination, or a write-discard register (`$r124`, `$o127`):
    /// nothing is written and no write-back is reported.
    None,
    /// A register write-back.
    Reg {
        reg: Register,
        /// Fault-site width in bits ([`Instruction::register_dest_bits`]).
        width: u8,
        /// A predicate destination: commits the condition-code flags of
        /// the result instead of the result.
        flags: bool,
    },
    /// A store of the result (`mov.u32 s[...], $r2`, and `st`).
    Mem(Addr),
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    pub guard: Option<Guard>,
    pub class: Class,
    /// Source slots fetched: `srcs[..nsrc]`.
    pub nsrc: u8,
    pub srcs: [Src; 3],
    pub dsts: [Dst; 2],
    /// Operation type: governs the flags a predicate destination commits.
    pub ty: ScalarType,
}

/// Lowers every instruction of `program` into its op table, indexed by
/// pc. Never panics.
pub(crate) fn decode(program: &KernelProgram) -> Box<[Op]> {
    program.instructions().iter().map(lower).collect()
}

/// The scalar type governing half/neg processing of source slot `slot`.
#[must_use]
pub fn operand_ty(instr: &Instruction, slot: usize) -> ScalarType {
    match instr.opcode {
        Opcode::Cvt | Opcode::Set => instr.src_ty,
        Opcode::Mad if instr.wide && slot == 2 => ScalarType::U32,
        _ => instr.ty,
    }
}

fn lower_src(op: Option<&Operand>, ty: ScalarType, missing: Malformed) -> Src {
    match op {
        None => Src::Bad(missing),
        Some(&Operand::Imm(v)) => Src::Imm(v),
        Some(&Operand::Mem(m)) => Src::Mem(Addr::lower(m)),
        Some(&Operand::Reg { reg, half, neg }) => match (RegRead::lower(reg), half, neg) {
            (RegRead::Zero, None, false) => Src::Imm(0),
            (RegRead::Gpr(n), None, false) => Src::Gpr(n),
            (reg, half, neg) => Src::Reg { reg, half, neg, ty },
        },
    }
}

fn lower_dst(instr: &Instruction, dst: Option<Dest>) -> Dst {
    match dst {
        None => Dst::None,
        Some(Dest::Reg(reg)) if reg.is_discard() => Dst::None,
        Some(Dest::Reg(reg)) => Dst::Reg {
            reg,
            width: instr.register_dest_bits(reg) as u8,
            flags: matches!(reg, Register::Pred(_)),
        },
        Some(Dest::Mem(m)) => Dst::Mem(Addr::lower(m)),
    }
}

fn lower(instr: &Instruction) -> Op {
    let mut op = Op {
        guard: instr.guard,
        class: Class::Nop,
        nsrc: 0,
        srcs: [Src::Imm(0); 3],
        dsts: [Dst::None; 2],
        ty: instr.ty,
    };
    op.class = match instr.opcode {
        Opcode::Nop | Opcode::Ssy => Class::Nop,
        Opcode::Bra => Class::Bra(instr.target.map(|t| t as u32)),
        Opcode::Bar => Class::Bar,
        Opcode::Ret | Opcode::Retp | Opcode::Exit => Class::Exit,
        Opcode::Trap => Class::Trap,
        Opcode::St => {
            op.nsrc = 1;
            op.srcs[0] = lower_src(instr.src[0].as_ref(), instr.ty, Malformed::StSource);
            // Anything but a memory destination panics when it retires.
            if let Some(Dest::Mem(m)) = instr.dst[0] {
                op.dsts[0] = Dst::Mem(Addr::lower(m));
            }
            Class::St
        }
        opcode => {
            op.nsrc = opcode.source_count() as u8;
            for slot in 0..usize::from(op.nsrc) {
                op.srcs[slot] = if opcode == Opcode::Selp && slot == 2 {
                    match instr.src[2] {
                        Some(Operand::Reg {
                            reg: Register::Pred(p),
                            ..
                        }) => Src::Flags(p),
                        _ => Src::Bad(Malformed::SelpPredicate),
                    }
                } else {
                    lower_src(
                        instr.src[slot].as_ref(),
                        operand_ty(instr, slot),
                        Malformed::MissingSource,
                    )
                };
            }
            op.dsts = [
                lower_dst(instr, instr.dst[0]),
                lower_dst(instr, instr.dst[1]),
            ];
            Class::Alu
        }
    };
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::assemble;

    #[test]
    fn plain_reads_and_zero_registers_lower_to_their_fast_forms() {
        let p = assemble(
            "t",
            r#"
            add.u32 $r1, $r2, $r124
            add.u32 $r1, -$r2, $r3.lo
            set.lt.s32.s32 $p0/$o127, $r1, 0x5
            exit
            "#,
        )
        .unwrap();
        let ops = decode(&p);
        assert_eq!(ops[0].srcs[..2], [Src::Gpr(2), Src::Imm(0)]);
        assert_eq!(
            ops[1].srcs[0],
            Src::Reg {
                reg: RegRead::Gpr(2),
                half: None,
                neg: true,
                ty: ScalarType::U32
            }
        );
        assert_eq!(
            ops[2].dsts,
            [
                Dst::Reg {
                    reg: Register::Pred(0),
                    width: 4,
                    flags: true
                },
                Dst::None
            ]
        );
        assert_eq!(ops[3].class, Class::Exit);
    }

    /// Hand-built instructions the assembler never emits, each with the
    /// message it panics with when it retires.
    fn malformed() -> Vec<(Instruction, &'static str)> {
        let reg = |n| Some(Operand::reg(Register::Gpr(n)));
        let mut selp = Instruction::new(Opcode::Selp);
        selp.dst[0] = Some(Dest::Reg(Register::Gpr(1)));
        selp.src = [reg(2), reg(3), Some(Operand::Imm(1))];
        let mut st = Instruction::new(Opcode::St);
        st.dst[0] = Some(Dest::Reg(Register::Gpr(1)));
        st.src[0] = reg(2);
        let mut set = Instruction::new(Opcode::Set);
        set.dst[0] = Some(Dest::Reg(Register::Pred(0)));
        set.src = [reg(2), reg(3), None];
        let bra = Instruction::new(Opcode::Bra);
        vec![
            (selp, "selp requires a predicate third operand"),
            (st, "assembler guarantees st has a memory destination"),
            (set, "assembler enforces set.cmp"),
            (bra, "assembler resolves branch targets"),
        ]
    }

    fn run(instrs: Vec<Instruction>) -> Result<crate::RunStats, crate::SimFault> {
        let program = KernelProgram::from_parts("t", instrs, Default::default());
        let mut global = crate::MemBlock::with_words(4);
        crate::Simulator::new().run(
            &crate::Launch::new(program).block(2, 1, 1),
            &mut global,
            &mut crate::NopHook,
        )
    }

    /// Decoding is total: a malformed instruction lowers without
    /// panicking, a program that never reaches it runs to completion, and
    /// one that does panics with the interpreter's message when the
    /// instruction retires.
    #[test]
    fn malformed_instructions_panic_only_when_they_retire() {
        for (instr, message) in malformed() {
            let mut skip = Instruction::new(Opcode::Bra);
            skip.target = Some(2);
            let unreached = vec![skip, instr.clone(), Instruction::new(Opcode::Exit)];
            let stats = run(unreached).expect("the malformed instruction is never reached");
            assert_eq!(stats.instructions, 4, "{message}");

            let reached = vec![instr, Instruction::new(Opcode::Exit)];
            let panic = std::panic::catch_unwind(|| run(reached)).expect_err(message);
            let text = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(text.contains(message), "{text:?} lacks {message:?}");
        }
    }
}
