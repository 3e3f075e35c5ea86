//! Hostile assembler text never panics the assembler or the interpreter's
//! decoder, and whatever the assembler accepts survives a disassembly
//! round trip unchanged.
//!
//! Every input — arbitrary strings, strings built from ISA tokens, and
//! every one-byte mutation of the 17 registry kernels' disassembly
//! (checked exhaustively) — must make [`assemble`] return either an error
//! or a program that
//! - re-assembles from its own disassembly to the same instructions, and
//! - decodes and runs (under a small instruction budget) without
//!   panicking: an accepted program holds no malformed instruction.

use fault_site_pruning::isa::{assemble, KernelProgram};
use fault_site_pruning::sim::{Launch, MemBlock, NopHook, Simulator};
use fault_site_pruning::workloads::{self, Scale};
use proptest::prelude::*;

/// Instructions a checked program may retire (it may loop forever).
const RUN_BUDGET: u64 = 256;

/// The program's disassembly, as assembler input: the `.entry` header
/// line dropped.
fn body(program: &KernelProgram) -> String {
    let text = program.to_string();
    text.lines().skip(1).collect::<Vec<_>>().join("\n")
}

/// Assembles `text`; an accepted program must re-assemble from its own
/// disassembly to the same instructions, and must decode and run without
/// panicking.
fn check(text: &str) -> Result<(), String> {
    let Ok(program) = assemble("k", text) else {
        return Ok(());
    };
    let again = body(&program);
    let back = assemble("k", &again)
        .map_err(|e| format!("{text:?} assembled, but its disassembly {again:?} does not: {e}"))?;
    if back.instructions() != program.instructions() {
        return Err(format!(
            "{text:?} -> {again:?} does not re-assemble to the same instructions"
        ));
    }
    let launch = Launch::new(program)
        .block(2, 1, 1)
        .param(0)
        .instr_budget(RUN_BUDGET);
    let mut global = MemBlock::with_words(16);
    // Faults are fine; a panic fails the test.
    let _ = Simulator::new().run(&launch, &mut global, &mut NopHook);
    Ok(())
}

/// Every one-byte mutation of every registry kernel's disassembly. The
/// disassembly is ASCII, so the mutations that still form a string — the
/// only ones `assemble` can be handed — replace one byte with another
/// ASCII byte.
#[test]
fn every_one_byte_mutation_of_a_kernel_assembles_or_errs() {
    let kernels = workloads::all(Scale::Eval);
    std::thread::scope(|scope| {
        for half in kernels.chunks(kernels.len().div_ceil(2)) {
            scope.spawn(move || {
                for w in half {
                    let id = w.registry_id();
                    let text = body(w.program());
                    assert!(text.is_ascii(), "{id}: disassembly is not ASCII");
                    let back = assemble("k", &text).expect("disassembly re-assembles");
                    assert_eq!(back.instructions(), w.program().instructions(), "{id}");
                    let mut bytes = text.into_bytes();
                    for pos in 0..bytes.len() {
                        let original = bytes[pos];
                        for b in (0..=127u8).filter(|&b| b != original) {
                            bytes[pos] = b;
                            let mutated = std::str::from_utf8(&bytes).expect("ASCII");
                            check(mutated)
                                .unwrap_or_else(|e| panic!("{id}, byte {pos} = {b:#04x}: {e}"));
                        }
                        bytes[pos] = original;
                    }
                }
            });
        }
    });
}

/// Fragments the token strategy concatenates: mnemonics and modifiers,
/// registers (in and out of range), operand syntax, numbers in every
/// literal form, labels, guards, comments and line structure.
const TOKENS: &[&str] = &[
    "add",
    "mov",
    "ld",
    "st",
    "cvt",
    "mad",
    "mul",
    "set",
    "selp",
    "bra",
    "ssy",
    "bar",
    "exit",
    "retp",
    "trap",
    "nop",
    "rcp",
    "shr",
    ".u32",
    ".s32",
    ".u16",
    ".f32",
    ".b32",
    ".pred",
    ".eq",
    ".lt",
    ".ne",
    ".wide",
    ".hi",
    ".lo",
    ".global",
    ".shared",
    ".sync",
    ".bogus",
    " ",
    "\t",
    "\n",
    ",",
    "|",
    "/",
    "-",
    "+",
    "$r1",
    "$r124",
    "$r127",
    "$r128",
    "$p0",
    "$p8",
    "$ofs3",
    "$ofs4",
    "$o127",
    "%tid.x",
    "%ctaid.y",
    "%nope",
    "[",
    "]",
    "g[",
    "s[",
    "l[",
    "0x10",
    "0x",
    "0f3F800000",
    "1.5",
    "1e9",
    "-5",
    "4294967296",
    "top",
    "top:",
    "@$p0.eq",
    "@$p9.ne",
    "@",
    "//",
    "#",
    ":",
    "é",
];

/// Mnemonics with modifiers, for whole instruction lines.
const MNEMONICS: &[&str] = &[
    "mov.u32",
    "ld.global.u32",
    "ld.shared.f32",
    "st.global.u32",
    "st.local.s32",
    "cvt.u32.u16",
    "cvt.f32",
    "add.u32",
    "add.f32.s32",
    "sub.s32",
    "mul.wide.u16",
    "mul.hi.s32",
    "mad.u32",
    "mad.wide.u16",
    "div.s32",
    "rem.u32",
    "min.f32",
    "abs.s32",
    "neg.f32",
    "rcp.f32",
    "not.b32",
    "shl.u32",
    "shr.s32",
    "and.b32",
    "set.lt.u32.u32",
    "set.u32",
    "selp.u32",
    "selp.ne.f32",
    "bra",
    "ssy",
    "bar.sync",
    "exit",
    "retp.u32",
    "trap",
    "nop",
];

/// Operands for whole instruction lines: every register class, dual
/// destinations, immediates and memory references in each space.
const OPERANDS: &[&str] = &[
    "$r1",
    "-$r2",
    "$r3.lo",
    "$r4.hi",
    "$r124",
    "$p0",
    "$p1",
    "$ofs1",
    "$o127",
    "%tid.x",
    "$p0|$o127",
    "$p1/$r5",
    "0x10",
    "-7",
    "1.5",
    "s[0x10]",
    "g[$r2+0x4]",
    "l[$r3]",
    "[$r2]",
    "s[$ofs1+0x40]",
    "top",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Lines of a mnemonic and 0–4 operands, under a label and maybe a
    /// guard: most are well-formed, so the operand-shape checks are hit.
    #[test]
    fn instruction_lines_assemble_or_err(
        lines in prop::collection::vec(prop::collection::vec(any::<u32>(), 1..7), 1..6),
    ) {
        let mut text = String::from("top:\n");
        for picks in lines {
            if picks[0] % 4 == 0 {
                text.push_str("@$p0.ne ");
            }
            text.push_str(MNEMONICS[picks[0] as usize / 4 % MNEMONICS.len()]);
            for (i, p) in picks[1..].iter().enumerate() {
                text.push_str(if i == 0 { " " } else { ", " });
                text.push_str(OPERANDS[*p as usize % OPERANDS.len()]);
            }
            text.push('\n');
        }
        prop_assert_eq!(check(&text), Ok(()));
    }

    #[test]
    fn arbitrary_strings_assemble_or_err(codes in prop::collection::vec(any::<u32>(), 0..64)) {
        let text: String = codes.into_iter().filter_map(char::from_u32).collect();
        prop_assert_eq!(check(&text), Ok(()));
    }

    #[test]
    fn token_strings_assemble_or_err(picks in prop::collection::vec(any::<u32>(), 0..48)) {
        let text: String = picks
            .into_iter()
            .map(|p| TOKENS[p as usize % TOKENS.len()])
            .collect();
        prop_assert_eq!(check(&text), Ok(()));
    }
}
