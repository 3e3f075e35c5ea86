//! Text assembler for the PTXPlus-like syntax used throughout the paper.
//!
//! Grammar, per line (comments start with `//` or `#`):
//!
//! ```text
//! [label:] [@$pN.test] mnemonic[.modifiers...] [operand {, operand}]
//! ```
//!
//! Examples accepted verbatim from the paper's Figure 5:
//!
//! ```text
//! shl.u32 $r3, s[0x0010], 0x00000001
//! cvt.u32.u16 $r1, %ctaid.x
//! add.u32 $r3, -$r3, 0x00000100
//! mul.wide.u16 $r4, $r1.lo, $r3.hi
//! mad.wide.u16 $r4, $r1.hi, $r3.lo, $r4
//! and.b32 $p0|$o127, $r5, $r2
//! set.eq.s32.s32 $p0/$o127, $r6, $r1
//! @$p0.eq bra l0x00000228
//! l0x00000228: nop
//! bar.sync 0x00000000
//! min.s32 $r7, s[$ofs2+0x0040], $r8
//! ld.global.u32 $r2, [$r2]
//! @$p0.eq retp
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::instr::{CmpOp, Dest, Guard, Instruction, Opcode, PredTest};
use crate::operand::{Half, MemRef, MemSpace, Operand};
use crate::program::KernelProgram;
use crate::reg::Register;
use crate::ty::ScalarType;

/// Assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

/// Assembles PTXPlus-like source text into a [`KernelProgram`].
///
/// # Errors
///
/// Returns an [`AsmError`] (with line number) on any syntax error, unknown
/// mnemonic/register, duplicate label, or dangling branch target.
pub fn assemble(name: impl Into<String>, source: &str) -> Result<KernelProgram, AsmError> {
    let mut labels: BTreeMap<String, usize> = BTreeMap::new();
    let mut pending: Vec<(usize, &str, usize)> = Vec::new(); // (pc, label, line)
    let mut instructions = Vec::new();
    // Operand buffer, reused across lines.
    let mut operands: Vec<&str> = Vec::new();

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut rest = strip_comment(raw_line).trim();
        // Leading labels (possibly several, possibly alone on the line).
        while let Some(colon) = rest.find(':') {
            let (cand, after) = rest.split_at(colon);
            let cand = cand.trim();
            if !is_label(cand) {
                break;
            }
            if labels.insert(cand.to_owned(), instructions.len()).is_some() {
                return Err(err(line_no, format!("duplicate label `{cand}`")));
            }
            rest = after[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let instr = parse_instruction(
            rest,
            line_no,
            instructions.len(),
            &mut pending,
            &mut operands,
        )?;
        instructions.push(instr);
    }

    for (pc, label, line_no) in pending {
        let Some(&target) = labels.get(label) else {
            return Err(err(line_no, format!("undefined label `{label}`")));
        };
        if target >= instructions.len() {
            return Err(err(
                line_no,
                format!("label `{label}` points past the end of the program"),
            ));
        }
        instructions[pc].target = Some(target);
    }

    Ok(KernelProgram::from_parts(name, instructions, labels))
}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// `line` up to its first comment (`//` or `#`).
fn strip_comment(line: &str) -> &str {
    let b = line.as_bytes();
    (0..b.len())
        .find(|&i| b[i] == b'#' || (b[i] == b'/' && b.get(i + 1) == Some(&b'/')))
        .map_or(line, |i| &line[..i])
}

fn is_label(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_instruction<'s>(
    text: &'s str,
    line: usize,
    pc: usize,
    pending: &mut Vec<(usize, &'s str, usize)>,
    operands: &mut Vec<&'s str>,
) -> Result<Instruction, AsmError> {
    let mut rest = text;
    let mut guard = None;
    if let Some(after) = rest.strip_prefix('@') {
        let (g, tail) = after
            .split_once(char::is_whitespace)
            .ok_or_else(|| err(line, "guard with no instruction"))?;
        guard = Some(parse_guard(g, line)?);
        rest = tail.trim_start();
    }

    let (head, tail) = match rest.split_once(char::is_whitespace) {
        Some((h, t)) => (h, t.trim()),
        None => (rest, ""),
    };

    let mut instr = parse_mnemonic(head, line)?;
    instr.guard = guard;

    split_operands(tail, operands);
    apply_operands(&mut instr, operands, line, pc, pending)?;
    Ok(instr)
}

fn parse_guard(g: &str, line: usize) -> Result<Guard, AsmError> {
    // `$p0.eq`
    let (reg, test) = g
        .split_once('.')
        .ok_or_else(|| err(line, format!("guard `{g}` missing condition test")))?;
    let Some(Register::Pred(pred)) = Register::from_name(reg) else {
        return Err(err(
            line,
            format!("guard register `{reg}` is not a predicate"),
        ));
    };
    let test = PredTest::from_name(test)
        .ok_or_else(|| err(line, format!("unknown guard test `{test}`")))?;
    Ok(Guard { pred, test })
}

fn parse_mnemonic(head: &str, line: usize) -> Result<Instruction, AsmError> {
    let mut parts = head.split('.');
    let base = parts.next().unwrap_or_default();
    let opcode =
        Opcode::from_mnemonic(base).ok_or_else(|| err(line, format!("unknown opcode `{base}`")))?;
    let mut instr = Instruction::new(opcode);
    let mut types = Vec::new();
    for modifier in parts {
        if let Some(ty) = ScalarType::from_suffix(modifier) {
            types.push(ty);
            continue;
        }
        match modifier {
            "wide" => instr.wide = true,
            "hi" => instr.hi = true,
            "lo" | "half" | "uni" | "sat" | "rn" | "rz" | "approx" | "full" => {}
            // Memory-space modifiers are informational: the space actually
            // used comes from the operand's bracket prefix (`g[...]`) or,
            // for bare `[...]`, defaults to global. `sync` belongs to `bar`.
            "global" | "shared" | "local" | "sync" => {}
            m => {
                if opcode == Opcode::Set || opcode == Opcode::Selp {
                    if let Some(cmp) = CmpOp::from_name(m) {
                        instr.cmp = Some(cmp);
                        continue;
                    }
                }
                return Err(err(line, format!("unknown modifier `.{m}` on `{base}`")));
            }
        }
    }
    // Only what the disassembly spells is accepted, so every program
    // re-assembles from its own disassembly: no type on control
    // instructions, a second (source) type only on `cvt` and `set`.
    match types.len() {
        0 => {}
        n if n > opcode.type_suffixes() => {
            return Err(err(
                line,
                format!("too many type suffixes ({n}) on `{base}`"),
            ))
        }
        1 => {
            instr.ty = types[0];
            instr.src_ty = types[0];
        }
        _ => {
            instr.ty = types[0];
            instr.src_ty = types[1];
        }
    }
    if opcode == Opcode::Set && instr.cmp.is_none() {
        return Err(err(
            line,
            "`set` requires a comparison modifier (e.g. `set.eq`)",
        ));
    }
    Ok(instr)
}

/// Splits the operand tail on top-level commas into `out` (commas inside
/// `[...]` don't occur in this ISA, so a plain split suffices).
fn split_operands<'s>(tail: &'s str, out: &mut Vec<&'s str>) {
    out.clear();
    out.extend(tail.split(',').map(str::trim).filter(|s| !s.is_empty()));
}

fn apply_operands<'s>(
    instr: &mut Instruction,
    operands: &[&'s str],
    line: usize,
    pc: usize,
    pending: &mut Vec<(usize, &'s str, usize)>,
) -> Result<(), AsmError> {
    match instr.opcode {
        Opcode::Bra => {
            let [target] = operands else {
                return Err(err(line, "`bra` takes exactly one target"));
            };
            pending.push((pc, target, line));
            Ok(())
        }
        Opcode::Ssy => {
            // `ssy <label>` declares the reconvergence point of the
            // following divergent branch (the SIMT executor honors it);
            // GPGPU-Sim-style raw addresses (`ssy 0x228`) are accepted and
            // ignored, since instruction indices differ from byte
            // addresses.
            if let Some(target) = operands.first() {
                if is_label(target) && !target.starts_with("0x") {
                    pending.push((pc, target, line));
                }
            }
            Ok(())
        }
        Opcode::Bar | Opcode::Nop | Opcode::Ret | Opcode::Retp | Opcode::Exit | Opcode::Trap => {
            // `bar.sync 0x...` carries an operand we ignore.
            Ok(())
        }
        Opcode::St => {
            let [dst, src] = operands else {
                return Err(err(line, "`st` takes a memory destination and a source"));
            };
            let mem = parse_memref(dst, line, MemSpace::Global)?;
            instr.dst[0] = Some(Dest::Mem(mem));
            instr.src[0] = Some(parse_operand(src, line)?);
            Ok(())
        }
        _ => {
            let Some((dst, srcs)) = operands.split_first() else {
                return Err(err(line, "missing destination operand"));
            };
            parse_dests(instr, dst, line)?;
            let want = instr.opcode.source_count();
            if srcs.len() > want {
                return Err(err(
                    line,
                    format!("too many source operands ({})", srcs.len()),
                ));
            }
            if srcs.len() < want {
                return Err(err(
                    line,
                    format!("`{}` takes {want} source operands", instr.opcode),
                ));
            }
            for (slot, text) in instr.src.iter_mut().zip(srcs) {
                *slot = Some(parse_operand(text, line)?);
            }
            if instr.opcode == Opcode::Selp
                && !matches!(
                    instr.src[2],
                    Some(Operand::Reg {
                        reg: Register::Pred(_),
                        ..
                    })
                )
            {
                return Err(err(line, "`selp` steers on a predicate register"));
            }
            Ok(())
        }
    }
}

fn parse_dests(instr: &mut Instruction, text: &str, line: usize) -> Result<(), AsmError> {
    // Dual destinations: `$p0|$o127` or `$p0/$r1`.
    let parts = || text.split(['|', '/']).map(str::trim);
    if parts().count() > 2 {
        return Err(err(line, format!("too many destinations in `{text}`")));
    }
    for (i, part) in parts().enumerate() {
        if part.contains('[') {
            instr.dst[i] = Some(Dest::Mem(parse_memref(part, line, MemSpace::Global)?));
        } else {
            let reg = Register::from_name(part)
                .ok_or_else(|| err(line, format!("unknown destination register `{part}`")))?;
            instr.dst[i] = Some(Dest::Reg(reg));
        }
    }
    Ok(())
}

fn parse_operand(text: &str, line: usize) -> Result<Operand, AsmError> {
    if text.contains('[') {
        return Ok(Operand::Mem(parse_memref(text, line, MemSpace::Global)?));
    }
    let (neg, body) = match text.strip_prefix('-') {
        Some(b) if b.starts_with('$') || b.starts_with('%') => (true, b),
        _ => (false, text),
    };
    if body.starts_with('$') || body.starts_with('%') {
        // Possible half selection `.lo`/`.hi` (but `%tid.x` etc. contain dots
        // that belong to the register name).
        let (reg_name, half) = match body.strip_suffix(".lo") {
            Some(r) if Register::from_name(r).is_some() => (r, Some(Half::Lo)),
            _ => match body.strip_suffix(".hi") {
                Some(r) if Register::from_name(r).is_some() => (r, Some(Half::Hi)),
                _ => (body, None),
            },
        };
        let reg = Register::from_name(reg_name)
            .ok_or_else(|| err(line, format!("unknown register `{reg_name}`")))?;
        return Ok(Operand::Reg { reg, half, neg });
    }
    parse_immediate(text, line).map(Operand::Imm)
}

fn parse_immediate(text: &str, line: usize) -> Result<u32, AsmError> {
    if let Some(hex) = text.strip_prefix("0f").or_else(|| text.strip_prefix("0F")) {
        // PTX hex float literal: raw IEEE-754 bits.
        return u32::from_str_radix(hex, 16)
            .map_err(|_| err(line, format!("bad hex float literal `{text}`")));
    }
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        return u32::from_str_radix(hex, 16)
            .map_err(|_| err(line, format!("bad hex literal `{text}`")));
    }
    if let Some(hex) = text.strip_prefix("-0x") {
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| err(line, format!("bad hex literal `{text}`")))?;
        return Ok(v.wrapping_neg());
    }
    if text.contains('.') || text.contains('e') || text.contains('E') {
        let f: f32 = text
            .parse()
            .map_err(|_| err(line, format!("bad float literal `{text}`")))?;
        return Ok(f.to_bits());
    }
    if let Ok(v) = text.parse::<i64>() {
        if (i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&v) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            return Ok(v as u32);
        }
    }
    Err(err(line, format!("bad immediate `{text}`")))
}

fn parse_memref(text: &str, line: usize, default_space: MemSpace) -> Result<MemRef, AsmError> {
    let open = text
        .find('[')
        .ok_or_else(|| err(line, format!("`{text}` is not a memory operand")))?;
    let close = text
        .rfind(']')
        .ok_or_else(|| err(line, format!("unterminated memory operand `{text}`")))?;
    if close < open {
        return Err(err(line, format!("malformed memory operand `{text}`")));
    }
    let space = match text[..open].trim() {
        "" => default_space,
        "g" => MemSpace::Global,
        "s" => MemSpace::Shared,
        "l" => MemSpace::Local,
        other => return Err(err(line, format!("unknown memory space `{other}`"))),
    };
    let inner = text[open + 1..close].trim();
    // Forms: `imm`, `$reg`, `$reg+imm`.
    if let Some((base, off)) = inner.split_once('+') {
        let reg = Register::from_name(base.trim())
            .ok_or_else(|| err(line, format!("unknown base register `{base}`")))?;
        let offset = parse_immediate(off.trim(), line)?;
        return Ok(MemRef::relative(space, reg, offset));
    }
    if inner.starts_with('$') || inner.starts_with('%') {
        let reg = Register::from_name(inner)
            .ok_or_else(|| err(line, format!("unknown base register `{inner}`")))?;
        return Ok(MemRef::relative(space, reg, 0));
    }
    let offset = parse_immediate(inner, line)?;
    Ok(MemRef::absolute(space, offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Special;

    #[test]
    fn paper_figure5_snippet_parses() {
        let src = r#"
            shl.u32 $r3, s[0x0010], 0x00000001
            cvt.u32.u16 $r1, %ctaid.x
            add.u32 $r3, -$r3, 0x00000100
            mul.wide.u16 $r4, $r1.lo, $r3.hi
            mad.wide.u16 $r4, $r1.hi, $r3.lo, $r4
            cvt.s32.s32 $r2, -$r2
            and.b32 $p0|$o127, $r5, $r2
            ssy 0x00000228
            mov.u32 $r2, $r124
            @$p0.eq bra l0x00000228
            add.half.u32 $r7, s[0x0038], $r1
            min.s32 $r7, s[$ofs2+0x0040], $r8
            ld.global.u32 $r2, [$r2]
            mov.u32 s[$ofs3+0x0440], $r2
            l0x00000228: nop
            bar.sync 0x00000000
            set.eq.s32.s32 $p0/$o127, $r6, $r1
            @$p0.ne bra l0x000002b8
            l0x000002b8: set.ne.s32.s32 $p0/$o127, $r2, $r124
            bra l0x000002c8
            l0x000002c8: @$p0.eq retp
        "#;
        let p = assemble("pathfinder_snippet", src).expect("parse");
        assert_eq!(p.len(), 21);
        // `@$p0.eq bra l0x00000228` should resolve to the nop at index 14.
        let bra = p.instr(9);
        assert_eq!(bra.opcode, Opcode::Bra);
        assert_eq!(bra.target, Some(14));
        assert_eq!(
            bra.guard,
            Some(Guard {
                pred: 0,
                test: PredTest::Eq
            })
        );
        // mul.wide.u16 with half-register operands
        let mul = p.instr(3);
        assert!(mul.wide);
        assert_eq!(mul.ty, ScalarType::U16);
        assert_eq!(
            mul.src[0],
            Some(Operand::half_reg(Register::Gpr(1), Half::Lo))
        );
        // dual destination set
        let set = p.instr(16);
        assert_eq!(set.cmp, Some(CmpOp::Eq));
        assert_eq!(set.dst[0], Some(Dest::Reg(Register::Pred(0))));
        assert_eq!(set.dst[1], Some(Dest::Reg(Register::Discard)));
    }

    #[test]
    fn specials_and_conversions() {
        let p = assemble("t", "cvt.u32.u16 $r1, %tid.x\nexit").unwrap();
        let c = p.instr(0);
        assert_eq!(c.ty, ScalarType::U32);
        assert_eq!(c.src_ty, ScalarType::U16);
        assert_eq!(
            c.src[0],
            Some(Operand::reg(Register::Special(Special::TidX)))
        );
    }

    #[test]
    fn store_and_load() {
        let p = assemble(
            "t",
            "ld.global.u32 $r3, [$r2+0x10]\nst.global.u32 [$r2], $r3\nexit",
        )
        .unwrap();
        let ld = p.instr(0);
        assert_eq!(
            ld.src[0],
            Some(Operand::Mem(MemRef::relative(
                MemSpace::Global,
                Register::Gpr(2),
                0x10
            )))
        );
        let st = p.instr(1);
        assert_eq!(
            st.dst[0],
            Some(Dest::Mem(MemRef::relative(
                MemSpace::Global,
                Register::Gpr(2),
                0
            )))
        );
        assert_eq!(st.src[0], Some(Operand::reg(Register::Gpr(3))));
        assert_eq!(st.dest_bits(), 0);
    }

    #[test]
    fn float_literals() {
        let p = assemble("t", "mov.f32 $r1, 1.5\nmov.f32 $r2, 0f3F800000\nexit").unwrap();
        assert_eq!(p.instr(0).src[0], Some(Operand::Imm(1.5f32.to_bits())));
        assert_eq!(p.instr(1).src[0], Some(Operand::Imm(0x3F80_0000)));
    }

    #[test]
    fn negative_immediates() {
        let p = assemble("t", "add.s32 $r1, $r1, -5\nexit").unwrap();
        assert_eq!(p.instr(0).src[1], Some(Operand::Imm((-5i32) as u32)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("t", "nop\nbogus.u32 $r1, $r2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = assemble("t", "bra nowhere\n").unwrap_err();
        assert!(e.message.contains("undefined label"));

        let e = assemble("t", "top: nop\ntop: exit\n").unwrap_err();
        assert!(e.message.contains("duplicate label"));
    }

    #[test]
    fn set_requires_cmp() {
        let e = assemble("t", "set.s32.s32 $p0/$o127, $r1, $r2\n").unwrap_err();
        assert!(e.message.contains("comparison"));
    }

    #[test]
    fn comments_and_blank_lines() {
        let p = assemble(
            "t",
            "// header comment\n\n  # another\nnop // trailing\nexit\n",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn label_alone_on_line() {
        let p = assemble("t", "top:\n  nop\n  bra top\n").unwrap();
        assert_eq!(p.instr(1).target, Some(0));
    }

    #[test]
    fn selp_with_cmp_modifier() {
        let p = assemble("t", "selp.ne.u32 $r1, $r2, $r3, $p0\nexit").unwrap();
        let s = p.instr(0);
        assert_eq!(s.opcode, Opcode::Selp);
        assert_eq!(s.cmp, Some(CmpOp::Ne));
        assert_eq!(s.src[2], Some(Operand::reg(Register::Pred(0))));
    }
}
