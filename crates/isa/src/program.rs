//! Whole-kernel programs.

use std::collections::BTreeMap;
use std::fmt;

use crate::cfg::Cfg;
use crate::instr::Instruction;

/// A fully assembled kernel: a flat instruction sequence with resolved
/// branch targets plus the label table for round-tripping back to text.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProgram {
    name: String,
    instructions: Vec<Instruction>,
    /// Label name → instruction index.
    labels: BTreeMap<String, usize>,
}

impl KernelProgram {
    /// Builds a program from parts. Prefer [`crate::assemble`] for anything
    /// hand-written.
    ///
    /// # Panics
    ///
    /// Panics if a branch target or label is out of range — programs with
    /// dangling targets are unusable and indicate a bug in the producer.
    #[must_use]
    pub fn from_parts(
        name: impl Into<String>,
        instructions: Vec<Instruction>,
        labels: BTreeMap<String, usize>,
    ) -> Self {
        let len = instructions.len();
        for (pc, instr) in instructions.iter().enumerate() {
            if let Some(t) = instr.target {
                assert!(
                    t < len,
                    "instruction {pc}: branch target {t} out of range ({len})"
                );
            }
        }
        for (label, &pc) in &labels {
            assert!(pc <= len, "label {label}: target {pc} out of range ({len})");
        }
        KernelProgram {
            name: name.into(),
            instructions,
            labels,
        }
    }

    /// The kernel name (e.g. `"calculate_temp"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[must_use]
    pub fn instr(&self, pc: usize) -> &Instruction {
        &self.instructions[pc]
    }

    /// The instruction at `pc`, or `None` when out of range.
    #[must_use]
    pub fn get(&self, pc: usize) -> Option<&Instruction> {
        self.instructions.get(pc)
    }

    /// All instructions in program order.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// The label table (label name → instruction index).
    #[must_use]
    pub fn labels(&self) -> &BTreeMap<String, usize> {
        &self.labels
    }

    /// The label attached to `pc`, if any.
    #[must_use]
    pub fn label_at(&self, pc: usize) -> Option<&str> {
        self.labels
            .iter()
            .find(|(_, &p)| p == pc)
            .map(|(name, _)| name.as_str())
    }

    /// Builds the control-flow graph of this program.
    #[must_use]
    pub fn cfg(&self) -> Cfg {
        Cfg::build(self)
    }

    /// Upper bound on destination-register bits per full execution of the
    /// static program body (no control flow): the sum of
    /// [`Instruction::dest_bits`] over all static instructions. The dynamic
    /// per-thread value used by Equation (1) comes from tracing.
    #[must_use]
    pub fn static_dest_bits(&self) -> u64 {
        self.instructions
            .iter()
            .map(|i| u64::from(i.dest_bits()))
            .sum()
    }
}

impl fmt::Display for KernelProgram {
    /// Disassembles the program, one instruction per line, with labels.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".entry {}", self.name)?;
        for (pc, instr) in self.instructions.iter().enumerate() {
            if let Some(label) = self.label_at(pc) {
                writeln!(f, "{label}:")?;
            }
            // Rewrite resolved targets back to their label names.
            if let Some(t) = instr.target {
                let mut clone = instr.clone();
                clone.target = None;
                let label = self
                    .label_at(t)
                    .map_or_else(|| format!("@{t}"), str::to_owned);
                writeln!(f, "    {clone} {label}")?;
            } else {
                writeln!(f, "    {instr}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Opcode;

    fn program_with(instrs: Vec<Instruction>) -> KernelProgram {
        KernelProgram::from_parts("t", instrs, BTreeMap::new())
    }

    #[test]
    fn basic_accessors() {
        let p = program_with(vec![
            Instruction::new(Opcode::Nop),
            Instruction::new(Opcode::Exit),
        ]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.instr(0).opcode, Opcode::Nop);
        assert_eq!(p.get(2), None);
        assert_eq!(p.name(), "t");
    }

    #[test]
    #[should_panic(expected = "branch target")]
    fn dangling_target_rejected() {
        let mut b = Instruction::new(Opcode::Bra);
        b.target = Some(10);
        let _ = program_with(vec![b]);
    }

    #[test]
    fn labels() {
        let mut labels = BTreeMap::new();
        labels.insert("top".to_owned(), 0);
        let p = KernelProgram::from_parts("t", vec![Instruction::new(Opcode::Exit)], labels);
        assert_eq!(p.label_at(0), Some("top"));
        assert_eq!(p.label_at(1), None);
    }
}
