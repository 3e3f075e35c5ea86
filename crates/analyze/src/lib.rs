//! Static dataflow analysis for PTXPlus-like kernels.
//!
//! Everything here is *static*: it inspects the [`fsp_isa::KernelProgram`]
//! and its CFG without executing a single instruction. Two consumers sit on
//! top of the shared worklist framework:
//!
//! - [`ace`]: classifies destination-register bits as ACE / un-ACE before
//!   any dynamic profiling (Stage 0 of the pruning pipeline).
//! - [`lint`](mod@lint): a kernel linter for the hand-written workload assembly.

pub mod absint;
pub mod ace;
pub mod classify;
pub mod dataflow;
pub mod lint;

pub use absint::{prove_cmp, AbsContext, AbsVal, AbsintReport, MemAccessAbs, SlotAbs};
pub use ace::{AceClass, AceSummary, SlotAce, StaticAceReport};
pub use classify::{absint_version, ClassifyReport, ClassifySummary, PredictedKind, SlotClassify};
pub use dataflow::{DataflowResult, DefUse, ProgramDataflow, UseKind, UseSite};
pub use lint::{lint, lint_with_launch, Finding, LintKind, LintReport, Severity};
