#![warn(missing_docs)]
//! Deterministic functional SIMT simulator for the `fsp-isa` PTXPlus-like
//! ISA.
//!
//! The simulator executes a kernel grid the way GPGPU-Sim's functional model
//! does, with the scheduling pinned down so that *every run of the same
//! launch is bit-identical* — the property fault injection depends on:
//!
//! * CTAs execute sequentially in launch order.
//! * Inside a CTA, threads execute in thread-id order in *barrier phases*:
//!   each thread runs until it hits `bar.sync`, exits, or faults; when every
//!   live thread of the CTA is waiting, the barrier releases.
//!
//! The evaluated kernels only communicate through shared memory across
//! barriers (and never race on global memory), so this schedule is
//! functionally equivalent to any SIMT interleaving. A second execution
//! mode, [`Simulator::warp_lockstep`], runs warps with a SIMT
//! reconvergence stack exactly as GPGPU-Sim does (honoring `ssy`
//! annotations, deriving reconvergence points from CFG post-dominators
//! otherwise) and is cross-validated to produce bit-identical results on
//! every workload.
//!
//! Fault injection and tracing attach through the [`ExecHook`] trait, which
//! observes every retired instruction and may override register write-back
//! values (a single-bit flip in the destination register is exactly such an
//! override).
//!
//! # Example
//!
//! ```
//! use fsp_isa::assemble;
//! use fsp_sim::{Launch, MemBlock, NopHook, Simulator};
//!
//! // Each thread increments one element of a global array.
//! let program = assemble(
//!     "inc",
//!     r#"
//!     cvt.u32.u16 $r1, %tid.x
//!     shl.u32     $r2, $r1, 0x2
//!     add.u32     $r2, $r2, s[0x0010]   // param 0: base address
//!     ld.global.u32 $r3, [$r2]
//!     add.u32     $r3, $r3, 0x1
//!     st.global.u32 [$r2], $r3
//!     exit
//!     "#,
//! )?;
//! let mut global = MemBlock::with_words(64);
//! let launch = Launch::new(program).grid(1, 1).block(8, 1, 1).param(0);
//! let stats = Simulator::new().run(&launch, &mut global, &mut NopHook)?;
//! assert_eq!(global.load(0)?, 1);
//! assert!(stats.instructions > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod checkpoint;
mod exec;
mod golden;
mod hook;
mod launch;
mod machine;
mod mem;
mod thread;
mod trace;
mod warp;

pub use checkpoint::{Checkpoint, CheckpointConfig};
pub use exec::{apply_half_neg, eval_op, flags_of, operand_ty, pred_test, SimFault};
pub use golden::{
    BoundaryRecorder, GlobalReadProfile, GlobalWriteProfile, GlobalWriteStats, GoldenBoundaries,
    GoldenRecorder, GoldenStore, GoldenThread, GoldenTrace,
};
pub use hook::{ExecHook, MemAccess, NopHook, RetireEvent, Writeback};
pub use launch::Launch;
pub use machine::{ExecMode, ResumeScratch, RunStats, Simulator};
pub use mem::MemBlock;
pub use thread::{ThreadCoords, LOCAL_WORDS};
pub use trace::{FullTraces, KernelTrace, ThreadTrace, TraceEntry, Tracer};

/// Byte offset of the first kernel parameter in shared memory
/// (PTXPlus convention: `s[0x0010]` is parameter 0).
pub const PARAM_BASE: u32 = fsp_isa::PARAM_BASE;
