//! Resumable machine snapshots of the deterministic golden run.
//!
//! The thread-serial schedule is a pure function of the launch, so a
//! snapshot of (thread states, shared memory, global memory) between two
//! steps fully determines the rest of the run. Injection campaigns capture
//! snapshots every K retired instructions during the fault-free run and
//! resume each injected run from the closest snapshot at or before its
//! fault site, skipping the shared golden prefix entirely
//! ([`crate::Simulator::run_from`]).
//!
//! Memory blocks are copy-on-write ([`crate::MemBlock`]), so a snapshot's
//! global image shares every chunk the kernel did not rewrite in the
//! preceding interval; dozens of checkpoints cost far less than dozens of
//! full memory copies.

use crate::mem::MemBlock;
use crate::thread::ThreadState;

/// Capture cadence for [`crate::Simulator::run_with_checkpoints`].
#[derive(Debug, Clone, Copy)]
pub struct CheckpointConfig {
    /// Snapshot cadence in retired instructions.
    pub interval: u64,
    /// Upper bound on retained snapshots: when reached, every other
    /// snapshot is dropped and the interval doubles, keeping long runs at
    /// a bounded memory cost with geometrically coarser spacing.
    pub max: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval: 128,
            max: 64,
        }
    }
}

/// A resumable snapshot of the machine between two steps of the
/// thread-serial schedule.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Instructions retired grid-wide at the snapshot.
    pub(crate) retired: u64,
    /// Barrier releases counted so far (resumed stats are suffix-only;
    /// kept for diagnostics).
    pub(crate) barriers: u64,
    /// Linear index (`cy * gx + cx`) of the CTA executing at the snapshot.
    pub(crate) cta: u32,
    /// That CTA had released a barrier before the snapshot.
    pub(crate) released: bool,
    /// Thread states of that CTA.
    pub(crate) threads: Vec<ThreadState>,
    /// The CTA's shared memory.
    pub(crate) shared: MemBlock,
    /// Global memory at the snapshot (chunks shared copy-on-write).
    pub(crate) global: MemBlock,
    /// Per-thread retired-instruction counts at the snapshot, grid-wide.
    pub(crate) icnt: Vec<u32>,
}

impl Checkpoint {
    /// Instructions retired grid-wide when the snapshot was taken.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Instructions thread `tid` had retired at the snapshot (0 for
    /// out-of-range ids — such a thread has retired nothing).
    #[must_use]
    pub fn icnt(&self, tid: u32) -> u32 {
        self.icnt.get(tid as usize).copied().unwrap_or(0)
    }

    /// Barrier releases counted up to the snapshot (diagnostics; resumed
    /// run stats are suffix-only).
    #[must_use]
    pub fn barriers(&self) -> u64 {
        self.barriers
    }
}
