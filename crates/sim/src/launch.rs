//! Kernel launch configuration.

use std::sync::{Arc, OnceLock};

use fsp_isa::KernelProgram;

use crate::decode::{decode, Op};

/// Default shared-memory size per CTA, in bytes (16 KiB, the Fermi-era
/// default the paper's GPGPU-Sim configuration uses).
pub const DEFAULT_SHARED_BYTES: u32 = 16 * 1024;

/// A kernel launch: program, grid/block geometry and parameters.
///
/// The first run of a launch decodes its program into the interpreter's
/// op table; clones share that table, so every run of a prepared kernel
/// (golden run, checkpoint capture, batched replays, solo and slow-path
/// reruns) dispatches on one decode.
///
/// Built in the non-consuming builder style:
///
/// ```
/// use fsp_isa::assemble;
/// use fsp_sim::Launch;
///
/// let program = assemble("k", "exit")?;
/// let launch = Launch::new(program).grid(4, 1).block(256, 1, 1).param(0x1000);
/// assert_eq!(launch.num_threads(), 1024);
/// # Ok::<(), fsp_isa::AsmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Launch {
    program: Arc<KernelProgram>,
    /// `program` decoded, built on first use and shared by clones.
    ops: Arc<OnceLock<Box<[Op]>>>,
    grid: (u32, u32),
    block: (u32, u32, u32),
    params: Vec<u32>,
    shared_bytes: u32,
    instr_budget: u64,
}

impl Launch {
    /// Creates a launch of `program` with a 1×1 grid of 1×1×1 blocks and no
    /// parameters.
    #[must_use]
    pub fn new(program: impl Into<Arc<KernelProgram>>) -> Self {
        Launch {
            program: program.into(),
            ops: Arc::default(),
            grid: (1, 1),
            block: (1, 1, 1),
            params: Vec::new(),
            shared_bytes: DEFAULT_SHARED_BYTES,
            instr_budget: u64::MAX,
        }
    }

    /// Sets the grid dimensions (CTAs in x and y).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn grid(mut self, x: u32, y: u32) -> Self {
        assert!(x > 0 && y > 0, "grid dimensions must be positive");
        self.grid = (x, y);
        self
    }

    /// Sets the CTA dimensions (threads in x, y, z).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn block(mut self, x: u32, y: u32, z: u32) -> Self {
        assert!(x > 0 && y > 0 && z > 0, "block dimensions must be positive");
        self.block = (x, y, z);
        self
    }

    /// Appends one 32-bit kernel parameter (a buffer address or scalar).
    #[must_use]
    pub fn param(mut self, value: u32) -> Self {
        self.params.push(value);
        self
    }

    /// Appends several parameters at once.
    #[must_use]
    pub fn params(mut self, values: impl IntoIterator<Item = u32>) -> Self {
        self.params.extend(values);
        self
    }

    /// Appends an `f32` parameter (stored as raw bits).
    #[must_use]
    pub fn param_f32(self, value: f32) -> Self {
        self.param(value.to_bits())
    }

    /// Overrides the per-CTA shared memory size in bytes.
    #[must_use]
    pub fn shared_bytes(mut self, bytes: u32) -> Self {
        self.shared_bytes = bytes;
        self
    }

    /// Caps the total number of dynamic instructions the launch may retire;
    /// exceeding it aborts the run with [`crate::SimFault::BudgetExceeded`]
    /// (how injection campaigns detect hangs).
    #[must_use]
    pub fn instr_budget(mut self, budget: u64) -> Self {
        self.instr_budget = budget;
        self
    }

    /// The kernel program.
    #[must_use]
    pub fn program(&self) -> &Arc<KernelProgram> {
        &self.program
    }

    /// The decoded program (its op table), built on first use.
    pub(crate) fn ops(&self) -> &[Op] {
        self.ops.get_or_init(|| decode(&self.program))
    }

    /// Grid dimensions `(x, y)`.
    #[must_use]
    pub fn grid_dim(&self) -> (u32, u32) {
        self.grid
    }

    /// Block dimensions `(x, y, z)`.
    #[must_use]
    pub fn block_dim(&self) -> (u32, u32, u32) {
        self.block
    }

    /// Kernel parameters in declaration order.
    #[must_use]
    pub fn param_values(&self) -> &[u32] {
        &self.params
    }

    /// Shared-memory bytes per CTA.
    #[must_use]
    pub fn shared_size(&self) -> u32 {
        self.shared_bytes
    }

    /// The dynamic-instruction budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.instr_budget
    }

    /// Number of CTAs in the grid.
    #[must_use]
    pub fn num_ctas(&self) -> u32 {
        self.grid.0 * self.grid.1
    }

    /// Threads per CTA.
    #[must_use]
    pub fn threads_per_cta(&self) -> u32 {
        self.block.0 * self.block.1 * self.block.2
    }

    /// Total threads in the grid.
    #[must_use]
    pub fn num_threads(&self) -> u32 {
        self.num_ctas() * self.threads_per_cta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::assemble;

    #[test]
    fn geometry() {
        let p = assemble("k", "exit").unwrap();
        let l = Launch::new(p).grid(6, 6).block(16, 16, 1);
        assert_eq!(l.num_ctas(), 36);
        assert_eq!(l.threads_per_cta(), 256);
        assert_eq!(l.num_threads(), 9216);
    }

    #[test]
    fn params_accumulate() {
        let p = assemble("k", "exit").unwrap();
        let l = Launch::new(p).param(1).params([2, 3]).param_f32(1.0);
        assert_eq!(l.param_values(), &[1, 2, 3, 1.0f32.to_bits()]);
    }

    #[test]
    #[should_panic(expected = "grid dimensions")]
    fn zero_grid_rejected() {
        let p = assemble("k", "exit").unwrap();
        let _ = Launch::new(p).grid(0, 1);
    }
}
