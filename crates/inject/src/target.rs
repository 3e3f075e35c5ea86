//! The contract between workloads and the injector.

use fsp_sim::{Launch, MemBlock};

/// A kernel plus its host-side harness: everything the injector needs to
/// run the kernel repeatedly and judge its output.
///
/// Implementations must be deterministic: the same target must produce the
/// same memory image and the same launch every time, or outcome
/// classification is meaningless.
pub trait InjectionTarget: Sync {
    /// A short identifier (e.g. `"gemm_k1"`). Per-kernel metrics
    /// (`fsp_inject_hang_predicted_total`, `fsp_inject_cta_cut_total`, ...)
    /// are labelled by it.
    fn name(&self) -> &str;

    /// The kernel launch (program, grid, parameters). The injector applies
    /// its own instruction budget on top.
    fn launch(&self) -> Launch;

    /// A freshly initialized global-memory image (inputs written, outputs
    /// cleared).
    fn init_memory(&self) -> MemBlock;

    /// The output region to compare bitwise against the golden run:
    /// `(byte address, length in words)`.
    fn output_region(&self) -> (u32, usize);
}

impl<T: InjectionTarget + ?Sized> InjectionTarget for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn launch(&self) -> Launch {
        (**self).launch()
    }

    fn init_memory(&self) -> MemBlock {
        (**self).init_memory()
    }

    fn output_region(&self) -> (u32, usize) {
        (**self).output_region()
    }
}
