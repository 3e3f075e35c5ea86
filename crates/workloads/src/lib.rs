#![warn(missing_docs)]
//! The paper's GPGPU workloads: 10 applications (17 kernels) from the
//! Rodinia and Polybench suites, hand-written in the PTXPlus-like `fsp-isa`
//! assembly from the original CUDA sources.
//!
//! Each kernel reproduces the *structure* the pruning methodology depends
//! on — thread/CTA geometry, control-flow divergence (and therefore the
//! per-thread dynamic-instruction-count groups of Tables III/IV), loop trip
//! counts (Table VII) and destination-register mix (Table I's fault-site
//! magnitudes).
//!
//! Two scales are provided:
//!
//! * [`Scale::Paper`] — the paper's thread counts (e.g. 9216 threads for
//!   HotSpot, 16384 for GEMM), used for fault-site accounting (Table I)
//!   and grouping structure (Tables III/IV);
//! * [`Scale::Eval`] — reduced geometry with identical structure, used for
//!   injection campaigns, where each of the thousands of runs re-executes
//!   the kernel.
//!
//! # Example
//!
//! ```
//! use fsp_workloads::{Scale, Workload};
//! use fsp_inject::InjectionTarget;
//!
//! let kernels = fsp_workloads::all(Scale::Eval);
//! assert_eq!(kernels.len(), 17);
//! let conv = fsp_workloads::by_id("2dconv", Scale::Paper).unwrap();
//! assert_eq!(conv.launch().num_threads(), 8192);
//! ```

mod data;
mod fingerprint;
pub mod polybench;
pub mod rodinia;

use std::sync::{Arc, OnceLock};

use fsp_inject::{ExperimentCache, InjectionTarget, Prepared};
use fsp_isa::KernelProgram;
use fsp_sim::{Launch, MemBlock};

pub use data::DataGen;
pub use fingerprint::{program_fingerprint, Fnv1a};

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Rodinia heterogeneous-computing suite.
    Rodinia,
    /// Polybench/GPU.
    Polybench,
}

impl Suite {
    /// Display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Suite::Rodinia => "Rodinia",
            Suite::Polybench => "Polybench",
        }
    }
}

/// Problem scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// The paper's geometry (Table I thread counts).
    Paper,
    /// Reduced geometry with the same structure, for injection campaigns.
    Eval,
}

/// Reference numbers from the paper's Table I, for side-by-side reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperReference {
    /// "# Threads" column.
    pub threads: u32,
    /// "# Total Fault Sites" column.
    pub fault_sites: f64,
}

/// A fully assembled workload: kernel program, geometry, input image and
/// output region, implementing [`InjectionTarget`].
#[derive(Debug, Clone)]
pub struct Workload {
    app: &'static str,
    kernel: &'static str,
    id: &'static str,
    suite: Suite,
    scale: Scale,
    program: Arc<KernelProgram>,
    grid: (u32, u32),
    block: (u32, u32, u32),
    params: Vec<u32>,
    memory: MemBlock,
    output: (u32, usize),
    paper: Option<PaperReference>,
}

impl Workload {
    /// Assembles a workload. Used by the per-kernel constructors in
    /// [`rodinia`] and [`polybench`].
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        app: &'static str,
        kernel: &'static str,
        id: &'static str,
        suite: Suite,
        scale: Scale,
        program: KernelProgram,
        grid: (u32, u32),
        block: (u32, u32, u32),
        params: Vec<u32>,
        memory: MemBlock,
        output: (u32, usize),
        paper: Option<PaperReference>,
    ) -> Self {
        Workload {
            app,
            kernel,
            id,
            suite,
            scale,
            program: Arc::new(program),
            grid,
            block,
            params,
            memory,
            output,
            paper,
        }
    }

    /// Application name (e.g. `"HotSpot"`).
    #[must_use]
    pub fn app(&self) -> &'static str {
        self.app
    }

    /// Kernel function name (e.g. `"calculate_temp"`).
    #[must_use]
    pub fn kernel(&self) -> &'static str {
        self.kernel
    }

    /// Kernel id as the paper numbers it (e.g. `"K125"`).
    #[must_use]
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// Suite of origin.
    #[must_use]
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// Scale this instance was built at.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Table I reference numbers, when the paper reports this kernel.
    #[must_use]
    pub fn paper_reference(&self) -> Option<PaperReference> {
        self.paper
    }

    /// The kernel program.
    #[must_use]
    pub fn program(&self) -> &Arc<KernelProgram> {
        &self.program
    }
}

impl InjectionTarget for Workload {
    /// The registry id: unlike the program name or the paper's kernel id,
    /// it tells every registry kernel apart (gaussian_k1 and gaussian_k125
    /// both assemble `Fan1`), so per-kernel metrics are labelled by it.
    fn name(&self) -> &str {
        self.registry_id()
    }

    fn launch(&self) -> Launch {
        Launch::new(Arc::clone(&self.program))
            .grid(self.grid.0, self.grid.1)
            .block(self.block.0, self.block.1, self.block.2)
            .params(self.params.iter().copied())
    }

    fn init_memory(&self) -> MemBlock {
        self.memory.clone()
    }

    fn output_region(&self) -> (u32, usize) {
        self.output
    }
}

/// A kernel's constructor, at the requested scale.
type Constructor = fn(Scale) -> Workload;

/// The kernel registry: each registry id with its constructor, in the
/// paper's Table I order (NN, which only appears in Table VII, comes last).
/// [`all`], [`registry_ids`], [`by_id`] and [`is_registered`] all read it.
const REGISTRY: [(&str, Constructor); 17] = [
    ("hotspot", rodinia::hotspot::k1),
    ("kmeans_k1", rodinia::kmeans::k1),
    ("kmeans_k2", rodinia::kmeans::k2),
    ("gaussian_k1", rodinia::gaussian::k1),
    ("gaussian_k2", rodinia::gaussian::k2),
    ("gaussian_k125", rodinia::gaussian::k125),
    ("gaussian_k126", rodinia::gaussian::k126),
    ("pathfinder", rodinia::pathfinder::k1),
    ("lud_k44", rodinia::lud::k44),
    ("lud_k45", rodinia::lud::k45),
    ("lud_k46", rodinia::lud::k46),
    ("2dconv", polybench::conv2d::k1),
    ("mvt", polybench::mvt::k1),
    ("2mm", polybench::mm2::k1),
    ("gemm", polybench::gemm::k1),
    ("syrk", polybench::syrk::k1),
    ("nn", rodinia::nn::k1),
];

/// All 17 kernels in the paper's Table I order (NN, which only appears in
/// Table VII, comes last).
#[must_use]
pub fn all(scale: Scale) -> Vec<Workload> {
    REGISTRY.iter().map(|(_, build)| build(scale)).collect()
}

/// Looks a kernel up by its registry id (e.g. `"gemm"`, `"lud_k46"`),
/// building only that kernel.
#[must_use]
pub fn by_id(id: &str, scale: Scale) -> Option<Workload> {
    REGISTRY
        .iter()
        .find(|(have, _)| *have == id)
        .map(|(_, build)| build(scale))
}

/// Whether `id` names a registry kernel. Builds nothing.
#[must_use]
pub fn is_registered(id: &str) -> bool {
    REGISTRY.iter().any(|(have, _)| *have == id)
}

/// All registry ids, in Table I order.
#[must_use]
pub fn registry_ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|(id, _)| *id).collect()
}

/// The process-wide cache of prepared eval-scale kernels, shared by every
/// served engine, fleet coordinator and fleet worker loop in the process.
/// Each of them holds it ([`ExperimentCache::hold`]) while it runs, so the
/// cache keeps at most one entry per registry kernel — 0.10–3.24 MB of heap
/// each — and empties when the last of them stops. Its counters live on
/// the global [`fsp_obs::registry`].
#[must_use]
pub fn experiments() -> &'static ExperimentCache<Workload> {
    static CACHE: OnceLock<ExperimentCache<Workload>> = OnceLock::new();
    CACHE.get_or_init(|| ExperimentCache::new(fsp_obs::registry()))
}

/// The eval-scale kernel `id` and its prepared run, from [`experiments`]:
/// the golden run happens only on the first use of the kernel while the
/// cache is held. The kernel is built to compute its content key,
/// [`Workload::fingerprint`] × [`Workload::launch_hash`].
///
/// # Errors
///
/// Returns a message for an unknown id or a kernel whose fault-free run
/// faults.
pub fn prepared(id: &str) -> Result<Prepared<Workload>, String> {
    let workload = by_id(id, Scale::Eval).ok_or_else(|| format!("unknown kernel `{id}`"))?;
    let key = (workload.fingerprint(), workload.launch_hash());
    experiments().get_or_prepare(key, || Ok(workload))
}

impl Workload {
    /// The stable registry id used by [`by_id`] and the CLI.
    #[must_use]
    pub fn registry_id(&self) -> &'static str {
        match (self.app, self.id) {
            ("HotSpot", _) => "hotspot",
            ("K-Means", "K1") => "kmeans_k1",
            ("K-Means", "K2") => "kmeans_k2",
            ("Gaussian", "K1") => "gaussian_k1",
            ("Gaussian", "K2") => "gaussian_k2",
            ("Gaussian", "K125") => "gaussian_k125",
            ("Gaussian", "K126") => "gaussian_k126",
            ("PathFinder", _) => "pathfinder",
            ("LUD", "K44") => "lud_k44",
            ("LUD", "K45") => "lud_k45",
            ("LUD", "K46") => "lud_k46",
            ("2DCONV", _) => "2dconv",
            ("MVT", _) => "mvt",
            ("2MM", _) => "2mm",
            ("GEMM", _) => "gemm",
            ("SYRK", _) => "syrk",
            ("NN", _) => "nn",
            _ => unreachable!("unregistered workload {}/{}", self.app, self.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let ids = registry_ids();
        let all = all(Scale::Eval);
        assert_eq!(all.len(), ids.len());
        for (w, id) in all.iter().zip(&ids) {
            assert_eq!(w.registry_id(), *id);
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn by_id_round_trips() {
        for id in registry_ids() {
            let w = by_id(id, Scale::Eval).unwrap_or_else(|| panic!("missing {id}"));
            assert_eq!(w.registry_id(), id);
        }
        assert!(by_id("nonesuch", Scale::Eval).is_none());
    }

    #[test]
    fn paper_scale_thread_counts_match_table1() {
        for w in all(Scale::Paper) {
            if let Some(paper) = w.paper_reference() {
                assert_eq!(
                    w.launch().num_threads(),
                    paper.threads,
                    "{} thread count mismatch",
                    w.registry_id()
                );
            }
        }
    }

    #[test]
    fn every_workload_runs_fault_free() {
        for w in all(Scale::Eval) {
            let exp = fsp_inject::Experiment::prepare(&w)
                .unwrap_or_else(|e| panic!("{} faults fault-free: {e}", w.registry_id()));
            assert!(exp.fault_free_instructions() > 0);
        }
    }
}
