#![warn(missing_docs)]
//! Single-bit fault injection for GPGPU kernels.
//!
//! Implements the paper's baseline fault model (Section II-C): a transient
//! single-bit flip in the *destination register* of one dynamic instruction
//! of one thread — mimicking a soft error in a functional unit (ALU / LSU).
//! A fault site is therefore the triple *(thread id, dynamic instruction
//! index, bit position)*, and the exhaustive site count is Equation (1).
//!
//! The crate provides:
//!
//! * [`FaultSite`] / [`SiteSpace`] — sites and the (possibly enormous)
//!   per-kernel site population, with uniform sampling and per-thread /
//!   per-pc enumeration;
//! * [`InjectionTarget`] — how a workload exposes its launch, its input
//!   memory image and its output region;
//! * [`Experiment`] — golden-run preparation, single injections with
//!   outcome classification (masked / SDC / crash / hang), and parallel
//!   campaigns over site lists;
//! * [`ExperimentCache`] — a map of [`PreparedRun`]s shared by
//!   every job of a long-lived process, so each kernel is prepared once.
//!
//! # Example
//!
//! ```
//! use fsp_inject::{Experiment, FaultSite};
//! use fsp_inject::testing::CountdownTarget;
//!
//! let target = CountdownTarget::new();
//! let experiment = Experiment::prepare(&target)?;
//! // Flip bit 31 of the first instruction's destination in thread 0.
//! let outcome = experiment.run_one(FaultSite { tid: 0, dyn_idx: 0, bit: 31 });
//! println!("outcome: {outcome}");
//! # Ok::<(), fsp_sim::SimFault>(())
//! ```

mod batch;
mod cache;
mod campaign;
mod cut;
mod hook;
mod model;
mod severity;
mod site;
mod solo;
mod target;
pub mod testing;

pub use batch::{batch_version, MAX_BATCH};
pub use cache::{CacheHold, CacheKey, ExperimentCache, Prepared};
pub use campaign::{
    classifier_hash, CampaignObserver, CampaignResult, Experiment, IncrementalCampaign,
    NopObserver, PreparedRun,
};
pub use hook::InjectionHook;
pub use model::FaultModel;
pub use severity::{relative_l2_error, SeverityBucket};
pub use site::{pack_sites, unpack_sites, FaultSite, SiteSpace, WeightedSite};
pub use target::InjectionTarget;
