//! # fsp-obs — observability for the fault-site-pruning stack
//!
//! A std-only, dependency-free observability subsystem shared by every
//! layer of the workspace (it sits at the very bottom of the crate
//! graph):
//!
//! * **Span tracer** ([`tracer`]) — RAII spans over thread-local stacks
//!   and a monotonic clock, recorded into a bounded, sharded ring buffer
//!   of *completed* events. One atomic gate ([`set_tracing`]) keeps the
//!   disabled path at a few nanoseconds, so instrumentation stays in the
//!   campaign hot paths unconditionally. Remote events (fleet workers)
//!   can be injected onto the local timeline ([`inject_foreign`]).
//! * **Metrics registry** ([`metrics`]) — counters, gauges and
//!   log2-bucket histograms with exact merge semantics, rendered as
//!   Prometheus text. A process-global [`registry`] serves layers with no
//!   natural owner; `fsp-serve` owns per-engine instances.
//! * **Trace consumers** ([`chrome`]) — Chrome trace-event JSON (open in
//!   Perfetto or `chrome://tracing`), an aggregated profile table with
//!   self-time attribution, and the nesting validator CI asserts with.
//! * **Shared FNV-1a** ([`fnv`]) — the workspace's one content-hash
//!   implementation (fingerprints, store records, wire checksums).
//!
//! ## Tracing quickstart
//!
//! ```
//! fsp_obs::set_tracing(true);
//! {
//!     let _campaign = fsp_obs::span_labeled("campaign", "gemm");
//!     let _chunk = fsp_obs::span("chunk");
//! } // guards close innermost-first; events land in the ring
//! let snap = fsp_obs::snapshot();
//! assert!(snap.events.iter().any(|e| e.name == "campaign"));
//! let json = fsp_obs::chrome_trace_json(&snap, "example");
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]

pub mod chrome;
pub mod fnv;
pub mod metrics;
pub mod tracer;

pub use chrome::{check_nesting, chrome_trace_json, profile, render_profile, ProfileRow};
pub use fnv::{fnv1a, Fnv1a};
pub use metrics::{
    bucket_of, registry, Counter, Gauge, GaugeFormat, Histogram, HistogramSnapshot, Registry,
    HISTOGRAM_BUCKETS,
};
pub use tracer::{
    drain, inject_foreign, instant, now_ns, record_span, set_tracing, snapshot, span, span_labeled,
    tracing_enabled, Event, Ring, Span, TraceSnapshot,
};
