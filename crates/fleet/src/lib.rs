//! Distributed campaign execution: leased work-stealing over the
//! deterministic injection engine.
//!
//! Injection campaigns are embarrassingly parallel across fault sites,
//! and each outcome is a pure function of (kernel program, launch
//! configuration, fault model, fault site). This crate turns that into a
//! horizontal-scaling layer: a **coordinator** (embedded in `fsp-serve`)
//! shards a campaign's deterministic site plan into chunk **leases**, and
//! any number of `fsp worker` processes pull leases over HTTP, execute
//! them with the checkpoint-resume fast path and stream checksummed
//! outcome frames back.
//!
//! Fault tolerance is protocol-level, not state-level:
//!
//! - leases carry deadlines renewed by heartbeat; an expired lease is
//!   re-served to whichever worker asks next (work stealing);
//! - outcome frames are keyed exactly like the persistent store's 32-byte
//!   records, and the store's idempotent insert collapses the duplicate
//!   deliveries an at-least-once protocol produces;
//! - determinism of the simulator means rival submissions for a stolen
//!   lease agree bit-for-bit, so the final profile is byte-identical to a
//!   local run at any worker count and any kill schedule.
//!
//! Layers, bottom up:
//!
//! - [`json`] — the dependency-free JSON layer (bit-exact `f64` round
//!   trip), re-exported by `fsp-serve`.
//! - [`wire`] — the outcome-record codec shared with the store, plus
//!   FNV-checksummed site and outcome frames.
//! - [`retry`] — capped exponential backoff with jitter, shared by the
//!   worker runtime and the service client.
//! - [`lease`] — the coordinator's lease table: publish, acquire (at
//!   once or waiting for work), heartbeat, complete, requeue.
//! - [`worker`] — the `fsp worker` runtime: lease loop, heartbeat
//!   thread, campaign execution, outcome submission.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::cast_precision_loss)]
#![allow(clippy::cast_possible_truncation)]
#![allow(clippy::cast_sign_loss)]
#![allow(clippy::missing_panics_doc)]

pub mod json;
pub mod lease;
pub mod retry;
pub mod wire;
pub mod worker;

pub use json::Json;
pub use lease::{
    Acquired, ChunkSpec, FleetConfig, Grant, HeartbeatError, LeaseMeta, LeaseTable, Submission,
    WorkerStats,
};
pub use retry::{Backoff, MAX_POLL_WAIT};
pub use wire::{decode_record, encode_record, OutcomeFrame, OutcomeKey, SiteFrame, RECORD_LEN};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};
