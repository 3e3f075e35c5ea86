//! Campaign orchestration service: a persistent outcome store, a
//! resumable job engine and a small HTTP API over them.
//!
//! The expensive artifact in fault-site-pruning experiments is the
//! injection outcome, and it is a pure function of (kernel program,
//! launch configuration, fault model, fault site). This crate makes that
//! function's results durable: every outcome a campaign produces lands in
//! a crash-safe on-disk store ([`OutcomeStore`]) keyed by exactly that
//! tuple, and every campaign first drains the store before injecting
//! anything. Resubmitting a finished campaign injects zero sites;
//! restarting a killed server resumes its in-flight jobs from whatever
//! the store already holds.
//!
//! Layers, bottom up:
//!
//! - [`store`] — append-only log + checkpoint outcome store.
//! - [`job`] / [`engine`] — job specs and the bounded worker pool that
//!   plans, runs, persists and resumes them.
//! - [`http`] / [`client`] — the wire: `POST /jobs`, `GET /jobs/:id`,
//!   `GET /jobs/:id/result`, `GET /kernels`, `GET /metrics`.
//! - [`Json`] — the hand-rolled, dependency-free JSON layer of
//!   `fsp-fleet`, whose `f64` round trip is bit-exact, so profiles
//!   survive the wire unchanged.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::cast_precision_loss)]
#![allow(clippy::cast_possible_truncation)]
#![allow(clippy::cast_sign_loss)]
#![allow(clippy::missing_panics_doc)]

pub mod client;
pub mod dashboard;
pub mod engine;
pub mod http;
pub mod job;
pub mod metrics;
pub mod store;

pub use client::Client;
pub use engine::{kernels_json, run_local, Engine, EngineConfig, ResultError};
pub use fsp_fleet::Json;
pub use http::{read_request, Request, RequestError, Server, ServerHandle};
pub use job::{
    progress_to_json, CampaignMode, EarlyStopReport, JobRecord, JobResult, JobSpec, JobState,
    StopSpec,
};
pub use metrics::Metrics;
pub use store::{OutcomeKey, OutcomeStore};
