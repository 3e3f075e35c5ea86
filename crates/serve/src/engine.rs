//! The resumable job engine: a bounded worker pool draining a queue of
//! campaign jobs against the persistent outcome store.
//!
//! # Resume protocol
//!
//! A job is persisted to `jobs/<id>.json` on every state transition, and
//! every injected outcome is persisted to the outcome store chunk by
//! chunk. A crash (or [`Engine::shutdown`], which deliberately behaves
//! like one for in-flight work) therefore loses nothing but liveness: on
//! the next [`Engine::open`], jobs still marked queued/running are
//! requeued, re-planned (planning is deterministic), and their campaign
//! re-run — at which point every site injected before the crash is a
//! store hit, so the engine only executes the remainder. A completed
//! job's profile is recomputed from the full outcome vector in site
//! order, making it bit-identical to an uninterrupted run's.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fsp_core::{PruningConfig, PruningPipeline};
use fsp_fleet::lease::{ChunkSpec, FleetConfig, LeaseTable, Submission};
use fsp_fleet::wire::{OutcomeFrame, TraceFrame};
use fsp_fleet::MAX_POLL_WAIT;
use fsp_inject::{
    CacheHold, CampaignObserver, Experiment, InjectionTarget, SiteSpace, WeightedSite,
};
use fsp_protect::{
    harden, plan_protection, remap_sites, PlanInputs, ProtectScope, ProtectedTarget,
};
use fsp_stats::stream::{EarlyStop, StopRule, StreamEstimator};
use fsp_stats::{Outcome, ResilienceProfile};
use fsp_workloads::{program_fingerprint, Scale, Workload};

/// Launch-hash component of store keys and result documents: the
/// workload's launch-configuration hash mixed with the outcome
/// classifier's calibration ([`fsp_inject::classifier_hash`]), the
/// static analysis version ([`fsp_analyze::absint_version`]), *and* the
/// batched-injection format tag ([`fsp_inject::batch_version`]), so
/// outcomes persisted under a different hang-budget calibration — or
/// planned by an older abstract-interpretation semantics, or produced by
/// an incompatible lane-batching scheme — miss instead of being served
/// as current.
fn keyed_launch_hash(w: &Workload) -> u64 {
    w.launch_hash()
        ^ fsp_inject::classifier_hash()
        ^ fsp_analyze::absint_version()
        ^ fsp_inject::batch_version()
}
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::job::{
    CampaignMode, EarlyStopReport, JobRecord, JobResult, JobSpec, JobState, StopSpec,
};
use crate::metrics::{mode_index, Metrics};
use crate::store::{OutcomeKey, OutcomeStore};
use fsp_fleet::Json;

/// Log records accumulated before the engine folds them into a fresh
/// checkpoint (bounds recovery replay time).
const CHECKPOINT_EVERY: u64 = 100_000;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Root of the persistent state (`store/` and `jobs/` live here).
    pub data_dir: PathBuf,
    /// Concurrent jobs (the bounded worker pool).
    pub job_workers: usize,
    /// OS threads per job's injection campaign.
    pub campaign_workers: usize,
    /// Lease TTL and chunk granularity for fleet-executed jobs.
    pub fleet: FleetConfig,
    /// Enable the span tracer at engine start (`GET /trace` then serves a
    /// live Chrome trace; fleet grants instruct workers to trace too).
    pub trace: bool,
}

impl EngineConfig {
    /// Defaults: the worker pool spans the machine
    /// (`available_parallelism`), one campaign thread per job worker.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> EngineConfig {
        EngineConfig {
            data_dir: data_dir.into(),
            job_workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            campaign_workers: 1,
            fleet: FleetConfig::default(),
            trace: false,
        }
    }

    /// Enables (or disables) the span tracer at engine start.
    #[must_use]
    pub fn trace(mut self, on: bool) -> EngineConfig {
        self.trace = on;
        self
    }

    /// Overrides the worker-pool width (`0` is clamped to 1).
    #[must_use]
    pub fn job_workers(mut self, n: usize) -> EngineConfig {
        self.job_workers = n.max(1);
        self
    }

    /// Overrides the fleet lease TTL (heartbeat deadline).
    #[must_use]
    pub fn lease_ttl(mut self, ttl: Duration) -> EngineConfig {
        self.fleet.lease_ttl = ttl;
        self
    }

    /// Overrides the fleet chunk granularity (`0` is clamped to 1).
    #[must_use]
    pub fn chunk_sites(mut self, n: usize) -> EngineConfig {
        self.fleet.chunk_sites = n.max(1);
        self
    }
}

/// Why `GET /jobs/:id/result` cannot produce a result yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultError {
    /// No such job.
    NotFound,
    /// The job exists but is not completed; carries its current state.
    NotReady(JobState),
    /// The job failed, with its error message.
    Failed(String),
}

struct Shared {
    jobs_dir: PathBuf,
    store: Mutex<OutcomeStore>,
    jobs: Mutex<BTreeMap<String, JobRecord>>,
    /// Notified when a job leaves the queued/running states, and on
    /// shutdown: wakes [`Engine::wait_job`] and [`Engine::wait_idle`].
    jobs_settled: Condvar,
    queue: Mutex<VecDeque<String>>,
    queue_cv: Condvar,
    cancel_flags: Mutex<HashMap<String, Arc<AtomicBool>>>,
    metrics: Metrics,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    campaign_workers: usize,
    leases: LeaseTable,
}

impl Shared {
    /// Appends outcomes to the store and flushes them — once per
    /// in-process chunk or fleet frame, so a crash loses at most the torn
    /// tail of the record in flight — and folds the log into a checkpoint
    /// every [`CHECKPOINT_EVERY`] records.
    fn persist_outcomes(&self, records: impl IntoIterator<Item = (OutcomeKey, Outcome)>) {
        let mut store = self.store.lock().expect("engine poisoned");
        for (key, outcome) in records {
            if let Err(e) = store.insert(key, outcome) {
                eprintln!("fsp-serve: store append failed: {e}");
            }
        }
        let flush_start = fsp_obs::now_ns();
        let _ = store.flush();
        self.metrics
            .store_flush_nanos
            .record(fsp_obs::now_ns() - flush_start);
        if store.appended_since_checkpoint() >= CHECKPOINT_EVERY {
            if let Err(e) = store.checkpoint() {
                eprintln!("fsp-serve: store checkpoint failed: {e}");
            }
        }
    }
}

/// The campaign orchestration engine. Open one per data directory; share
/// it (via `Arc`) with the HTTP server.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Keeps the kernels this engine's jobs prepare (see [`execute`]) until
    /// shutdown.
    experiments: Mutex<Option<CacheHold<'static, Workload>>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("jobs_dir", &self.shared.jobs_dir)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Opens the engine over `data_dir`: recovers the outcome store,
    /// reloads persisted jobs, requeues unfinished ones and starts the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from store recovery or directory creation.
    pub fn open(config: EngineConfig) -> std::io::Result<Engine> {
        let EngineConfig {
            data_dir,
            job_workers,
            campaign_workers,
            fleet,
            trace,
        } = config;
        if trace {
            fsp_obs::set_tracing(true);
        }
        let store = OutcomeStore::open(data_dir.join("store"))?;
        let jobs_dir = data_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)?;

        let mut jobs = BTreeMap::new();
        let mut max_id = 0u64;
        let mut requeue: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&jobs_dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path)?;
            let record = match Json::parse(&text).and_then(|v| JobRecord::from_json(&v)) {
                Ok(record) => record,
                Err(e) => {
                    eprintln!(
                        "fsp-serve: skipping unreadable job file {}: {e}",
                        path.display()
                    );
                    continue;
                }
            };
            if let Some(n) = record.id.strip_prefix("job-").and_then(|n| n.parse().ok()) {
                max_id = max_id.max(n);
            }
            if record.state.is_active() {
                requeue.push(record.id.clone());
            }
            jobs.insert(record.id.clone(), record);
        }
        // Oldest first, so recovery preserves submission order.
        requeue.sort_by_key(|id| {
            id.strip_prefix("job-")
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(u64::MAX)
        });

        let shared = Arc::new(Shared {
            jobs_dir,
            store: Mutex::new(store),
            jobs: Mutex::new(jobs),
            jobs_settled: Condvar::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            cancel_flags: Mutex::new(HashMap::new()),
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(max_id + 1),
            campaign_workers: campaign_workers.max(1),
            leases: LeaseTable::new(fleet),
        });
        {
            let mut jobs = shared.jobs.lock().expect("engine poisoned");
            let mut queue = shared.queue.lock().expect("engine poisoned");
            for id in requeue {
                if let Some(record) = jobs.get_mut(&id) {
                    record.state = JobState::Queued;
                    persist(&shared.jobs_dir, record);
                    queue.push_back(id);
                }
            }
        }

        let engine = Engine {
            shared: Arc::clone(&shared),
            workers: Mutex::new(Vec::new()),
            experiments: Mutex::new(Some(fsp_workloads::experiments().hold())),
        };
        let mut workers = engine.workers.lock().expect("engine poisoned");
        for i in 0..job_workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("fsp-job-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning job worker"),
            );
        }
        drop(workers);
        Ok(engine)
    }

    /// Submits a job; returns its id.
    ///
    /// # Errors
    ///
    /// Rejects unknown kernels (with the known ids in the message).
    pub fn submit(&self, spec: JobSpec) -> Result<String, String> {
        self.submit_with(spec, false)
    }

    /// Submits a job, optionally placing its campaign on the worker fleet
    /// (leased chunks drained by `fsp worker` processes) instead of the
    /// in-process pool. Protect jobs ignore the placement flag: their
    /// re-injection campaign targets a hardened program workers cannot
    /// re-derive from a kernel id, so they always run in-process.
    ///
    /// # Errors
    ///
    /// Rejects unknown kernels (with the known ids in the message).
    pub fn submit_with(&self, spec: JobSpec, fleet: bool) -> Result<String, String> {
        if !fsp_workloads::is_registered(&spec.kernel) {
            return Err(format!(
                "unknown kernel `{}` (try: {})",
                spec.kernel,
                fsp_workloads::registry_ids().join(", ")
            ));
        }
        if spec.stop.is_some() && matches!(spec.mode, CampaignMode::Protect { .. }) {
            return Err("early stopping is not supported for protect jobs".to_owned());
        }
        let id = format!(
            "job-{}",
            self.shared.next_id.fetch_add(1, Ordering::Relaxed)
        );
        let mut record = JobRecord::new(id.clone(), spec);
        record.fleet = fleet && !matches!(record.spec.mode, CampaignMode::Protect { .. });
        {
            let mut jobs = self.shared.jobs.lock().expect("engine poisoned");
            persist(&self.shared.jobs_dir, &record);
            jobs.insert(id.clone(), record);
        }
        self.shared
            .queue
            .lock()
            .expect("engine poisoned")
            .push_back(id.clone());
        self.shared.queue_cv.notify_one();
        self.shared.metrics.jobs_submitted.inc();
        Ok(id)
    }

    /// Blocks until job `id` leaves the queued and running states, `wait`
    /// (capped at [`MAX_POLL_WAIT`]) passes or the engine shuts down — the
    /// `wait_ms` of `GET /jobs/:id`. Returns at once for an unknown job.
    pub fn wait_job(&self, id: &str, wait: Duration) {
        let end = Instant::now() + wait.min(MAX_POLL_WAIT);
        let mut jobs = self.shared.jobs.lock().expect("engine poisoned");
        loop {
            let now = Instant::now();
            if jobs.get(id).is_none_or(|r| !r.state.is_active())
                || now >= end
                || self.shared.shutdown.load(Ordering::Relaxed)
            {
                return;
            }
            jobs = self
                .shared
                .jobs_settled
                .wait_timeout(jobs, end - now)
                .expect("engine poisoned")
                .0;
        }
    }

    /// The job's full status document, or `None` if unknown.
    #[must_use]
    pub fn job_json(&self, id: &str) -> Option<Json> {
        self.shared
            .jobs
            .lock()
            .expect("engine poisoned")
            .get(id)
            .map(JobRecord::to_json)
    }

    /// The live statistical progress document (`GET /jobs/:id/progress`),
    /// or `None` if unknown. Assembled from the job record's per-outcome
    /// counters, so in-process and fleet jobs render identically.
    #[must_use]
    pub fn progress_json(&self, id: &str) -> Option<Json> {
        self.shared
            .jobs
            .lock()
            .expect("engine poisoned")
            .get(id)
            .map(crate::job::progress_to_json)
    }

    /// Status documents of every known job, in id order.
    #[must_use]
    pub fn jobs_json(&self) -> Json {
        Json::Arr(
            self.shared
                .jobs
                .lock()
                .expect("engine poisoned")
                .values()
                .map(JobRecord::to_json)
                .collect(),
        )
    }

    /// The canonical result document of a completed job.
    ///
    /// # Errors
    ///
    /// [`ResultError`] when the job is unknown, unfinished or failed.
    pub fn result_json(&self, id: &str) -> Result<Json, ResultError> {
        let jobs = self.shared.jobs.lock().expect("engine poisoned");
        let record = jobs.get(id).ok_or(ResultError::NotFound)?;
        match (&record.result, record.state) {
            (Some(result), JobState::Completed) => {
                Ok(crate::job::result_to_json(&record.spec, result))
            }
            (_, JobState::Failed) => Err(ResultError::Failed(
                record.error.clone().unwrap_or_else(|| "failed".to_owned()),
            )),
            (_, state) => Err(ResultError::NotReady(state)),
        }
    }

    /// Requests cancellation: queued jobs cancel immediately, running jobs
    /// at their next chunk boundary. Returns whether a cancellation was
    /// initiated.
    pub fn cancel(&self, id: &str) -> bool {
        let mut jobs = self.shared.jobs.lock().expect("engine poisoned");
        match jobs.get_mut(id).map(|r| r.state) {
            Some(JobState::Queued) => {
                let record = jobs.get_mut(id).expect("checked above");
                record.state = JobState::Cancelled;
                persist(&self.shared.jobs_dir, record);
                self.shared.metrics.jobs_cancelled.inc();
                self.shared.jobs_settled.notify_all();
                true
            }
            Some(JobState::Running) => {
                let flags = self.shared.cancel_flags.lock().expect("engine poisoned");
                flags.get(id).is_some_and(|flag| {
                    flag.store(true, Ordering::Relaxed);
                    true
                })
            }
            _ => false,
        }
    }

    /// Grants a lease to `worker`, requeuing expired leases first
    /// (`POST /leases`), waiting up to `wait` (capped at
    /// [`MAX_POLL_WAIT`]) for a chunk to become available. When none does
    /// — or the engine shuts down meanwhile — the body carries the count
    /// of still-pending chunks so idle workers can tell a drained fleet
    /// from a fully-leased one.
    #[must_use]
    pub fn fleet_acquire(&self, worker: &str, wait: Duration) -> Json {
        let acquired = self
            .shared
            .leases
            .acquire_wait(worker, wait.min(MAX_POLL_WAIT));
        match acquired.grant {
            Some(grant) => {
                fsp_obs::instant(
                    "serve.lease.grant",
                    Some(format!("{worker} {}", grant.lease)),
                );
                grant.to_json()
            }
            None => Json::obj([
                ("lease", Json::Null),
                ("pending", Json::u64(acquired.pending as u64)),
            ]),
        }
    }

    /// Renews a lease's deadline (`POST /leases/:id/heartbeat`). Returns
    /// `(status, body)`: 404 for a lease that no longer exists, 409 for
    /// one stolen by another worker — either way the renewing worker
    /// should abandon the chunk.
    #[must_use]
    pub fn fleet_heartbeat(&self, lease: &str, worker: &str) -> (u16, Json) {
        match self.shared.leases.heartbeat(lease, worker) {
            Ok(ttl) => (
                200,
                Json::obj([("ttl_ms", Json::u64(ttl.as_millis() as u64))]),
            ),
            Err(fsp_fleet::HeartbeatError::Unknown) => (404, error_json("unknown lease")),
            Err(fsp_fleet::HeartbeatError::NotHolder) => {
                (409, error_json("lease stolen by another worker"))
            }
        }
    }

    /// Accepts a worker's outcome frame (`POST /leases/:id/outcomes`).
    ///
    /// Every record is validated against the lease's key fields, then
    /// persisted to the outcome store *before* the lease is marked done —
    /// the store is the durability boundary, so a coordinator crash after
    /// this call can never lose an acknowledged chunk. Duplicate and
    /// stale deliveries (the normal weather of at-least-once delivery)
    /// return 200 with `accepted: 0` so workers move on quietly.
    #[must_use]
    pub fn fleet_submit_outcomes(&self, lease: &str, body: &Json) -> (u16, Json) {
        let frame = match OutcomeFrame::from_json(body) {
            Ok(frame) => frame,
            Err(e) => return (400, error_json(&e)),
        };
        let Some(meta) = self.shared.leases.meta(lease) else {
            return (
                200,
                Json::obj([("accepted", Json::u64(0)), ("stale", Json::Bool(true))]),
            );
        };
        let model = meta.model.code();
        if frame.records.iter().any(|(k, _)| {
            k.fingerprint != meta.fingerprint || k.launch != meta.launch || k.model != model
        }) {
            return (
                400,
                error_json("frame records do not match the lease's campaign"),
            );
        }
        // Re-anchor any spans the worker shipped with the frame onto this
        // process's clock (see [`TraceFrame`]) so `GET /trace` renders a
        // single cross-process timeline.
        if fsp_obs::tracing_enabled() {
            match TraceFrame::from_json(body) {
                Ok(Some(trace)) => {
                    let events: Vec<fsp_obs::Event> = trace
                        .spans
                        .iter()
                        .map(|s| fsp_obs::Event {
                            process: None,
                            tid: s.tid,
                            name: s.name.clone().into(),
                            label: s.label.clone(),
                            start_ns: u64::try_from(trace.grant_ns.cast_signed() + s.rel_ns)
                                .unwrap_or(0),
                            dur_ns: s.dur_ns,
                            depth: s.depth,
                            instant: s.instant,
                        })
                        .collect();
                    fsp_obs::inject_foreign(&frame.worker, events);
                }
                Ok(None) => {}
                Err(e) => eprintln!("fsp-serve: dropping malformed trace frame: {e}"),
            }
        }
        self.shared.persist_outcomes(frame.records.iter().copied());
        let outcomes: std::collections::BTreeMap<_, _> =
            frame.records.iter().map(|(k, o)| (k.site, *o)).collect();
        match self.shared.leases.complete(lease, &frame.worker, &outcomes) {
            Submission::Accepted => {
                fsp_obs::instant(
                    "serve.lease.complete",
                    Some(format!("{} {lease}", frame.worker)),
                );
                (
                    200,
                    Json::obj([("accepted", Json::u64(frame.records.len() as u64))]),
                )
            }
            Submission::Duplicate => (
                200,
                Json::obj([("accepted", Json::u64(0)), ("duplicate", Json::Bool(true))]),
            ),
            // The lease vanished between `meta` and `complete` (job
            // retracted): the records were valid, treat as stale.
            Submission::Unknown => (
                200,
                Json::obj([("accepted", Json::u64(0)), ("stale", Json::Bool(true))]),
            ),
            Submission::Incomplete => (400, error_json("frame does not cover the lease's sites")),
        }
    }

    /// The fleet status document (`GET /fleet`): chunk counts by state,
    /// requeue/duplicate totals and per-worker counters.
    #[must_use]
    pub fn fleet_status_json(&self) -> Json {
        self.shared.leases.status_json()
    }

    /// Prometheus text exposition of the service metrics.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let by_state: Vec<(&str, u64)> = {
            let jobs = self.shared.jobs.lock().expect("engine poisoned");
            JobState::ALL
                .iter()
                .map(|s| {
                    (
                        s.name(),
                        jobs.values().filter(|r| r.state == *s).count() as u64,
                    )
                })
                .collect()
        };
        let store_len = self.shared.store.lock().expect("engine poisoned").len() as u64;
        let mut text = self.shared.metrics.render(&by_state, store_len);
        self.shared.leases.render_metrics(&mut text);
        // Process-wide metrics (injection-engine histograms and counters)
        // registered on the global registry by whichever layers ran.
        text.push_str(&fsp_obs::registry().render());
        text
    }

    /// The live span timeline as Chrome trace-event JSON (`GET /trace`):
    /// this process's spans plus any worker spans re-anchored from
    /// submitted frames. Non-destructive — the ring keeps accumulating.
    #[must_use]
    pub fn trace_json(&self) -> String {
        fsp_obs::chrome_trace_json(&fsp_obs::snapshot(), "coordinator")
    }

    /// Blocks until no job is queued or running, or `timeout` elapses;
    /// returns whether the engine went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut jobs = self.shared.jobs.lock().expect("engine poisoned");
        loop {
            if !jobs.values().any(|r| r.state.is_active()) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            jobs = self
                .shared
                .jobs_settled
                .wait_timeout(jobs, deadline - now)
                .expect("engine poisoned")
                .0;
        }
    }

    /// Stops the worker pool without waiting for in-flight jobs to finish
    /// — deliberately equivalent to a crash for resumability: running jobs
    /// stop at their next chunk boundary, stay `running` on disk, and
    /// resume (from the store) on the next [`Engine::open`]. Requests
    /// blocked in a lease or job wait return at once. Flushes and
    /// checkpoints the store before returning.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue_cv.notify_all();
        self.shared.leases.close();
        // Taking the lock orders the flag before any waiter's next check.
        drop(self.shared.jobs.lock().expect("engine poisoned"));
        self.shared.jobs_settled.notify_all();
        let workers: Vec<_> = self
            .workers
            .lock()
            .expect("engine poisoned")
            .drain(..)
            .collect();
        for w in workers {
            let _ = w.join();
        }
        drop(self.experiments.lock().expect("engine poisoned").take());
        let mut store = self.shared.store.lock().expect("engine poisoned");
        if let Err(e) = store.flush().and_then(|()| store.checkpoint()) {
            eprintln!("fsp-serve: checkpoint on shutdown failed: {e}");
        }
    }
}

/// The kernel registry document for `GET /kernels`: ids, names, geometry
/// and the store-key fingerprints at evaluation scale.
#[must_use]
pub fn kernels_json() -> Json {
    Json::Arr(
        fsp_workloads::all(Scale::Eval)
            .iter()
            .map(|w| {
                Json::obj([
                    ("id", Json::Str(w.registry_id().to_owned())),
                    ("app", Json::Str(w.app().to_owned())),
                    ("kernel", Json::Str(w.kernel().to_owned())),
                    ("threads", Json::u64(u64::from(w.launch().num_threads()))),
                    ("fingerprint", Json::u64(w.fingerprint())),
                    ("launch", Json::u64(keyed_launch_hash(w))),
                ])
            })
            .collect(),
    )
}

/// Runs a job spec in-process, without a server or a store — the library
/// path `fsp submit --local` uses, producing the same canonical result
/// document as `GET /jobs/:id/result` for the same spec.
///
/// # Errors
///
/// Returns a message for unknown kernels or workload faults.
pub fn run_local(spec: &JobSpec, workers: usize) -> Result<Json, String> {
    let workload = fsp_workloads::by_id(&spec.kernel, Scale::Eval)
        .ok_or_else(|| format!("unknown kernel `{}`", spec.kernel))?;
    if spec.stop.is_some() && matches!(spec.mode, CampaignMode::Protect { .. }) {
        return Err("early stopping is not supported for protect jobs".to_owned());
    }
    let experiment = Experiment::prepare(&workload).map_err(|e| e.to_string())?;
    let runner = Runner {
        spec,
        workers,
        job: None,
    };
    let result = match runner.run(&workload, &experiment) {
        Ok(result) => result,
        Err(RunEnd::Failed(e)) => return Err(e),
        Err(_) => unreachable!("only served jobs are interrupted or cancelled"),
    };
    Ok(crate::job::result_to_json(spec, &result))
}

/// A planned campaign: the sites to run plus the weight the planner
/// accounted statically (assumed masked, predicted DUEs) and the
/// per-stage accounting for the metrics endpoint.
struct PlannedCampaign {
    sites: Vec<WeightedSite>,
    assumed_masked: f64,
    predicted_crash: f64,
    predicted_detected: f64,
    stages: Option<fsp_core::StageCounts>,
}

impl PlannedCampaign {
    /// A plan that injects `sites` as they are, settling nothing
    /// statically.
    fn unpruned(sites: Vec<WeightedSite>) -> PlannedCampaign {
        PlannedCampaign {
            sites,
            assumed_masked: 0.0,
            predicted_crash: 0.0,
            predicted_detected: 0.0,
            stages: None,
        }
    }

    /// The statically settled mass as per-class certain weight in
    /// `Outcome::code()` order, for streaming estimators.
    fn certain(&self) -> [f64; 5] {
        [
            self.assumed_masked,
            0.0,
            self.predicted_crash,
            0.0,
            self.predicted_detected,
        ]
    }

    /// The `[masked, crash, detected]` triple persisted on job records.
    fn settled3(&self) -> [f64; 3] {
        [
            self.assumed_masked,
            self.predicted_crash,
            self.predicted_detected,
        ]
    }

    /// Folds the statically-accounted weight into a campaign profile.
    fn settle(&self, profile: &mut ResilienceProfile) {
        profile.record_weighted(Outcome::Masked, self.assumed_masked);
        if self.predicted_crash > 0.0 {
            profile.record_weighted(Outcome::CRASH, self.predicted_crash);
        }
        if self.predicted_detected > 0.0 {
            profile.record_weighted(Outcome::Detected, self.predicted_detected);
        }
    }
}

/// `samples` sites drawn uniformly from `space` with the spec's seed —
/// the plan of a sampled job and the baseline of a protect job.
fn sample_sites(space: &SiteSpace, samples: usize, seed: u64) -> Vec<WeightedSite> {
    let mut rng = StdRng::seed_from_u64(seed);
    space
        .sample_many(samples, &mut rng)
        .into_iter()
        .map(WeightedSite::from)
        .collect()
}

/// Deterministically expands a spec into its weighted site list and
/// statically-accounted weights. Shared by the engine and [`run_local`],
/// so the service and library paths run byte-identical campaigns.
fn plan_sites(
    spec: &JobSpec,
    workload: &fsp_workloads::Workload,
    experiment: &Experiment<'_, fsp_workloads::Workload>,
) -> Result<PlannedCampaign, String> {
    match spec.mode {
        CampaignMode::Pruned {
            static_ace,
            loop_samples,
        } => {
            let config = PruningConfig {
                static_ace,
                loop_samples,
                loop_seed: spec.seed,
                ..PruningConfig::default()
            };
            let plan = PruningPipeline::new(config)
                .plan_for(experiment)
                .map_err(|e| format!("planning failed: {e}"))?;
            Ok(PlannedCampaign {
                sites: plan.sites,
                assumed_masked: plan.assumed_masked_weight,
                predicted_crash: plan.predicted_crash_weight,
                predicted_detected: plan.predicted_detected_weight,
                stages: Some(plan.stages),
            })
        }
        CampaignMode::Sampled { samples } => {
            let space = experiment.site_space(0..workload.launch().num_threads());
            Ok(PlannedCampaign::unpruned(sample_sites(
                &space, samples, spec.seed,
            )))
        }
        // Protect jobs run two campaigns against two programs; both
        // callers branch to their protect paths before planning sites.
        CampaignMode::Protect { .. } => unreachable!("protect jobs never reach plan_sites"),
    }
}

/// Builds the early-stop prefix tracker for a planned campaign.
fn new_stopper(stop: StopSpec, planned: &PlannedCampaign) -> EarlyStop {
    EarlyStop::new(
        StopRule::new(stop.confidence, stop.margin),
        planned.sites.iter().map(|ws| ws.weight).collect(),
        planned.certain(),
    )
}

fn persist(jobs_dir: &std::path::Path, record: &JobRecord) {
    let path = jobs_dir.join(format!("{}.json", record.id));
    let tmp = jobs_dir.join(format!("{}.json.tmp", record.id));
    let write = || -> std::io::Result<()> {
        std::fs::write(&tmp, record.to_json().to_string())?;
        std::fs::rename(&tmp, &path)
    };
    if let Err(e) = write() {
        eprintln!("fsp-serve: persisting {} failed: {e}", record.id);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut queue = shared.queue.lock().expect("engine poisoned");
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = shared.queue_cv.wait(queue).expect("engine poisoned");
            }
        };
        run_job(shared, &id);
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// Why a job's campaign ended without a result.
enum RunEnd {
    /// Stopped by engine shutdown: stays `running` on disk, resumes on
    /// the next open.
    Interrupted,
    Cancelled,
    Failed(String),
}

fn run_job(shared: &Shared, id: &str) {
    let (spec, fleet) = {
        let mut jobs = shared.jobs.lock().expect("engine poisoned");
        let Some(record) = jobs.get_mut(id) else {
            return;
        };
        // A queued job can have been cancelled before a worker claimed it.
        if record.state != JobState::Queued {
            return;
        }
        record.state = JobState::Running;
        persist(&shared.jobs_dir, record);
        (record.spec.clone(), record.fleet)
    };
    let cancel = Arc::new(AtomicBool::new(false));
    shared
        .cancel_flags
        .lock()
        .expect("engine poisoned")
        .insert(id.to_owned(), Arc::clone(&cancel));
    let end = {
        let _job = fsp_obs::span_labeled("serve.job", format!("{id} {}", spec.kernel));
        let job = Job {
            shared,
            id,
            cancel: &cancel,
            fleet,
        };
        execute(job, &spec)
    };
    shared
        .cancel_flags
        .lock()
        .expect("engine poisoned")
        .remove(id);
    let mut jobs = shared.jobs.lock().expect("engine poisoned");
    let Some(record) = jobs.get_mut(id) else {
        return;
    };
    match end {
        Ok(result) => {
            record.state = JobState::Completed;
            // An early-stopped campaign legitimately finishes with
            // unresolved tail sites; keep its true progress count.
            if !result.early.is_some_and(|e| e.stopped) {
                record.done = record.total;
            }
            record.partial = result.profile;
            record.result = Some(result);
            shared.metrics.jobs_completed.inc();
            shared.metrics.jobs_completed_by_mode[mode_index(spec.mode.mode_name())].inc();
        }
        Err(RunEnd::Interrupted) => return, // stays `running` on disk
        Err(RunEnd::Cancelled) => {
            record.state = JobState::Cancelled;
            shared.metrics.jobs_cancelled.inc();
        }
        Err(RunEnd::Failed(error)) => {
            record.state = JobState::Failed;
            record.error = Some(error);
            shared.metrics.jobs_failed.inc();
        }
    }
    persist(&shared.jobs_dir, record);
    shared.jobs_settled.notify_all();
}

/// Runs a served job. The kernel's prepared run comes from the
/// process-wide [`fsp_workloads::experiments`] cache, which the engine
/// holds until shutdown, so only its first job of a kernel (or a fleet
/// worker loop sharing the process) pays for the golden run.
fn execute(job: Job<'_>, spec: &JobSpec) -> Result<JobResult, RunEnd> {
    let prepared = fsp_workloads::prepared(&spec.kernel).map_err(RunEnd::Failed)?;
    let workload = prepared.target();
    let experiment = prepared.experiment();
    let runner = Runner {
        spec,
        workers: job.shared.campaign_workers,
        job: Some(job),
    };
    runner.run(workload, &experiment)
}

/// The served job a campaign reports to: its injected outcomes go to the
/// store, its progress to the job record.
struct Job<'a> {
    shared: &'a Shared,
    id: &'a str,
    cancel: &'a AtomicBool,
    /// Run store misses on the worker fleet instead of in-process.
    fleet: bool,
}

impl Job<'_> {
    fn update(&self, f: impl FnOnce(&mut JobRecord)) {
        let mut jobs = self.shared.jobs.lock().expect("engine poisoned");
        if let Some(record) = jobs.get_mut(self.id) {
            f(record);
        }
    }

    /// Resets the job's progress counters for a (re)run. Resumed jobs
    /// reload stale `done`/`partial` values from disk; the store lookups
    /// of the campaigns that follow re-derive them.
    fn reset_progress(&self, total: usize, settled: [f64; 3]) {
        self.update(|record| {
            record.total = total;
            record.done = 0;
            record.cache_hits = 0;
            record.partial = ResilienceProfile::new();
            record.outcome_counts = [0; 5];
            record.sum_w2 = 0.0;
            record.settled = settled;
            persist(&self.shared.jobs_dir, record);
        });
    }

    /// Runs a campaign's misses on the worker fleet: publishes them as
    /// batch-aligned chunk leases, then hands every delivered chunk to
    /// `accounting` until all are in or it asks to stop, when the job's
    /// remaining leases are retracted (workers still holding one see
    /// their submission answered as stale). Delivered chunks are already
    /// durable: [`Engine::fleet_submit_outcomes`] persists a frame before
    /// it marks the lease done.
    ///
    /// Returns the outcome vector, the sites delivered, and whether the
    /// campaign stopped before every chunk came in.
    fn run_on_fleet(
        &self,
        spec: &JobSpec,
        threads_per_cta: u32,
        mut outcomes: Vec<Option<Outcome>>,
        accounting: &Accounting<'_>,
    ) -> (Vec<Option<Outcome>>, usize, bool) {
        let sites = accounting.sites;
        // A sampled plan may repeat a site; every index takes its outcome
        // from its own chunk's map, so repeats are harmless.
        let miss: Vec<usize> = (0..sites.len())
            .filter(|&i| outcomes[i].is_none())
            .collect();
        let chunk_len = self.shared.leases.config().chunk_sites.max(1);
        let chunks = batch_aligned_chunks(sites, miss, chunk_len, threads_per_cta);
        let mut unpublished = Some(
            chunks
                .iter()
                .enumerate()
                .map(|(chunk_idx, indices)| {
                    let key = accounting.keys[indices[0]];
                    ChunkSpec {
                        job: self.id.to_owned(),
                        chunk_idx,
                        kernel: spec.kernel.clone(),
                        model: spec.model,
                        fingerprint: key.fingerprint,
                        launch: key.launch,
                        sites: indices.iter().map(|&i| sites[i].site).collect(),
                    }
                })
                .collect::<Vec<_>>(),
        );
        let mut remaining = chunks.len();
        let mut delivered_sites = 0;
        while remaining > 0 {
            if accounting.should_cancel() {
                self.shared.leases.retract_job(self.id);
                return (outcomes, delivered_sites, true);
            }
            if let Some(specs) = unpublished.take() {
                self.shared.leases.publish(specs);
            }
            let delivered = self.shared.leases.take_completed(self.id);
            if delivered.is_empty() {
                self.shared.leases.wait_progress(Duration::from_millis(200));
                continue;
            }
            for (chunk_idx, map) in delivered {
                let indices = &chunks[chunk_idx];
                let chunk: Vec<Outcome> = indices
                    .iter()
                    .map(|&i| {
                        *map.get(&sites[i].site)
                            .expect("lease completion covers every chunk site")
                    })
                    .collect();
                for (&i, &o) in indices.iter().zip(&chunk) {
                    outcomes[i] = Some(o);
                }
                accounting.on_chunk(indices, &chunk);
                delivered_sites += indices.len();
                remaining -= 1;
            }
            self.shared.leases.prune_delivered(self.id);
        }
        (outcomes, delivered_sites, false)
    }
}

/// The one campaign driver behind [`run_local`], served in-process jobs,
/// fleet jobs and both campaigns of a protect job. It resolves known
/// outcomes from the store, runs the misses, accounts every outcome
/// through one [`Accounting`] observer and scores the result. The only
/// per-placement difference is how the misses run:
/// [`Experiment::run_campaign_incremental`] on `workers` threads, or
/// [`Job::run_on_fleet`] for a fleet job. With no `job` (`run_local`)
/// there is no store and no record: every site is a miss run in-process.
struct Runner<'a> {
    spec: &'a JobSpec,
    workers: usize,
    job: Option<Job<'a>>,
}

impl Runner<'_> {
    /// Runs the spec: a protect job through [`Runner::run_protect`], any
    /// other through [`Runner::run_planned`].
    fn run(
        &self,
        workload: &fsp_workloads::Workload,
        experiment: &Experiment<'_, fsp_workloads::Workload>,
    ) -> Result<JobResult, RunEnd> {
        match self.spec.mode {
            CampaignMode::Protect {
                budget_millis,
                scope,
                samples,
            } => self.run_protect(workload, experiment, budget_millis, scope, samples),
            _ => self.run_planned(workload, experiment),
        }
    }

    /// Plans a sampled or pruned spec and runs its campaign.
    fn run_planned(
        &self,
        workload: &fsp_workloads::Workload,
        experiment: &Experiment<'_, fsp_workloads::Workload>,
    ) -> Result<JobResult, RunEnd> {
        let planned = plan_sites(self.spec, workload, experiment).map_err(RunEnd::Failed)?;
        if let Some(job) = &self.job {
            if let Some(stages) = &planned.stages {
                job.shared.metrics.record_plan(
                    stages,
                    planned.predicted_crash,
                    planned.predicted_detected,
                );
            }
            job.reset_progress(planned.sites.len(), planned.settled3());
        }
        let fingerprint = workload.fingerprint();
        let launch = keyed_launch_hash(workload);
        let scored = self.campaign(experiment, &planned, fingerprint, launch)?;
        Ok(JobResult {
            fingerprint,
            launch,
            sites: planned.sites.len(),
            profile: scored.profile,
            early: scored.early,
        })
    }

    /// A protect job, served or local: the steps of
    /// [`fsp_protect::harden_and_verify`] (same seed, same sample count,
    /// no ACE scaling) with both campaigns run by [`Runner::campaign`].
    /// Served, the baseline campaign shares cache entries
    /// with plain sampled jobs of the same kernel, and the re-injection
    /// campaign keys its outcomes under the *hardened* program's
    /// fingerprint, so resubmitting the same protect spec is a pure warm
    /// read.
    fn run_protect(
        &self,
        workload: &fsp_workloads::Workload,
        experiment: &Experiment<'_, fsp_workloads::Workload>,
        budget_millis: u32,
        scope: ProtectScope,
        samples: usize,
    ) -> Result<JobResult, RunEnd> {
        let launch = workload.launch();
        let space = experiment.site_space(0..launch.num_threads());
        if space.total_sites() == 0 {
            return Err(RunEnd::Failed("kernel has no fault sites".to_owned()));
        }
        let baseline = PlannedCampaign::unpruned(sample_sites(&space, samples, self.spec.seed));
        let launch_hash = keyed_launch_hash(workload);
        // Two campaigns of equal site count: baseline, then re-injection.
        if let Some(job) = &self.job {
            job.reset_progress(baseline.sites.len() * 2, [0.0; 3]);
        }
        let baseline_outcomes = self
            .campaign(experiment, &baseline, workload.fingerprint(), launch_hash)?
            .outcomes;

        // Plan and transform. Planning is deterministic in (spec, store
        // outcomes), so a resumed or resubmitted job re-derives the same
        // hardened program and hits the same store keys.
        let program = launch.program();
        let plan = plan_protection(
            &PlanInputs {
                program,
                space: &space,
                sites: &baseline.sites,
                outcomes: &baseline_outcomes,
                ace: None,
                classify: None,
            },
            scope,
            f64::from(budget_millis) / 1000.0,
        );
        let hardened = harden(program, &plan.selected_pcs)
            .map_err(|e| RunEnd::Failed(format!("hardening failed: {e}")))?;
        let protected_target = ProtectedTarget::new(workload, hardened.program.clone());
        let protected_exp = Experiment::prepare(&protected_target)
            .map_err(|e| RunEnd::Failed(format!("hardened golden run failed: {e}")))?;
        if protected_exp.golden() != experiment.golden() {
            return Err(RunEnd::Failed(
                "hardened kernel broke output transparency".to_owned(),
            ));
        }
        let tids: BTreeSet<u32> = baseline.sites.iter().map(|ws| ws.site.tid).collect();
        let protected_space = protected_exp.site_space(tids);
        let verify = PlannedCampaign::unpruned(remap_sites(
            &hardened,
            &space,
            &protected_space,
            &baseline.sites,
        ));
        let fingerprint = program_fingerprint(&hardened.program);
        let scored = self.campaign(&protected_exp, &verify, fingerprint, launch_hash)?;
        Ok(JobResult {
            fingerprint,
            launch: launch_hash,
            sites: baseline.sites.len(),
            profile: scored.profile,
            early: None,
        })
    }

    /// Runs one campaign: resolves store hits under `fingerprint` and
    /// `launch`, runs only the misses and scores the outcome vector.
    /// Progress is *added* to the job record, so a job can chain
    /// campaigns.
    ///
    /// `Err` carries the terminal [`RunEnd`] when the job was stopped.
    fn campaign<T: InjectionTarget>(
        &self,
        experiment: &Experiment<'_, T>,
        planned: &PlannedCampaign,
        fingerprint: u64,
        launch: u64,
    ) -> Result<Scored, RunEnd> {
        let job = self.job.as_ref();
        let _campaign = job.map(|job| {
            let name = if job.fleet {
                "serve.fleet_campaign"
            } else {
                "serve.campaign"
            };
            fsp_obs::span_labeled(name, job.id.to_owned())
        });
        let sites = &planned.sites;
        let keys: Vec<OutcomeKey> = sites
            .iter()
            .map(|ws| OutcomeKey::new(fingerprint, launch, self.spec.model, ws.site))
            .collect();
        // Anything this service ever injected under these keys is a hit;
        // only the misses run.
        let resolved: Vec<Option<Outcome>> = match job {
            Some(job) => {
                let store = job.shared.store.lock().expect("engine poisoned");
                keys.iter().map(|k| store.get(k)).collect()
            }
            None => vec![None; sites.len()],
        };
        let accounting = Accounting {
            job,
            sites,
            keys: &keys,
            stopper: self
                .spec
                .stop
                .map(|stop| Mutex::new(new_stopper(stop, planned))),
        };
        let (hit_indices, hits): (Vec<usize>, Vec<Outcome>) = resolved
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|o| (i, o)))
            .unzip();
        accounting.record(&hit_indices, &hits);
        if let Some(job) = job {
            job.update(|record| record.cache_hits += hits.len());
        }

        let started = Instant::now();
        let (outcomes, injected, cancelled) = match job {
            Some(job) if job.fleet => job.run_on_fleet(
                self.spec,
                experiment.target().launch().threads_per_cta(),
                resolved,
                &accounting,
            ),
            _ => {
                let run = experiment.run_campaign_incremental(
                    sites,
                    self.spec.model,
                    self.workers,
                    &resolved,
                    &accounting,
                );
                if let Some(job) = job {
                    job.shared.metrics.record_fast_path(
                        run.checkpoint_hits,
                        run.skipped_instructions,
                        run.early_converged,
                    );
                }
                (run.outcomes, run.injected, run.cancelled)
            }
        };
        if let Some(job) = job {
            job.shared.metrics.record_campaign(
                mode_index(self.spec.mode.mode_name()),
                hits.len() as u64,
                injected as u64,
                started.elapsed().as_nanos() as u64,
            );
            if cancelled && job.shared.shutdown.load(Ordering::Relaxed) {
                return Err(RunEnd::Interrupted);
            }
            if cancelled && job.cancel.load(Ordering::Relaxed) {
                return Err(RunEnd::Cancelled);
            }
        }
        // Any other cancellation came from the early-stop rule: the
        // contiguous resolved prefix is complete, which is all `score`
        // reads.
        Ok(accounting.score(self.spec.stop, planned, &outcomes))
    }
}

/// A scored campaign: the outcomes of its scored prefix in plan order,
/// their profile with the static weight settled, and the early-stop
/// report when a rule was armed.
struct Scored {
    outcomes: Vec<Outcome>,
    profile: ResilienceProfile,
    early: Option<EarlyStopReport>,
}

/// Records every resolved outcome of one campaign — store hit, in-process
/// chunk or fleet delivery — on the job record (`done`, `partial`,
/// `outcome_counts`, `sum_w2`, `fsp_job_outcome_total`) and on the
/// early-stop tracker, and tells whichever runs the misses when to stop.
struct Accounting<'a> {
    job: Option<&'a Job<'a>>,
    sites: &'a [WeightedSite],
    keys: &'a [OutcomeKey],
    stopper: Option<Mutex<EarlyStop>>,
}

impl Accounting<'_> {
    fn record(&self, indices: &[usize], outcomes: &[Outcome]) {
        if let Some(job) = self.job {
            job.update(|record| {
                for (&i, &o) in indices.iter().zip(outcomes) {
                    let weight = self.sites[i].weight;
                    record.done += 1;
                    record.partial.record_weighted(o, weight);
                    record.outcome_counts[o.code() as usize] += 1;
                    record.sum_w2 += weight * weight;
                    job.shared.metrics.job_outcome_total[o.code() as usize].inc();
                }
            });
        }
        if let Some(stopper) = &self.stopper {
            let mut tracker = stopper.lock().expect("stop tracker poisoned");
            for (&i, &o) in indices.iter().zip(outcomes) {
                tracker.resolve(i, o);
            }
        }
    }

    /// Cuts the scored prefix — the contiguous stopped prefix in plan
    /// order when the rule fired, else the whole plan — and scores it in
    /// site order, so cold, warm, resumed and fleet runs agree bit for
    /// bit. Settles the static weight and reports the stop.
    ///
    /// Cancellation is best-effort, so workers may overshoot the stopped
    /// prefix: an early-stop-armed job's record is re-baselined to the
    /// scored prefix, so its progress document agrees with its result.
    fn score(
        self,
        stop: Option<StopSpec>,
        planned: &PlannedCampaign,
        outcomes: &[Option<Outcome>],
    ) -> Scored {
        let stopped_at = self
            .stopper
            .and_then(|s| s.into_inner().expect("stop tracker poisoned").stop_len());
        let used = stopped_at.unwrap_or(planned.sites.len());
        let sites = &planned.sites[..used];
        let prefix: Vec<Outcome> = outcomes[..used]
            .iter()
            .map(|o| o.expect("contiguous resolved prefix"))
            .collect();
        let mut profile = ResilienceProfile::new();
        for (ws, o) in sites.iter().zip(&prefix) {
            profile.record_weighted(*o, ws.weight);
        }
        planned.settle(&mut profile);
        let early = stop.map(|stop| {
            let mut est = StreamEstimator::with_certain(planned.certain());
            for (ws, o) in sites.iter().zip(&prefix) {
                est.record_weighted(*o, ws.weight);
            }
            if let Some(job) = self.job {
                job.update(|record| {
                    record.outcome_counts = est.counts();
                    record.sum_w2 = est.sum_w2();
                    if stopped_at.is_some() {
                        record.done = used;
                        record.cache_hits = record.cache_hits.min(used);
                    }
                });
            }
            EarlyStopReport {
                stopped: stopped_at.is_some(),
                sites_injected: used,
                achieved_margin: est.achieved_margin(stop.confidence),
            }
        });
        Scored {
            outcomes: prefix,
            profile,
            early,
        }
    }
}

impl CampaignObserver for Accounting<'_> {
    fn on_chunk(&self, indices: &[usize], outcomes: &[Outcome]) {
        // Durability first. In-process chunks are fresh injections (hits
        // are never re-reported); fleet chunks were persisted on delivery.
        if let Some(job) = self.job.filter(|job| !job.fleet) {
            job.shared.persist_outcomes(
                indices
                    .iter()
                    .zip(outcomes)
                    .map(|(&i, &o)| (self.keys[i], o)),
            );
        }
        self.record(indices, outcomes);
    }

    fn should_cancel(&self) -> bool {
        self.job.is_some_and(|job| {
            job.shared.shutdown.load(Ordering::Relaxed) || job.cancel.load(Ordering::Relaxed)
        }) || self
            .stopper
            .as_ref()
            .is_some_and(|s| s.lock().expect("stop tracker poisoned").should_stop())
    }
}

/// Shards miss indices into lease chunks aligned to batch groups. The
/// worker's batched fast path co-schedules sites that share a CTA onto
/// one golden replay, so a lease boundary that split a CTA group would
/// strand its lanes in thinner batches across two workers. Misses are
/// sorted by (CTA, dynamic index) — sites sharing a resume checkpoint
/// end up adjacent — and a chunk only closes at a CTA boundary once it
/// has reached `chunk_len` (with a 2x hard cap so one huge CTA can't
/// produce an unbounded lease). Outcomes are assembled by plan index,
/// so reordering the misses is invisible to the final profile.
fn batch_aligned_chunks(
    sites: &[WeightedSite],
    mut miss: Vec<usize>,
    chunk_len: usize,
    threads_per_cta: u32,
) -> Vec<Vec<usize>> {
    let tpc = threads_per_cta.max(1);
    miss.sort_by_key(|&i| {
        let s = sites[i].site;
        (s.tid / tpc, s.dyn_idx, s.tid, s.bit)
    });
    let mut chunks: Vec<Vec<usize>> = Vec::new();
    for &i in &miss {
        let cta = sites[i].site.tid / tpc;
        match chunks.last_mut() {
            Some(chunk)
                if chunk.len() < chunk_len * 2
                    && (chunk.len() < chunk_len
                        || sites[*chunk.last().expect("chunk non-empty")].site.tid / tpc
                            == cta) =>
            {
                chunk.push(i);
            }
            _ => chunks.push(vec![i]),
        }
    }
    chunks
}

fn error_json(message: &str) -> Json {
    Json::obj([("error", Json::Str(message.to_owned()))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_inject::FaultSite;

    fn site(tid: u32, dyn_idx: u32) -> WeightedSite {
        WeightedSite::from(FaultSite {
            tid,
            dyn_idx,
            bit: 0,
        })
    }

    /// Chunks cover every miss exactly once, never mix CTAs before
    /// reaching the target length, and respect the 2x hard cap.
    #[test]
    fn chunk_formation_aligns_to_cta_groups() {
        let tpc = 4;
        // CTA 0: 3 sites; CTA 1: 11 sites (forces a within-CTA split at
        // the 2x cap); CTA 2: 1 site.
        let sites: Vec<WeightedSite> = (0..3)
            .map(|i| site(i % tpc, i))
            .chain((0..11).map(|i| site(4 + i % tpc, i)))
            .chain([site(9, 0)])
            .collect();
        let miss: Vec<usize> = (0..sites.len()).collect();
        let chunks = batch_aligned_chunks(&sites, miss, 4, tpc);
        let mut seen: Vec<usize> = chunks.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..sites.len()).collect::<Vec<_>>());
        for chunk in &chunks {
            assert!(chunk.len() <= 8, "2x cap violated: {}", chunk.len());
            let ctas: std::collections::BTreeSet<u32> =
                chunk.iter().map(|&i| sites[i].site.tid / tpc).collect();
            // A chunk may only span CTAs past the target length — and
            // then only because the previous CTA's tail filled it.
            if chunk.len() <= 4 {
                assert!(ctas.len() <= 2, "short chunk spans {} CTAs", ctas.len());
            }
        }
        // All three CTAs are covered, and the chunk sequence never
        // returns to a CTA it has moved past (group contiguity).
        let cta_seq: Vec<u32> = chunks
            .iter()
            .flatten()
            .map(|&i| sites[i].site.tid / tpc)
            .collect();
        let mut deduped = cta_seq.clone();
        deduped.dedup();
        assert_eq!(deduped, vec![0, 1, 2], "CTA groups torn: {cta_seq:?}");
    }
}
