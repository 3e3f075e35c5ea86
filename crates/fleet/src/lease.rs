//! The coordinator's lease table: chunked campaign plans leased to
//! workers under deadlines, with automatic requeue (work stealing).
//!
//! The table is deliberately in-memory only. Durability lives one layer
//! down in the outcome store: every accepted outcome frame is persisted
//! before the lease is marked done, so a coordinator crash loses only
//! lease bookkeeping — on reopen the job replans, resolves persisted
//! outcomes as cache hits and republishes the remainder.
//!
//! Lifecycle of a chunk:
//!
//! ```text
//! publish → Available → acquire → Leased(worker, deadline) → complete → Done
//!                ^                       |
//!                +—— deadline expired ———+   (lazy requeue inside acquire)
//! ```
//!
//! An acquirer may wait for work: [`LeaseTable::acquire_wait`] blocks on
//! the table's condvar until a chunk is published or a leased chunk's
//! deadline passes (it is then stolen), the wait ends, or the table is
//! [closed](LeaseTable::close).
//!
//! Completion is accepted from *any* worker holding the chunk's outcomes —
//! including a worker whose lease has already expired and been re-leased
//! to someone else. The simulator is deterministic, so rival submissions
//! carry identical outcomes and whichever lands first wins; the loser is
//! counted as a duplicate and dropped without effect.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use fsp_inject::{FaultModel, FaultSite};
use fsp_stats::Outcome;

use crate::json::Json;
use crate::wire::SiteFrame;

/// Tuning knobs for the coordinator's lease layer.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// How long a lease lives without a heartbeat before it may be stolen.
    pub lease_ttl: Duration,
    /// Fault sites per chunk (the work-stealing granularity).
    pub chunk_sites: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            lease_ttl: Duration::from_secs(30),
            chunk_sites: 64,
        }
    }
}

/// One chunk of a campaign plan, submitted to the table by the engine.
#[derive(Debug, Clone)]
pub struct ChunkSpec {
    /// Owning job id.
    pub job: String,
    /// Position of this chunk within the job's plan.
    pub chunk_idx: usize,
    /// Kernel id (workers re-derive the experiment from it).
    pub kernel: String,
    /// Fault model of the campaign.
    pub model: FaultModel,
    /// Kernel program fingerprint, echoed into every outcome record.
    pub fingerprint: u64,
    /// Keyed launch hash, echoed into every outcome record.
    pub launch: u64,
    /// The chunk's fault sites, in plan order.
    pub sites: Vec<FaultSite>,
}

/// A granted lease, as handed to a worker.
#[derive(Debug, Clone)]
pub struct Grant {
    /// Lease id (`lease-<n>`), the handle for heartbeat and submission.
    pub lease: String,
    /// Kernel id to execute.
    pub kernel: String,
    /// Fault model to inject.
    pub model: FaultModel,
    /// Expected kernel fingerprint (worker-side binary-skew check).
    pub fingerprint: u64,
    /// Keyed launch hash to copy into outcome records (opaque to workers).
    pub launch: u64,
    /// Time until the lease may be stolen unless renewed.
    pub ttl: Duration,
    /// Whether the coordinator is tracing: the worker should enable its
    /// own tracer and ship a span frame with the outcomes.
    pub trace: bool,
    /// Coordinator-clock nanoseconds at grant time. Workers echo it in
    /// their trace frame; the coordinator rebases worker-relative span
    /// times onto its own timeline with it, so no cross-process clock
    /// state is kept between requests.
    pub grant_ns: u64,
    /// The sites to inject.
    pub sites: Vec<FaultSite>,
}

impl Grant {
    /// Encodes the grant as a `POST /leases` response body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("lease".to_owned(), Json::Str(self.lease.clone())),
            ("kernel".to_owned(), Json::Str(self.kernel.clone())),
            ("model".to_owned(), Json::Str(self.model.name().to_owned())),
            (
                "fingerprint".to_owned(),
                Json::Str(self.fingerprint.to_string()),
            ),
            ("launch".to_owned(), Json::Str(self.launch.to_string())),
            (
                "ttl_ms".to_owned(),
                Json::Num(u64::try_from(self.ttl.as_millis()).unwrap_or(u64::MAX) as f64),
            ),
            ("trace".to_owned(), Json::Bool(self.trace)),
            ("grant_ns".to_owned(), Json::u64(self.grant_ns)),
        ];
        fields.extend(
            SiteFrame {
                sites: self.sites.clone(),
            }
            .to_fields(),
        );
        Json::Obj(fields)
    }

    /// Decodes a grant from a `POST /leases` response body.
    ///
    /// # Errors
    ///
    /// Returns a message on missing fields, an unknown model name or a
    /// corrupt site frame.
    pub fn from_json(value: &Json) -> Result<Grant, String> {
        let text = |field: &str| {
            value
                .get(field)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("grant missing `{field}`"))
        };
        let model = FaultModel::from_name(text("model")?)
            .ok_or_else(|| "grant carries unknown fault model".to_owned())?;
        let frame = SiteFrame::from_json(value)?;
        Ok(Grant {
            lease: text("lease")?.to_owned(),
            kernel: text("kernel")?.to_owned(),
            model,
            fingerprint: value
                .get("fingerprint")
                .and_then(Json::as_u64)
                .ok_or("grant missing `fingerprint`")?,
            launch: value
                .get("launch")
                .and_then(Json::as_u64)
                .ok_or("grant missing `launch`")?,
            ttl: Duration::from_millis(
                value
                    .get("ttl_ms")
                    .and_then(Json::as_u64)
                    .ok_or("grant missing `ttl_ms`")?,
            ),
            // Optional for wire compatibility with pre-tracing grants.
            trace: value.get("trace").and_then(Json::as_bool).unwrap_or(false),
            grant_ns: value.get("grant_ns").and_then(Json::as_u64).unwrap_or(0),
            sites: frame.sites,
        })
    }
}

/// The validation envelope of a lease: every record a worker submits for
/// it must carry exactly these key fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseMeta {
    /// Owning job id.
    pub job: String,
    /// Expected kernel fingerprint.
    pub fingerprint: u64,
    /// Expected keyed launch hash.
    pub launch: u64,
    /// Expected fault model.
    pub model: FaultModel,
}

/// Outcome of a lease acquisition attempt.
#[derive(Debug, Clone)]
pub struct Acquired {
    /// The granted lease, if any chunk was available.
    pub grant: Option<Grant>,
    /// Chunks still outstanding (available + leased) after this grant —
    /// lets an idle worker distinguish "drained" from "all leased out".
    pub pending: usize,
}

/// Why a heartbeat was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatError {
    /// No such lease (completed and collected, retracted, or never issued).
    Unknown,
    /// The lease expired and was re-leased to another worker.
    NotHolder,
}

/// Disposition of an outcome submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// First complete delivery; the chunk is now done.
    Accepted,
    /// The chunk was already done (at-least-once delivery collapsing).
    Duplicate,
    /// No such lease.
    Unknown,
    /// The frame does not cover every site of the lease.
    Incomplete,
}

#[derive(Debug)]
enum ChunkState {
    Available,
    Leased { worker: String, deadline: Instant },
    Done { delivered: bool },
}

#[derive(Debug)]
struct Chunk {
    spec: ChunkSpec,
    state: ChunkState,
    outcomes: BTreeMap<FaultSite, Outcome>,
}

/// Per-worker counters, surfaced through `/metrics` and `GET /fleet`.
#[derive(Debug, Default, Clone)]
pub struct WorkerStats {
    /// Leases granted to this worker.
    pub leases: u64,
    /// Heartbeat renewals received.
    pub heartbeats: u64,
    /// Chunks this worker delivered first.
    pub chunks: u64,
    /// Sites in those chunks (the throughput counter).
    pub sites: u64,
}

#[derive(Debug, Default)]
struct Inner {
    chunks: BTreeMap<u64, Chunk>,
    next_id: u64,
    workers: BTreeMap<String, WorkerStats>,
    requeues: u64,
    duplicates: u64,
    /// Set by [`LeaseTable::close`]: no further grants, no waiting.
    closed: bool,
}

impl Inner {
    /// Chunks not yet done (available or leased).
    fn pending(&self) -> usize {
        self.chunks
            .values()
            .filter(|c| !matches!(c.state, ChunkState::Done { .. }))
            .count()
    }

    /// The earliest deadline among leased chunks: when the next expired
    /// lease becomes stealable.
    fn next_deadline(&self) -> Option<Instant> {
        self.chunks
            .values()
            .filter_map(|c| match c.state {
                ChunkState::Leased { deadline, .. } => Some(deadline),
                _ => None,
            })
            .min()
    }
}

/// The lease table. One per engine; shared by the HTTP layer and the
/// per-job supervisors.
#[derive(Debug)]
pub struct LeaseTable {
    config: FleetConfig,
    inner: Mutex<Inner>,
    progress: Condvar,
}

fn parse_lease_id(lease: &str) -> Option<u64> {
    lease.strip_prefix("lease-")?.parse().ok()
}

impl LeaseTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        LeaseTable {
            config,
            inner: Mutex::new(Inner::default()),
            progress: Condvar::new(),
        }
    }

    /// The table's tuning knobs.
    #[must_use]
    pub fn config(&self) -> FleetConfig {
        self.config
    }

    /// Publishes chunks, making them available to any worker.
    pub fn publish(&self, specs: Vec<ChunkSpec>) {
        let mut inner = self.inner.lock().expect("lease table poisoned");
        for spec in specs {
            let id = inner.next_id;
            inner.next_id += 1;
            inner.chunks.insert(
                id,
                Chunk {
                    spec,
                    state: ChunkState::Available,
                    outcomes: BTreeMap::new(),
                },
            );
        }
        drop(inner);
        self.progress.notify_all();
    }

    /// Removes every chunk of a job (cancellation / shutdown). Returns how
    /// many chunks were dropped.
    pub fn retract_job(&self, job: &str) -> usize {
        let mut inner = self.inner.lock().expect("lease table poisoned");
        let before = inner.chunks.len();
        inner.chunks.retain(|_, c| c.spec.job != job);
        before - inner.chunks.len()
    }

    /// Requeues leases whose deadline has passed. Internal; called with the
    /// lock held from `acquire_wait`.
    fn requeue_expired(inner: &mut Inner, now: Instant) {
        for chunk in inner.chunks.values_mut() {
            if let ChunkState::Leased { deadline, .. } = &chunk.state {
                if *deadline <= now {
                    chunk.state = ChunkState::Available;
                    inner.requeues += 1;
                }
            }
        }
    }

    /// Grants the lowest-numbered available chunk to `worker`, requeuing
    /// expired leases first (this is where work stealing happens). Never
    /// blocks: [`LeaseTable::acquire_wait`] with no wait.
    pub fn acquire(&self, worker: &str) -> Acquired {
        self.acquire_wait(worker, Duration::ZERO)
    }

    /// Grants a chunk to `worker` as soon as one is available, waiting up
    /// to `wait` for one to be published or for a leased chunk's deadline
    /// to pass (it is then stolen at its expiry). Returns at once, without
    /// a grant, once the table is closed. An empty result carries the
    /// count of chunks still pending.
    ///
    /// The availability check and the start of each wait happen under one
    /// lock, so a publish between them cannot be missed.
    pub fn acquire_wait(&self, worker: &str, wait: Duration) -> Acquired {
        let end = Instant::now() + wait;
        let mut inner = self.inner.lock().expect("lease table poisoned");
        loop {
            let now = Instant::now();
            let grant = if inner.closed {
                None
            } else {
                self.grant(&mut inner, worker, now)
            };
            if grant.is_some() || inner.closed || now >= end {
                let pending = inner.pending();
                return Acquired { grant, pending };
            }
            let wake = inner.next_deadline().map_or(end, |d| d.min(end));
            inner = self
                .progress
                .wait_timeout(inner, wake.saturating_duration_since(now))
                .expect("lease table poisoned")
                .0;
        }
    }

    /// Leases the lowest-numbered available chunk to `worker` after
    /// requeuing expired leases, if there is one. Called with the lock held.
    fn grant(&self, inner: &mut Inner, worker: &str, now: Instant) -> Option<Grant> {
        Self::requeue_expired(inner, now);
        let ttl = self.config.lease_ttl;
        let (id, chunk) = inner
            .chunks
            .iter_mut()
            .find(|(_, c)| matches!(c.state, ChunkState::Available))?;
        chunk.state = ChunkState::Leased {
            worker: worker.to_owned(),
            deadline: now + ttl,
        };
        let grant = Grant {
            lease: format!("lease-{id}"),
            kernel: chunk.spec.kernel.clone(),
            model: chunk.spec.model,
            fingerprint: chunk.spec.fingerprint,
            launch: chunk.spec.launch,
            ttl,
            trace: fsp_obs::tracing_enabled(),
            grant_ns: fsp_obs::now_ns(),
            sites: chunk.spec.sites.clone(),
        };
        inner.workers.entry(worker.to_owned()).or_default().leases += 1;
        Some(grant)
    }

    /// Closes the table (engine shutdown): wakes every blocked
    /// [`LeaseTable::acquire_wait`], which returns without a grant, and
    /// refuses grants from then on.
    pub fn close(&self) {
        self.inner.lock().expect("lease table poisoned").closed = true;
        self.progress.notify_all();
    }

    /// Renews a lease's deadline. A lease past its deadline but not yet
    /// stolen renews successfully (the work is still exclusively held).
    ///
    /// # Errors
    ///
    /// [`HeartbeatError::Unknown`] if the lease no longer exists,
    /// [`HeartbeatError::NotHolder`] if it was stolen by another worker —
    /// the renewing worker should abandon the chunk.
    pub fn heartbeat(&self, lease: &str, worker: &str) -> Result<Duration, HeartbeatError> {
        let mut inner = self.inner.lock().expect("lease table poisoned");
        let id = parse_lease_id(lease).ok_or(HeartbeatError::Unknown)?;
        let ttl = self.config.lease_ttl;
        let chunk = inner.chunks.get_mut(&id).ok_or(HeartbeatError::Unknown)?;
        match &mut chunk.state {
            ChunkState::Leased {
                worker: holder,
                deadline,
            } if holder == worker => {
                *deadline = Instant::now() + ttl;
                inner
                    .workers
                    .entry(worker.to_owned())
                    .or_default()
                    .heartbeats += 1;
                Ok(ttl)
            }
            ChunkState::Leased { .. } => Err(HeartbeatError::NotHolder),
            // Expired and requeued but not re-leased: let the original
            // holder take it back rather than redo the work.
            ChunkState::Available => {
                chunk.state = ChunkState::Leased {
                    worker: worker.to_owned(),
                    deadline: Instant::now() + ttl,
                };
                inner
                    .workers
                    .entry(worker.to_owned())
                    .or_default()
                    .heartbeats += 1;
                Ok(ttl)
            }
            ChunkState::Done { .. } => Err(HeartbeatError::Unknown),
        }
    }

    /// The key fields a submission for `lease` must match, or `None` if
    /// the lease no longer exists. Coordinators validate frames against
    /// this before persisting anything.
    #[must_use]
    pub fn meta(&self, lease: &str) -> Option<LeaseMeta> {
        let inner = self.inner.lock().expect("lease table poisoned");
        let chunk = inner.chunks.get(&parse_lease_id(lease)?)?;
        Some(LeaseMeta {
            job: chunk.spec.job.clone(),
            fingerprint: chunk.spec.fingerprint,
            launch: chunk.spec.launch,
            model: chunk.spec.model,
        })
    }

    /// Records a worker's outcomes for a lease. Accepted from any worker —
    /// lease expiry races are resolved by first-complete-wins; the
    /// deterministic simulator guarantees rivals agree.
    pub fn complete(
        &self,
        lease: &str,
        worker: &str,
        outcomes: &BTreeMap<FaultSite, Outcome>,
    ) -> Submission {
        let mut inner = self.inner.lock().expect("lease table poisoned");
        let Some(id) = parse_lease_id(lease) else {
            return Submission::Unknown;
        };
        let Some(chunk) = inner.chunks.get_mut(&id) else {
            return Submission::Unknown;
        };
        if matches!(chunk.state, ChunkState::Done { .. }) {
            inner.duplicates += 1;
            return Submission::Duplicate;
        }
        if !chunk.spec.sites.iter().all(|s| outcomes.contains_key(s)) {
            return Submission::Incomplete;
        }
        chunk.outcomes = chunk.spec.sites.iter().map(|s| (*s, outcomes[s])).collect();
        chunk.state = ChunkState::Done { delivered: false };
        let sites = chunk.spec.sites.len() as u64;
        let stats = inner.workers.entry(worker.to_owned()).or_default();
        stats.chunks += 1;
        stats.sites += sites;
        drop(inner);
        self.progress.notify_all();
        Submission::Accepted
    }

    /// Collects newly-completed chunks of a job (each chunk is delivered
    /// exactly once) as `(chunk_idx, site → outcome)` pairs.
    pub fn take_completed(&self, job: &str) -> Vec<(usize, BTreeMap<FaultSite, Outcome>)> {
        let mut inner = self.inner.lock().expect("lease table poisoned");
        let mut out = Vec::new();
        for chunk in inner.chunks.values_mut() {
            if chunk.spec.job == job {
                if let ChunkState::Done { delivered } = &mut chunk.state {
                    if !*delivered {
                        *delivered = true;
                        out.push((chunk.spec.chunk_idx, std::mem::take(&mut chunk.outcomes)));
                    }
                }
            }
        }
        out
    }

    /// Drops a job's delivered chunks once the supervisor has consumed
    /// them, bounding table growth.
    pub fn prune_delivered(&self, job: &str) {
        let mut inner = self.inner.lock().expect("lease table poisoned");
        inner.chunks.retain(|_, c| {
            c.spec.job != job || !matches!(c.state, ChunkState::Done { delivered: true })
        });
    }

    /// Blocks until some chunk completes or `timeout` passes.
    pub fn wait_progress(&self, timeout: Duration) {
        let inner = self.inner.lock().expect("lease table poisoned");
        let _unused = self
            .progress
            .wait_timeout(inner, timeout)
            .expect("lease table poisoned");
    }

    /// Total lease requeues (expired leases returned to the pool).
    #[must_use]
    pub fn requeues(&self) -> u64 {
        self.inner.lock().expect("lease table poisoned").requeues
    }

    /// Total duplicate outcome submissions dropped.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.inner.lock().expect("lease table poisoned").duplicates
    }

    /// Snapshot of per-worker counters.
    #[must_use]
    pub fn worker_stats(&self) -> BTreeMap<String, WorkerStats> {
        self.inner
            .lock()
            .expect("lease table poisoned")
            .workers
            .clone()
    }

    /// A `GET /fleet` status document: chunk counts by state plus
    /// per-worker counters.
    #[must_use]
    pub fn status_json(&self) -> Json {
        let inner = self.inner.lock().expect("lease table poisoned");
        let mut available = 0u64;
        let mut leased = 0u64;
        let mut done = 0u64;
        for chunk in inner.chunks.values() {
            match chunk.state {
                ChunkState::Available => available += 1,
                ChunkState::Leased { .. } => leased += 1,
                ChunkState::Done { .. } => done += 1,
            }
        }
        let workers: Vec<Json> = inner
            .workers
            .iter()
            .map(|(name, s)| {
                Json::obj([
                    ("name", Json::Str(name.clone())),
                    ("leases", Json::Num(s.leases as f64)),
                    ("heartbeats", Json::Num(s.heartbeats as f64)),
                    ("chunks", Json::Num(s.chunks as f64)),
                    ("sites", Json::Num(s.sites as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("chunks_available", Json::Num(available as f64)),
            ("chunks_leased", Json::Num(leased as f64)),
            ("chunks_done", Json::Num(done as f64)),
            ("requeues", Json::Num(inner.requeues as f64)),
            ("duplicates", Json::Num(inner.duplicates as f64)),
            ("workers", Json::Arr(workers)),
        ])
    }

    /// Appends the fleet's Prometheus metrics to `out`.
    pub fn render_metrics(&self, out: &mut String) {
        use std::fmt::Write as _;
        let inner = self.inner.lock().expect("lease table poisoned");
        let pending = inner.pending();
        let _ = writeln!(out, "# TYPE fsp_fleet_chunks_pending gauge");
        let _ = writeln!(out, "fsp_fleet_chunks_pending {pending}");
        let _ = writeln!(out, "# TYPE fsp_fleet_lease_requeues_total counter");
        let _ = writeln!(out, "fsp_fleet_lease_requeues_total {}", inner.requeues);
        let _ = writeln!(out, "# TYPE fsp_fleet_duplicate_submissions_total counter");
        let _ = writeln!(
            out,
            "fsp_fleet_duplicate_submissions_total {}",
            inner.duplicates
        );
        for (metric, help) in [
            ("leases_granted", "leases granted"),
            ("heartbeats", "heartbeat renewals"),
            ("chunks_completed", "chunks delivered first"),
            ("sites_completed", "fault sites executed (throughput)"),
        ] {
            let _ = writeln!(out, "# TYPE fsp_fleet_{metric}_total counter");
            for (name, s) in &inner.workers {
                let value = match metric {
                    "leases_granted" => s.leases,
                    "heartbeats" => s.heartbeats,
                    "chunks_completed" => s.chunks,
                    _ => s.sites,
                };
                let _ = writeln!(
                    out,
                    "fsp_fleet_{metric}_total{{worker=\"{name}\"}} {value} # {help}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(job: &str, chunk_idx: usize, first_bit: u32, n: u32) -> ChunkSpec {
        ChunkSpec {
            job: job.to_owned(),
            chunk_idx,
            kernel: "saxpy".to_owned(),
            model: FaultModel::SingleBitFlip,
            fingerprint: 0xF1,
            launch: 0x1A,
            sites: (0..n)
                .map(|i| FaultSite {
                    tid: 0,
                    dyn_idx: 0,
                    bit: first_bit + i,
                })
                .collect(),
        }
    }

    fn outcomes_for(grant: &Grant) -> BTreeMap<FaultSite, Outcome> {
        grant.sites.iter().map(|s| (*s, Outcome::Masked)).collect()
    }

    fn table(ttl_ms: u64) -> LeaseTable {
        LeaseTable::new(FleetConfig {
            lease_ttl: Duration::from_millis(ttl_ms),
            chunk_sites: 4,
        })
    }

    #[test]
    fn grant_complete_collect() {
        let t = table(10_000);
        t.publish(vec![spec("job-1", 0, 0, 3), spec("job-1", 1, 3, 3)]);
        let a = t.acquire("w1");
        let g = a.grant.expect("chunk available");
        assert_eq!(a.pending, 2);
        assert_eq!(g.sites.len(), 3);
        assert_eq!(t.heartbeat(&g.lease, "w1"), Ok(Duration::from_secs(10)));
        assert_eq!(
            t.complete(&g.lease, "w1", &outcomes_for(&g)),
            Submission::Accepted
        );
        let done = t.take_completed("job-1");
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 0);
        assert_eq!(done[0].1.len(), 3);
        assert!(t.take_completed("job-1").is_empty(), "delivered once");
        // Second chunk still pending (now leased to w2).
        assert_eq!(t.acquire("w2").pending, 1);
    }

    #[test]
    fn expired_lease_is_stolen_and_duplicate_dropped() {
        let t = table(1);
        t.publish(vec![spec("job-1", 0, 0, 2)]);
        let g1 = t.acquire("w1").grant.expect("granted");
        std::thread::sleep(Duration::from_millis(5));
        // w2 steals the expired lease.
        let g2 = t.acquire("w2").grant.expect("stolen");
        assert_eq!(g1.lease, g2.lease);
        assert_eq!(t.requeues(), 1);
        // The original holder's heartbeat is now refused.
        assert_eq!(t.heartbeat(&g1.lease, "w1"), Err(HeartbeatError::NotHolder));
        // w1 finished anyway and submits first: first-complete-wins.
        assert_eq!(
            t.complete(&g1.lease, "w1", &outcomes_for(&g1)),
            Submission::Accepted
        );
        assert_eq!(
            t.complete(&g2.lease, "w2", &outcomes_for(&g2)),
            Submission::Duplicate
        );
        assert_eq!(t.duplicates(), 1);
        assert_eq!(t.take_completed("job-1").len(), 1);
    }

    #[test]
    fn incomplete_and_unknown_submissions_refused() {
        let t = table(10_000);
        t.publish(vec![spec("job-1", 0, 0, 3)]);
        let g = t.acquire("w1").grant.expect("granted");
        let mut partial = outcomes_for(&g);
        partial.remove(&g.sites[2]);
        assert_eq!(t.complete(&g.lease, "w1", &partial), Submission::Incomplete);
        assert_eq!(t.complete("lease-999", "w1", &partial), Submission::Unknown);
        assert_eq!(t.heartbeat("lease-999", "w1"), Err(HeartbeatError::Unknown));
        assert_eq!(t.heartbeat("bogus", "w1"), Err(HeartbeatError::Unknown));
    }

    #[test]
    fn retract_drops_a_jobs_chunks() {
        let t = table(10_000);
        t.publish(vec![spec("job-1", 0, 0, 2), spec("job-2", 0, 2, 2)]);
        assert_eq!(t.retract_job("job-1"), 1);
        let g = t.acquire("w1").grant.expect("job-2 remains");
        assert_eq!(g.sites[0].bit, 2);
    }

    #[test]
    fn expired_but_unstolen_lease_renews() {
        let t = table(1);
        t.publish(vec![spec("job-1", 0, 0, 1)]);
        let g = t.acquire("w1").grant.expect("granted");
        std::thread::sleep(Duration::from_millis(5));
        // Nobody stole it yet: the holder may renew even past the deadline.
        assert!(t.heartbeat(&g.lease, "w1").is_ok());
    }

    #[test]
    fn grant_json_round_trips() {
        let t = table(10_000);
        t.publish(vec![spec("job-1", 0, 0, 3)]);
        let g = t.acquire("w1").grant.expect("granted");
        let text = g.to_json().to_string();
        let back = Grant::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.lease, g.lease);
        assert_eq!(back.kernel, g.kernel);
        assert_eq!(back.model, g.model);
        assert_eq!(back.fingerprint, g.fingerprint);
        assert_eq!(back.launch, g.launch);
        assert_eq!(back.ttl, g.ttl);
        assert_eq!(back.sites, g.sites);
    }

    #[test]
    fn status_and_metrics_render() {
        let t = table(10_000);
        t.publish(vec![spec("job-1", 0, 0, 2), spec("job-1", 1, 2, 2)]);
        let g = t.acquire("w1").grant.expect("granted");
        t.complete(&g.lease, "w1", &outcomes_for(&g));
        let status = t.status_json();
        assert_eq!(status.get("chunks_done").and_then(Json::as_u64), Some(1));
        assert_eq!(
            status.get("chunks_available").and_then(Json::as_u64),
            Some(1)
        );
        let mut metrics = String::new();
        t.render_metrics(&mut metrics);
        assert!(metrics.contains("fsp_fleet_chunks_pending 1"));
        assert!(metrics.contains("fsp_fleet_sites_completed_total{worker=\"w1\"} 2"));
    }

    /// Long enough that a test passing on a wake-up cannot have passed on
    /// the wait running out instead.
    const LONG_WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn waiting_acquirer_is_granted_a_chunk_published_mid_wait() {
        let t = table(10_000);
        let start = Instant::now();
        let acquired = std::thread::scope(|scope| {
            // Published 50 ms into the wait; were the waiter slower to
            // start, the publish would come first and the grant be
            // immediate — either order must grant well inside the wait.
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                t.publish(vec![spec("job-1", 0, 0, 2)]);
            });
            t.acquire_wait("w1", LONG_WAIT)
        });
        let grant = acquired.grant.expect("granted on publish");
        assert_eq!(grant.sites.len(), 2);
        assert!(start.elapsed() >= Duration::from_millis(50));
        assert!(start.elapsed() < LONG_WAIT / 2, "{:?}", start.elapsed());
    }

    #[test]
    fn chunk_published_before_the_wait_is_granted_at_once() {
        let t = table(10_000);
        t.publish(vec![spec("job-1", 0, 0, 2)]);
        let start = Instant::now();
        let acquired = t.acquire_wait("w1", LONG_WAIT);
        assert!(acquired.grant.is_some());
        assert_eq!(acquired.pending, 1);
        assert!(start.elapsed() < LONG_WAIT / 2, "{:?}", start.elapsed());
    }

    #[test]
    fn expired_lease_is_granted_to_a_waiter_at_its_deadline() {
        let t = table(200);
        t.publish(vec![spec("job-1", 0, 0, 2)]);
        let g1 = t.acquire("w1").grant.expect("granted");
        let start = Instant::now();
        let acquired = t.acquire_wait("w2", LONG_WAIT);
        let g2 = acquired.grant.expect("stolen at expiry");
        assert_eq!(g2.lease, g1.lease);
        assert_eq!(t.requeues(), 1);
        assert!(start.elapsed() >= Duration::from_millis(150));
        assert!(start.elapsed() < LONG_WAIT / 2, "{:?}", start.elapsed());
    }

    #[test]
    fn empty_wait_returns_the_pending_count() {
        let t = table(10_000);
        let empty = t.acquire_wait("w1", Duration::from_millis(20));
        assert!(empty.grant.is_none());
        assert_eq!(empty.pending, 0);
        t.publish(vec![spec("job-1", 0, 0, 2), spec("job-1", 1, 2, 2)]);
        t.acquire("w1").grant.expect("first chunk");
        t.acquire("w2").grant.expect("second chunk");
        let start = Instant::now();
        let leased_out = t.acquire_wait("w3", Duration::from_millis(50));
        assert!(leased_out.grant.is_none());
        assert_eq!(leased_out.pending, 2);
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn close_wakes_waiters_and_refuses_grants() {
        let t = table(10_000);
        let start = Instant::now();
        let acquired = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                t.close();
            });
            t.acquire_wait("w1", LONG_WAIT)
        });
        assert!(acquired.grant.is_none());
        assert!(start.elapsed() < LONG_WAIT / 2, "{:?}", start.elapsed());
        t.publish(vec![spec("job-1", 0, 0, 2)]);
        let after = t.acquire_wait("w1", LONG_WAIT);
        assert!(after.grant.is_none(), "a closed table grants nothing");
        assert_eq!(after.pending, 1);
    }
}
