//! The work-stealing worker runtime behind `fsp worker`.
//!
//! A worker is a plain loop: pull a lease from the coordinator, execute
//! its chunk with the checkpoint-resume fast path, stream the outcomes
//! back, repeat. A lease request carries the worker's current backoff
//! delay as `wait_ms`: the coordinator holds it open until a chunk is
//! published (or a lease expires) and grants at once, so an idle worker
//! neither sleeps through newly published work nor polls faster than the
//! backoff schedule. All fault tolerance lives in the protocol rather
//! than in worker state:
//!
//! * transient coordinator errors retry under capped exponential backoff
//!   with jitter ([`crate::retry::Backoff`]);
//! * a heartbeat thread renews the active lease every third of its TTL; if
//!   the coordinator reports the lease stolen (409) or gone (404), a lost
//!   flag cancels the running campaign between chunks and the lease is
//!   abandoned — the rightful holder finishes it;
//! * a worker that dies loses only its leased chunk, which expires on the
//!   coordinator and is re-served to whichever worker asks next.
//!
//! Workers hold no durable state. Outcome records are keyed with the
//! fingerprint and (opaque) launch hash carried by the lease, so a
//! worker's submission is byte-compatible with records the coordinator
//! would have written locally — the store collapses duplicates and the
//! final profile cannot depend on which worker ran what.

use std::collections::hash_map::{Entry, HashMap};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use fsp_inject::{CacheHold, CampaignObserver, Prepared, WeightedSite};
use fsp_workloads::Workload;

use crate::json::Json;
use crate::lease::Grant;
use crate::retry::Backoff;
use crate::wire::{OutcomeFrame, OutcomeKey, SpanEntry, TraceFrame};

/// How many consecutive transport failures a worker tolerates before
/// concluding the coordinator is gone for good.
const MAX_TRANSPORT_FAILURES: u32 = 60;

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// Worker name, used for lease attribution and metrics labels.
    pub name: String,
    /// OS threads for the injection campaign of each chunk.
    pub campaign_workers: usize,
    /// Exit once the coordinator reports no pending chunks (instead of
    /// idling for more work).
    pub exit_when_idle: bool,
    /// Fault injection for tests and benchmarks: after completing this
    /// many chunks, abandon the next granted lease without executing or
    /// releasing it (simulates a worker crash mid-lease).
    pub fail_after: Option<usize>,
}

impl WorkerConfig {
    /// A worker named `name` against `addr`, with library defaults.
    #[must_use]
    pub fn new(addr: impl Into<String>, name: impl Into<String>) -> Self {
        WorkerConfig {
            addr: addr.into(),
            name: name.into(),
            campaign_workers: 1,
            exit_when_idle: false,
            fail_after: None,
        }
    }
}

/// What a worker did before exiting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Chunks executed and delivered.
    pub chunks: usize,
    /// Fault sites in those chunks.
    pub sites: usize,
    /// Whether the worker exited via `fail_after` holding an undelivered
    /// lease.
    pub abandoned: bool,
}

/// One blocking HTTP exchange (the worker cannot use `fsp_serve::Client`
/// without a dependency cycle; the protocol is four lines of HTTP/1.1).
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("sending request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("reading response: {e}"))?;
    let (head, response_body) = response
        .split_once("\r\n\r\n")
        .ok_or("truncated HTTP response")?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    Ok((status, response_body.to_owned()))
}

/// Cancels the running campaign between chunks once the lease is lost or
/// the worker is asked to stop.
struct LeaseObserver<'a> {
    lost: &'a AtomicBool,
    stop: &'a AtomicBool,
}

impl CampaignObserver for LeaseObserver<'_> {
    fn should_cancel(&self) -> bool {
        self.lost.load(Ordering::Relaxed) || self.stop.load(Ordering::Relaxed)
    }
}

/// The kernels a worker loop has prepared, by the grant key
/// `(fingerprint, keyed launch hash)` each was checked against, so a
/// repeat lease builds nothing. The loop holds the process-wide
/// [`fsp_workloads::experiments`] cache, so every loop in the process, and
/// a coordinator engine sharing it, prepares a kernel once.
struct Kernels {
    by_grant: HashMap<(u64, u64), Prepared<Workload>>,
    _hold: CacheHold<'static, Workload>,
}

impl Kernels {
    /// The prepared kernel `grant` names.
    fn get(&mut self, grant: &Grant) -> Result<&Prepared<Workload>, String> {
        match self.by_grant.entry((grant.fingerprint, grant.launch)) {
            Entry::Occupied(entry) => Ok(entry.into_mut()),
            Entry::Vacant(entry) => {
                let prepared = fsp_workloads::prepared(&grant.kernel)?;
                let (local_fp, _) = prepared.key();
                if local_fp != grant.fingerprint {
                    return Err(format!(
                        "kernel `{}` fingerprint mismatch (lease {:#x}, local {:#x}): \
                         worker and coordinator run different kernel sources",
                        grant.kernel, grant.fingerprint, local_fp
                    ));
                }
                Ok(entry.insert(prepared))
            }
        }
    }
}

/// Runs the worker loop until the fleet drains (`exit_when_idle`), `stop`
/// is raised, or the coordinator stays unreachable past the transport
/// failure budget.
///
/// # Errors
///
/// Unrecoverable conditions only: a kernel the worker cannot prepare, a
/// fingerprint mismatch (worker built from different kernel sources than
/// the coordinator), or a coordinator unreachable for the whole backoff
/// budget. Lease races, stolen leases and duplicate submissions are
/// handled silently — they are normal fleet weather.
pub fn run_worker(config: &WorkerConfig, stop: &AtomicBool) -> Result<WorkerSummary, String> {
    let mut summary = WorkerSummary::default();
    let mut kernels = Kernels {
        by_grant: HashMap::new(),
        _hold: fsp_workloads::experiments().hold(),
    };
    let seed = crate::wire::frame_fnv(config.name.as_bytes());
    let mut poll = Backoff::poll(seed);
    let mut failures = 0u32;

    while !stop.load(Ordering::Relaxed) {
        // The delay bounds the coordinator-side wait; it is only slept
        // out here when the coordinator cannot be reached.
        let wait_ms = poll.next_delay().as_millis() as u64;
        let wait = Duration::from_millis(wait_ms);
        let body = Json::obj([
            ("worker", Json::Str(config.name.clone())),
            ("wait_ms", Json::u64(wait_ms)),
        ])
        .to_string();
        let acquire_start = fsp_obs::now_ns();
        let response = match http(&config.addr, "POST", "/leases", &body) {
            Ok((200, body)) => body,
            Ok((status, body)) => {
                return Err(format!(
                    "coordinator refused lease request ({status}): {body}"
                ))
            }
            Err(_) if failures + 1 < MAX_TRANSPORT_FAILURES => {
                failures += 1;
                std::thread::sleep(wait);
                continue;
            }
            Err(e) => return Err(format!("coordinator unreachable: {e}")),
        };
        failures = 0;
        let value = Json::parse(&response).map_err(|e| format!("malformed grant: {e}"))?;
        if value.get("lease").and_then(Json::as_str).is_none() {
            fsp_obs::record_span("worker.acquire", acquire_start);
            let pending = value.get("pending").and_then(Json::as_u64).unwrap_or(0);
            if pending == 0 && config.exit_when_idle {
                return Ok(summary);
            }
            // An empty answer before the wait is up comes from a
            // coordinator that is shutting down: keep the idle request
            // rate rather than spin on it.
            let waited = Duration::from_nanos(fsp_obs::now_ns().saturating_sub(acquire_start));
            std::thread::sleep(wait.saturating_sub(waited));
            continue;
        }
        poll.reset();
        let grant = Grant::from_json(&value)?;
        // A traced coordinator turns on this worker's tracer; the receipt
        // time is the rebase anchor for every span shipped with this
        // lease's outcomes (see `crate::wire::TraceFrame`).
        if grant.trace {
            fsp_obs::set_tracing(true);
        }
        // Recorded after the switch-on, so the wait for a worker's very
        // first lease shows in the trace too.
        fsp_obs::record_span("worker.acquire", acquire_start);
        let grant_received_ns = fsp_obs::now_ns();
        if config.fail_after == Some(summary.chunks) {
            // Crash simulation: die holding the lease. The coordinator's
            // deadline machinery must recover it.
            summary.abandoned = true;
            return Ok(summary);
        }
        if execute_lease(config, &mut kernels, &grant, grant_received_ns, stop)? {
            summary.chunks += 1;
            summary.sites += grant.sites.len();
        }
    }
    Ok(summary)
}

/// Executes one granted lease: heartbeat thread + campaign + submission.
/// Returns whether the chunk was delivered (false = lease lost or worker
/// stopped; the chunk will be re-served).
fn execute_lease(
    config: &WorkerConfig,
    kernels: &mut Kernels,
    grant: &Grant,
    grant_received_ns: u64,
    stop: &AtomicBool,
) -> Result<bool, String> {
    let lease_span = fsp_obs::span_labeled("worker.lease", grant.lease.clone());
    let prepared = kernels.get(grant)?;

    let lost = AtomicBool::new(false);
    let completed = std::thread::scope(|scope| {
        // Heartbeat every third of the TTL until the campaign returns and
        // drops `campaign_done`; tolerate transport errors (the lease then
        // simply risks expiry, which the protocol survives).
        let (campaign_done, heartbeat_stop) = mpsc::channel::<()>();
        let lost = &lost;
        scope.spawn(move || {
            let interval = (grant.ttl / 3).max(Duration::from_millis(20));
            let renew = || {
                fsp_obs::instant("worker.heartbeat", Some(grant.lease.clone()));
                let body = Json::obj([("worker", Json::Str(config.name.clone()))]).to_string();
                let path = format!("/leases/{}/heartbeat", grant.lease);
                match http(&config.addr, "POST", &path, &body) {
                    // Transport errors are tolerated like a successful
                    // renewal: at worst the lease expires, which the
                    // protocol survives. Only an explicit refusal
                    // (stolen/gone) abandons the chunk.
                    Ok((200, _)) | Err(_) => true,
                    Ok((_, _)) => false,
                }
            };
            // The grant is brand new: the first renewal waits a full
            // interval, so a lease shorter than that sends none.
            while heartbeat_stop.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                if !renew() {
                    lost.store(true, Ordering::Relaxed);
                    return;
                }
            }
        });

        let sites: Vec<WeightedSite> = grant.sites.iter().map(|s| WeightedSite::from(*s)).collect();
        let observer = LeaseObserver { lost, stop };
        let campaign_span = fsp_obs::span("worker.campaign");
        let run = prepared.experiment().run_campaign_incremental(
            &sites,
            grant.model,
            config.campaign_workers,
            &[],
            &observer,
        );
        drop(campaign_span);
        drop(campaign_done);
        if run.cancelled || !run.is_complete() {
            return None;
        }

        let records: Vec<_> = grant
            .sites
            .iter()
            .zip(&run.outcomes)
            .map(|(site, outcome)| {
                let key = OutcomeKey {
                    fingerprint: grant.fingerprint,
                    launch: grant.launch,
                    model: grant.model.code(),
                    site: *site,
                };
                (key, outcome.expect("complete run"))
            })
            .collect();
        Some(OutcomeFrame {
            worker: config.name.clone(),
            records,
        })
    });
    let Some(outcome_frame) = completed else {
        drop(lease_span);
        return Ok(false);
    };
    // Close the lease span before draining so it rides in this frame;
    // the submission span below ships with the *next* lease's frame.
    drop(lease_span);
    let mut frame = outcome_frame.to_json();
    if grant.trace {
        splice_trace(&mut frame, grant.grant_ns, grant_received_ns);
    }
    let frame = frame.to_string();
    let _submit = fsp_obs::span("worker.submit");
    submit_outcomes(config, &grant.lease, &frame)
}

/// Drains this worker's span ring and attaches it to an outcome frame,
/// rebased onto "nanoseconds since this worker saw the grant" — the
/// coordinator re-anchors with `grant_ns` (see [`TraceFrame`]).
fn splice_trace(frame: &mut Json, grant_ns: u64, grant_received_ns: u64) {
    let snapshot = fsp_obs::drain();
    let spans = snapshot
        .events
        .iter()
        .map(|e| SpanEntry {
            tid: e.tid,
            depth: e.depth,
            name: e.name.to_string(),
            label: e.label.clone(),
            rel_ns: e.start_ns.cast_signed() - grant_received_ns.cast_signed(),
            dur_ns: e.dur_ns,
            instant: e.instant,
        })
        .collect();
    let trace = TraceFrame { grant_ns, spans };
    if let Json::Obj(fields) = frame {
        fields.extend(trace.to_fields());
    }
}

/// Streams an outcome frame back, retrying transient transport errors.
/// 4xx means the lease is stale or the frame malformed — dropped, the
/// chunk re-serves after expiry.
fn submit_outcomes(config: &WorkerConfig, lease: &str, frame: &str) -> Result<bool, String> {
    let seed = crate::wire::frame_fnv(lease.as_bytes());
    let mut backoff = Backoff::poll(seed);
    let path = format!("/leases/{lease}/outcomes");
    for attempt in 0..MAX_TRANSPORT_FAILURES {
        match http(&config.addr, "POST", &path, frame) {
            Ok((200, _)) => return Ok(true),
            Ok((_, _)) => return Ok(false),
            Err(e) if attempt + 1 == MAX_TRANSPORT_FAILURES => {
                return Err(format!("submitting outcomes: {e}"))
            }
            Err(_) => backoff.sleep(),
        }
    }
    unreachable!("loop returns on the last attempt")
}
