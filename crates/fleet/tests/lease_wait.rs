//! Server-side waits over real HTTP: `POST /leases` and `GET /jobs/:id`
//! hold a request open for `wait_ms` and answer the moment there is work
//! (or the job settles), engine shutdown ends every wait at once, and a
//! malformed `wait_ms` is a 400, never a panic or a silent zero. Also
//! pins the heartbeat schedule: the first renewal comes a third of the
//! TTL after the grant, not at it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsp_fleet::{run_worker, WorkerConfig};
use fsp_serve::{Client, Engine, EngineConfig, JobSpec, Json, Server, ServerHandle};

/// A wait long enough that answering early can only be a wake-up.
const WAIT_MS: u64 = 2000;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fsp-lease-wait-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Coordinator {
    engine: Arc<Engine>,
    server: ServerHandle,
    addr: String,
    dir: std::path::PathBuf,
}

impl Coordinator {
    fn start(tag: &str, config: impl FnOnce(EngineConfig) -> EngineConfig) -> Coordinator {
        let dir = scratch_dir(tag);
        let engine = Arc::new(
            Engine::open(config(EngineConfig::new(&dir).job_workers(1))).expect("open engine"),
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine))
            .expect("bind ephemeral port")
            .spawn()
            .expect("spawn server");
        let addr = server.addr().to_string();
        Coordinator {
            engine,
            server,
            addr,
            dir,
        }
    }

    fn client(&self) -> Client {
        Client::new(&self.addr)
    }

    fn stop(self) {
        self.server.stop();
        self.engine.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One raw HTTP exchange: (status, parsed body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("complete response");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, Json::parse(body).expect("JSON body"))
}

fn lease_request(addr: &str, wait_ms: &str) -> (u16, Json) {
    http(
        addr,
        "POST",
        "/leases",
        &format!(r#"{{"worker": "probe", "wait_ms": {wait_ms}}}"#),
    )
}

fn state(doc: &Json) -> &str {
    doc.get("state").and_then(Json::as_str).expect("state")
}

/// Submits a fleet job and leases out every chunk of it to a holder that
/// never delivers: the job stays running and nothing is available.
fn held_fleet_job(c: &Coordinator) -> String {
    let job = c
        .client()
        .submit_fleet(&JobSpec::sampled("gemm", 40))
        .expect("submit fleet job");
    let mut held = 0;
    loop {
        // Wait for the publish; after it every chunk is available at once.
        let wait_ms = if held == 0 { WAIT_MS } else { 0 };
        let (status, reply) = http(
            &c.addr,
            "POST",
            "/leases",
            &format!(r#"{{"worker": "holder", "wait_ms": {wait_ms}}}"#),
        );
        assert_eq!(status, 200);
        if reply.get("lease").and_then(Json::as_str).is_some() {
            held += 1;
        } else if held > 0 && reply.get("pending").and_then(Json::as_u64) == Some(held) {
            return job;
        }
    }
}

#[test]
fn blocked_acquirer_is_granted_the_moment_a_job_publishes() {
    let c = Coordinator::start("publish", |config| config);
    let (status, reply, since_submit) = std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            let (status, reply) = lease_request(&c.addr, &WAIT_MS.to_string());
            (status, reply, Instant::now())
        });
        // Let the request reach the empty table and block there.
        std::thread::sleep(Duration::from_millis(100));
        let submitted = Instant::now();
        c.client()
            .submit_fleet(&JobSpec::sampled("gemm", 40))
            .expect("submit fleet job");
        let (status, reply, answered) = waiter.join().expect("waiter");
        (status, reply, answered.saturating_duration_since(submitted))
    });
    assert_eq!(status, 200);
    assert!(
        reply.get("lease").and_then(Json::as_str).is_some(),
        "granted on publish: {reply}"
    );
    assert!(
        since_submit < Duration::from_millis(WAIT_MS / 2),
        "grant took {since_submit:?} after the job was submitted"
    );
    c.stop();
}

#[test]
fn job_wait_returns_when_the_job_settles() {
    let c = Coordinator::start("settle", |config| config);
    let job = c
        .client()
        .submit(&JobSpec::sampled("gemm", 40))
        .expect("submit");
    let start = Instant::now();
    let (status, doc) = http(
        &c.addr,
        "GET",
        &format!("/jobs/{job}?wait_ms={WAIT_MS}"),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(state(&doc), "completed", "{doc}");
    assert!(start.elapsed() < Duration::from_millis(WAIT_MS / 2));
    // The progress document honours the same wait.
    let (status, progress) = http(
        &c.addr,
        "GET",
        &format!("/jobs/{job}/progress?wait_ms={WAIT_MS}"),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(state(&progress), "completed");
    let (status, _) = http(&c.addr, "GET", "/jobs/job-999?wait_ms=10", "");
    assert_eq!(status, 404);
    c.stop();
}

#[test]
fn shutdown_wakes_blocked_lease_and_job_waits() {
    let c = Coordinator::start("shutdown", |config| config);
    let job = held_fleet_job(&c);
    let shutdown_at = std::thread::scope(|scope| {
        let lease = scope.spawn(|| {
            let reply = lease_request(&c.addr, &WAIT_MS.to_string());
            (reply, Instant::now())
        });
        let status = scope.spawn(|| {
            let reply = http(
                &c.addr,
                "GET",
                &format!("/jobs/{job}?wait_ms={WAIT_MS}"),
                "",
            );
            (reply, Instant::now())
        });
        std::thread::sleep(Duration::from_millis(200));
        let shutdown_at = Instant::now();
        c.engine.shutdown();
        for (name, handle) in [("lease", lease), ("job", status)] {
            let ((code, reply), answered) = handle.join().expect("waiter");
            assert_eq!(code, 200, "{name}: {reply}");
            let after = answered.saturating_duration_since(shutdown_at);
            assert!(
                after < Duration::from_millis(WAIT_MS / 2),
                "{name} wait answered {after:?} after shutdown"
            );
            if name == "lease" {
                assert_eq!(reply.get("lease"), Some(&Json::Null), "{reply}");
                assert!(reply.get("pending").and_then(Json::as_u64).is_some());
            } else {
                // Shutdown interrupts the job; it stays running on disk.
                assert_eq!(state(&reply), "running");
            }
        }
        shutdown_at
    });
    // A wait that starts after shutdown does not block at all.
    let (code, reply) = lease_request(&c.addr, &WAIT_MS.to_string());
    assert_eq!((code, reply.get("lease")), (200, Some(&Json::Null)));
    assert!(shutdown_at.elapsed() < Duration::from_millis(WAIT_MS));
    c.stop();
}

#[test]
fn malformed_wait_ms_is_refused_and_large_values_are_clamped() {
    let c = Coordinator::start("validate", |config| config);
    for bad in [
        r#""100""#,
        "-5",
        "1.5",
        "null",
        "true",
        "1e300",
        "18446744073709551616",
    ] {
        let (status, reply) = lease_request(&c.addr, bad);
        assert_eq!(status, 400, "POST /leases wait_ms {bad}: {reply}");
        assert!(
            reply.get("error").and_then(Json::as_str).is_some(),
            "{reply}"
        );
    }
    let job = held_fleet_job(&c);
    for bad in ["abc", "-1", "1.5", "", "+5", "99999999999999999999999"] {
        for path in [
            format!("/jobs/{job}?wait_ms={bad}"),
            format!("/jobs/{job}/progress?wait_ms={bad}"),
        ] {
            let (status, reply) = http(&c.addr, "GET", &path, "");
            assert_eq!(status, 400, "GET {path}: {reply}");
            assert!(
                reply.get("error").and_then(Json::as_str).is_some(),
                "{reply}"
            );
        }
    }
    // An hour is clamped to the 2 s cap; nothing is available (every
    // chunk is held) and the job stays running, so both wait it out.
    let hour = "3600000";
    let (lease, status) = std::thread::scope(|scope| {
        let lease = scope.spawn(|| {
            let start = Instant::now();
            let reply = lease_request(&c.addr, hour);
            (reply, start.elapsed())
        });
        let status = scope.spawn(|| {
            let start = Instant::now();
            let reply = http(&c.addr, "GET", &format!("/jobs/{job}?wait_ms={hour}"), "");
            (reply, start.elapsed())
        });
        (lease.join().expect("lease"), status.join().expect("status"))
    });
    let cap = fsp_fleet::MAX_POLL_WAIT;
    for ((code, reply), took) in [lease, status] {
        assert_eq!(code, 200, "{reply}");
        assert!(
            took >= cap.mul_f64(0.9) && took < cap * 3,
            "clamped wait took {took:?}"
        );
    }
    c.stop();
}

/// The heartbeat thread waits `ttl / 3` before its first renewal: a lease
/// that finishes sooner sends none, a longer one renews (and traces it).
#[test]
fn first_heartbeat_waits_a_third_of_the_ttl() {
    let heartbeats = |c: &Coordinator, worker: &str| {
        c.client()
            .fleet_status()
            .expect("fleet status")
            .get("workers")
            .and_then(Json::as_arr)
            .expect("workers")
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(worker))
            .map(|w| {
                let count = |k: &str| w.get(k).and_then(Json::as_u64).expect(k);
                (count("leases"), count("heartbeats"))
            })
            .expect("worker seen")
    };
    let drain = |c: &Coordinator, spec: &JobSpec, worker: &str| {
        let job = c.client().submit_fleet(spec).expect("submit fleet job");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let config = WorkerConfig::new(&c.addr, worker);
            let stop = &stop;
            scope.spawn(move || run_worker(&config, stop).expect("worker loop"));
            let status = c
                .client()
                .wait(&job, Duration::from_secs(120))
                .expect("job finishes");
            stop.store(true, Ordering::Relaxed);
            assert_eq!(state(&status), "completed", "{status}");
        });
    };

    // Default 30 s TTL: every 8-site lease ends long before 10 s.
    let short = Coordinator::start("hb-short", |config| config.chunk_sites(8));
    drain(&short, &JobSpec::sampled("gemm", 40), "brief");
    let (leases, beats) = heartbeats(&short, "brief");
    assert!(leases >= 1);
    assert_eq!(beats, 0, "a lease shorter than ttl/3 sends no heartbeat");
    short.stop();

    // A 60 ms TTL renews every 20 ms; one lease of 600 pathfinder sites
    // runs far longer than that. Traced, so the renewals must also show
    // up as `worker.heartbeat` instants shipped back from the worker.
    let long = Coordinator::start("hb-long", |config| {
        config
            .chunk_sites(1024)
            .lease_ttl(Duration::from_millis(60))
            .trace(true)
    });
    drain(&long, &JobSpec::sampled("pathfinder", 600), "steady");
    let (_, beats) = heartbeats(&long, "steady");
    assert!(beats >= 1, "a long lease renews");
    let events = fsp_obs::snapshot().events;
    for name in ["worker.heartbeat", "worker.acquire"] {
        assert!(
            events
                .iter()
                .any(|e| e.name == name && e.process.as_deref() == Some("steady")),
            "no `{name}` span shipped by the worker"
        );
    }
    long.stop();
}
