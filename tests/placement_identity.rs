//! Placement is not policy. One early-stop-armed spec whose rule fires
//! well before its plan ends must produce the same result document
//! byte for byte from `run_local`, a cold served job, a warm resubmission
//! and a fleet job drained by two in-process workers — and every served
//! job's finished progress document must agree with its result. A fleet
//! job cancelled before any worker leases it must end cancelled with none
//! of its chunks left pending.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fault_site_pruning::serve::{
    run_local, Client, Engine, EngineConfig, JobSpec, Json, Server, ServerHandle,
};
use fsp_fleet::{run_worker, WorkerConfig};

const PLAN: usize = 600;

fn spec() -> JobSpec {
    JobSpec::sampled("gemm", PLAN).with_stop(0.1, 0.9)
}

/// A served engine over a fresh data directory.
fn serve(tag: &str) -> (Arc<Engine>, ServerHandle, Client, PathBuf) {
    let dir = std::env::temp_dir().join(format!("fsp-placement-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EngineConfig::new(&dir).job_workers(1).chunk_sites(16);
    let engine = Arc::new(Engine::open(config).expect("open engine"));
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&engine))
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server");
    let client = Client::new(handle.addr().to_string());
    (engine, handle, client, dir)
}

/// Waits for `id` to complete; returns its result document, after
/// checking that its final progress document counts exactly the sites
/// the result scored.
fn finished(client: &Client, id: &str) -> String {
    let status = client.wait(id, Duration::from_secs(300)).expect("job ends");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("completed"),
        "{id}: {status}"
    );
    let result = client.result(id).expect("result document");
    let injected = result
        .get("sites_injected")
        .and_then(Json::as_u64)
        .expect("early-stop report");
    let progress = client.progress(id).expect("progress document");
    assert_eq!(
        progress.get("done").and_then(Json::as_u64),
        Some(injected),
        "{id}: progress must count the scored prefix: {progress}"
    );
    result.to_string()
}

#[test]
fn early_stopped_result_is_identical_across_placements() {
    let local = run_local(&spec(), 1).expect("local run");
    assert_eq!(
        local.get("early_stopped").and_then(Json::as_bool),
        Some(true),
        "the rule must fire"
    );
    let injected = local.get("sites_injected").and_then(Json::as_u64).unwrap();
    assert!(
        injected < PLAN as u64 / 2,
        "the rule must fire well before the plan ends: {injected}/{PLAN}"
    );
    let local = local.to_string();

    // In-process placement: cold, then warm from the store.
    let (engine, handle, client, dir) = serve("in-process");
    let cold = client.submit(&spec()).expect("submit");
    assert_eq!(finished(&client, &cold), local, "cold served result");
    let injected_cold = client.metric("fsp_sites_injected_total").unwrap();
    let warm = client.submit(&spec()).expect("resubmit");
    assert_eq!(finished(&client, &warm), local, "warm served result");
    assert_eq!(
        client.metric("fsp_sites_injected_total").unwrap(),
        injected_cold,
        "a warm resubmission injects nothing"
    );
    handle.stop();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Fleet placement on a cold store, drained by two workers.
    let (engine, handle, client, dir) = serve("fleet");
    let addr = handle.addr().to_string();
    let id = client.submit_fleet(&spec()).expect("submit fleet job");
    let stop = AtomicBool::new(false);
    let fleet = std::thread::scope(|scope| {
        for name in ["w0", "w1"] {
            let config = WorkerConfig::new(&addr, name);
            let stop = &stop;
            scope.spawn(move || run_worker(&config, stop).expect("worker loop"));
        }
        let doc = finished(&client, &id);
        stop.store(true, Ordering::Relaxed);
        doc
    });
    assert_eq!(fleet, local, "fleet result");
    handle.stop();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_unleased_fleet_job_leaves_nothing_pending() {
    let (engine, handle, _client, dir) = serve("cancel");
    let status_count = |field: &str| {
        engine
            .fleet_status_json()
            .get(field)
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    // No worker runs: the job publishes its chunks and waits for them.
    let id = engine
        .submit_with(JobSpec::sampled("pathfinder", 64), true)
        .expect("submit fleet job");
    let deadline = Instant::now() + Duration::from_secs(120);
    while status_count("chunks_available") == 0 {
        assert!(Instant::now() < deadline, "chunks never published");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(engine.cancel(&id), "a running job accepts cancellation");
    assert!(engine.wait_idle(Duration::from_secs(60)), "job never ended");
    let job = engine.job_json(&id).expect("job document");
    assert_eq!(
        job.get("state").and_then(Json::as_str),
        Some("cancelled"),
        "{job}"
    );
    assert_eq!(status_count("chunks_available"), 0, "chunks left available");
    assert_eq!(status_count("chunks_leased"), 0, "chunks left leased");
    handle.stop();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
