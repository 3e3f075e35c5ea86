//! Kill-and-resume: an engine stopped mid-job must, after reopening on
//! the same data directory, finish the job from the outcome store and
//! produce a profile bit-identical to an uninterrupted run's.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fsp_serve::{Engine, EngineConfig, JobSpec, Json};

const SAMPLES: usize = 2000;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsp-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> JobSpec {
    JobSpec::sampled("gemm", SAMPLES)
}

/// Runs the spec to completion on a fresh engine; returns the canonical
/// result document text.
fn uninterrupted(dir: &PathBuf) -> String {
    let engine = Engine::open(EngineConfig::new(dir).job_workers(1)).unwrap();
    let id = engine.submit(spec()).unwrap();
    assert!(
        engine.wait_idle(Duration::from_secs(300)),
        "job never finished"
    );
    let result = engine.result_json(&id).expect("completed").to_string();
    engine.shutdown();
    result
}

#[test]
fn killed_engine_resumes_and_matches_uninterrupted_run() {
    let reference_dir = tmp_dir("reference");
    let reference = uninterrupted(&reference_dir);

    // Interrupted run: same spec, different data dir. Stop the engine once
    // the job is visibly mid-campaign; `shutdown` is deliberately
    // crash-shaped (does not wait for the job).
    let dir = tmp_dir("killed");
    let engine = Engine::open(EngineConfig::new(&dir).job_workers(1)).unwrap();
    let id = engine.submit(spec()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let done = engine
            .job_json(&id)
            .and_then(|j| j.get("done").and_then(Json::as_u64))
            .unwrap_or(0) as usize;
        if done >= SAMPLES / 10 {
            break;
        }
        assert!(Instant::now() < deadline, "job made no progress");
        std::thread::sleep(Duration::from_millis(2));
    }
    engine.shutdown();
    let status = engine.job_json(&id).expect("job known");
    let done = status.get("done").and_then(Json::as_u64).unwrap() as usize;
    assert!(
        done < SAMPLES,
        "engine outlived the whole campaign ({done}/{SAMPLES}); nothing to resume"
    );
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("running"),
        "an interrupted job stays running on disk"
    );
    drop(engine);

    // Reopen: the job requeues, drains the store, and finishes.
    let engine = Engine::open(EngineConfig::new(&dir).job_workers(1)).unwrap();
    assert!(
        engine.wait_idle(Duration::from_secs(300)),
        "resume never finished"
    );
    let status = engine.job_json(&id).expect("job survived restart");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("completed")
    );
    let hits = status.get("cache_hits").and_then(Json::as_u64).unwrap();
    assert!(
        hits > 0,
        "resume must reuse pre-kill outcomes from the store"
    );
    let resumed = engine.result_json(&id).expect("completed").to_string();
    engine.shutdown();

    assert_eq!(
        resumed, reference,
        "resumed result must be byte-identical to an uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&reference_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
