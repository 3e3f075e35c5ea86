//! Protect jobs through the engine: the hardened kernel's `Detected`
//! outcomes must round-trip through the persistent store and the JSON
//! result document, and a warm resubmission of the same spec must read
//! everything from the store and reproduce the cold result byte for byte.

use std::path::PathBuf;
use std::time::Duration;

use fsp_serve::{run_local, Engine, EngineConfig, JobSpec, Json};

const SAMPLES: usize = 300;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsp-protect-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> JobSpec {
    // Full budget guarantees the compare groups see the sampled faults,
    // so the result document must carry a nonzero `detected` weight.
    JobSpec::protect("hotspot", 1.0, SAMPLES)
}

fn run_to_completion(engine: &Engine, spec: JobSpec) -> (String, Json) {
    let id = engine.submit(spec).unwrap();
    assert!(
        engine.wait_idle(Duration::from_secs(300)),
        "protect job never finished"
    );
    let status = engine.job_json(&id).expect("job known");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("completed"),
        "job must complete: {status}"
    );
    let result = engine.result_json(&id).expect("completed");
    (result.to_string(), status)
}

#[test]
fn protect_job_detected_outcomes_round_trip_cold_vs_warm() {
    let dir = tmp_dir("roundtrip");

    // Cold: every site of both campaigns is injected.
    let engine = Engine::open(EngineConfig::new(&dir).job_workers(1)).unwrap();
    let (cold, cold_status) = run_to_completion(&engine, spec());
    engine.shutdown();
    drop(engine);

    let parsed = Json::parse(&cold).unwrap();
    let profile = parsed.get("profile").expect("profile in result");
    let detected = profile
        .get("detected")
        .and_then(Json::as_f64)
        .expect("protect result must expose a detected weight");
    assert!(
        detected > 0.0,
        "full-budget DMR must detect some injected faults"
    );
    // Weight conservation: the outcome classes partition the sampled
    // population exactly (Eq. 1 over the sample; crashes and hangs are
    // subsets of `other`).
    let total: f64 = ["masked", "sdc", "other", "detected"]
        .iter()
        .map(|k| profile.get(k).and_then(Json::as_f64).unwrap())
        .sum();
    assert!(
        (total - SAMPLES as f64).abs() < 1e-9,
        "profile weights must sum to the sample population, got {total}"
    );
    // The result is keyed under the hardened program, not the baseline.
    let unprotected_fp = fsp_workloads::by_id("hotspot", fsp_workloads::Scale::Eval)
        .unwrap()
        .fingerprint();
    assert_ne!(
        parsed.get("fingerprint").and_then(Json::as_u64),
        Some(unprotected_fp),
        "protect results must carry the hardened kernel's fingerprint"
    );
    // A protect job runs two campaigns over the same sample.
    assert_eq!(
        cold_status.get("total").and_then(Json::as_u64),
        Some(2 * SAMPLES as u64)
    );

    // Warm: a fresh engine over the same store resubmits the same spec.
    // Planning is deterministic, so both campaigns are pure store reads
    // and the result document is byte-identical.
    let engine = Engine::open(EngineConfig::new(&dir).job_workers(1)).unwrap();
    let (warm, warm_status) = run_to_completion(&engine, spec());
    engine.shutdown();

    assert_eq!(
        warm, cold,
        "warm resubmission must reproduce the cold result byte for byte"
    );
    assert_eq!(
        warm_status.get("cache_hits").and_then(Json::as_u64),
        Some(2 * SAMPLES as u64),
        "warm protect job must resolve every site of both campaigns from the store"
    );

    // Library-path parity: `fsp submit --local` of the same spec produces
    // the same canonical result document without any store.
    let local = run_local(&spec(), 2).unwrap().to_string();
    assert_eq!(local, cold, "run_local must match the service result");

    let _ = std::fs::remove_dir_all(&dir);
}
