//! Smoke-size runs of every workload, with a seed other than the default
//! tuning seeds: every metric `BENCHMARK.json` names must be emitted with
//! its unit, and the correctness gate must pass.

use std::process::Command;

use fsp_serve::Json;

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `key` list.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign-bench"))
        .args(["--workload", workload, "--seed", "424242", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("running the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is the JSON result")
}

fn check(workload: &str) {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = smoke(workload, trace);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
        let metrics = result.get("metrics").expect("metrics object");
        for (name, unit) in declared(key) {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload}: `{name}` not emitted"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = m.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: `{name}` = {value:?}"
            );
        }
    }
}

#[test]
fn pruned_mix_smoke() {
    check("pruned-mix");
}

#[test]
fn hang_bound_smoke() {
    check("hang-bound");
}

#[test]
fn served_fleet_smoke() {
    check("served-fleet");
}
