//! Campaign benchmark: closed-loop end-to-end runs of the fault-site
//! pruning stack, with per-layer costs from a separate traced run.
//!
//! ```text
//! campaign-bench --workload <pruned-mix|hang-bound|served-fleet>
//!                --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md` in this directory). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is non-zero when any operation failed or any result
//! differed from its reference.

mod flows;
mod probes;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fsp_serve::Json;

use crate::flows::{Rep, Run, Tally, Workload};
use crate::stats::{median, quartiles, uncontended};

const USAGE: &str = "usage: campaign-bench --workload <pruned-mix|hang-bound|served-fleet> \
                     --seed N --seconds S --trace 0|1 [--smoke]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke size: fewer kernels and sites, one repetition.
    pub smoke: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        while let Some(flag) = argv.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(bad)?,
                    );
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }
}

/// One reported metric: its samples (one per repetition) and unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (tables, notes).
    pub lines: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        self.metrics.push(Metric {
            name,
            unit,
            samples,
        });
    }

    pub fn add1(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.add(name, unit, vec![value]);
    }
}

/// Keeps repeating `rep` until `seconds` have passed (at least once; a
/// smoke run stops after one).
pub fn repeat<T>(seconds: f64, smoke: bool, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = vec![rep()];
    while !smoke && start.elapsed().as_secs_f64() < seconds {
        out.push(rep());
    }
    out
}

/// Host CPU time stolen by the hypervisor and all host CPU time, in
/// ticks, from the aggregate line of `/proc/stat` (zeros where absent).
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user and nice).
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the host's CPU time stolen between two [`host_ticks`] readings.
fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Process peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run (`--trace 0`).
fn end_to_end(args: &Args, work: &Path, tally: &mut Tally) -> std::io::Result<Report> {
    let mut run = Run::new(args.workload, args.smoke, args.seed).map_err(std::io::Error::other)?;
    // Peak memory of the first repetition: later ones redo the same work,
    // but in-process fleet workers keep their prepared experiments for the
    // life of the process (by design), so a later reading would grow with
    // the run's length instead of the program's footprint.
    let mut first_rss = None;
    let timed = repeat(args.seconds, args.smoke, || {
        let before = host_ticks();
        let rep = run.rep(work, tally, &mut |_| {});
        first_rss.get_or_insert_with(peak_rss_mb);
        rep.map(|rep| (rep, steal_share(before, host_ticks())))
    })
    .into_iter()
    .collect::<std::io::Result<Vec<_>>>()?;
    let steal: Vec<f64> = timed.iter().map(|(_, s)| *s).collect();
    let kept = uncontended(&steal);
    let reps: Vec<&Rep> = kept.iter().map(|&i| &timed[i].0).collect();
    let col = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|r| f(r)).collect::<Vec<_>>();
    let mut report = Report::default();
    report.lines.push(format!(
        "host steal per repetition: median {:.1}%, max {:.1}%; {} of {} repetitions kept",
        100.0 * median(&steal),
        100.0 * steal.iter().copied().fold(0.0, f64::max),
        kept.len(),
        steal.len()
    ));
    report.add("wall_s", "s", col(&Rep::wall_s));
    report.add("setup_s", "s", col(&Rep::setup_s));
    report.add("sites_per_s", "1/s", col(&Rep::sites_per_s));
    report.add(
        "served_sites_per_s",
        "1/s",
        col(&|r| r.triple.served_sites_per_s()),
    );
    report.add(
        "fleet_sites_per_s",
        "1/s",
        col(&|r| r.triple.fleet_sites_per_s()),
    );
    // Warm jobs are short and their cost is fixed per-job latency (golden
    // run, job bookkeeping, thread wake-ups), which host contention
    // inflates up to twofold from run to run: too unsteady to bound, so the
    // warm rate is printed here and bounded nowhere (`--trace 1` reports it
    // with the per-layer metrics).
    let warm = col(&|r| r.triple.warm_sites_per_s());
    let (p25, p75) = quartiles(&warm);
    report.lines.push(format!(
        "warm_sites_per_s (not bounded) median {:.1}, p25 {p25:.1}, p75 {p75:.1}, n {} 1/s",
        median(&warm),
        warm.len()
    ));
    report.add1("peak_rss_mb", "MB", first_rss.unwrap_or_default());
    Ok(report)
}

/// The commit of the checkout, read from `.git` without running git; the
/// benchmark is also run from exported trees, which have none.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "none (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn provenance(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    Json::obj([
        (
            "command",
            Json::Arr(std::env::args().map(Json::Str).collect()),
        ),
        ("nproc", Json::u64(nproc as u64)),
        ("seed", Json::u64(args.seed)),
        ("git_commit", Json::Str(git_commit())),
        (
            "classifier_hash",
            Json::Str(format!("{:#018x}", fsp_inject::classifier_hash())),
        ),
        (
            "absint_version",
            Json::Str(format!("{:#018x}", fsp_analyze::absint_version())),
        ),
        (
            "batch_version",
            Json::Str(format!("{:#018x}", fsp_inject::batch_version())),
        ),
    ])
}

/// The scratch directory of this process, inside the benchmark's own
/// directory of the checkout (ignored by git, removed at exit).
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(std::process::id().to_string())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = work_dir();
    let mut tally = Tally::default();
    let run = if args.trace {
        traced::run(&args, &work, &mut tally)
    } else {
        end_to_end(&args, &work, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut metrics = Vec::new();
    let mut summary = Vec::new();
    println!("provenance {}", provenance(&args));
    println!(
        "{:<32} {:>14} {:>14} {:>14} {:>4}  unit",
        "metric", "median", "p25", "p75", "n"
    );
    for m in &report.metrics {
        let value = median(&m.samples);
        let (p25, p75) = quartiles(&m.samples);
        println!(
            "{:<32} {value:>14.6} {p25:>14.6} {p75:>14.6} {:>4}  {}",
            m.name,
            m.samples.len(),
            m.unit
        );
        tally.verify(value.is_finite(), || format!("{} is not finite", m.name));
        summary.push((
            m.name,
            Json::obj([
                ("median", Json::Num(value)),
                ("p25", Json::Num(p25)),
                ("p75", Json::Num(p75)),
                ("n", Json::u64(m.samples.len() as u64)),
            ]),
        ));
        metrics.push((
            m.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.to_owned())),
            ]),
        ));
    }
    for line in &report.lines {
        println!("{line}");
    }
    println!("spread {}", Json::obj(summary));
    println!(
        "operations: {} attempted, {} failed, {} retried",
        tally.attempted, tally.failed, tally.retries
    );
    for e in &tally.errors {
        println!("FAILED: {e}");
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::u64(tally.attempted.max(1))),
            ("failed", Json::u64(tally.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
