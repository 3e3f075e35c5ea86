//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The workload first repeats untraced, then again with fsp-obs span
//! recording on. The traced repetitions supply the program's own spans and
//! registry counters; the isolated probes ([`crate::probes`]) supply the
//! outside timings. A reconciliation table then adds the layers on the
//! blocking path of one repetition and compares the sum with its wall.

use std::collections::BTreeMap;
use std::path::Path;

use fsp_serve::JobSpec;

use crate::flows::{Mark, Phase, Rep, Run, Tally, Triple, Workload};
use crate::probes::{self, KernelLayers, ProtocolLayers};
use crate::stats::median;
use crate::{peak_rss_mb, repeat, Args, Report};

/// Sites per kernel the engine probes inject (and their smoke size).
const ENGINE_SITES: usize = 256;
const ENGINE_SITES_SMOKE: usize = 48;

/// Span count and summed duration by span name.
#[derive(Debug, Default)]
struct Spans {
    by_name: BTreeMap<String, (u64, u64)>,
    dropped: u64,
}

impl Spans {
    /// Moves every recorded span out of the tracer into the totals.
    fn drain(&mut self) {
        let snap = fsp_obs::drain();
        self.dropped = snap.dropped;
        for e in snap.events.iter().filter(|e| !e.instant) {
            let slot = self.by_name.entry(e.name.to_string()).or_default();
            slot.0 += 1;
            slot.1 += e.dur_ns;
        }
    }

    fn count(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.0 as f64)
    }

    fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.1 as f64 / 1e9)
    }

    /// Mean duration; NaN (reported as a failure) when no span was seen.
    fn mean_s(&self, name: &str) -> f64 {
        self.total_s(name) / self.count(name)
    }
}

/// The global fsp-obs registry as `series → value`, read from its text
/// exposition so that reading registers nothing.
fn scrape() -> BTreeMap<String, f64> {
    fsp_obs::registry()
        .render()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// Registry movement, summed over the traced windows.
#[derive(Debug, Default)]
struct Delta(BTreeMap<String, f64>);

impl Delta {
    fn add(&mut self, before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) {
        for (series, value) in after {
            *self.0.entry(series.clone()).or_default() +=
                value - before.get(series).copied().unwrap_or(0.0);
        }
    }

    /// Summed movement of the series named `family` whose labels satisfy
    /// `labels`.
    fn sum(&self, family: &str, labels: impl Fn(&str) -> bool) -> f64 {
        self.0
            .iter()
            .filter_map(|(series, moved)| {
                let rest = series.strip_prefix(family)?;
                let bare = rest.is_empty() || rest.starts_with('{');
                (bare && labels(rest)).then_some(moved)
            })
            .sum()
    }
}

/// One row of the reconciliation table: a layer on the blocking path (or,
/// indented, thread time inside one), its count and its host time per
/// repetition.
struct Row {
    layer: String,
    count: f64,
    total_s: f64,
    on_path: bool,
}

fn row(layer: &str, count: f64, total_s: f64, on_path: bool) -> Row {
    Row {
        layer: layer.to_owned(),
        count,
        total_s,
        on_path,
    }
}

/// Renders the table; returns the share of `wall_s` the on-path rows
/// explain.
fn reconcile(title: &str, wall_s: f64, rows: &[Row], report: &mut Report) -> f64 {
    let explained: f64 = rows.iter().filter(|r| r.on_path).map(|r| r.total_s).sum();
    let share = explained / wall_s;
    let lines = &mut report.lines;
    lines.push(format!("reconciliation: {title}, per repetition"));
    lines.push(format!(
        "  {:<34} {:>9} {:>12} {:>10} {:>8}",
        "layer", "count", "each ms", "total s", "of wall"
    ));
    for r in rows {
        let name = if r.on_path {
            r.layer.clone()
        } else {
            format!("  {}", r.layer)
        };
        let each_ms = if r.count > 0.0 {
            r.total_s * 1e3 / r.count
        } else {
            0.0
        };
        lines.push(format!(
            "  {name:<34} {:>9.1} {each_ms:>12.4} {:>10.4} {:>7.1}%",
            r.count,
            r.total_s,
            100.0 * r.total_s / wall_s
        ));
    }
    for (label, total) in [
        ("explained (on-path rows)", explained),
        ("unexplained remainder", wall_s - explained),
    ] {
        lines.push(format!(
            "  {label:<34} {:>9} {:>12} {total:>10.4} {:>7.1}%",
            "",
            "",
            100.0 * total / wall_s
        ));
    }
    lines.push(format!(
        "  {:<34} {:>9} {:>12} {wall_s:>10.4}",
        "wall", "", ""
    ));
    lines.push(
        "  (indented rows: thread time spent inside the on-path rows, summed over threads; \
         they overlap each other and are not added)"
            .to_owned(),
    );
    share
}

/// Rows for what the program's own spans and solo-run histograms say
/// about the campaign threads.
fn campaign_parts(spans: &Spans, delta: &Delta, reps: f64) -> Vec<Row> {
    let mut rows: Vec<Row> = ["inject.batch", "sim.checkpoint_restore"]
        .iter()
        .map(|name| {
            row(
                name,
                spans.count(name) / reps,
                spans.total_s(name) / reps,
                false,
            )
        })
        .collect();
    for outcome in ["masked", "sdc", "crash", "hang", "detected"] {
        let label = format!("{{outcome=\"{outcome}\"}}");
        let n = delta.sum("fsp_inject_run_nanos_count", |l| l == label);
        let s = delta.sum("fsp_inject_run_nanos_sum", |l| l == label) / 1e9;
        if n > 0.0 {
            rows.push(row(
                &format!("solo run: {outcome}"),
                n / reps,
                s / reps,
                false,
            ));
        }
    }
    rows
}

/// The spans and registry movement of the traced repetitions: those of
/// the workload's own closed loop (the pruned pass, or the triple on
/// `served-fleet`) and those of the placement triple.
#[derive(Debug, Default)]
struct Recorded {
    work: Spans,
    /// The triple's spans when it is not the workload's own loop.
    triple: Option<Spans>,
    delta: Delta,
}

impl Recorded {
    fn triple(&self) -> &Spans {
        self.triple.as_ref().unwrap_or(&self.work)
    }
}

/// Runs `run` for `seconds` with span recording on, collecting at every
/// mark.
fn traced_reps(
    run: &mut Run,
    args: &Args,
    seconds: f64,
    work: &Path,
    tally: &mut Tally,
    rec: &mut Recorded,
) -> std::io::Result<Vec<Rep>> {
    let served_fleet = args.workload == Workload::ServedFleet;
    let mut before = BTreeMap::new();
    fsp_obs::set_tracing(true);
    let reps = repeat(seconds, args.smoke, || {
        run.rep(work, tally, &mut |mark| match mark {
            Mark::PassStart | Mark::TripleStart => {
                let _ = fsp_obs::drain();
                if served_fleet == (mark == Mark::TripleStart) {
                    before = scrape();
                }
            }
            Mark::PassJob => rec.work.drain(),
            Mark::PassEnd => {
                rec.work.drain();
                rec.delta.add(&before, &scrape());
            }
            Mark::TripleEnd if served_fleet => {
                rec.work.drain();
                rec.delta.add(&before, &scrape());
            }
            Mark::TripleEnd => rec.triple.get_or_insert_with(Spans::default).drain(),
        })
    });
    fsp_obs::set_tracing(false);
    reps.into_iter().collect()
}

/// The traced run of `args.workload`.
///
/// # Errors
///
/// I/O errors from the coordinators or probe stores.
pub fn run(args: &Args, work: &Path, tally: &mut Tally) -> std::io::Result<Report> {
    let mut run = Run::new(args.workload, args.smoke, args.seed).map_err(std::io::Error::other)?;
    let half = args.seconds / 2.0;
    let plain = repeat(half, args.smoke, || run.rep(work, tally, &mut |_| {}))
        .into_iter()
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut rec = Recorded::default();
    let traced = traced_reps(&mut run, args, half, work, tally, &mut rec)?;
    let reps = traced.len() as f64;

    let mut report = Report::default();
    let mean_wall = traced.iter().map(Rep::wall_s).sum::<f64>() / reps;
    let explained = if args.workload == Workload::ServedFleet {
        let jobs = Triple::JOBS as f64;
        let phase_sum = |f: &dyn Fn(&Phase) -> f64| {
            traced
                .iter()
                .map(|r| f(&r.triple.served) + f(&r.triple.fleet) + f(&r.triple.warm))
                .sum::<f64>()
                / reps
        };
        let spans = &rec.work;
        let per_rep = |name: &str, on_path| {
            row(
                name,
                spans.count(name) / reps,
                spans.total_s(name) / reps,
                on_path,
            )
        };
        let mut rows = vec![
            row("client: POST /jobs", jobs, phase_sum(&|p| p.submit_s), true),
            per_rep("serve.job", true),
        ];
        for name in [
            "inject.prepare",
            "serve.campaign",
            "serve.fleet_campaign",
            "worker.lease",
            "worker.campaign",
            "worker.submit",
            "http.request",
        ] {
            rows.push(per_rep(name, false));
        }
        rows.extend(campaign_parts(spans, &rec.delta, reps));
        rows.push(row(
            "client: GET /jobs/:id/result",
            jobs,
            phase_sum(&|p| p.result_s),
            true,
        ));
        // Status polls overlap the job; the last one's lag after the job
        // finished is most of the remainder.
        rows.push(row(
            "client: status polls",
            phase_sum(&|p| p.polls as f64),
            0.0,
            false,
        ));
        reconcile(
            "served-fleet: served, fleet and warm jobs",
            mean_wall,
            &rows,
            &mut report,
        )
    } else {
        let passes: Vec<_> = traced.iter().filter_map(|r| r.pass.as_ref()).collect();
        let setup_sum = |f: &dyn Fn(&crate::flows::Setup) -> f64| {
            passes
                .iter()
                .flat_map(|p| p.jobs.iter().map(|(_, _, s)| f(s)))
                .sum::<f64>()
                / reps
        };
        let spans = &rec.work;
        let per_rep = |name: &str| {
            row(
                name,
                spans.count(name) / reps,
                spans.total_s(name) / reps,
                true,
            )
        };
        let jobs = passes[0].jobs.len() as f64;
        let mut rows = vec![
            row(
                "workloads.build (outside)",
                jobs,
                setup_sum(&|s| s.build_s),
                true,
            ),
            per_rep("inject.prepare"),
            row("core.plan (outside)", jobs, setup_sum(&|s| s.plan_s), true),
            per_rep("inject.campaign"),
        ];
        rows.extend(campaign_parts(spans, &rec.delta, reps));
        reconcile("pruned pass", mean_wall, &rows, &mut report)
    };

    // The compute layers priced on the jobs the workload runs: its pruned
    // plans, or the sampled job of `served-fleet`.
    let specs: Vec<JobSpec> = if args.workload == Workload::ServedFleet {
        vec![run.spec.clone()]
    } else {
        args.workload
            .kernels(args.smoke)
            .iter()
            .map(|k| JobSpec::pruned(k))
            .collect()
    };
    let (engine_sites, scale) = if args.smoke {
        (ENGINE_SITES_SMOKE, 8)
    } else {
        (ENGINE_SITES, 1)
    };
    let k = probes::kernel_layers(&specs, engine_sites, tally);
    let p = probes::protocol_layers(work, args.seed, scale, tally)?;
    layer_metrics(&mut report, &k, &p, &rec, reps);

    let local_s = probes::local_time(&run.spec, &run.reference, tally);
    let fleet_walls: Vec<f64> = plain.iter().map(|r| r.triple.fleet.wall_s).collect();
    let fleet = plain[0].triple.fleet;
    report.add1("fleet.tax", "ratio", median(&fleet_walls) / local_s);
    report.add(
        "warm_sites_per_s",
        "1/s",
        plain.iter().map(|r| r.triple.warm_sites_per_s()).collect(),
    );
    report.add1("fleet.leases", "count", fleet.leases as f64);
    report.add1("fleet.requeues", "count", fleet.requeues as f64);
    report.add1("fleet.duplicates", "count", fleet.duplicates as f64);
    let walls = |reps: &[Rep]| median(&reps.iter().map(Rep::wall_s).collect::<Vec<_>>());
    report.add1(
        "obs.trace_overhead",
        "ratio",
        walls(&traced) / walls(&plain),
    );
    report.add1("obs.explained_share", "ratio", explained);
    report.lines.push(format!(
        "tracer: {} spans dropped on overflow; peak RSS {:.1} MB",
        rec.work.dropped.max(rec.triple().dropped),
        peak_rss_mb()
    ));
    Ok(report)
}

/// The per-layer metrics read from the probes and the recorded spans.
fn layer_metrics(
    report: &mut Report,
    k: &KernelLayers,
    p: &ProtocolLayers,
    rec: &Recorded,
    reps: f64,
) {
    let spans = &rec.work;
    let delta = &rec.delta;
    report.add1("isa.assemble_us", "us", k.assemble_us);
    report.add1("sim.insn_per_s", "1/s", k.insn_per_s);
    report.add1("sim.traced_run_ms", "ms", k.traced_run_ms);
    report.add1(
        "sim.checkpoint_capture_us",
        "us",
        spans.mean_s("sim.checkpoint_capture") * 1e6,
    );
    report.add1(
        "sim.checkpoint_restore_us",
        "us",
        spans.mean_s("sim.checkpoint_restore") * 1e6,
    );
    report.add1(
        "sim.checkpoint_restores",
        "count",
        spans.count("sim.checkpoint_restore") / reps,
    );
    report.add1("inject.prepare_ms", "ms", k.prepare_ms);
    report.add1("inject.batch_sites_per_s", "1/s", k.batch_sites_per_s);
    report.add1("inject.solo_sites_per_s", "1/s", k.solo_sites_per_s);
    report.add1("inject.slow_sites_per_s", "1/s", k.slow_sites_per_s);
    report.add1(
        "inject.lane_occupancy",
        "lanes",
        delta.sum("fsp_inject_batch_lanes_sum", |_| true)
            / delta.sum("fsp_inject_batch_lanes_count", |_| true),
    );
    report.add1(
        "inject.demoted_fraction",
        "ratio",
        delta.sum("fsp_inject_batch_lane_total", |l| l.contains("demoted_"))
            / delta.sum("fsp_inject_batch_lane_total", |_| true),
    );
    report.add1(
        "inject.hang_time_share",
        "ratio",
        delta.sum("fsp_inject_run_nanos_sum", |l| l.contains("\"hang\""))
            / delta.sum("fsp_inject_run_nanos_sum", |_| true),
    );
    report.add1(
        "inject.skipped_prefix_fraction",
        "ratio",
        k.skipped_prefix_fraction,
    );
    report.add1("inject.early_converged", "count", k.early_converged);
    report.add1("core.plan_ms", "ms", k.plan_ms);
    report.add1("core.plan_sites", "count", k.plan_sites);
    report.add1("analyze.absint_ms", "ms", k.absint_ms);
    report.add1("analyze.ace_ms", "ms", k.ace_ms);
    report.add1("store.open_ms", "ms", p.store_open_ms);
    report.add1("store.insert_ns", "ns", p.store_insert_ns);
    report.add1("store.flush_us", "us", p.store_flush_us);
    report.add1("store.get_ns", "ns", p.store_get_ns);
    report.add1("json.encode_mb_per_s", "MB/s", p.json_encode_mb_per_s);
    report.add1("json.parse_mb_per_s", "MB/s", p.json_parse_mb_per_s);
    report.add1("wire.frame_us", "us", p.wire_frame_us);
    report.add1("http.rtt_us", "us", p.http_rtt_us);
    report.add1(
        "http.requests",
        "count",
        rec.triple().count("http.request") / reps,
    );
    report.add1("lease.table_us", "us", p.lease_table_us);
    report.add1(
        "fleet.lease_overhead_ms",
        "ms",
        (rec.triple().mean_s("worker.lease") - rec.triple().mean_s("worker.campaign")) * 1e3,
    );
}
