//! `fsp` — command-line driver for the fault-site-pruning reproduction.

use std::process::ExitCode;

use fsp_cli::{figures, tables, Options};
use fsp_core::{PruningConfig, PruningPipeline, ThreadGrouping};
use fsp_inject::{Experiment, InjectionTarget};
use fsp_workloads::Scale;

const USAGE: &str = "\
fsp — fault-site pruning for practical reliability analysis of GPGPU applications

USAGE:
    fsp <COMMAND> [OPTIONS]

COMMANDS:
    list                         List the registered kernels
    profile <kernel> [--paper]   Trace a kernel: threads, iCnt groups, fault sites
    campaign <kernel> [-n N]     Run a random-sampling injection campaign (eval scale)
    prune <kernel>               Run the progressive-pruning campaign and compare
    models <kernel> [-n N]       Compare fault models (single/double-bit, stuck-at, random)
    adaptive <kernel>            Adaptive loop-iteration sampling (automated Fig. 6)
    ablation <kernel>            Per-stage accuracy/cost ablation
    seeds <kernel>               Loop-seed sensitivity of the pruned estimate
    severity <kernel> [-n N]     SDC severity histogram (relative output error)
    opcodes <kernel> [-n N]      Per-opcode vulnerability breakdown
    disasm <kernel>              Disassemble a kernel (PTXPlus-like listing)
    lint [kernel] [--json]       Statically lint a kernel (all kernels when omitted);
         [--deny]                --json emits findings as JSON, --deny exits
                                 non-zero on any finding (warnings included)
    ace <kernel>                 Static ACE classification of a kernel's instructions
    protect <kernel>             Selectively harden a kernel (DMR) and verify by
                                 re-injection; see --budget / --scope / -n
    harden-report <kernel>       Coverage-vs-overhead curve over a budget sweep
    bench-inject [-n N] [--json] Benchmark campaign throughput per kernel:
                                 slow path (full re-execution) vs solo fast
                                 path (--batch 1: each site one checkpoint-
                                 resumed fault run plus the replay cut) vs
                                 batched fast path (multi-lane golden
                                 replay, see --batch); --json writes
                                 BENCH_inject.json (override with --out)
    ptx <file.ptx>               Translate an nvcc-style PTX kernel and disassemble it
    trace <kernel> <tid>         Dump one thread's dynamic instruction trace
    reproduce <ARTIFACT>         Regenerate a paper artifact:
                                 table1..table7, fig2..fig10, all
    serve                        Run the campaign orchestration service
    submit <kernel> [-n N]      Submit a campaign job (pruned, or sampled with -n)
    status [job-id]              Show one job (or all jobs) on the server;
                                 with an id, also renders the live per-outcome
                                 estimate ± CI table from `/progress`
    watch <job-id>               Live-refresh a job's streaming outcome
                                 estimates until it reaches a terminal state
    fetch <job-id>               Fetch a completed job's result document
    cancel <job-id>              Cancel a queued or running job
    worker                       Run a fleet worker: pull campaign leases from a
                                 coordinator (`fsp serve`), execute them with the
                                 checkpoint-resume fast path, stream outcomes back
    fleet-status                 Show the coordinator's fleet counters: chunks by
                                 state, requeues, duplicates, per-worker stats
    timeline [--out PATH]        Fetch the coordinator's live span timeline
                                 (`GET /trace`, Chrome trace-event JSON; the
                                 server must run with `serve --trace`)
    fleet-bench [--json]         Benchmark fleet scaling: sites/sec at 1/2/4
                                 workers for three kernels, plus the requeue
                                 overhead of killing a worker mid-run, each the
                                 fastest of 5 runs; --json writes
                                 BENCH_fleet.json (override with --out)

OPTIONS:
    --workers N    Campaign worker threads (default: all cores); for
                   `serve`, the job worker pool width
    --quick        Smaller statistical baselines (~6K instead of 60K runs)
    --seed S       RNG seed (default 0xF5EED)
    --batch N      For `bench-inject`: lane budget for batched multi-lane
                   injection — sites sharing a CTA ride one golden replay
                   as shadow lanes (default and max 64; 1 = solo: every
                   site runs as one fault run plus the replay cut, with no
                   lanes; campaigns elsewhere always use the default budget)
    --out PATH     For `reproduce`: also write the artifact text to PATH
    -n N           Samples for `campaign`/`submit` (default: statistical
                   baseline / pruned mode)
    --addr A       Service address (default 127.0.0.1:7071)
    --data DIR     For `serve`: persistent state directory (default .fsp-serve)
    --local        For `submit`: run in-process, print the same result document
    --wait         For `submit`: poll until done, then print the result
    --budget F     For `protect`/`submit --protect`: overhead budget as a
                   fraction of full DMR (default 0.25; 1.0 = full DMR)
    --scope S      For `protect`: planner granularity, one of
                   range | opcode | thread-group (default range)
    --protect      For `submit`: submit a protect-mode job (uses --budget,
                   --scope and -n)
    --stop-at-margin E
                   For `submit`: stop the campaign early once every
                   outcome-class confidence interval half-width fits ±E.
                   Unlike --fleet this changes the result document, so it
                   is part of the job spec (and its fingerprint)
    --stop-confidence C
                   For `submit`: confidence level for the --stop-at-margin
                   intervals (default 0.998)
    --fleet        For `submit`: execute on fleet workers (start `fsp worker`
                   processes against the same --addr); placement only — the
                   result document stays byte-identical to a local run
    --name S       For `worker`: worker name for lease attribution and
                   metrics labels (default worker-<pid>)
    --idle-exit    For `worker`: exit once the coordinator reports no
                   pending chunks, instead of idling for more work
    --fail-after N For `worker`: abandon a lease after completing N chunks
                   without releasing it (crash simulation for fleet tests)
    --lease-ms N   For `serve`: lease TTL in milliseconds before an
                   unheartbeated chunk is re-served (default 30000)
    --chunk N      For `serve`: fault sites per lease chunk (default 64)
    --trace        For `serve`: enable the span tracer (serves `GET /trace`;
                   fleet grants instruct workers to trace too)
    --trace-out P  Any command: trace it and write the span timeline to P as
                   Chrome trace-event JSON (load in Perfetto / about:tracing)
    --profile      Any command: print an aggregated span profile (count,
                   total/self/min/max time per span name) to stderr on exit
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut opts = Options::default();
    let mut positional = Vec::new();
    let mut samples: Option<usize> = None;
    let mut paper = false;
    let mut out_path: Option<String> = None;
    let mut addr = "127.0.0.1:7071".to_owned();
    let mut data_dir = ".fsp-serve".to_owned();
    let mut local = false;
    let mut wait = false;
    let mut json = false;
    let mut deny = false;
    let mut budget = 0.25f64;
    let mut scope = fsp_protect::ProtectScope::default();
    let mut protect_mode = false;
    let mut fleet = false;
    let mut stop_margin: Option<f64> = None;
    let mut stop_confidence: Option<f64> = None;
    let mut worker_name: Option<String> = None;
    let mut idle_exit = false;
    let mut fail_after: Option<usize> = None;
    let mut lease_ms: Option<u64> = None;
    let mut chunk: Option<usize> = None;
    let mut trace = false;
    let mut trace_out: Option<String> = None;
    let mut profile_spans = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--budget" => {
                i += 1;
                budget = parse(args.get(i), "--budget")?;
                if !(0.0..=1.0).contains(&budget) {
                    return Err("--budget must be in 0.0..=1.0".to_owned());
                }
            }
            "--scope" => {
                i += 1;
                let name = args.get(i).ok_or("--scope needs a value")?;
                scope = fsp_protect::ProtectScope::from_name(name).ok_or_else(|| {
                    format!("unknown scope `{name}` (range | opcode | thread-group)")
                })?;
            }
            "--protect" => protect_mode = true,
            "--workers" => {
                i += 1;
                opts.workers = parse(args.get(i), "--workers")?;
            }
            "--seed" => {
                i += 1;
                opts.seed = parse(args.get(i), "--seed")?;
            }
            "--batch" => {
                i += 1;
                opts.batch = parse(args.get(i), "--batch")?;
                if !(1..=fsp_inject::MAX_BATCH).contains(&opts.batch) {
                    return Err(format!("--batch must be in 1..={}", fsp_inject::MAX_BATCH));
                }
            }
            "-n" => {
                i += 1;
                samples = Some(parse(args.get(i), "-n")?);
            }
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).ok_or("--out needs a path")?.clone());
            }
            "--addr" => {
                i += 1;
                addr = args.get(i).ok_or("--addr needs an address")?.clone();
            }
            "--data" => {
                i += 1;
                data_dir = args.get(i).ok_or("--data needs a directory")?.clone();
            }
            "--name" => {
                i += 1;
                worker_name = Some(args.get(i).ok_or("--name needs a value")?.clone());
            }
            "--fail-after" => {
                i += 1;
                fail_after = Some(parse(args.get(i), "--fail-after")?);
            }
            "--lease-ms" => {
                i += 1;
                lease_ms = Some(parse(args.get(i), "--lease-ms")?);
            }
            "--chunk" => {
                i += 1;
                chunk = Some(parse(args.get(i), "--chunk")?);
            }
            "--stop-at-margin" => {
                i += 1;
                let margin: f64 = parse(args.get(i), "--stop-at-margin")?;
                if !(margin > 0.0 && margin < 1.0) {
                    return Err("--stop-at-margin must be in (0, 1)".to_owned());
                }
                stop_margin = Some(margin);
            }
            "--stop-confidence" => {
                i += 1;
                let confidence: f64 = parse(args.get(i), "--stop-confidence")?;
                if !(confidence > 0.0 && confidence < 1.0) {
                    return Err("--stop-confidence must be in (0, 1)".to_owned());
                }
                stop_confidence = Some(confidence);
            }
            "--fleet" => fleet = true,
            "--trace" => trace = true,
            "--trace-out" => {
                i += 1;
                trace_out = Some(args.get(i).ok_or("--trace-out needs a path")?.clone());
            }
            "--profile" => profile_spans = true,
            "--idle-exit" => idle_exit = true,
            "--json" => json = true,
            "--deny" => deny = true,
            "--quick" => opts.quick = true,
            "--paper" => paper = true,
            "--local" => local = true,
            "--wait" => wait = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => positional.push(other.to_owned()),
        }
        i += 1;
    }
    let Some(command) = positional.first() else {
        return Err("missing command".to_owned());
    };
    let stop = match (stop_margin, stop_confidence) {
        (Some(margin), confidence) => Some((margin, confidence.unwrap_or(0.998))),
        (None, Some(_)) => return Err("--stop-confidence requires --stop-at-margin".to_owned()),
        (None, None) => None,
    };
    // The span tracer is process-global: any of the observability
    // surfaces switches it on before the command runs.
    if trace || trace_out.is_some() || profile_spans {
        fsp_obs::set_tracing(true);
    }
    let result = match command.as_str() {
        "list" => list(),
        "profile" => profile(positional.get(1), paper),
        "campaign" => campaign(positional.get(1), samples, &opts),
        "prune" => prune(positional.get(1), &opts),
        "models" => models(positional.get(1), samples, &opts),
        "adaptive" => adaptive(positional.get(1), &opts),
        "ablation" => ablation(positional.get(1), &opts),
        "opcodes" => opcodes(positional.get(1), samples, &opts),
        "disasm" => disasm(positional.get(1)),
        "lint" => lint(positional.get(1), json, deny),
        "ace" => ace(positional.get(1)),
        "protect" => protect(positional.get(1), budget, scope, samples, &opts),
        "harden-report" => harden_report(positional.get(1), scope, samples, &opts),
        "bench-inject" => bench_inject(samples, &opts, json, out_path.as_deref()),
        "ptx" => ptx_translate(positional.get(1)),
        "trace" => trace_thread(positional.get(1), positional.get(2)),
        "reproduce" => reproduce(positional.get(1), &opts, out_path.as_deref()),
        "seeds" => seeds(positional.get(1), &opts),
        "severity" => severity(positional.get(1), samples, &opts),
        "serve" => serve(&addr, &data_dir, &opts, lease_ms, chunk, trace),
        "timeline" => timeline(&addr, out_path.as_deref()),
        "submit" => submit(
            positional.get(1),
            samples,
            &opts,
            &addr,
            local,
            wait,
            fleet,
            protect_mode.then_some((budget, scope)),
            stop,
        ),
        "status" => status(positional.get(1), &addr),
        "watch" => watch(positional.get(1), &addr),
        "fetch" => fetch(positional.get(1), &addr),
        "cancel" => cancel(positional.get(1), &addr),
        "worker" => worker(&addr, worker_name, &opts, idle_exit, fail_after),
        "fleet-status" => fleet_status(&addr),
        "fleet-bench" => fleet_bench(samples, &opts, json, out_path.as_deref()),
        other => Err(format!("unknown command `{other}`")),
    };
    if result.is_ok() {
        if profile_spans {
            let snapshot = fsp_obs::snapshot();
            eprint!(
                "{}",
                fsp_obs::render_profile(&fsp_obs::profile(&snapshot.events))
            );
        }
        if let Some(path) = &trace_out {
            let snapshot = fsp_obs::snapshot();
            std::fs::write(path, fsp_obs::chrome_trace_json(&snapshot, "fsp"))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path} ({} spans)", snapshot.events.len());
        }
    }
    result
}

fn parse<T: std::str::FromStr>(arg: Option<&String>, flag: &str) -> Result<T, String> {
    arg.ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("bad value for {flag}"))
}

fn kernel(id: Option<&String>, scale: Scale) -> Result<fsp_workloads::Workload, String> {
    let id = id.ok_or("missing kernel id")?;
    fsp_workloads::by_id(id, scale).ok_or_else(|| {
        format!(
            "unknown kernel `{id}` (try: {})",
            fsp_workloads::registry_ids().join(", ")
        )
    })
}

fn list() -> Result<(), String> {
    let mut t = fsp_cli::output::Table::new(&[
        "id",
        "suite",
        "application",
        "kernel",
        "paper threads",
        "eval threads",
    ]);
    for id in fsp_workloads::registry_ids() {
        let p = fsp_workloads::by_id(id, Scale::Paper).expect("registered");
        let e = fsp_workloads::by_id(id, Scale::Eval).expect("registered");
        t.row(vec![
            id.to_owned(),
            p.suite().name().to_owned(),
            p.app().to_owned(),
            format!("{} ({})", p.kernel(), p.id()),
            p.launch().num_threads().to_string(),
            e.launch().num_threads().to_string(),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn profile(id: Option<&String>, paper: bool) -> Result<(), String> {
    let scale = if paper { Scale::Paper } else { Scale::Eval };
    let w = kernel(id, scale)?;
    let launch = w.launch();
    let mut tracer = fsp_sim::Tracer::new(launch.num_threads(), launch.threads_per_cta());
    let mut memory = w.init_memory();
    let stats = fsp_sim::Simulator::new()
        .run(&launch, &mut memory, &mut tracer)
        .map_err(|e| format!("fault-free run failed: {e}"))?;
    let trace = tracer.finish();
    let grouping = ThreadGrouping::analyze(&trace);
    println!(
        "{} / {} ({}) at {scale:?} scale",
        w.app(),
        w.kernel(),
        w.id()
    );
    println!("  threads:          {}", trace.num_threads());
    println!("  CTAs:             {}", trace.num_ctas());
    println!("  dyn instructions: {}", stats.instructions);
    println!("  fault sites:      {}", trace.total_fault_sites());
    println!("  CTA groups:       {}", grouping.groups.len());
    println!("  representatives:  {}", grouping.num_representatives());
    println!(
        "  sites after thread-wise pruning: {}",
        grouping.pruned_site_count(&trace)
    );
    Ok(())
}

fn campaign(id: Option<&String>, samples: Option<usize>, opts: &Options) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    let experiment = Experiment::prepare(&w).map_err(|e| e.to_string())?;
    let space = experiment.site_space(0..w.launch().num_threads());
    let n = samples.unwrap_or_else(|| opts.baseline_samples());
    let started = std::time::Instant::now();
    let profile = fsp_core::run_baseline(&experiment, &space, n, opts.seed, opts.workers);
    println!(
        "{}: {n} random injections over {} sites in {:.1?}",
        w.registry_id(),
        space.total_sites(),
        started.elapsed()
    );
    println!("  {profile}");
    print!("{}", sample_size_report(n, opts));
    Ok(())
}

/// The satellite a-priori check: how the plan's actual sample count
/// compares with the `required_samples` math at the requested
/// (confidence, margin) pair, warning on undershoot.
fn sample_size_report(actual: usize, opts: &Options) -> String {
    let (confidence, margin) = opts.stat_pair();
    let required = fsp_stats::required_samples_infinite(confidence, margin) as usize;
    let mut out = format!(
        "  a-priori requirement: {required} samples for {:.1}% confidence ±{:.2}% \
         (plan has {actual})\n",
        100.0 * confidence,
        100.0 * margin,
    );
    if actual < required {
        out.push_str(&format!(
            "  warning: plan undershoots the requested (confidence, margin) pair \
             by {} samples\n",
            required - actual
        ));
    }
    out
}

fn prune(id: Option<&String>, opts: &Options) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    let experiment = Experiment::prepare(&w).map_err(|e| e.to_string())?;
    let pipeline = PruningPipeline::new(PruningConfig::default());
    let plan = pipeline.plan_for(&experiment).map_err(|e| e.to_string())?;
    let s = plan.stages;
    println!("{}: progressive pruning", w.registry_id());
    println!("  exhaustive:        {}", s.exhaustive);
    println!("  after static-ACE:  {}", s.after_static);
    println!("  after absint:      {}", s.after_absint);
    println!("  after thread-wise: {}", s.after_thread);
    println!("  after insn-wise:   {}", s.after_instruction);
    println!("  after loop-wise:   {}", s.after_loop);
    println!("  after bit-wise:    {} injections", s.after_bit);
    print!("{}", sample_size_report(s.after_bit as usize, opts));
    if let Some(ace) = &plan.static_ace {
        println!(
            "  static ACE: {} un-ACE / {} partial / {} ACE instructions, {:.1}% of static bits pruned",
            ace.unace_instructions,
            ace.partial_instructions,
            ace.ace_instructions,
            100.0 * ace.pruned_fraction(),
        );
    }
    if let Some(c) = &plan.classify {
        println!(
            "  absint: {:.1} sites predicted CRASH, {:.1} Detected, {:.1} class-redistributed \
             ({:.2}% of the population skipped statically)",
            plan.predicted_crash_weight,
            plan.predicted_detected_weight,
            plan.class_redistributed_weight,
            100.0 * plan.static_skip_fraction(),
        );
        if c.classes > 0 {
            println!(
                "  absint classes: {} class(es) covering {} static bits",
                c.classes, c.class_pruned_bits
            );
        }
    }
    let started = std::time::Instant::now();
    let pruned = pipeline.run(&experiment, &plan, opts.workers);
    println!("  pruned profile ({:.1?}):   {pruned}", started.elapsed());
    let space = experiment.site_space(0..w.launch().num_threads());
    let baseline = fsp_core::run_baseline(
        &experiment,
        &space,
        opts.baseline_samples(),
        opts.seed,
        opts.workers,
    );
    println!("  baseline profile:  {baseline}");
    let (dm, ds, do_) = pruned.diff(&baseline);
    println!("  diff: masked {dm:+.2}% sdc {ds:+.2}% other {do_:+.2}%");
    Ok(())
}

fn models(id: Option<&String>, samples: Option<usize>, opts: &Options) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    let n = samples.unwrap_or(1000);
    println!("{}", fsp_cli::extensions::fault_model_sweep(&w, n, opts));
    Ok(())
}

fn adaptive(id: Option<&String>, opts: &Options) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    println!("{}", fsp_cli::extensions::adaptive_report(&w, opts));
    Ok(())
}

fn ablation(id: Option<&String>, opts: &Options) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    println!("{}", fsp_cli::extensions::ablation(&w, opts));
    Ok(())
}

fn opcodes(id: Option<&String>, samples: Option<usize>, opts: &Options) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    let n = samples.unwrap_or(2000);
    println!("{}", fsp_cli::extensions::opcode_vulnerability(&w, n, opts));
    Ok(())
}

fn disasm(id: Option<&String>) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    let program = w.launch().program().clone();
    let cfg = program.cfg();
    let loops = cfg.loops(&program);
    println!("{program}");
    println!(
        "// {} instructions, {} basic blocks, {} loop(s)",
        program.len(),
        cfg.blocks().len(),
        loops.len()
    );
    for l in &loops.loops {
        println!(
            "// loop {}: header pc {}, {} instructions, depth {}",
            l.id,
            l.header,
            l.body.len(),
            l.depth
        );
    }
    Ok(())
}

fn lint(id: Option<&String>, json: bool, deny: bool) -> Result<(), String> {
    let targets: Vec<fsp_workloads::Workload> = match id {
        Some(_) => vec![kernel(id, Scale::Eval)?],
        None => fsp_workloads::all(Scale::Eval),
    };
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut doc = String::from("[\n");
    for (wi, w) in targets.iter().enumerate() {
        // The launch-aware pass adds the abstract-interpretation lints
        // (provable OOB, uninitialized shared reads, shared races,
        // divergence-dependent addresses) on top of the static checks.
        let report = fsp_analyze::lint_with_launch(w.program(), &fsp_core::abs_context_for(w));
        errors += report.errors();
        warnings += report.warnings();
        if json {
            doc.push_str(&format!(
                "  {{\"kernel\": \"{}\", \"errors\": {}, \"warnings\": {}, \"findings\": [",
                w.registry_id(),
                report.errors(),
                report.warnings()
            ));
            for (i, f) in report.findings.iter().enumerate() {
                doc.push_str(&format!(
                    "{}\n    {{\"kind\": \"{}\", \"severity\": \"{}\", \"pc\": {}, \
                     \"message\": {:?}}}",
                    if i == 0 { "" } else { "," },
                    f.kind.name(),
                    f.severity,
                    f.pc,
                    f.message,
                ));
            }
            if !report.findings.is_empty() {
                doc.push_str("\n  ");
            }
            doc.push_str(&format!(
                "]}}{}\n",
                if wi + 1 < targets.len() { "," } else { "" }
            ));
        } else if report.findings.is_empty() {
            println!("{}: clean", w.registry_id());
        } else {
            println!(
                "{}: {} error(s), {} warning(s)",
                w.registry_id(),
                report.errors(),
                report.warnings()
            );
            for f in &report.findings {
                println!("  {f}");
            }
        }
    }
    doc.push_str("]\n");
    if json {
        print!("{doc}");
    } else if targets.len() > 1 {
        println!(
            "{} kernel(s) linted: {errors} error(s), {warnings} warning(s)",
            targets.len()
        );
    }
    if errors > 0 {
        Err(format!("lint found {errors} error(s)"))
    } else if deny && warnings > 0 {
        Err(format!("lint found {warnings} warning(s) (--deny)"))
    } else {
        Ok(())
    }
}

fn ace(id: Option<&String>) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    let program = w.program();
    let report = fsp_analyze::StaticAceReport::analyze(program);
    let classify = fsp_analyze::ClassifyReport::analyze(program, &fsp_core::abs_context_for(&w));
    println!("{}: static ACE classification", w.registry_id());
    for pc in 0..program.len() {
        let verdict = match report.classify(pc) {
            None => "-".to_owned(),
            Some(fsp_analyze::AceClass::Ace) => "ACE".to_owned(),
            Some(fsp_analyze::AceClass::UnAce) => "un-ACE".to_owned(),
            Some(fsp_analyze::AceClass::PartiallyUnAce) => {
                format!(
                    "partial ({}/{} bits dead)",
                    report.dead_bits_at(pc),
                    report.dest_bits_at(pc)
                )
            }
        };
        let mut absint = String::new();
        let crash = classify.crash_bits_at(pc);
        let detected = classify.detected_bits_at(pc);
        let class = classify.class_pruned_bits_at(pc);
        if crash + detected > 0 {
            absint.push_str(&format!("  predicted-DUE {}b", crash + detected));
        }
        if class > 0 {
            absint.push_str(&format!("  class {class}b"));
        }
        println!(
            "  {pc:4}  {:<44} {verdict}{absint}",
            program.instr(pc).to_string()
        );
    }
    let s = report.summary();
    println!(
        "{} un-ACE / {} partial / {} ACE instructions; {}/{} static bits pruned ({:.1}%)",
        s.unace_instructions,
        s.partial_instructions,
        s.ace_instructions,
        s.dead_bits,
        s.total_bits,
        100.0 * s.pruned_fraction(),
    );
    let c = classify.summary();
    println!(
        "absint: {} bits predicted CRASH, {} predicted Detected, \
         {} class-pruned in {} class(es); {:.1}% of static bits skipped",
        c.predicted_crash_bits,
        c.predicted_detected_bits,
        c.class_pruned_bits,
        c.classes,
        100.0 * c.skipped_fraction(),
    );
    Ok(())
}

/// `HardenConfig` shared by `protect` and `harden-report`.
fn harden_config(
    budget: f64,
    scope: fsp_protect::ProtectScope,
    samples: Option<usize>,
    opts: &Options,
) -> fsp_protect::HardenConfig {
    fsp_protect::HardenConfig {
        scope,
        budget,
        samples: samples.unwrap_or(500),
        seed: opts.seed,
        model: fsp_inject::FaultModel::SingleBitFlip,
        workers: opts.workers,
        use_ace: true,
    }
}

fn protect(
    id: Option<&String>,
    budget: f64,
    scope: fsp_protect::ProtectScope,
    samples: Option<usize>,
    opts: &Options,
) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    let config = harden_config(budget, scope, samples, opts);
    let started = std::time::Instant::now();
    let outcome = fsp_protect::harden_and_verify(&w, &config).map_err(|e| e.to_string())?;
    let plan = &outcome.plan;
    let report = &outcome.report;
    println!(
        "{}: selective DMR at budget {budget} ({scope} scope), {} sites/side in {:.1?}",
        w.registry_id(),
        report.samples,
        started.elapsed()
    );
    println!(
        "  protected {} of {} candidate instructions (+{} static, detect trap at pc {})",
        report.protected_static,
        report.candidate_static,
        outcome.hardened.added_static(),
        outcome.hardened.detect_pc,
    );
    let mut t = fsp_cli::output::Table::new(&["unit", "vulnerability", "cost", "selected"]);
    for (unit, selected) in plan
        .selected
        .iter()
        .map(|u| (u, true))
        .chain(plan.rejected.iter().map(|u| (u, false)))
    {
        t.row(vec![
            unit.label.clone(),
            format!("{:.2}", unit.vulnerability),
            unit.cost.to_string(),
            if selected { "yes" } else { "no" }.to_owned(),
        ]);
    }
    println!("{t}");
    if plan.unprotectable_vulnerability > 0.0 {
        println!(
            "  unprotectable SDC weight (stores, guarded, control): {:.2}",
            plan.unprotectable_vulnerability
        );
    }
    println!(
        "  overhead: planned {:+.1}% measured {:+.1}% (full DMR {:+.1}%)",
        100.0 * report.planned_overhead,
        100.0 * report.measured_overhead(),
        100.0 * report.full_dmr_overhead,
    );
    println!("  baseline:  {}", report.baseline);
    println!("  protected: {}", report.protected);
    println!(
        "  SDC {:.2}% -> {:.2}% ({:+.2} points); {:.1}% of baseline SDC weight detected",
        report.baseline.pct_sdc(),
        report.protected.pct_sdc(),
        -report.sdc_reduction_points(),
        100.0 * report.detection_coverage(),
    );
    Ok(())
}

fn harden_report(
    id: Option<&String>,
    scope: fsp_protect::ProtectScope,
    samples: Option<usize>,
    opts: &Options,
) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    let budgets = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0];
    let config = harden_config(0.0, scope, samples, opts);
    let started = std::time::Instant::now();
    let curve = fsp_protect::coverage_curve(&w, &config, &budgets).map_err(|e| e.to_string())?;
    println!(
        "{}: coverage-vs-overhead curve ({scope} scope, {} sites/side, {:.1?})",
        w.registry_id(),
        config.samples,
        started.elapsed()
    );
    let mut t = fsp_cli::output::Table::new(&[
        "budget",
        "protected",
        "overhead",
        "SDC %",
        "detected %",
        "coverage %",
    ]);
    for r in &curve {
        t.row(vec![
            format!("{:.3}", r.budget),
            format!("{}/{}", r.protected_static, r.candidate_static),
            format!("{:+.1}%", 100.0 * r.measured_overhead()),
            format!("{:.2}", r.protected.pct_sdc()),
            format!("{:.2}", 100.0 * r.protected.detected() / r.samples as f64),
            format!("{:.1}", 100.0 * r.detection_coverage()),
        ]);
    }
    println!("{t}");
    Ok(())
}

/// One kernel's `bench-inject` measurement.
struct BenchRow {
    id: &'static str,
    sites: usize,
    /// Batched fast path (multi-lane golden replay, `--batch` lanes).
    fast_secs: f64,
    /// Fast path with a lane budget of 1: every site one fault run,
    /// resumed from a checkpoint and stopped at the replay cut.
    solo_secs: f64,
    slow_secs: f64,
    /// Mean lanes resolved per shared replay in the batched run.
    lane_occupancy: f64,
    /// Golden run + checkpoint capture wall time (the campaign's setup
    /// phase, amortized over every injected site).
    prepare_nanos: u64,
    /// FNV-1a over the outcome codes in site order; identical across
    /// fast/slow paths and across tracing on/off.
    outcome_fnv: u64,
    skipped_fraction: f64,
    checkpoint_hits: u64,
    early_converged: u64,
    /// Static bits the abstract interpreter predicts as DUEs, as a
    /// fraction of the kernel's static destination bits.
    static_predicted_fraction: f64,
    /// Static bits folded into equivalence classes, same denominator.
    class_pruned_fraction: f64,
}

/// Benchmarks campaign throughput per registry kernel: the same sampled
/// single-bit-flip campaign is run on the slow path (full re-execution
/// per site), the solo fast path (`--batch 1`: each site a fault run
/// resumed from a checkpoint and stopped at the replay cut) and the
/// batched fast path, asserting the outcome vectors match along the way.
/// With `--json` the measurements are written as `BENCH_inject.json` (or
/// `--out PATH`).
fn bench_inject(
    samples: Option<usize>,
    opts: &Options,
    json: bool,
    out_path: Option<&str>,
) -> Result<(), String> {
    use fsp_inject::{FaultModel, NopObserver, WeightedSite};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let n = samples.unwrap_or(150);
    let mut rows: Vec<BenchRow> = Vec::new();
    for id in fsp_workloads::registry_ids() {
        let _kernel_span = fsp_obs::span_labeled("bench.kernel", id);
        let w = fsp_workloads::by_id(id, Scale::Eval).expect("registered");
        let prepare_start = fsp_obs::now_ns();
        let mut experiment = {
            let _prepare = fsp_obs::span("bench.prepare");
            Experiment::prepare(&w).map_err(|e| format!("{id}: {e}"))?
        };
        let prepare_nanos = fsp_obs::now_ns() - prepare_start;
        let space = experiment.site_space(0..w.launch().num_threads());
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let sites: Vec<WeightedSite> = space
            .sample_many(n, &mut rng)
            .into_iter()
            .map(WeightedSite::from)
            .collect();
        // Each path is run twice and the faster wall time kept: min-of-k
        // is the standard robust estimator for wall-clock benchmarks, and
        // it also absorbs the fast path's one-time cost of faulting the
        // checkpoint and golden-boundary structures into cache (the slow
        // path never touches them).
        let mut timed = |fast: bool, batch: usize, label: &'static str| {
            experiment.set_fast_path(fast);
            experiment.set_batch(batch);
            let _path = fsp_obs::span_labeled("bench.path", label);
            let mut best: Option<(fsp_inject::IncrementalCampaign, f64)> = None;
            for _ in 0..2 {
                let started = std::time::Instant::now();
                let run = experiment.run_campaign_incremental(
                    &sites,
                    FaultModel::SingleBitFlip,
                    opts.workers,
                    &[],
                    &NopObserver,
                );
                let secs = started.elapsed().as_secs_f64();
                if best.as_ref().is_none_or(|(_, b)| secs < *b) {
                    best = Some((run, secs));
                }
            }
            best.expect("two timed runs")
        };
        let (slow, slow_secs) = timed(false, 1, "slow");
        let (solo, solo_secs) = timed(true, 1, "solo");
        let (fast, fast_secs) = timed(true, opts.batch, "batched");
        if solo.outcomes != slow.outcomes {
            return Err(format!(
                "{id}: solo fast-path outcomes diverged from slow path"
            ));
        }
        if fast.outcomes != slow.outcomes {
            return Err(format!(
                "{id}: batched (--batch {}) outcomes diverged from slow path",
                opts.batch
            ));
        }
        let outcome_fnv = {
            let mut h = fsp_obs::Fnv1a::new();
            for o in &fast.outcomes {
                h.write(&[o.expect("complete run").code()]);
            }
            h.finish()
        };
        let c = fsp_analyze::ClassifyReport::analyze(w.program(), &fsp_core::abs_context_for(&w))
            .summary();
        let total_bits = c.total_bits.max(1) as f64;
        let work = fast.skipped_instructions + fast.executed_instructions;
        rows.push(BenchRow {
            id,
            sites: sites.len(),
            fast_secs,
            solo_secs,
            slow_secs,
            lane_occupancy: if fast.batch_replays == 0 {
                1.0
            } else {
                fast.batch_lanes as f64 / fast.batch_replays as f64
            },
            prepare_nanos,
            outcome_fnv,
            skipped_fraction: if work == 0 {
                0.0
            } else {
                fast.skipped_instructions as f64 / work as f64
            },
            checkpoint_hits: fast.checkpoint_hits,
            early_converged: fast.early_converged,
            static_predicted_fraction: (c.predicted_crash_bits + c.predicted_detected_bits) as f64
                / total_bits,
            class_pruned_fraction: c.class_pruned_bits as f64 / total_bits,
        });
    }
    let total_sites: usize = rows.iter().map(|r| r.sites).sum();
    let fast_total: f64 = rows.iter().map(|r| r.fast_secs).sum();
    let solo_total: f64 = rows.iter().map(|r| r.solo_secs).sum();
    let slow_total: f64 = rows.iter().map(|r| r.slow_secs).sum();
    if json {
        let mut doc = String::from("{\n");
        doc.push_str(&format!("  \"samples_per_kernel\": {n},\n"));
        doc.push_str(&format!("  \"workers\": {},\n", opts.workers));
        doc.push_str(&format!("  \"seed\": {},\n", opts.seed));
        doc.push_str(&format!("  \"batch\": {},\n", opts.batch));
        doc.push_str("  \"kernels\": [\n");
        for (i, r) in rows.iter().enumerate() {
            doc.push_str(&format!(
                "    {{\"id\": \"{}\", \"sites\": {}, \"slow_sites_per_sec\": {:.1}, \
                 \"solo_sites_per_sec\": {:.1}, \
                 \"fast_sites_per_sec\": {:.1}, \"speedup\": {:.2}, \
                 \"batch_speedup\": {:.2}, \"lane_occupancy\": {:.2}, \
                 \"prepare_nanos\": {}, \"slow_nanos\": {}, \"solo_nanos\": {}, \
                 \"fast_nanos\": {}, \
                 \"outcome_fnv\": \"{:#018x}\", \
                 \"skipped_prefix_fraction\": {:.4}, \"checkpoint_hits\": {}, \
                 \"early_converged\": {}, \"static_predicted_fraction\": {:.4}, \
                 \"class_pruned_fraction\": {:.4}}}{}\n",
                r.id,
                r.sites,
                r.sites as f64 / r.slow_secs,
                r.sites as f64 / r.solo_secs,
                r.sites as f64 / r.fast_secs,
                r.slow_secs / r.fast_secs,
                r.solo_secs / r.fast_secs,
                r.lane_occupancy,
                r.prepare_nanos,
                (r.slow_secs * 1e9) as u64,
                (r.solo_secs * 1e9) as u64,
                (r.fast_secs * 1e9) as u64,
                r.outcome_fnv,
                r.skipped_fraction,
                r.checkpoint_hits,
                r.early_converged,
                r.static_predicted_fraction,
                r.class_pruned_fraction,
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        doc.push_str("  ],\n");
        doc.push_str(&format!(
            "  \"aggregate\": {{\"sites\": {}, \"slow_sites_per_sec\": {:.1}, \
             \"solo_sites_per_sec\": {:.1}, \
             \"fast_sites_per_sec\": {:.1}, \"speedup\": {:.2}, \
             \"batch_speedup\": {:.2}}}\n",
            total_sites,
            total_sites as f64 / slow_total,
            total_sites as f64 / solo_total,
            total_sites as f64 / fast_total,
            slow_total / fast_total,
            solo_total / fast_total,
        ));
        doc.push_str("}\n");
        let path = out_path.unwrap_or("BENCH_inject.json");
        std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
        print!("{doc}");
        eprintln!("wrote {path}");
    } else {
        let mut t = fsp_cli::output::Table::new(&[
            "kernel",
            "sites",
            "slow sites/s",
            "solo sites/s",
            "batched sites/s",
            "speedup",
            "lanes",
            "skipped prefix",
            "ckpt hits",
            "early",
        ]);
        for r in &rows {
            t.row(vec![
                r.id.to_owned(),
                r.sites.to_string(),
                format!("{:.0}", r.sites as f64 / r.slow_secs),
                format!("{:.0}", r.sites as f64 / r.solo_secs),
                format!("{:.0}", r.sites as f64 / r.fast_secs),
                format!("{:.2}x", r.slow_secs / r.fast_secs),
                format!("{:.1}", r.lane_occupancy),
                format!("{:.1}%", 100.0 * r.skipped_fraction),
                r.checkpoint_hits.to_string(),
                r.early_converged.to_string(),
            ]);
        }
        println!("{t}");
        println!("solo = --batch 1: every site one fault run plus the replay cut, no lanes");
        println!(
            "aggregate over {} kernels: {} sites, {:.0} -> {:.0} -> {:.0} sites/s \
             ({:.2}x vs slow, {:.2}x vs solo, batch {})",
            rows.len(),
            total_sites,
            total_sites as f64 / slow_total,
            total_sites as f64 / solo_total,
            total_sites as f64 / fast_total,
            slow_total / fast_total,
            solo_total / fast_total,
            opts.batch,
        );
    }
    Ok(())
}

fn ptx_translate(path: Option<&String>) -> Result<(), String> {
    let path = path.ok_or("missing PTX file path")?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let program =
        fsp_isa::ptx::translate_ptx(&source).map_err(|e| format!("translating {path}: {e}"))?;
    let cfg = program.cfg();
    let loops = cfg.loops(&program);
    println!("{program}");
    println!(
        "// translated from {path}: {} instructions, {} basic blocks, {} loop(s), {} static dest bits",
        program.len(),
        cfg.blocks().len(),
        loops.len(),
        program.static_dest_bits(),
    );
    Ok(())
}

fn trace_thread(id: Option<&String>, tid: Option<&String>) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    let tid: u32 = parse(tid, "<tid>")?;
    let launch = w.launch();
    if tid >= launch.num_threads() {
        return Err(format!(
            "thread {tid} out of range (kernel has {} threads)",
            launch.num_threads()
        ));
    }
    let mut tracer = fsp_sim::Tracer::new(launch.num_threads(), launch.threads_per_cta())
        .with_full_traces([tid]);
    let mut memory = w.init_memory();
    fsp_sim::Simulator::new()
        .run(&launch, &mut memory, &mut tracer)
        .map_err(|e| format!("fault-free run failed: {e}"))?;
    let trace = tracer.finish();
    let program = launch.program();
    let forest = program.cfg().loops(program);
    let full = &trace.full[tid];
    let tagging = fsp_core::LoopTagging::analyze(full, &forest);
    println!(
        "thread {tid} of {}: {} dynamic instructions, {} fault sites",
        w.registry_id(),
        full.entries.len(),
        full.fault_bits()
    );
    for (i, (entry, tag)) in full.entries.iter().zip(&tagging.tags).enumerate() {
        let loop_note = tag.map_or(String::new(), |t| {
            format!("  [loop {} iter {}]", t.loop_id, t.iteration)
        });
        println!(
            "  {i:5}  pc {:4}  {:<44} bits {:2}{loop_note}",
            entry.pc,
            program.instr(entry.pc as usize).to_string(),
            entry.dest_bits,
        );
    }
    Ok(())
}

fn seeds(id: Option<&String>, opts: &Options) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    println!("{}", fsp_cli::extensions::seed_sensitivity(&w, opts));
    Ok(())
}

fn severity(id: Option<&String>, samples: Option<usize>, opts: &Options) -> Result<(), String> {
    let w = kernel(id, Scale::Eval)?;
    let n = samples.unwrap_or(1500);
    println!("{}", fsp_cli::extensions::sdc_severity(&w, n, opts));
    Ok(())
}

fn serve(
    addr: &str,
    data_dir: &str,
    opts: &Options,
    lease_ms: Option<u64>,
    chunk: Option<usize>,
    trace: bool,
) -> Result<(), String> {
    let mut config = fsp_serve::EngineConfig::new(data_dir)
        .job_workers(opts.workers)
        .trace(trace);
    if let Some(ms) = lease_ms {
        config = config.lease_ttl(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = chunk {
        config = config.chunk_sites(n);
    }
    let engine = std::sync::Arc::new(
        fsp_serve::Engine::open(config).map_err(|e| format!("opening {data_dir}: {e}"))?,
    );
    let server =
        fsp_serve::Server::bind(addr, engine).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("fsp-serve listening on {bound} (state in {data_dir})");
    server.run();
    Ok(())
}

/// Builds the job spec `submit` sends: pruned by default, sampled with
/// `-n`, protect with `--protect`.
fn submit_spec(
    id: Option<&String>,
    samples: Option<usize>,
    opts: &Options,
    protect: Option<(f64, fsp_protect::ProtectScope)>,
) -> Result<fsp_serve::JobSpec, String> {
    let id = id.ok_or("missing kernel id")?;
    let mut spec = match (protect, samples) {
        (Some((budget, scope)), samples) => {
            let mut spec = fsp_serve::JobSpec::protect(id, budget, samples.unwrap_or(500));
            if let fsp_serve::CampaignMode::Protect { scope: s, .. } = &mut spec.mode {
                *s = scope;
            }
            spec
        }
        (None, Some(n)) => fsp_serve::JobSpec::sampled(id, n),
        (None, None) => fsp_serve::JobSpec::pruned(id),
    };
    spec.seed = opts.seed;
    Ok(spec)
}

#[allow(clippy::too_many_arguments)]
fn submit(
    id: Option<&String>,
    samples: Option<usize>,
    opts: &Options,
    addr: &str,
    local: bool,
    wait: bool,
    fleet: bool,
    protect: Option<(f64, fsp_protect::ProtectScope)>,
    stop: Option<(f64, f64)>,
) -> Result<(), String> {
    let mut spec = submit_spec(id, samples, opts, protect)?;
    if let Some((margin, confidence)) = stop {
        if protect.is_some() {
            return Err("--stop-at-margin is not supported for protect jobs".to_owned());
        }
        spec = spec.with_stop(margin, confidence);
    }
    if local {
        if fleet {
            return Err("--local and --fleet are mutually exclusive".to_owned());
        }
        let result = fsp_serve::run_local(&spec, opts.workers)?;
        println!("{result}");
        return Ok(());
    }
    let client = fsp_serve::Client::new(addr);
    let job_id = if fleet {
        client.submit_fleet(&spec)?
    } else {
        client.submit(&spec)?
    };
    if wait {
        let status = client.wait(&job_id, std::time::Duration::from_secs(3600))?;
        match status.get("state").and_then(fsp_serve::Json::as_str) {
            Some("completed") => println!("{}", client.result(&job_id)?),
            Some(state) => return Err(format!("{job_id} ended in state `{state}`")),
            None => return Err("malformed status document".to_owned()),
        }
    } else {
        println!("{job_id}");
    }
    Ok(())
}

fn timeline(addr: &str, out: Option<&str>) -> Result<(), String> {
    let trace = fsp_serve::Client::new(addr).trace()?;
    match out {
        Some(path) => {
            std::fs::write(path, &trace).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{trace}"),
    }
    Ok(())
}

fn status(id: Option<&String>, addr: &str) -> Result<(), String> {
    let client = fsp_serve::Client::new(addr);
    match id {
        Some(id) => {
            // The raw document stays line one: it is the stable,
            // scriptable interface. The estimate table below is for
            // humans.
            println!("{}", client.status(id)?);
            println!("{}", progress_table(&client.progress(id)?));
        }
        None => println!("{}", client.jobs()?),
    }
    Ok(())
}

/// Renders a `/progress` document as the human-facing estimate table.
fn progress_table(doc: &fsp_serve::Json) -> String {
    use fsp_serve::Json;
    let str_field = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("?");
    let u64_field = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
    let f64_field = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = format!(
        "{} ({} {}) [{}] {}/{} sites done, {} cached\n",
        str_field("id"),
        str_field("kernel"),
        str_field("mode"),
        str_field("state"),
        u64_field("done"),
        u64_field("total"),
        u64_field("cache_hits"),
    );
    let mut t = fsp_cli::output::Table::new(&["outcome", "count", "estimate", "± half width"]);
    for row in doc
        .get("outcomes")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let f = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        t.row(vec![
            row.get("outcome")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            row.get("count")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                .to_string(),
            format!("{:7.3}%", 100.0 * f("estimate")),
            format!("{:.3}%", 100.0 * f("half_width")),
        ]);
    }
    out.push_str(&t.to_string());
    let requested = match doc.get("margin") {
        Some(Json::Num(margin)) => format!("requested ±{:.3}%", 100.0 * margin),
        _ => "no stop requested".to_owned(),
    };
    out.push_str(&format!(
        "achieved ±{:.3}% at {:.1}% confidence ({requested}); \
         ~{} sites to converge\n",
        100.0 * f64_field("achieved_margin"),
        100.0 * f64_field("confidence"),
        u64_field("projected_remaining"),
    ));
    if let Some(Json::Bool(true)) = doc.get("early_stopped") {
        out.push_str(&format!(
            "early-stopped after {} of {} planned sites\n",
            u64_field("sites_injected"),
            u64_field("total"),
        ));
    }
    out
}

/// `fsp watch <job>`: redraws the progress table until the job reaches a
/// terminal state. Each redraw asks the server to hold the request for
/// the next delay of the fleet's jittered backoff (quick first redraws, a
/// capped gentle cadence for long campaigns); the server answers at once
/// when the job ends, so the final table is never late.
fn watch(id: Option<&String>, addr: &str) -> Result<(), String> {
    let id = id.ok_or("missing job id")?;
    let client = fsp_serve::Client::new(addr);
    let mut backoff = fsp_fleet::Backoff::poll(fsp_fleet::wire::frame_fnv(id.as_bytes()));
    let mut wait = std::time::Duration::ZERO;
    loop {
        let doc = client.progress_after(id, wait)?;
        // ANSI clear-and-home keeps the table refreshing in place
        // without a TUI dependency.
        print!("\x1b[2J\x1b[H{}", progress_table(&doc));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        match doc.get("state").and_then(fsp_serve::Json::as_str) {
            Some("queued" | "running") => {}
            Some(_) | None => return Ok(()),
        }
        wait = backoff.next_delay();
    }
}

fn fetch(id: Option<&String>, addr: &str) -> Result<(), String> {
    let id = id.ok_or("missing job id")?;
    println!("{}", fsp_serve::Client::new(addr).result(id)?);
    Ok(())
}

fn cancel(id: Option<&String>, addr: &str) -> Result<(), String> {
    let id = id.ok_or("missing job id")?;
    fsp_serve::Client::new(addr).cancel(id)?;
    eprintln!("cancellation requested for {id}");
    Ok(())
}

fn worker(
    addr: &str,
    name: Option<String>,
    opts: &Options,
    idle_exit: bool,
    fail_after: Option<usize>,
) -> Result<(), String> {
    let name = name.unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let mut config = fsp_fleet::WorkerConfig::new(addr, &name);
    config.campaign_workers = opts.workers;
    config.exit_when_idle = idle_exit;
    config.fail_after = fail_after;
    eprintln!("fsp worker `{name}` pulling leases from {addr}");
    static STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    let summary = fsp_fleet::run_worker(&config, &STOP)?;
    eprintln!(
        "worker `{name}` done: {} chunks, {} sites{}",
        summary.chunks,
        summary.sites,
        if summary.abandoned {
            " (abandoned a lease)"
        } else {
            ""
        }
    );
    Ok(())
}

fn fleet_status(addr: &str) -> Result<(), String> {
    let doc = fsp_serve::Client::new(addr).fleet_status()?;
    let count = |key: &str| doc.get(key).and_then(fsp_serve::Json::as_u64).unwrap_or(0);
    println!(
        "chunks: {} available, {} leased, {} done",
        count("chunks_available"),
        count("chunks_leased"),
        count("chunks_done")
    );
    println!(
        "requeues: {}   duplicate submissions: {}",
        count("requeues"),
        count("duplicates")
    );
    let workers = doc
        .get("workers")
        .and_then(fsp_serve::Json::as_arr)
        .unwrap_or_default();
    if workers.is_empty() {
        println!("workers: none seen yet");
        return Ok(());
    }
    let mut t = fsp_cli::output::Table::new(&["worker", "leases", "heartbeats", "chunks", "sites"]);
    for w in workers {
        let field = |key: &str| {
            w.get(key)
                .and_then(fsp_serve::Json::as_u64)
                .unwrap_or(0)
                .to_string()
        };
        t.row(vec![
            w.get("name")
                .and_then(fsp_serve::Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            field("leases"),
            field("heartbeats"),
            field("chunks"),
            field("sites"),
        ]);
    }
    println!("{t}");
    Ok(())
}

/// One end-to-end fleet run for `fleet-bench`: an ephemeral coordinator
/// on a fresh state directory, `workers` in-process worker loops (one
/// campaign thread each, so worker count is the only scaling knob), one
/// sampled job on a cold store. Returns (seconds from submission until
/// the client sees the job settle, lease requeues observed).
fn fleet_bench_run(
    scratch: &std::path::Path,
    kernel: &str,
    n: usize,
    workers: usize,
    fail_after: Option<usize>,
    seed: u64,
) -> Result<(f64, u64), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let dir = scratch.join(format!(
        "{kernel}-w{workers}{}",
        if fail_after.is_some() { "-kill" } else { "" }
    ));
    // Repetitions share the path; each starts from an empty store.
    let _ = std::fs::remove_dir_all(&dir);
    // A dead worker's lease must expire quickly in the kill-overhead run;
    // healthy runs heartbeat well inside either TTL.
    let ttl = Duration::from_millis(if fail_after.is_some() { 1000 } else { 10_000 });
    let config = fsp_serve::EngineConfig::new(&dir)
        .job_workers(1)
        .chunk_sites(32)
        .lease_ttl(ttl);
    let engine = std::sync::Arc::new(
        fsp_serve::Engine::open(config).map_err(|e| format!("opening {}: {e}", dir.display()))?,
    );
    let handle = fsp_serve::Server::bind("127.0.0.1:0", std::sync::Arc::clone(&engine))
        .and_then(fsp_serve::Server::spawn)
        .map_err(|e| format!("starting coordinator: {e}"))?;
    let addr = handle.addr().to_string();
    let client = fsp_serve::Client::new(&addr);

    let mut spec = fsp_serve::JobSpec::sampled(kernel, n);
    spec.seed = seed;
    let started = std::time::Instant::now();
    let job = client.submit_fleet(&spec)?;

    let stop = AtomicBool::new(false);
    let (status, secs) = std::thread::scope(|scope| {
        for i in 0..workers {
            let mut cfg = fsp_fleet::WorkerConfig::new(&addr, format!("bench-{i}"));
            cfg.campaign_workers = 1;
            if i == 0 {
                cfg.fail_after = fail_after;
            }
            let stop = &stop;
            scope.spawn(move || {
                let _ = fsp_fleet::run_worker(&cfg, stop);
            });
        }
        let status = client.wait(&job, Duration::from_secs(600));
        // The job's end, not the workers' exit after it.
        let secs = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (status, secs)
    });
    let status = status?;
    match status.get("state").and_then(fsp_serve::Json::as_str) {
        Some("completed") => {}
        other => return Err(format!("{kernel} w={workers}: job ended as {other:?}")),
    }
    let requeues = client
        .metric("fsp_fleet_lease_requeues_total")
        .unwrap_or(0.0) as u64;
    handle.stop();
    engine.shutdown();
    Ok((secs, requeues))
}

/// Benchmarks distributed campaign execution: the same sampled job is
/// drained by 1, 2 and 4 single-threaded workers for three kernels, and
/// a separate run kills a worker mid-fleet (via `fail_after`) to price
/// one lease requeue. Every configuration runs [`FLEET_BENCH_REPS`]
/// times and reports its fastest run with the spread of the rest. With
/// `--json` the measurements, the command and the host core count are
/// written as `BENCH_fleet.json` (or `--out PATH`).
fn fleet_bench(
    samples: Option<usize>,
    opts: &Options,
    json: bool,
    out_path: Option<&str>,
) -> Result<(), String> {
    const KERNELS: [&str; 3] = ["gemm", "hotspot", "pathfinder"];
    const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
    let n = samples.unwrap_or(256);
    let scratch = std::env::temp_dir().join(format!("fsp-fleet-bench-{}", std::process::id()));

    /// Wall seconds of one configuration's repetitions, sorted.
    struct Runs(Vec<f64>);
    impl Runs {
        fn min(&self) -> f64 {
            self.0[0]
        }
        fn median(&self) -> f64 {
            self.0[self.0.len() / 2]
        }
        fn max(&self) -> f64 {
            self.0[self.0.len() - 1]
        }
        fn json(&self, n: usize) -> String {
            format!(
                "\"secs\": {:.3}, \"secs_median\": {:.3}, \"secs_max\": {:.3}, \
                 \"sites_per_sec\": {:.1}",
                self.min(),
                self.median(),
                self.max(),
                n as f64 / self.min()
            )
        }
    }
    let repeat = |kernel: &str, workers: usize, fail_after: Option<usize>| {
        let mut secs = Vec::with_capacity(FLEET_BENCH_REPS);
        let mut requeues = 0;
        for _ in 0..FLEET_BENCH_REPS {
            let (s, r) = fleet_bench_run(&scratch, kernel, n, workers, fail_after, opts.seed)?;
            secs.push(s);
            requeues = requeues.max(r);
        }
        secs.sort_by(f64::total_cmp);
        Ok::<_, String>((Runs(secs), requeues))
    };

    let mut rows: Vec<(&str, usize, Runs)> = Vec::new();
    for kernel in KERNELS {
        for workers in WORKER_COUNTS {
            let (runs, _) = repeat(kernel, workers, None)?;
            eprintln!(
                "{kernel} w={workers}: min {:.2}s ({:.0} sites/s), max {:.2}s",
                runs.min(),
                n as f64 / runs.min(),
                runs.max()
            );
            rows.push((kernel, workers, runs));
        }
    }
    let baseline = rows
        .iter()
        .find(|(kernel, workers, _)| *kernel == "gemm" && *workers == 2)
        .expect("measured above")
        .2
        .min();
    let (kill, requeues) = repeat("gemm", 2, Some(1))?;
    eprintln!(
        "gemm w=2 with one mid-run kill: min {:.2}s ({requeues} requeues, \
         +{:.2}s vs healthy)",
        kill.min(),
        kill.min() - baseline
    );
    let _ = std::fs::remove_dir_all(&scratch);

    if json {
        // Program name first, then the arguments exactly as given.
        let command = std::iter::once("fsp".to_owned())
            .chain(std::env::args().skip(1))
            .collect::<Vec<_>>()
            .join(" ");
        let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
        let mut doc = String::from("{\n");
        doc.push_str(&format!(
            "  \"command\": {},\n",
            fsp_serve::Json::Str(command)
        ));
        doc.push_str(&format!("  \"nproc\": {nproc},\n"));
        doc.push_str(&format!("  \"reps\": {FLEET_BENCH_REPS},\n"));
        doc.push_str(&format!("  \"samples_per_job\": {n},\n"));
        doc.push_str(&format!("  \"seed\": {},\n", opts.seed));
        doc.push_str("  \"chunk_sites\": 32,\n");
        doc.push_str("  \"scaling\": [\n");
        for (i, (kernel, workers, runs)) in rows.iter().enumerate() {
            doc.push_str(&format!(
                "    {{\"kernel\": \"{kernel}\", \"workers\": {workers}, \"sites\": {n}, {}}}{}\n",
                runs.json(n),
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        doc.push_str("  ],\n");
        doc.push_str(&format!(
            "  \"kill_overhead\": {{\"kernel\": \"gemm\", \"workers\": 2, \
             \"healthy_secs\": {baseline:.3}, {}, \"overhead_secs\": {:.3}, \
             \"requeues\": {requeues}}}\n",
            kill.json(n),
            kill.min() - baseline
        ));
        doc.push_str("}\n");
        let path = out_path.unwrap_or("BENCH_fleet.json");
        std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
        print!("{doc}");
        eprintln!("wrote {path}");
    } else {
        let mut t =
            fsp_cli::output::Table::new(&["kernel", "workers", "min secs", "max secs", "sites/s"]);
        for (kernel, workers, runs) in &rows {
            t.row(vec![
                (*kernel).to_owned(),
                workers.to_string(),
                format!("{:.2}", runs.min()),
                format!("{:.2}", runs.max()),
                format!("{:.0}", n as f64 / runs.min()),
            ]);
        }
        println!("{t}");
        println!(
            "mid-run kill (gemm, 2 workers): {:.2}s vs {baseline:.2}s healthy \
             (+{:.2}s, {requeues} lease requeues), fastest of {FLEET_BENCH_REPS}",
            kill.min(),
            kill.min() - baseline
        );
    }
    Ok(())
}

/// Repetitions per `fleet-bench` configuration (min-of-N with spread).
const FLEET_BENCH_REPS: usize = 5;

fn reproduce(
    artifact: Option<&String>,
    opts: &Options,
    out_path: Option<&str>,
) -> Result<(), String> {
    let artifact = artifact.ok_or("missing artifact (table1..table7, fig2..fig10, all)")?;
    let mut sink = String::new();
    type Driver = fn(&Options) -> String;
    let all: &[(&str, Driver)] = &[
        ("table1", tables::table1),
        ("table2", tables::table2),
        ("table3", tables::table3),
        ("table4", tables::table4),
        ("table5", tables::table5),
        ("table6", tables::table6),
        ("table7", tables::table7),
        ("fig2", figures::fig2),
        ("fig3", figures::fig3),
        ("fig4", figures::fig4),
        ("fig5", figures::fig5),
        ("fig6", figures::fig6),
        ("fig7", figures::fig7),
        ("fig8", figures::fig8),
        ("fig9", figures::fig9),
        ("fig10", figures::fig10),
    ];
    if artifact == "all" {
        for (name, driver) in all {
            let started = std::time::Instant::now();
            let text = driver(opts);
            let block = format!("==== {name} ({:.1?}) ====\n{text}", started.elapsed());
            println!("{block}");
            sink.push_str(&block);
            sink.push('\n');
        }
    } else {
        let Some((_, driver)) = all.iter().find(|(name, _)| name == artifact) else {
            return Err(format!("unknown artifact `{artifact}`"));
        };
        let text = driver(opts);
        println!("{text}");
        sink = text;
    }
    if let Some(path) = out_path {
        std::fs::write(path, sink).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
