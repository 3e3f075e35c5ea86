//! Isolated layer probes: each times direct calls into one layer's public
//! functions, apart from any workload, so the layer is priced without
//! scheduler or protocol noise.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fsp_fleet::lease::{ChunkSpec, FleetConfig, LeaseTable, Submission};
use fsp_fleet::OutcomeFrame;
use fsp_inject::{Experiment, FaultModel, FaultSite, InjectionTarget, NopObserver, WeightedSite};
use fsp_serve::{JobRecord, JobSpec, Json, OutcomeKey, OutcomeStore};
use fsp_sim::{NopHook, Simulator, Tracer};
use fsp_stats::Outcome;
use fsp_workloads::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::flows::{fresh_dir, plan, Coordinator, Tally};

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Mean per-kernel costs of the compute layers, over a workload's kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelLayers {
    /// `fsp_isa::assemble` of the kernel's disassembly, µs per kernel.
    pub assemble_us: f64,
    /// Fault-free `Simulator::run` throughput, instructions per second.
    pub insn_per_s: f64,
    /// `Simulator::run` recording full traces of every thread, ms.
    pub traced_run_ms: f64,
    /// `Experiment::prepare`, ms.
    pub prepare_ms: f64,
    /// Planning the job's sites (`PruningPipeline::plan_for` for pruned
    /// specs), ms.
    pub plan_ms: f64,
    /// `ClassifyReport::analyze` (absint), ms.
    pub absint_ms: f64,
    /// `StaticAceReport::analyze`, ms.
    pub ace_ms: f64,
    /// Sites the plans hold, summed over the kernels.
    pub plan_sites: f64,
    /// Single-thread injection throughput of the three engines on the
    /// same sites: batched lanes, solo fast path, slow oracle path.
    pub batch_sites_per_s: f64,
    pub solo_sites_per_s: f64,
    pub slow_sites_per_s: f64,
    /// Golden-prefix instructions skipped by checkpoint resume, as a share
    /// of all instructions the batched run would otherwise execute.
    pub skipped_prefix_fraction: f64,
    /// Batched-run sites resolved Masked by early convergence.
    pub early_converged: f64,
}

/// Probes the compute layers on each spec's kernel. The injection engines
/// run an evenly strided subset of `engine_sites` sites of the job's plan;
/// the three engines must agree on every outcome.
pub fn kernel_layers(specs: &[JobSpec], engine_sites: usize, tally: &mut Tally) -> KernelLayers {
    const ASSEMBLE_REPS: usize = 20;
    let mut k = KernelLayers::default();
    let (mut insns, mut run_s) = (0u64, 0.0);
    let (mut batch, mut solo, mut slow) = ((0usize, 0.0), 0.0, 0.0);
    let (mut skipped, mut executed) = (0u64, 0u64);
    for spec in specs {
        let w = fsp_workloads::by_id(&spec.kernel, Scale::Eval).expect("registry kernel");
        let program = w.program();

        let body: String = program
            .to_string()
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n");
        let t = Instant::now();
        for _ in 0..ASSEMBLE_REPS {
            let again = fsp_isa::assemble(program.name(), black_box(&body));
            let same = again.is_ok_and(|p| p.instructions() == program.instructions());
            tally.verify(same, || {
                format!("{}: disassembly does not re-assemble", spec.kernel)
            });
        }
        k.assemble_us += secs(t) * 1e6 / ASSEMBLE_REPS as f64;

        let launch = w.launch();
        for _ in 0..2 {
            let mut memory = w.init_memory();
            let t = Instant::now();
            let stats = Simulator::new()
                .run(&launch, &mut memory, &mut NopHook)
                .expect("fault-free run");
            run_s += secs(t);
            insns += stats.instructions;
        }
        let mut memory = w.init_memory();
        let mut tracer = Tracer::new(launch.num_threads(), launch.threads_per_cta())
            .with_full_traces(0..launch.num_threads());
        let t = Instant::now();
        Simulator::new()
            .run(&launch, &mut memory, &mut tracer)
            .expect("fault-free run");
        black_box(tracer.finish());
        k.traced_run_ms += secs(t) * 1e3;

        let t = Instant::now();
        let mut exp = Experiment::prepare(&w).expect("fault-free run");
        k.prepare_ms += secs(t) * 1e3;
        let t = Instant::now();
        let sites = plan(spec, &w, &exp);
        k.plan_ms += secs(t) * 1e3;
        k.plan_sites += sites.len() as f64;
        let ctx = fsp_core::abs_context_for(&w);
        let t = Instant::now();
        black_box(fsp_analyze::ClassifyReport::analyze(program, &ctx));
        k.absint_ms += secs(t) * 1e3;
        let t = Instant::now();
        black_box(fsp_analyze::StaticAceReport::analyze(program));
        k.ace_ms += secs(t) * 1e3;

        let subset: Vec<WeightedSite> = sites
            .iter()
            .step_by((sites.len() / engine_sites).max(1))
            .take(engine_sites)
            .copied()
            .collect();
        let run = |exp: &Experiment<'_, _>| {
            let t = Instant::now();
            let run = exp.run_campaign_incremental(&subset, spec.model, 1, &[], &NopObserver);
            (run, secs(t))
        };
        let (batched, batched_s) = run(&exp);
        exp.set_batch(1);
        let (solo_run, solo_s) = run(&exp);
        exp.set_fast_path(false);
        let (slow_run, slow_s) = run(&exp);
        tally.verify(
            batched.is_complete()
                && batched.outcomes == solo_run.outcomes
                && batched.outcomes == slow_run.outcomes,
            || format!("{}: injection engines disagree", spec.kernel),
        );
        batch = (batch.0 + subset.len(), batch.1 + batched_s);
        solo += solo_s;
        slow += slow_s;
        skipped += batched.skipped_instructions;
        executed += batched.executed_instructions;
        k.early_converged += batched.early_converged as f64;
    }
    let n = specs.len() as f64;
    for per_kernel in [
        &mut k.assemble_us,
        &mut k.traced_run_ms,
        &mut k.prepare_ms,
        &mut k.plan_ms,
        &mut k.absint_ms,
        &mut k.ace_ms,
    ] {
        *per_kernel /= n;
    }
    k.insn_per_s = insns as f64 / run_s;
    k.batch_sites_per_s = batch.0 as f64 / batch.1;
    k.solo_sites_per_s = batch.0 as f64 / solo;
    k.slow_sites_per_s = batch.0 as f64 / slow;
    k.skipped_prefix_fraction = skipped as f64 / (skipped + executed).max(1) as f64;
    k
}

/// Costs of the store, codec and protocol layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolLayers {
    /// `OutcomeStore::open` replaying a 32768-record log, ms.
    pub store_open_ms: f64,
    /// `OutcomeStore::insert`, ns per record.
    pub store_insert_ns: f64,
    /// `OutcomeStore::flush` after each 32-record chunk, µs.
    pub store_flush_us: f64,
    /// `OutcomeStore::get` of a present key, ns.
    pub store_get_ns: f64,
    /// `Json` encode and `Json::parse` throughput over a corpus of the
    /// service's documents, MB/s.
    pub json_encode_mb_per_s: f64,
    pub json_parse_mb_per_s: f64,
    /// One 32-site `OutcomeFrame` encode → text → parse → decode, µs.
    pub wire_frame_us: f64,
    /// One loopback `Client` request (`GET /fleet`), µs.
    pub http_rtt_us: f64,
    /// One direct `LeaseTable` publish → acquire → complete, µs.
    pub lease_table_us: f64,
}

/// Records per wire frame and lease chunk in the probes.
const FRAME_SITES: usize = 32;

fn records(rng: &mut StdRng, n: usize) -> Vec<(OutcomeKey, Outcome)> {
    let outcomes = [
        Outcome::Masked,
        Outcome::Sdc,
        Outcome::CRASH,
        Outcome::HANG,
        Outcome::Detected,
    ];
    (0..n)
        .map(|i| {
            let site = FaultSite {
                tid: rng.gen_range(0..4096),
                dyn_idx: i as u32,
                bit: rng.gen_range(0..32),
            };
            let key = OutcomeKey::new(0xF5, 0x1A, FaultModel::SingleBitFlip, site);
            (key, outcomes[rng.gen_range(0..outcomes.len())])
        })
        .collect()
}

/// Probes the store, JSON, wire, lease and HTTP layers. `scale` shrinks the
/// repetition counts (1 = full size).
///
/// # Errors
///
/// I/O errors from the probe store or the probe server.
pub fn protocol_layers(
    root: &Path,
    seed: u64,
    scale: usize,
    tally: &mut Tally,
) -> std::io::Result<ProtocolLayers> {
    let mut p = ProtocolLayers::default();
    let mut rng = StdRng::seed_from_u64(seed);

    let n = 32_768 / scale;
    let data = records(&mut rng, n);
    let dir = fresh_dir(root, "probe-store")?;
    let mut store = OutcomeStore::open(&dir)?;
    let (mut insert_s, mut flush_s) = (0.0, 0.0);
    for chunk in data.chunks(FRAME_SITES) {
        let t = Instant::now();
        for (key, outcome) in chunk {
            store.insert(*key, *outcome)?;
        }
        insert_s += secs(t);
        let t = Instant::now();
        store.flush()?;
        flush_s += secs(t);
    }
    p.store_insert_ns = insert_s * 1e9 / n as f64;
    p.store_flush_us = flush_s * 1e6 / data.chunks(FRAME_SITES).len() as f64;
    let t = Instant::now();
    let hits = data
        .iter()
        .filter(|(key, outcome)| store.get(black_box(key)) == Some(*outcome))
        .count();
    p.store_get_ns = secs(t) * 1e9 / n as f64;
    tally.verify(hits == n, || {
        format!("store returned {hits} of {n} outcomes")
    });
    drop(store);
    let mut opens = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let store = OutcomeStore::open(&dir)?;
        opens.push(secs(t) * 1e3);
        tally.verify(store.len() == n, || {
            format!("recovered {} of {n} outcomes", store.len())
        });
    }
    p.store_open_ms = crate::stats::median(&opens);

    let frame = OutcomeFrame {
        worker: "probe".to_owned(),
        records: data[..FRAME_SITES].to_vec(),
    };
    let reps = 2000 / scale;
    let t = Instant::now();
    for _ in 0..reps {
        let text = black_box(&frame).to_json().to_string();
        let back = Json::parse(&text).and_then(|v| OutcomeFrame::from_json(&v));
        if back.as_ref() != Ok(&frame) {
            tally.verify(false, || "outcome frame did not round-trip".to_owned());
            break;
        }
    }
    p.wire_frame_us = secs(t) * 1e6 / reps as f64;

    let corpus: Vec<Json> = vec![
        frame.to_json(),
        JobRecord::new("job-1".to_owned(), JobSpec::pruned("gemm")).to_json(),
        fsp_serve::kernels_json(),
    ];
    let texts: Vec<String> = corpus.iter().map(ToString::to_string).collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    let t = Instant::now();
    for _ in 0..reps {
        for value in &corpus {
            black_box(black_box(value).to_string());
        }
    }
    p.json_encode_mb_per_s = (bytes * reps) as f64 / secs(t) / 1e6;
    let t = Instant::now();
    for _ in 0..reps {
        for text in &texts {
            black_box(Json::parse(black_box(text)).ok());
        }
    }
    p.json_parse_mb_per_s = (bytes * reps) as f64 / secs(t) / 1e6;
    let parsed_back = texts
        .iter()
        .all(|text| Json::parse(text).is_ok_and(|v| v.to_string() == *text));
    tally.verify(parsed_back, || "JSON corpus did not round-trip".to_owned());

    let table = LeaseTable::new(FleetConfig::default());
    let sites: Vec<FaultSite> = frame.records.iter().map(|(k, _)| k.site).collect();
    let delivered: BTreeMap<FaultSite, Outcome> =
        frame.records.iter().map(|(k, o)| (k.site, *o)).collect();
    let mut lease_s = 0.0;
    let mut accepted = 0;
    for chunk_idx in 0..reps {
        let spec = ChunkSpec {
            job: "probe".to_owned(),
            chunk_idx,
            kernel: "gemm".to_owned(),
            model: FaultModel::SingleBitFlip,
            fingerprint: 0xF5,
            launch: 0x1A,
            sites: sites.clone(),
        };
        let t = Instant::now();
        table.publish(vec![spec]);
        let grant = table.acquire("probe").grant;
        if let Some(grant) = grant {
            if table.complete(&grant.lease, "probe", &delivered) == Submission::Accepted {
                accepted += 1;
            }
        }
        lease_s += secs(t);
        black_box(table.take_completed("probe"));
        table.prune_delivered("probe");
    }
    tally.verify(accepted == reps, || {
        format!("lease table accepted {accepted} of {reps} chunks")
    });
    p.lease_table_us = lease_s * 1e6 / reps as f64;

    let server = Coordinator::start(&fresh_dir(root, "probe-http")?)?;
    let requests = 400 / scale;
    let t = Instant::now();
    let mut ok = 0;
    for _ in 0..requests {
        ok += usize::from(server.client().fleet_status().is_ok());
    }
    p.http_rtt_us = secs(t) * 1e6 / requests as f64;
    server.stop();
    tally.verify(ok == requests, || {
        format!("{ok} of {requests} loopback requests succeeded")
    });
    Ok(p)
}

/// Time of `run_local` on `spec`, median of three runs, checked against
/// `reference`.
pub fn local_time(spec: &JobSpec, reference: &str, tally: &mut Tally) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let doc = fsp_serve::run_local(spec, crate::flows::CAMPAIGN_THREADS);
            let s = secs(t);
            tally.check(doc.is_ok_and(|d| d.to_string() == reference), || {
                format!("{}: run_local result changed between runs", spec.kernel)
            });
            s
        })
        .collect();
    crate::stats::median(&times)
}
