//! The three closed-loop workloads and their correctness gate.
//!
//! Every job is submitted only after the previous result arrived. A
//! repetition of a pruned workload is a pass of pruned jobs through
//! `fsp_serve::run_local` (the `fsp submit --local` path) followed by a
//! placement triple; a repetition of `served-fleet` is the triple alone.
//! The triple drives a sampled job through in-process coordinators over
//! loopback HTTP: served cold, as a `--fleet` job drained by in-process
//! workers, then warm.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsp_core::{PruningConfig, PruningPipeline};
use fsp_inject::{Experiment, InjectionTarget, WeightedSite};
use fsp_serve::{Client, Engine, EngineConfig, JobSpec, Json, Server, ServerHandle};
use fsp_workloads::Scale;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Campaign threads per job: the host's two cores (`nproc` = 2), so no
/// workload runs more campaign threads than there are cores.
pub const CAMPAIGN_THREADS: usize = 2;

/// In-process fleet workers for the fleet phase, one campaign thread each.
pub const FLEET_WORKERS: usize = 2;

/// Status-poll interval of the benchmark's client. Short and fixed, so a
/// job's measured latency overshoots its completion by at most this much
/// (the CLI's jittered backoff would quantize results to its schedule).
const POLL: Duration = Duration::from_millis(2);

/// Longest a single job may take before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// `pruned-mix`: the paper's headline flow, dominated by batched replay.
const PRUNED_MIX: &[&str] = &["gemm", "2mm", "2dconv", "mvt", "kmeans_k2", "lud_k44"];
/// `hang-bound`: budget-exhausting hangs, lane demotion and checkpoint
/// restores dominate.
const HANG_BOUND: &[&str] = &["pathfinder", "lud_k46"];
/// Smoke-size kernel subsets (a second or two per pass).
const PRUNED_MIX_SMOKE: &[&str] = &["2dconv", "mvt"];
const HANG_BOUND_SMOKE: &[&str] = &["lud_k46"];

/// Profile digests ([`profile_digest`]) of the paper-default pruned job
/// of each kernel. Outcome vectors are a contract of the engines, so any
/// change here is a correctness regression, not a benchmark update.
const REFERENCE_DIGESTS: &[(&str, u64)] = &[
    ("gemm", 0x4df9_121f_9828_e0a1),
    ("2mm", 0x5464_7b4a_17db_668c),
    ("2dconv", 0x1ca3_78bb_2a48_4444),
    ("mvt", 0xb65c_ec6d_a64c_1682),
    ("kmeans_k2", 0xabee_6a57_1bad_5699),
    ("lud_k44", 0x3815_0a24_4016_ef20),
    ("pathfinder", 0x4358_e110_5797_cf03),
    ("lud_k46", 0x1f44_369c_6887_5b8e),
];

/// Operations attempted and failed across a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs submitted, plus leases granted in fleet phases.
    pub attempted: u64,
    /// Operations that did not complete or returned a wrong result.
    pub failed: u64,
    /// Lease requeues: retries the protocol absorbed.
    pub retries: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// A consistency check around the operations: only a failure counts,
    /// as one failed operation.
    pub fn verify(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check(false, what);
        }
    }
}

/// FNV-1a over a result document's kernel, site count and profile
/// weights. Deliberately not the whole document, so fields added to
/// result documents later do not read as a changed result.
#[must_use]
pub fn profile_digest(doc: &Json) -> Option<u64> {
    let mut h = fsp_obs::Fnv1a::new();
    h.write(doc.get("kernel")?.as_str()?.as_bytes());
    h.write_u64(doc.get("sites")?.as_u64()?);
    h.write(doc.get("profile")?.to_string().as_bytes());
    Some(h.finish())
}

fn reference_digest(kernel: &str) -> Option<u64> {
    REFERENCE_DIGESTS
        .iter()
        .find(|(k, _)| *k == kernel)
        .map(|&(_, d)| d)
}

/// Runs `f` with span recording off, restoring the previous state: the
/// benchmark's own set-up probes must not land in a traced pass.
fn untraced<R>(f: impl FnOnce() -> R) -> R {
    let was = fsp_obs::tracing_enabled();
    fsp_obs::set_tracing(false);
    let out = f();
    fsp_obs::set_tracing(was);
    out
}

/// Host time of one job's set-up, measured outside the job by calling the
/// same layers it calls before its first injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// `fsp_workloads::by_id`: assembles and builds the kernel registry.
    pub build_s: f64,
    /// `Experiment::prepare`: golden run and checkpoint capture.
    pub prepare_s: f64,
    /// `PruningPipeline::plan_for` (absint, ACE and the pruning stages), or
    /// site sampling for a sampled spec.
    pub plan_s: f64,
    /// Sites the plan holds.
    pub sites: usize,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.prepare_s + self.plan_s
    }
}

/// Times the set-up layers of `spec`'s job (untraced).
///
/// # Panics
///
/// Panics on a kernel that is not in the registry or faults fault-free;
/// every workload names registry kernels only.
#[must_use]
pub fn measure_setup(spec: &JobSpec) -> Setup {
    untraced(|| {
        let t = Instant::now();
        let w = fsp_workloads::by_id(&spec.kernel, Scale::Eval).expect("registry kernel");
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let exp = Experiment::prepare(&w).expect("fault-free run");
        let prepare_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sites = plan(spec, &w, &exp).len();
        Setup {
            build_s,
            prepare_s,
            plan_s: t.elapsed().as_secs_f64(),
            sites,
        }
    })
}

/// The site list a job of `spec` injects, planned exactly as the engine
/// plans it.
///
/// # Panics
///
/// Panics if planning faults or `spec` is a protect job.
#[must_use]
pub fn plan<T: InjectionTarget>(
    spec: &JobSpec,
    w: &fsp_workloads::Workload,
    exp: &Experiment<'_, T>,
) -> Vec<WeightedSite> {
    match spec.mode {
        fsp_serve::CampaignMode::Pruned {
            static_ace,
            loop_samples,
        } => {
            let config = PruningConfig {
                static_ace,
                loop_samples,
                loop_seed: spec.seed,
                ..PruningConfig::default()
            };
            PruningPipeline::new(config)
                .plan_for(exp)
                .expect("planning a registry kernel")
                .sites
        }
        fsp_serve::CampaignMode::Sampled { samples } => {
            let space = exp.site_space(0..w.launch().num_threads());
            let mut rng = StdRng::seed_from_u64(spec.seed);
            space
                .sample_many(samples, &mut rng)
                .into_iter()
                .map(WeightedSite::from)
                .collect()
        }
        fsp_serve::CampaignMode::Protect { .. } => panic!("no workload runs protect jobs"),
    }
}

/// One pass of a pruned workload: every kernel's paper-default pruned job,
/// back to back, in a seeded order.
#[derive(Debug, Clone)]
pub struct PrunedPass {
    /// First submit to last result.
    pub wall_s: f64,
    /// Per job: kernel, submit-to-result time, set-up layers.
    pub jobs: Vec<(&'static str, f64, Setup)>,
}

impl PrunedPass {
    pub fn setup_s(&self) -> f64 {
        self.jobs.iter().map(|(_, _, s)| s.total_s()).sum()
    }

    pub fn sites(&self) -> usize {
        self.jobs.iter().map(|(_, _, s)| s.sites).sum()
    }

    pub fn sites_per_s(&self) -> f64 {
        self.sites() as f64 / (self.wall_s - self.setup_s())
    }
}

/// Runs one pruned pass. `after_job` runs between jobs, outside the timed
/// window's work but inside its wall (it must be cheap: the traced run
/// drains spans there so the tracer's ring never overflows).
pub fn pruned_pass(
    kernels: &[&'static str],
    rng: &mut StdRng,
    tally: &mut Tally,
    after_job: &mut dyn FnMut(),
) -> PrunedPass {
    let mut order = kernels.to_vec();
    order.shuffle(rng);
    let start = Instant::now();
    let mut done: Vec<(&'static str, f64, Option<Json>)> = Vec::new();
    for kernel in order {
        let t = Instant::now();
        let doc = fsp_serve::run_local(&JobSpec::pruned(kernel), CAMPAIGN_THREADS);
        let latency = t.elapsed().as_secs_f64();
        after_job();
        let digest = doc.as_ref().ok().and_then(profile_digest);
        let expected = reference_digest(kernel);
        tally.check(digest.is_some() && digest == expected, || match &doc {
            Err(e) => format!("{kernel}: job failed: {e}"),
            Ok(_) => format!(
                "{kernel}: profile digest {:#018x} != reference {:#018x}",
                digest.unwrap_or(0),
                expected.unwrap_or(0)
            ),
        });
        done.push((kernel, latency, doc.ok()));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let jobs = done
        .into_iter()
        .map(|(kernel, latency, doc)| {
            let setup = measure_setup(&JobSpec::pruned(kernel));
            let sites = doc.as_ref().and_then(|d| d.get("sites")?.as_u64());
            tally.verify(sites == Some(setup.sites as u64), || {
                format!(
                    "{kernel}: job ran {sites:?} sites, the plan holds {}",
                    setup.sites
                )
            });
            (kernel, latency, setup)
        })
        .collect();
    PrunedPass { wall_s, jobs }
}

/// An in-process coordinator: engine, HTTP server and a client for it.
pub struct Coordinator {
    engine: Arc<Engine>,
    server: ServerHandle,
    client: Client,
    addr: String,
}

impl Coordinator {
    /// Opens an engine over `dir` (store recovery) and binds a loopback
    /// server on an ephemeral port.
    ///
    /// # Errors
    ///
    /// I/O errors from the store or the socket.
    pub fn start(dir: &Path) -> std::io::Result<Coordinator> {
        let mut config = EngineConfig::new(dir).job_workers(1);
        config.campaign_workers = CAMPAIGN_THREADS;
        let engine = Arc::new(Engine::open(config)?);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine))?.spawn()?;
        let addr = server.addr().to_string();
        Ok(Coordinator {
            engine,
            client: Client::new(&addr),
            server,
            addr,
        })
    }

    /// A client for the coordinator's loopback server.
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Stops the server and the engine's worker pool.
    pub fn stop(self) {
        self.server.stop();
        self.engine.shutdown();
    }

    /// Submits `spec` (to the fleet when `fleet`), drains it with
    /// [`FLEET_WORKERS`] in-process workers when on the fleet, and waits
    /// for its result. The result document must be byte-identical to
    /// `reference` (the `run_local` document of the same spec).
    pub fn run_job(
        &self,
        spec: &JobSpec,
        fleet: bool,
        reference: &str,
        tally: &mut Tally,
    ) -> Phase {
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let (outcome, worker_errors) = std::thread::scope(|scope| {
            let t = Instant::now();
            let submitted = if fleet {
                self.client.submit_fleet(spec)
            } else {
                self.client.submit(spec)
            };
            let submit_s = t.elapsed().as_secs_f64();
            let workers: Vec<_> = (0..if fleet { FLEET_WORKERS } else { 0 })
                .map(|i| {
                    let mut config = fsp_fleet::WorkerConfig::new(&self.addr, format!("bench-{i}"));
                    config.campaign_workers = 1;
                    let stop = &stop;
                    scope.spawn(move || fsp_fleet::run_worker(&config, stop))
                })
                .collect();
            let outcome = submitted.and_then(|id| self.wait(&id, start, submit_s));
            stop.store(true, Ordering::Relaxed);
            let errors: Vec<String> = workers
                .into_iter()
                .filter_map(|h| match h.join() {
                    Ok(Ok(_)) => None,
                    Ok(Err(e)) => Some(e),
                    Err(_) => Some("worker panicked".to_owned()),
                })
                .collect();
            (outcome, errors)
        });
        let label = if fleet { "fleet" } else { "served" };
        for e in worker_errors {
            tally.verify(false, || format!("{} {label} worker: {e}", spec.kernel));
        }
        match outcome {
            Ok((phase, doc)) => {
                let identical = doc.to_string() == reference;
                tally.check(identical, || {
                    format!("{} {label}: result differs from run_local", spec.kernel)
                });
                if fleet {
                    let fleet = self.engine.fleet_status_json();
                    let count = |key: &str| fleet.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                    let leases: f64 = fleet
                        .get("workers")
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|w| w.get("leases").and_then(Json::as_f64))
                        .sum();
                    // A lease is an operation of its own; an expired one
                    // that was re-served is a retry, not a failure.
                    tally.attempted += leases as u64;
                    tally.retries += count("requeues") as u64;
                    return Phase {
                        leases: leases as u64,
                        requeues: count("requeues") as u64,
                        duplicates: count("duplicates") as u64,
                        ..phase
                    };
                }
                phase
            }
            Err(e) => {
                tally.check(false, || format!("{} {label}: {e}", spec.kernel));
                Phase {
                    wall_s: start.elapsed().as_secs_f64(),
                    ..Phase::default()
                }
            }
        }
    }

    /// Polls the job's status every [`POLL`] until it leaves the active
    /// states, then fetches its result document.
    fn wait(&self, id: &str, start: Instant, submit_s: f64) -> Result<(Phase, Json), String> {
        let mut polls = 0u64;
        let status = loop {
            let status = self.client.status(id)?;
            polls += 1;
            match status.get("state").and_then(Json::as_str) {
                Some("queued" | "running") => {}
                Some("completed") => break status,
                other => return Err(format!("job ended {other:?}")),
            }
            if start.elapsed() > JOB_TIMEOUT {
                return Err(format!("timed out after {JOB_TIMEOUT:?}"));
            }
            std::thread::sleep(POLL);
        };
        let t = Instant::now();
        let doc = self.client.result(id)?;
        let result_s = t.elapsed().as_secs_f64();
        Ok((
            Phase {
                wall_s: start.elapsed().as_secs_f64(),
                submit_s,
                result_s,
                polls,
                cache_hits: status.get("cache_hits").and_then(Json::as_u64).unwrap_or(0),
                ..Phase::default()
            },
            doc,
        ))
    }
}

/// One served, fleet or warm phase as the client saw it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    /// Submit to result document.
    pub wall_s: f64,
    /// The `POST /jobs` round trip.
    pub submit_s: f64,
    /// The `GET /jobs/:id/result` round trip.
    pub result_s: f64,
    /// Status polls until completion.
    pub polls: u64,
    /// Sites the store resolved without injecting.
    pub cache_hits: u64,
    /// Fleet phase only: leases granted, requeued and delivered twice.
    pub leases: u64,
    pub requeues: u64,
    pub duplicates: u64,
}

impl Phase {
    /// Appends another job's timings and counts to this phase.
    fn add(&mut self, job: &Phase) {
        self.wall_s += job.wall_s;
        self.submit_s += job.submit_s;
        self.result_s += job.result_s;
        self.polls += job.polls;
        self.cache_hits += job.cache_hits;
        self.leases += job.leases;
        self.requeues += job.requeues;
        self.duplicates += job.duplicates;
    }
}

/// Warm resubmissions per triple: a warm job is short, so several back to
/// back make one steadier sample.
pub const WARM_JOBS: usize = 3;

/// One placement triple: a sampled job served cold, run cold on the fleet,
/// then served again warm ([`WARM_JOBS`] times).
#[derive(Debug, Clone, Copy)]
pub struct Triple {
    /// Both coordinators' `Engine::open` + `Server::bind`, plus the job's
    /// own set-up ([`Triple::job_setup_s`]).
    pub setup_s: f64,
    /// Kernel build, golden run and site sampling: the set-up each of the
    /// three jobs repeats inside its submit-to-result time.
    pub job_setup_s: f64,
    /// Sites of the job.
    pub sites: usize,
    pub served: Phase,
    pub fleet: Phase,
    pub warm: Phase,
}

impl Triple {
    /// Jobs in a triple.
    pub const JOBS: usize = 2 + WARM_JOBS;

    /// The jobs' submit-to-result times, back to back.
    pub fn wall_s(&self) -> f64 {
        self.served.wall_s + self.fleet.wall_s + self.warm.wall_s
    }

    /// Sites the jobs resolved per second of their time after set-up.
    pub fn sites_per_s(&self) -> f64 {
        let jobs = Self::JOBS as f64;
        jobs * self.sites as f64 / (self.wall_s() - jobs * self.job_setup_s)
    }

    /// Sites per second of submit-to-result time of each phase.
    pub fn served_sites_per_s(&self) -> f64 {
        self.sites as f64 / self.served.wall_s
    }

    pub fn fleet_sites_per_s(&self) -> f64 {
        self.sites as f64 / self.fleet.wall_s
    }

    pub fn warm_sites_per_s(&self) -> f64 {
        (WARM_JOBS * self.sites) as f64 / self.warm.wall_s
    }
}

/// A fresh, empty directory under the run's work directory.
///
/// # Errors
///
/// I/O errors creating it.
pub fn fresh_dir(root: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Runs a placement triple of `spec`: cold served job on a fresh store,
/// cold fleet job on another fresh store, then the served job again, warm.
///
/// # Errors
///
/// I/O errors opening either coordinator.
pub fn triple(
    spec: &JobSpec,
    reference: &str,
    root: &Path,
    tally: &mut Tally,
) -> std::io::Result<Triple> {
    let t = Instant::now();
    let served = Coordinator::start(&fresh_dir(root, "served")?)?;
    let fleet = Coordinator::start(&fresh_dir(root, "fleet")?)?;
    let open_s = t.elapsed().as_secs_f64();
    let setup = measure_setup(spec);

    let served_phase = served.run_job(spec, false, reference, tally);
    let fleet_phase = fleet.run_job(spec, true, reference, tally);
    let mut warm = Phase::default();
    for _ in 0..WARM_JOBS {
        let job = served.run_job(spec, false, reference, tally);
        tally.verify(job.cache_hits == setup.sites as u64, || {
            format!("warm job hit {} of {} sites", job.cache_hits, setup.sites)
        });
        warm.add(&job);
    }
    served.stop();
    fleet.stop();
    Ok(Triple {
        setup_s: open_s + setup.total_s(),
        job_setup_s: setup.total_s(),
        sites: setup.sites,
        served: served_phase,
        fleet: fleet_phase,
        warm,
    })
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PrunedMix,
    HangBound,
    ServedFleet,
}

impl Workload {
    /// The workload named `name` on the command line.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "pruned-mix" => Some(Workload::PrunedMix),
            "hang-bound" => Some(Workload::HangBound),
            "served-fleet" => Some(Workload::ServedFleet),
            _ => None,
        }
    }

    /// The kernels of the pruned passes (none on `served-fleet`).
    #[must_use]
    pub fn kernels(self, smoke: bool) -> &'static [&'static str] {
        match (self, smoke) {
            (Workload::PrunedMix, false) => PRUNED_MIX,
            (Workload::PrunedMix, true) => PRUNED_MIX_SMOKE,
            (Workload::HangBound, false) => HANG_BOUND,
            (Workload::HangBound, true) => HANG_BOUND_SMOKE,
            (Workload::ServedFleet, _) => &[],
        }
    }
}

/// Sites of the sampled gemm job each repetition runs through the
/// placement triple, and its smoke size.
const TRIPLE_SITES: (usize, usize) = (1500, 200);

/// Where in a repetition the traced run collects what the layers recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    PassStart,
    /// A pruned job returned.
    PassJob,
    PassEnd,
    TripleStart,
    TripleEnd,
}

/// One repetition: a pruned pass (pruned workloads only), then a placement
/// triple.
#[derive(Debug, Clone)]
pub struct Rep {
    pub pass: Option<PrunedPass>,
    pub triple: Triple,
}

impl Rep {
    /// The workload's own closed loop: the pruned pass, or the triple on
    /// `served-fleet`.
    pub fn wall_s(&self) -> f64 {
        self.pass
            .as_ref()
            .map_or_else(|| self.triple.wall_s(), |p| p.wall_s)
    }

    pub fn setup_s(&self) -> f64 {
        self.pass
            .as_ref()
            .map_or(self.triple.setup_s, PrunedPass::setup_s)
    }

    pub fn sites_per_s(&self) -> f64 {
        self.pass
            .as_ref()
            .map_or_else(|| self.triple.sites_per_s(), PrunedPass::sites_per_s)
    }
}

/// A workload's inputs, generated from the seed, and its repetitions.
pub struct Run {
    kernels: &'static [&'static str],
    rng: StdRng,
    /// The triple's sampled job and its `run_local` result document.
    pub spec: JobSpec,
    pub reference: String,
}

impl Run {
    /// Generates the inputs and computes the triple's reference result.
    ///
    /// # Errors
    ///
    /// The reference `run_local` failing.
    pub fn new(workload: Workload, smoke: bool, seed: u64) -> Result<Run, String> {
        let kernels = workload.kernels(smoke);
        let (full, small) = TRIPLE_SITES;
        let mut spec = JobSpec::sampled("gemm", if smoke { small } else { full });
        // The seed samples the `served-fleet` job's sites. A pruned
        // workload's seed orders its passes and leaves the triple's sites
        // fixed, so its triple costs the same from seed to seed.
        if workload == Workload::ServedFleet {
            spec.seed = seed;
        }
        let reference = fsp_serve::run_local(&spec, CAMPAIGN_THREADS)?.to_string();
        Ok(Run {
            kernels,
            rng: StdRng::seed_from_u64(seed),
            spec,
            reference,
        })
    }

    /// Runs one repetition, calling `mark` at its collection points.
    ///
    /// # Errors
    ///
    /// I/O errors from the triple's coordinators.
    pub fn rep(
        &mut self,
        root: &Path,
        tally: &mut Tally,
        mark: &mut dyn FnMut(Mark),
    ) -> std::io::Result<Rep> {
        let pass = (!self.kernels.is_empty()).then(|| {
            mark(Mark::PassStart);
            let pass = pruned_pass(self.kernels, &mut self.rng, tally, &mut || {
                mark(Mark::PassJob)
            });
            mark(Mark::PassEnd);
            pass
        });
        mark(Mark::TripleStart);
        let triple = triple(&self.spec, &self.reference, root, tally)?;
        mark(Mark::TripleEnd);
        Ok(Rep { pass, triple })
    }
}
