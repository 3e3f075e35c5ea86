//! The prepared-experiment cache changes how often a process runs a
//! kernel's golden run, never what a campaign returns. A campaign through a
//! cache entry must give the same outcome vector, byte for byte, as one
//! through a freshly prepared experiment; racing first uses of a kernel
//! must prepare it once; the cache must keep entries exactly while it is
//! held and free them after; and a warm served job must not prepare at all.
//!
//! Every test takes one lock: they all prepare kernels, and the served-job
//! test counts `inject.prepare` spans on the process-wide tracer.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use fsp_inject::{
    Experiment, ExperimentCache, FaultModel, InjectionTarget, NopObserver, WeightedSite,
};
use fsp_obs::Registry;
use fsp_serve::{Engine, EngineConfig, JobSpec};
use fsp_sim::{Launch, MemBlock};
use fsp_workloads::{Scale, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn workload(id: &str) -> Workload {
    fsp_workloads::by_id(id, Scale::Eval).expect("registry kernel")
}

fn key(w: &Workload) -> (u64, u64) {
    (w.fingerprint(), w.launch_hash())
}

fn sampled(exp: &Experiment<'_, Workload>, n: usize, seed: u64) -> Vec<WeightedSite> {
    let space = exp.site_space(0..exp.target().launch().num_threads());
    let mut rng = StdRng::seed_from_u64(seed);
    space
        .sample_many(n, &mut rng)
        .into_iter()
        .map(WeightedSite::from)
        .collect()
}

fn outcomes(exp: &Experiment<'_, Workload>, sites: &[WeightedSite]) -> Vec<u8> {
    let run = exp.run_campaign_incremental(sites, FaultModel::SingleBitFlip, 2, &[], &NopObserver);
    run.outcomes
        .iter()
        .map(|o| o.expect("complete campaign").code())
        .collect()
}

/// `fsp_experiment_cache_total{result}` in `registry`.
fn count(registry: &Registry, result: &str) -> u64 {
    let series = format!("fsp_experiment_cache_total{{result=\"{result}\"}} ");
    let text = registry.render();
    text.lines()
        .find_map(|line| line.strip_prefix(&series))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {series}in\n{text}"))
}

#[test]
fn cached_campaigns_match_fresh_preparation_on_every_kernel() {
    let _serial = serial();
    let _hold = fsp_workloads::experiments().hold();
    for id in fsp_workloads::registry_ids() {
        let fresh_target = workload(id);
        let mut fresh = Experiment::prepare(&fresh_target).expect("fault-free run");
        let sites = sampled(&fresh, 64, 0x5EED ^ fresh.fault_free_instructions());
        let entry = fsp_workloads::prepared(id).expect("cache entry");
        assert_eq!(entry.key(), key(&fresh_target), "{id}: entry key");
        let again = fsp_workloads::prepared(id).expect("cache entry");
        assert!(Arc::ptr_eq(again.run(), entry.run()), "{id}: not a hit");
        for batch in [1, 16] {
            fresh.set_batch(batch);
            let want = outcomes(&fresh, &sites);
            // Two views of one entry with different settings must not
            // disturb each other or the shared run.
            let view = entry.experiment().with_batch(batch);
            let other = entry.experiment().with_batch(17 - batch);
            assert_eq!(outcomes(&view, &sites), want, "{id}: batch {batch}");
            assert_eq!(outcomes(&other, &sites), want, "{id}: batch {}", 17 - batch);
        }
    }
}

/// A workload whose `launch()` — the first step of preparation — blocks
/// until the test opens the gate, reporting when it got there.
struct Gated {
    inner: Workload,
    entered: mpsc::SyncSender<()>,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl InjectionTarget for Gated {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn launch(&self) -> Launch {
        let _ = self.entered.try_send(());
        let (open, cv) = &*self.gate;
        let mut open = open.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        self.inner.launch()
    }

    fn init_memory(&self) -> MemBlock {
        self.inner.init_memory()
    }

    fn output_region(&self) -> (u32, usize) {
        self.inner.output_region()
    }
}

#[test]
fn racing_first_uses_prepare_once_without_blocking_other_kernels() {
    let _serial = serial();
    let registry = Registry::new();
    let cache: ExperimentCache<Gated> = ExperimentCache::new(&registry);
    let _hold = cache.hold();
    let gate = Arc::new((Mutex::new(true), Condvar::new()));
    let gated = |id: &str, entered: mpsc::SyncSender<()>| Gated {
        inner: workload(id),
        entered,
        gate: Arc::clone(&gate),
    };
    let (warm_tx, _warm_rx) = mpsc::sync_channel(64);
    let warm_key = key(&workload("lud_k44"));
    cache
        .get_or_prepare(warm_key, || Ok(gated("lud_k44", warm_tx.clone())))
        .expect("warm entry");

    // Close the gate: the first preparation of gemm now stalls inside
    // `launch()` while eight threads race on it.
    *gate.0.lock().unwrap() = false;
    let cold_key = key(&workload("gemm"));
    let (entered_tx, entered_rx) = mpsc::sync_channel(64);
    let runs = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                let target = gated("gemm", entered_tx.clone());
                let cache = &cache;
                scope.spawn(move || cache.get_or_prepare(cold_key, || Ok(target)).expect("gemm"))
            })
            .collect();
        entered_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a racer starts preparing");
        // The map lock is free while gemm prepares: a hit on another
        // kernel returns at once.
        let (hit_tx, hit_rx) = mpsc::channel();
        let warm = gated("lud_k44", warm_tx.clone());
        let cache = &cache;
        scope.spawn(move || {
            let _ = hit_tx.send(cache.get_or_prepare(warm_key, || Ok(warm)).is_ok());
        });
        let hit = hit_rx.recv_timeout(Duration::from_secs(60));
        let (open, cv) = &*gate;
        *open.lock().unwrap() = true;
        cv.notify_all();
        assert_eq!(
            hit,
            Ok(true),
            "a hit waited behind another kernel's preparation"
        );
        racers
            .into_iter()
            .map(|r| r.join().expect("racer"))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        entered_rx.try_iter().count(),
        0,
        "gemm prepared more than once"
    );
    assert_eq!(count(&registry, "miss"), 2, "one miss per kernel");
    assert_eq!(
        count(&registry, "hit"),
        8,
        "seven racers plus the other kernel's hit"
    );
    for run in &runs {
        assert!(
            Arc::ptr_eq(run.run(), runs[0].run()),
            "racers share one run"
        );
    }
}

#[test]
fn entries_live_while_the_cache_is_held_and_are_freed_after() {
    let _serial = serial();
    let registry = Registry::new();
    let cache: ExperimentCache<Workload> = ExperimentCache::new(&registry);
    let get = |id: &str| {
        let w = workload(id);
        cache.get_or_prepare(key(&w), || Ok(w)).expect("prepared")
    };
    // Without a hold nothing is kept: every lookup prepares afresh.
    let loose = get("lud_k44");
    assert!(!Arc::ptr_eq(get("lud_k44").run(), loose.run()));
    assert_eq!((count(&registry, "hit"), count(&registry, "miss")), (0, 2));
    assert!(registry.render().contains("fsp_experiment_cache_entries 0"));

    let first = cache.hold();
    let second = cache.hold();
    let a = get("lud_k44");
    let b = get("lud_k45");
    let b_run = Arc::downgrade(b.run());
    drop(b);
    drop(first);
    // One hold is left: both entries are kept, and a lookup is a hit on
    // the same run, without building its target.
    assert!(b_run.upgrade().is_some(), "entry dropped while held");
    let a_again = cache
        .get_or_prepare(a.key(), || panic!("a hit builds nothing"))
        .expect("hit");
    assert!(Arc::ptr_eq(a_again.run(), a.run()));
    assert_eq!((count(&registry, "hit"), count(&registry, "miss")), (1, 4));
    assert!(registry.render().contains("fsp_experiment_cache_entries 2"));

    // The last hold's release drops every entry; a run lives exactly as
    // long as a job still holds it.
    drop(second);
    assert!(b_run.upgrade().is_none(), "released entry not freed");
    let a_run = Arc::downgrade(a.run());
    drop((a, a_again));
    assert!(a_run.upgrade().is_none(), "released entry not freed");
    assert_eq!(count(&registry, "evicted"), 2);
    assert!(registry.render().contains("fsp_experiment_cache_entries 0"));

    // A failed build is not cached.
    let _hold = cache.hold();
    let err = cache.get_or_prepare((1, 2), || Err("no such kernel".to_owned()));
    assert_eq!(err.err().as_deref(), Some("no such kernel"));
    assert!(registry.render().contains("fsp_experiment_cache_entries 0"));
}

#[test]
fn warm_served_job_does_not_prepare() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("fsp-experiment-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::open(EngineConfig::new(&dir).job_workers(1)).expect("open engine");
    let spec = JobSpec::sampled("gemm", 200);
    let result = |id: &str| {
        assert!(engine.wait_idle(Duration::from_secs(300)), "job ends");
        engine.result_json(id).expect("completed").to_string()
    };
    fsp_obs::set_tracing(true);
    let _ = fsp_obs::drain();
    let cold = engine.submit(spec.clone()).expect("submit");
    let cold = result(&cold);
    let cold_prepares = count_prepares();
    let warm = engine.submit(spec).expect("submit");
    let warm = result(&warm);
    let warm_prepares = count_prepares();
    fsp_obs::set_tracing(false);
    // The engine holds the entry its jobs used until it shuts down.
    let entry = Arc::downgrade(fsp_workloads::prepared("gemm").expect("gemm").run());
    assert!(entry.upgrade().is_some(), "engine dropped its entry");
    engine.shutdown();
    assert!(entry.upgrade().is_none(), "shut-down engine kept its entry");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm, cold);
    assert!(
        cold_prepares <= 1,
        "cold job prepared {cold_prepares} times"
    );
    assert_eq!(warm_prepares, 0, "warm job prepared");
    let metrics = engine.metrics_text();
    assert!(
        metrics.contains("fsp_experiment_cache_total{result=\"hit\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("fsp_experiment_cache_entries"),
        "{metrics}"
    );
}

/// `inject.prepare` spans recorded since the last call.
fn count_prepares() -> usize {
    fsp_obs::drain()
        .events
        .iter()
        .filter(|e| e.name == "inject.prepare")
        .count()
}
