//! A cache of prepared runs, so a long-lived process pays a kernel's golden
//! run, checkpoint capture and boundary profiles once rather than once per
//! job.
//!
//! Entries are keyed by content — program fingerprint × launch hash — and
//! hold the target together with its [`PreparedRun`], both behind [`Arc`]s.
//! A job takes a [`Prepared`] handle (two reference counts) and builds its
//! own [`Experiment`] view from it, so jobs never share engine settings.
//!
//! The cache keeps entries only while someone holds it: a served engine or
//! a fleet worker loop takes a [`CacheHold`] for its lifetime, and when the
//! last hold is released every entry is dropped (and freed as soon as the
//! last job using it finishes). There is no other eviction: the callers'
//! keys are a fixed set (the kernel registry), which bounds the cache.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::campaign::{Experiment, PreparedRun};
use crate::target::InjectionTarget;

/// Cache key: `(program fingerprint, launch hash)`.
pub type CacheKey = (u64, u64);

/// A target and its prepared run, as the cache hands them out. Cloning is
/// two reference-count increments.
#[derive(Debug)]
pub struct Prepared<T> {
    key: CacheKey,
    target: Arc<T>,
    run: Arc<PreparedRun>,
}

impl<T> Clone for Prepared<T> {
    fn clone(&self) -> Self {
        Prepared {
            key: self.key,
            target: Arc::clone(&self.target),
            run: Arc::clone(&self.run),
        }
    }
}

impl<T: InjectionTarget> Prepared<T> {
    /// A fresh view of the prepared run: fast path on, default batch size.
    #[must_use]
    pub fn experiment(&self) -> Experiment<'_, T> {
        Experiment::from_prepared(&self.target, Arc::clone(&self.run))
    }

    /// The target the run was prepared from.
    #[must_use]
    pub fn target(&self) -> &T {
        &self.target
    }

    /// The shared prepared run.
    #[must_use]
    pub fn run(&self) -> &Arc<PreparedRun> {
        &self.run
    }

    /// The key the entry is cached under.
    #[must_use]
    pub fn key(&self) -> CacheKey {
        self.key
    }
}

/// A key's one-time preparation. Every caller that finds the key waits on
/// the same cell, so concurrent first uses of a key prepare it once.
type Cell<T> = Arc<OnceLock<Result<Prepared<T>, String>>>;

struct State<T> {
    /// Live [`CacheHold`]s.
    holds: usize,
    slots: HashMap<CacheKey, Cell<T>>,
}

/// A thread-safe map from [`CacheKey`] to [`Prepared`] entries, kept while
/// at least one [`CacheHold`] is alive.
///
/// The map lock is held only to look a key up or insert its cell, never
/// while a run is prepared: a miss prepares outside the lock, and a lookup
/// of another key is never blocked behind it. Callers asking for a key that
/// is still being prepared wait for that one preparation.
pub struct ExperimentCache<T> {
    state: Mutex<State<T>>,
    hits: fsp_obs::Counter,
    misses: fsp_obs::Counter,
    evicted: fsp_obs::Counter,
    entries: fsp_obs::Gauge,
}

/// Keeps an [`ExperimentCache`]'s entries alive; see
/// [`ExperimentCache::hold`].
pub struct CacheHold<'a, T> {
    cache: &'a ExperimentCache<T>,
}

impl<T> Drop for CacheHold<'_, T> {
    fn drop(&mut self) {
        let mut state = self.cache.lock();
        state.holds -= 1;
        if state.holds == 0 {
            self.cache.evicted.add(state.slots.len() as u64);
            state.slots.clear();
            self.cache.entries.set_u64(0);
        }
    }
}

impl<T> ExperimentCache<T> {
    /// An empty cache counting its lookups in `registry` as
    /// `fsp_experiment_cache_total{result="hit"|"miss"}`, the entries it
    /// drops on its last hold's release as `result="evicted"`, and its size
    /// as `fsp_experiment_cache_entries`.
    #[must_use]
    pub fn new(registry: &fsp_obs::Registry) -> Self {
        const HELP: &str = "Prepared-experiment cache lookups by result, and entries dropped.";
        let counter = |result| {
            registry.counter_labeled("fsp_experiment_cache_total", &[("result", result)], HELP)
        };
        ExperimentCache {
            state: Mutex::new(State {
                holds: 0,
                slots: HashMap::new(),
            }),
            hits: counter("hit"),
            misses: counter("miss"),
            evicted: counter("evicted"),
            entries: registry.gauge(
                "fsp_experiment_cache_entries",
                "Prepared experiments held by the cache.",
                fsp_obs::GaugeFormat::Auto,
            ),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Keeps what the cache prepares until the returned hold, and every
    /// other hold, is dropped; then the cache drops all its entries.
    /// Lookups while no hold is alive prepare a run and keep nothing.
    #[must_use]
    pub fn hold(&self) -> CacheHold<'_, T> {
        self.lock().holds += 1;
        CacheHold { cache: self }
    }
}

impl<T: InjectionTarget> ExperimentCache<T> {
    /// The entry under `key`, building its target with `build` and
    /// preparing it on a miss. A hit is one map lookup: `build` is not
    /// called.
    ///
    /// `build` must return the target `key` names (the caller computes
    /// `key` from the target's content, so equal keys mean equal runs), or
    /// an error if it cannot.
    ///
    /// # Errors
    ///
    /// The error of `build`, or a message if the fault-free run faults. A
    /// failed preparation is not cached; the next lookup tries again.
    pub fn get_or_prepare(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Result<T, String>,
    ) -> Result<Prepared<T>, String> {
        let cell = {
            let mut state = self.lock();
            if let Some(cell) = state.slots.get(&key) {
                self.hits.inc();
                Arc::clone(cell)
            } else {
                self.misses.inc();
                let cell = Cell::default();
                if state.holds > 0 {
                    state.slots.insert(key, Arc::clone(&cell));
                    self.entries.set_u64(state.slots.len() as u64);
                }
                cell
            }
        };
        // Whichever caller gets here first prepares; the others block on
        // the cell until it is done. The map lock is already released.
        let entry = cell.get_or_init(|| {
            let target = build()?;
            let run = PreparedRun::prepare(&target)
                .map_err(|e| format!("golden run of `{}` failed: {e}", target.name()))?;
            Ok(Prepared {
                key,
                target: Arc::new(target),
                run: Arc::new(run),
            })
        });
        if entry.is_err() {
            let mut state = self.lock();
            if state
                .slots
                .get(&key)
                .is_some_and(|slot| Arc::ptr_eq(slot, &cell))
            {
                state.slots.remove(&key);
                self.entries.set_u64(state.slots.len() as u64);
            }
        }
        entry.clone()
    }
}
