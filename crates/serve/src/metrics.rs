//! Service counters and their Prometheus text rendering, backed by the
//! unified `fsp-obs` metrics registry.
//!
//! The registry is **per-engine** (not the process-global
//! [`fsp_obs::registry`]): tests construct several engines in one process
//! and each must see its own counters. Every metric name and label the
//! pre-registry implementation exposed renders byte-identically; the
//! migration only *adds* series (cancelled jobs, campaign nanoseconds and
//! whatever the injection layer publishes globally — appended by the
//! engine's `metrics_text`).

use fsp_core::StageCounts;
use fsp_obs::{Counter, Gauge, GaugeFormat, Registry};

/// Stable metric labels of the campaign modes, in breakout order.
pub const MODES: [&str; 3] = ["pruned", "sampled", "protect"];

/// Stable metric labels of the pruning stages, in pipeline order
/// (surviving sites *after* each stage; `exhaustive` is the population).
pub const STAGES: [&str; 7] = [
    "exhaustive",
    "static_ace",
    "absint",
    "thread",
    "instruction",
    "loop",
    "bit",
];

/// Index of a [`crate::CampaignMode::mode_name`] into the per-mode counters.
/// Unknown names fold into slot 0 rather than panicking in a metrics path.
#[must_use]
pub fn mode_index(mode: &str) -> usize {
    MODES.iter().position(|m| *m == mode).unwrap_or(0)
}

/// Monotonic service counters, shared lock-free between the worker pool
/// and the HTTP layer. Handles are cheap clones into the engine's
/// registry; derived gauges (rates, throughput) are recomputed at render
/// time from the raw counters.
#[derive(Debug)]
pub struct Metrics {
    registry: Registry,
    /// Jobs accepted by `POST /jobs` (plus jobs recovered on restart).
    pub jobs_submitted: Counter,
    /// Jobs that reached the completed state.
    pub jobs_completed: Counter,
    /// Jobs that failed (bad kernel, workload fault).
    pub jobs_failed: Counter,
    /// Jobs cancelled by request.
    pub jobs_cancelled: Counter,
    /// Fault sites actually injected (cache misses that ran).
    pub sites_injected: Counter,
    /// Sites resolved from the persistent outcome store.
    pub cache_hits: Counter,
    /// Sites that had to be injected because the store missed.
    pub cache_misses: Counter,
    /// Wall-clock nanoseconds spent inside injection campaigns.
    pub injection_nanos: Counter,
    /// Injected runs that resumed from a golden checkpoint instead of
    /// replaying the shared prefix.
    pub checkpoint_hits: Counter,
    /// Golden-prefix instructions skipped via checkpoint resume.
    pub skipped_instructions: Counter,
    /// Injected runs classified Masked by early convergence (divergence
    /// set emptied before the run finished).
    pub early_converged: Counter,
    /// Completed jobs per campaign mode (indexed by [`MODES`]).
    pub jobs_completed_by_mode: [Counter; MODES.len()],
    /// Injected sites per campaign mode.
    pub sites_injected_by_mode: [Counter; MODES.len()],
    /// Campaign wall-clock nanoseconds per campaign mode.
    pub injection_nanos_by_mode: [Counter; MODES.len()],
    /// Sites surviving after each pruning stage, summed over planned
    /// pruned campaigns (indexed by [`STAGES`]).
    pub stage_sites: [Counter; STAGES.len()],
    /// Exhaustive-site weight statically predicted `CRASH` and skipped
    /// (rounded to whole sites).
    pub predicted_crash_weight: Counter,
    /// Exhaustive-site weight statically predicted `Detected` and skipped
    /// (rounded to whole sites).
    pub predicted_detected_weight: Counter,
    /// Latency of outcome-store flushes (per chunk, per campaign tail and
    /// per fleet submission frame).
    pub store_flush_nanos: fsp_obs::Histogram,
    /// Sites resolved per outcome class (cache hits, in-process chunks and
    /// fleet deliveries alike), indexed by `Outcome::code()` — the same
    /// counts the per-job `outcomes` field and the dashboard report.
    pub job_outcome_total: [Counter; fsp_stats::stream::CLASSES],
    cache_hit_rate: Gauge,
    sites_per_second: Gauge,
    sites_per_second_by_mode: [Gauge; MODES.len()],
    store_outcomes: Gauge,
}

impl Default for Metrics {
    // One registration call per exposed series; length is the roster, not
    // complexity.
    #[allow(clippy::too_many_lines)]
    fn default() -> Self {
        let r = Registry::new();
        // Registration order is render order; it mirrors the historical
        // hand-rolled output so diffs against old scrapes stay readable.
        let jobs_submitted = r.counter("fsp_jobs_submitted_total", "Jobs accepted since start.");
        let jobs_completed = r.counter("fsp_jobs_completed_total", "Jobs completed since start.");
        let jobs_failed = r.counter("fsp_jobs_failed_total", "Jobs failed since start.");
        let jobs_cancelled = r.counter("fsp_jobs_cancelled_total", "Jobs cancelled since start.");
        let sites_injected = r.counter(
            "fsp_sites_injected_total",
            "Fault sites injected (cache misses run).",
        );
        let cache_hits = r.counter(
            "fsp_cache_hits_total",
            "Sites resolved from the outcome store.",
        );
        let cache_misses = r.counter(
            "fsp_cache_misses_total",
            "Sites not found in the outcome store.",
        );
        let checkpoint_hits = r.counter(
            "fsp_checkpoint_hits_total",
            "Injected runs resumed from a golden checkpoint.",
        );
        let skipped_instructions = r.counter(
            "fsp_skipped_instructions_total",
            "Golden-prefix instructions skipped via checkpoint resume.",
        );
        let early_converged = r.counter(
            "fsp_early_converged_total",
            "Injected runs classified Masked by early convergence.",
        );
        let injection_nanos = r.counter(
            "fsp_injection_nanos_total",
            "Wall-clock nanoseconds spent inside injection campaigns.",
        );
        let cache_hit_rate = r.gauge(
            "fsp_cache_hit_rate",
            "Fraction of sites served from the store.",
            GaugeFormat::Auto,
        );
        let sites_per_second = r.gauge(
            "fsp_sites_per_second",
            "Injection throughput over campaign wall time.",
            GaugeFormat::Fixed1,
        );
        let jobs_completed_by_mode = std::array::from_fn(|i| {
            r.counter_labeled(
                "fsp_jobs_completed_by_mode",
                &[("mode", MODES[i])],
                "Jobs completed, by campaign mode.",
            )
        });
        let sites_injected_by_mode = std::array::from_fn(|i| {
            r.counter_labeled(
                "fsp_sites_injected_by_mode",
                &[("mode", MODES[i])],
                "Fault sites injected, by campaign mode.",
            )
        });
        let injection_nanos_by_mode = std::array::from_fn(|i| {
            r.counter_labeled(
                "fsp_injection_nanos_by_mode",
                &[("mode", MODES[i])],
                "Campaign wall-clock nanoseconds, by campaign mode.",
            )
        });
        let sites_per_second_by_mode = std::array::from_fn(|i| {
            r.gauge_labeled(
                "fsp_sites_per_second_by_mode",
                &[("mode", MODES[i])],
                "Injection throughput, by campaign mode.",
                GaugeFormat::Fixed1,
            )
        });
        let stage_sites = std::array::from_fn(|i| {
            r.counter_labeled(
                "fsp_plan_sites_by_stage",
                &[("stage", STAGES[i])],
                "Sites surviving each pruning stage, summed over planned campaigns.",
            )
        });
        let predicted_crash_weight = r.counter_labeled(
            "fsp_predicted_due_weight",
            &[("kind", "crash")],
            "Exhaustive-site weight statically predicted as a DUE and skipped, \
             by predicted outcome.",
        );
        let predicted_detected_weight = r.counter_labeled(
            "fsp_predicted_due_weight",
            &[("kind", "detected")],
            "Exhaustive-site weight statically predicted as a DUE and skipped, \
             by predicted outcome.",
        );
        let store_outcomes = r.gauge(
            "fsp_store_outcomes",
            "Outcomes in the persistent store.",
            GaugeFormat::Auto,
        );
        let store_flush_nanos = r.histogram(
            "fsp_store_flush_nanos",
            "Outcome-store flush latency in nanoseconds.",
        );
        // New series append after every legacy registration so historical
        // scrape output stays a byte-identical prefix-by-series.
        let job_outcome_total = std::array::from_fn(|i| {
            r.counter_labeled(
                "fsp_job_outcome_total",
                &[("outcome", fsp_stats::stream::CLASS_LABELS[i])],
                "Sites resolved by outcome class, across all jobs.",
            )
        });
        Metrics {
            registry: r,
            jobs_submitted,
            jobs_completed,
            jobs_failed,
            jobs_cancelled,
            sites_injected,
            cache_hits,
            cache_misses,
            injection_nanos,
            checkpoint_hits,
            skipped_instructions,
            early_converged,
            jobs_completed_by_mode,
            sites_injected_by_mode,
            injection_nanos_by_mode,
            stage_sites,
            predicted_crash_weight,
            predicted_detected_weight,
            store_flush_nanos,
            job_outcome_total,
            cache_hit_rate,
            sites_per_second,
            sites_per_second_by_mode,
            store_outcomes,
        }
    }
}

#[allow(clippy::cast_precision_loss)]
fn rate_per_second(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        count as f64 / (nanos as f64 / 1e9)
    }
}

impl Metrics {
    /// Adds a campaign's cache accounting in one shot, attributed to the
    /// mode at `mode` (see [`mode_index`]).
    pub fn record_campaign(&self, mode: usize, hits: u64, injected: u64, nanos: u64) {
        self.cache_hits.add(hits);
        self.cache_misses.add(injected);
        self.sites_injected.add(injected);
        self.injection_nanos.add(nanos);
        self.sites_injected_by_mode[mode].add(injected);
        self.injection_nanos_by_mode[mode].add(nanos);
    }

    /// Adds a pruned campaign's per-stage plan accounting: how many sites
    /// survived each stage, and how much weight the static analysis
    /// predicted as DUEs without running it.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn record_plan(&self, stages: &StageCounts, predicted_crash: f64, predicted_detected: f64) {
        let by_stage = [
            stages.exhaustive,
            stages.after_static,
            stages.after_absint,
            stages.after_thread,
            stages.after_instruction,
            stages.after_loop,
            stages.after_bit,
        ];
        for (counter, n) in self.stage_sites.iter().zip(by_stage) {
            counter.add(n);
        }
        self.predicted_crash_weight
            .add(predicted_crash.round() as u64);
        self.predicted_detected_weight
            .add(predicted_detected.round() as u64);
    }

    /// Adds a campaign's checkpoint-resume fast-path accounting.
    pub fn record_fast_path(&self, checkpoint_hits: u64, skipped: u64, early_converged: u64) {
        self.checkpoint_hits.add(checkpoint_hits);
        self.skipped_instructions.add(skipped);
        self.early_converged.add(early_converged);
    }

    /// Renders the Prometheus text exposition format. `jobs_by_state`
    /// supplies the current gauge of jobs per state (queued/running/...),
    /// which lives in the job table rather than in atomic counters.
    #[must_use]
    pub fn render(&self, jobs_by_state: &[(&str, u64)], store_len: u64) -> String {
        // Refresh the derived gauges from the raw counters, then let the
        // registry render everything in registration order.
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        self.cache_hit_rate.set(if hits + misses == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                hits as f64 / (hits + misses) as f64
            }
        });
        self.sites_per_second.set(rate_per_second(
            self.sites_injected.get(),
            self.injection_nanos.get(),
        ));
        for i in 0..MODES.len() {
            self.sites_per_second_by_mode[i].set(rate_per_second(
                self.sites_injected_by_mode[i].get(),
                self.injection_nanos_by_mode[i].get(),
            ));
        }
        for (state, count) in jobs_by_state {
            self.registry
                .gauge_labeled(
                    "fsp_jobs",
                    &[("state", state)],
                    "Jobs by state.",
                    GaugeFormat::Auto,
                )
                .set_u64(*count);
        }
        self.store_outcomes.set_u64(store_len);
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_prometheus_text() {
        let m = Metrics::default();
        m.jobs_submitted.add(3);
        m.record_campaign(mode_index("sampled"), 75, 25, 2_000_000_000);
        m.record_fast_path(20, 9000, 12);
        let text = m.render(&[("queued", 1), ("completed", 2)], 100);
        assert!(text.contains("fsp_jobs{state=\"queued\"} 1\n"));
        assert!(text.contains("fsp_jobs_submitted_total 3\n"));
        assert!(text.contains("fsp_cache_hit_rate 0.75\n"));
        assert!(text.contains("fsp_sites_injected_total 25\n"));
        assert!(text.contains("fsp_sites_per_second 12.5\n"));
        assert!(text.contains("fsp_store_outcomes 100\n"));
        assert!(text.contains("fsp_checkpoint_hits_total 20\n"));
        assert!(text.contains("fsp_skipped_instructions_total 9000\n"));
        assert!(text.contains("fsp_early_converged_total 12\n"));
    }

    #[test]
    fn per_outcome_job_counters_render_with_labels() {
        let m = Metrics::default();
        m.job_outcome_total[0].add(9);
        m.job_outcome_total[4].inc();
        let text = m.render(&[], 0);
        assert!(text.contains("fsp_job_outcome_total{outcome=\"masked\"} 9\n"));
        assert!(text.contains("fsp_job_outcome_total{outcome=\"sdc\"} 0\n"));
        assert!(text.contains("fsp_job_outcome_total{outcome=\"detected\"} 1\n"));
    }

    #[test]
    fn breaks_out_counters_by_mode() {
        let m = Metrics::default();
        m.record_campaign(mode_index("pruned"), 0, 40, 1_000_000_000);
        m.record_campaign(mode_index("protect"), 10, 30, 2_000_000_000);
        m.jobs_completed_by_mode[mode_index("protect")].inc();
        let text = m.render(&[], 0);
        assert!(text.contains("fsp_sites_injected_by_mode{mode=\"pruned\"} 40\n"));
        assert!(text.contains("fsp_sites_injected_by_mode{mode=\"sampled\"} 0\n"));
        assert!(text.contains("fsp_sites_injected_by_mode{mode=\"protect\"} 30\n"));
        assert!(text.contains("fsp_sites_per_second_by_mode{mode=\"pruned\"} 40.0\n"));
        assert!(text.contains("fsp_sites_per_second_by_mode{mode=\"protect\"} 15.0\n"));
        assert!(text.contains("fsp_jobs_completed_by_mode{mode=\"protect\"} 1\n"));
        assert!(text.contains("fsp_jobs_completed_by_mode{mode=\"pruned\"} 0\n"));
        // Aggregates still account for every mode's traffic.
        assert!(text.contains("fsp_sites_injected_total 70\n"));
    }

    #[test]
    fn records_per_stage_plan_counters() {
        let m = Metrics::default();
        let stages = StageCounts {
            exhaustive: 1000,
            after_static: 900,
            after_absint: 850,
            after_thread: 400,
            after_instruction: 300,
            after_loop: 200,
            after_bit: 100,
        };
        m.record_plan(&stages, 30.4, 7.6);
        m.record_plan(&stages, 0.0, 0.0);
        let text = m.render(&[], 0);
        assert!(text.contains("fsp_plan_sites_by_stage{stage=\"exhaustive\"} 2000\n"));
        assert!(text.contains("fsp_plan_sites_by_stage{stage=\"absint\"} 1700\n"));
        assert!(text.contains("fsp_plan_sites_by_stage{stage=\"bit\"} 200\n"));
        assert!(text.contains("fsp_predicted_due_weight{kind=\"crash\"} 30\n"));
        assert!(text.contains("fsp_predicted_due_weight{kind=\"detected\"} 8\n"));
    }

    #[test]
    fn unknown_mode_names_fold_into_slot_zero() {
        assert_eq!(mode_index("pruned"), 0);
        assert_eq!(mode_index("nonesuch"), 0);
        assert_eq!(mode_index("protect"), 2);
    }

    /// The registry migration's golden contract: every series the
    /// hand-rolled renderer exposed still appears, byte-identically, in
    /// the registry-backed output.
    #[test]
    fn every_legacy_series_renders_byte_identically() {
        let m = Metrics::default();
        m.jobs_submitted.add(5);
        m.jobs_completed.add(2);
        m.jobs_failed.inc();
        m.jobs_completed_by_mode[mode_index("sampled")].inc();
        m.record_campaign(mode_index("sampled"), 30, 10, 1_000_000_000);
        m.record_fast_path(7, 640, 3);
        m.record_plan(
            &StageCounts {
                exhaustive: 100,
                after_static: 90,
                after_absint: 80,
                after_thread: 40,
                after_instruction: 30,
                after_loop: 20,
                after_bit: 10,
            },
            2.0,
            1.0,
        );
        let text = m.render(
            &[
                ("queued", 1),
                ("running", 0),
                ("completed", 2),
                ("failed", 1),
                ("cancelled", 0),
            ],
            42,
        );
        for legacy in [
            "fsp_jobs{state=\"queued\"} 1\n",
            "fsp_jobs{state=\"running\"} 0\n",
            "fsp_jobs{state=\"completed\"} 2\n",
            "fsp_jobs{state=\"failed\"} 1\n",
            "fsp_jobs{state=\"cancelled\"} 0\n",
            "fsp_jobs_submitted_total 5\n",
            "fsp_jobs_completed_total 2\n",
            "fsp_jobs_failed_total 1\n",
            "fsp_sites_injected_total 10\n",
            "fsp_cache_hits_total 30\n",
            "fsp_cache_misses_total 10\n",
            "fsp_checkpoint_hits_total 7\n",
            "fsp_skipped_instructions_total 640\n",
            "fsp_early_converged_total 3\n",
            "fsp_cache_hit_rate 0.75\n",
            "fsp_sites_per_second 10.0\n",
            "fsp_jobs_completed_by_mode{mode=\"pruned\"} 0\n",
            "fsp_jobs_completed_by_mode{mode=\"sampled\"} 1\n",
            "fsp_jobs_completed_by_mode{mode=\"protect\"} 0\n",
            "fsp_sites_injected_by_mode{mode=\"pruned\"} 0\n",
            "fsp_sites_injected_by_mode{mode=\"sampled\"} 10\n",
            "fsp_sites_injected_by_mode{mode=\"protect\"} 0\n",
            "fsp_sites_per_second_by_mode{mode=\"pruned\"} 0.0\n",
            "fsp_sites_per_second_by_mode{mode=\"sampled\"} 10.0\n",
            "fsp_sites_per_second_by_mode{mode=\"protect\"} 0.0\n",
            "fsp_plan_sites_by_stage{stage=\"exhaustive\"} 100\n",
            "fsp_plan_sites_by_stage{stage=\"static_ace\"} 90\n",
            "fsp_plan_sites_by_stage{stage=\"absint\"} 80\n",
            "fsp_plan_sites_by_stage{stage=\"thread\"} 40\n",
            "fsp_plan_sites_by_stage{stage=\"instruction\"} 30\n",
            "fsp_plan_sites_by_stage{stage=\"loop\"} 20\n",
            "fsp_plan_sites_by_stage{stage=\"bit\"} 10\n",
            "fsp_predicted_due_weight{kind=\"crash\"} 2\n",
            "fsp_predicted_due_weight{kind=\"detected\"} 1\n",
            "fsp_store_outcomes 42\n",
            "# TYPE fsp_jobs gauge\n",
            "# TYPE fsp_jobs_submitted_total counter\n",
            "# TYPE fsp_cache_hit_rate gauge\n",
        ] {
            assert!(text.contains(legacy), "missing legacy series: {legacy:?}");
        }
    }
}
