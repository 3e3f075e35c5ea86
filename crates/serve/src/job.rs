//! Job specifications, states and their wire/persistence encoding.

use fsp_inject::FaultModel;
use fsp_protect::ProtectScope;
use fsp_stats::ResilienceProfile;

use fsp_fleet::Json;

/// What kind of campaign a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignMode {
    /// The paper's progressive-pruning campaign (`fsp prune` as a job).
    Pruned {
        /// Enable the static-ACE Stage 0.
        static_ace: bool,
        /// Loop iterations sampled per loop (0 disables the stage).
        loop_samples: usize,
    },
    /// A uniform random-sampling campaign of `samples` injections.
    Sampled {
        /// Number of injections.
        samples: usize,
    },
    /// Selective hardening: a baseline sampled campaign plans a DMR
    /// transformation, and the same sites are re-injected into the
    /// hardened kernel (outcomes keyed under its own fingerprint).
    Protect {
        /// Budget as thousandths of the full-DMR overhead (250 = 0.25;
        /// an integer so the mode stays `Copy + Eq` and round-trips
        /// through JSON exactly).
        budget_millis: u32,
        /// Planner selection granularity.
        scope: ProtectScope,
        /// Baseline campaign size.
        samples: usize,
    },
}

/// Opt-in CI-convergence early stopping for a campaign (`submit
/// --stop-at-margin`). Unlike the `fleet` placement flag, early stopping
/// *changes the result*, so it is part of the spec's serialized fields —
/// and therefore of every fingerprint derived from them. Specs without it
/// serialize exactly as before, keeping historical documents byte-stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopSpec {
    /// Required error margin: stop once every outcome-class confidence
    /// interval half-width fits it.
    pub margin: f64,
    /// Confidence level of the per-class intervals.
    pub confidence: f64,
}

/// A campaign job as submitted to `POST /jobs`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Registry id of the kernel (e.g. `"gemm"`).
    pub kernel: String,
    /// Campaign kind and its stage configuration.
    pub mode: CampaignMode,
    /// Fault model for every injection.
    pub model: FaultModel,
    /// Seed: drives loop-iteration sampling (pruned) or site sampling
    /// (sampled).
    pub seed: u64,
    /// Optional early stopping; `None` runs the full plan.
    pub stop: Option<StopSpec>,
}

impl CampaignMode {
    /// Stable wire and metrics-label name of the mode.
    #[must_use]
    pub const fn mode_name(self) -> &'static str {
        match self {
            CampaignMode::Pruned { .. } => "pruned",
            CampaignMode::Sampled { .. } => "sampled",
            CampaignMode::Protect { .. } => "protect",
        }
    }
}

impl JobSpec {
    /// A pruned campaign with the paper's default stages.
    #[must_use]
    pub fn pruned(kernel: &str) -> JobSpec {
        JobSpec {
            kernel: kernel.to_owned(),
            mode: CampaignMode::Pruned {
                static_ace: true,
                loop_samples: 7,
            },
            model: FaultModel::SingleBitFlip,
            seed: 0xF5EED,
            stop: None,
        }
    }

    /// A random-sampling campaign of `samples` injections.
    #[must_use]
    pub fn sampled(kernel: &str, samples: usize) -> JobSpec {
        JobSpec {
            kernel: kernel.to_owned(),
            mode: CampaignMode::Sampled { samples },
            model: FaultModel::SingleBitFlip,
            seed: 0xF5EED,
            stop: None,
        }
    }

    /// A selective-hardening job at `budget` (fraction of full-DMR
    /// overhead, quantized to thousandths).
    #[must_use]
    pub fn protect(kernel: &str, budget: f64, samples: usize) -> JobSpec {
        JobSpec {
            kernel: kernel.to_owned(),
            mode: CampaignMode::Protect {
                budget_millis: (budget.clamp(0.0, 1.0) * 1000.0).round() as u32,
                scope: ProtectScope::default(),
                samples,
            },
            model: FaultModel::SingleBitFlip,
            seed: 0xF5EED,
            stop: None,
        }
    }

    /// Builds a copy with early stopping enabled.
    #[must_use]
    pub fn with_stop(mut self, margin: f64, confidence: f64) -> JobSpec {
        self.stop = Some(StopSpec { margin, confidence });
        self
    }

    /// Encodes the spec's fields (flat, merged into job documents).
    #[must_use]
    pub fn fields(&self) -> Vec<(String, Json)> {
        let mut pairs = vec![("kernel".to_owned(), Json::Str(self.kernel.clone()))];
        match self.mode {
            CampaignMode::Pruned {
                static_ace,
                loop_samples,
            } => {
                pairs.push(("mode".to_owned(), Json::Str("pruned".to_owned())));
                pairs.push(("static_ace".to_owned(), Json::Bool(static_ace)));
                pairs.push(("loop_samples".to_owned(), Json::u64(loop_samples as u64)));
            }
            CampaignMode::Sampled { samples } => {
                pairs.push(("mode".to_owned(), Json::Str("sampled".to_owned())));
                pairs.push(("samples".to_owned(), Json::u64(samples as u64)));
            }
            CampaignMode::Protect {
                budget_millis,
                scope,
                samples,
            } => {
                pairs.push(("mode".to_owned(), Json::Str("protect".to_owned())));
                pairs.push((
                    "budget_millis".to_owned(),
                    Json::u64(u64::from(budget_millis)),
                ));
                pairs.push(("scope".to_owned(), Json::Str(scope.name().to_owned())));
                pairs.push(("samples".to_owned(), Json::u64(samples as u64)));
            }
        }
        pairs.push(("model".to_owned(), Json::Str(self.model.name().to_owned())));
        pairs.push(("seed".to_owned(), Json::u64(self.seed)));
        if let Some(stop) = self.stop {
            pairs.push(("stop_at_margin".to_owned(), Json::Num(stop.margin)));
            pairs.push(("stop_confidence".to_owned(), Json::Num(stop.confidence)));
        }
        pairs
    }

    /// Encodes the spec as a standalone object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(self.fields())
    }

    /// Decodes a spec from a submission document. Missing optional fields
    /// take the [`JobSpec::pruned`] defaults.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(value: &Json) -> Result<JobSpec, String> {
        let kernel = value
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or("missing field `kernel`")?
            .to_owned();
        let mode = match value.get("mode").and_then(Json::as_str).unwrap_or("pruned") {
            "pruned" => CampaignMode::Pruned {
                static_ace: value
                    .get("static_ace")
                    .map(|v| v.as_bool().ok_or("`static_ace` must be a boolean"))
                    .transpose()?
                    .unwrap_or(true),
                loop_samples: value
                    .get("loop_samples")
                    .map(|v| v.as_u64().ok_or("`loop_samples` must be an integer"))
                    .transpose()?
                    .unwrap_or(7) as usize,
            },
            "sampled" => CampaignMode::Sampled {
                samples: value
                    .get("samples")
                    .ok_or("sampled mode needs `samples`")?
                    .as_u64()
                    .ok_or("`samples` must be an integer")? as usize,
            },
            "protect" => CampaignMode::Protect {
                budget_millis: value
                    .get("budget_millis")
                    .map(|v| v.as_u64().ok_or("`budget_millis` must be an integer"))
                    .transpose()?
                    .unwrap_or(250)
                    .min(1000) as u32,
                scope: match value.get("scope").and_then(Json::as_str) {
                    None => ProtectScope::default(),
                    Some(name) => ProtectScope::from_name(name)
                        .ok_or_else(|| format!("unknown scope `{name}`"))?,
                },
                samples: value
                    .get("samples")
                    .map(|v| v.as_u64().ok_or("`samples` must be an integer"))
                    .transpose()?
                    .unwrap_or(500) as usize,
            },
            other => return Err(format!("unknown mode `{other}`")),
        };
        let model = match value.get("model").and_then(Json::as_str) {
            None => FaultModel::SingleBitFlip,
            Some(name) => {
                FaultModel::from_name(name).ok_or_else(|| format!("unknown model `{name}`"))?
            }
        };
        let seed = value
            .get("seed")
            .map(|v| v.as_u64().ok_or("`seed` must be an integer"))
            .transpose()?
            .unwrap_or(0xF5EED);
        let stop = match value.get("stop_at_margin") {
            None => {
                if value.get("stop_confidence").is_some() {
                    return Err("`stop_confidence` requires `stop_at_margin`".to_owned());
                }
                None
            }
            Some(m) => {
                let margin = m.as_f64().ok_or("`stop_at_margin` must be a number")?;
                let confidence = value
                    .get("stop_confidence")
                    .map(|v| v.as_f64().ok_or("`stop_confidence` must be a number"))
                    .transpose()?
                    .unwrap_or(0.998);
                if !(margin > 0.0 && margin < 1.0) {
                    return Err("`stop_at_margin` must be in (0, 1)".to_owned());
                }
                if !(confidence > 0.0 && confidence < 1.0) {
                    return Err("`stop_confidence` must be in (0, 1)".to_owned());
                }
                Some(StopSpec { margin, confidence })
            }
        };
        Ok(JobSpec {
            kernel,
            mode,
            model,
            seed,
            stop,
        })
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Being executed (or interrupted mid-run by a crash — recovery
    /// requeues it).
    Running,
    /// Finished with a result.
    Completed,
    /// Finished with an error.
    Failed,
    /// Stopped by request.
    Cancelled,
}

impl JobState {
    /// All states, for metrics gauges.
    pub const ALL: [JobState; 5] = [
        JobState::Queued,
        JobState::Running,
        JobState::Completed,
        JobState::Failed,
        JobState::Cancelled,
    ];

    /// Wire name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`JobState::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<JobState> {
        JobState::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether the job can still make progress.
    #[must_use]
    pub const fn is_active(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }
}

/// How an early-stop-enabled campaign ended. Present on a result iff the
/// spec requested stopping — results of plain campaigns are untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStopReport {
    /// Whether the stopping rule fired before the plan was exhausted.
    pub stopped: bool,
    /// Sites actually contributing to the profile: the stopped prefix
    /// length, or the full plan when the rule never fired.
    pub sites_injected: usize,
    /// The widest per-class interval half-width over those sites, at the
    /// requested confidence.
    pub achieved_margin: f64,
}

/// A completed job's payload.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Kernel program fingerprint the outcomes are keyed under.
    pub fingerprint: u64,
    /// Launch-configuration hash.
    pub launch: u64,
    /// Number of injected (weighted) sites in the campaign.
    pub sites: usize,
    /// The final extrapolated resilience profile.
    pub profile: ResilienceProfile,
    /// Early-stop outcome, when the spec requested stopping.
    pub early: Option<EarlyStopReport>,
}

/// One job as tracked by the engine and persisted to `jobs/<id>.json`.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (`"job-<n>"`).
    pub id: String,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Total sites in the campaign (0 until planned).
    pub total: usize,
    /// Sites resolved so far (cache hits + injections).
    pub done: usize,
    /// Sites served by the outcome store when the job started running.
    pub cache_hits: usize,
    /// The running (partial) weighted profile, for status reports.
    pub partial: ResilienceProfile,
    /// Raw per-outcome resolution counts in `Outcome::code()` order
    /// (masked / sdc / crash / hang / detected) — the dashboard's and
    /// Prometheus's shared source of truth.
    pub outcome_counts: [u64; 5],
    /// Second moment of the resolved-site weights, for the effective
    /// sample size of streaming interval estimates.
    pub sum_w2: f64,
    /// Statically settled certain weight `[masked, crash, detected]`
    /// from the pruning stages, folded into live estimates.
    pub settled: [f64; 3],
    /// Failure message, when `state == Failed`.
    pub error: Option<String>,
    /// The result, when `state == Completed`.
    pub result: Option<JobResult>,
    /// Whether the campaign executes on the worker fleet instead of the
    /// in-process pool. Deliberately *not* part of [`JobSpec`]: execution
    /// placement must never leak into the canonical result document,
    /// which is byte-identical however the outcomes were computed.
    pub fleet: bool,
}

/// Encodes a profile's raw weights (bit-exact round trip).
#[must_use]
pub fn profile_to_json(p: &ResilienceProfile) -> Json {
    Json::obj([
        ("masked", Json::Num(p.masked())),
        ("sdc", Json::Num(p.sdc())),
        ("other", Json::Num(p.other())),
        ("crashes", Json::Num(p.crashes())),
        ("hangs", Json::Num(p.hangs())),
        ("detected", Json::Num(p.detected())),
    ])
}

/// Decodes a profile encoded by [`profile_to_json`].
///
/// # Errors
///
/// Returns a message when a weight is missing or malformed.
pub fn profile_from_json(value: &Json) -> Result<ResilienceProfile, String> {
    let field = |name: &str| -> Result<f64, String> {
        value
            .get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("profile missing `{name}`"))
    };
    Ok(ResilienceProfile::from_parts(
        field("masked")?,
        field("sdc")?,
        field("other")?,
        field("crashes")?,
        field("hangs")?,
        // Documents persisted before detection-aware campaigns existed
        // have no `detected` weight; default to zero.
        value.get("detected").and_then(Json::as_f64).unwrap_or(0.0),
    ))
}

impl JobRecord {
    /// A freshly submitted job.
    #[must_use]
    pub fn new(id: String, spec: JobSpec) -> JobRecord {
        JobRecord {
            id,
            spec,
            state: JobState::Queued,
            total: 0,
            done: 0,
            cache_hits: 0,
            partial: ResilienceProfile::new(),
            outcome_counts: [0; 5],
            sum_w2: 0.0,
            settled: [0.0; 3],
            error: None,
            result: None,
            fleet: false,
        }
    }

    /// The full job document: status fields plus (when completed) the
    /// result. This is both the `GET /jobs/:id` body and the on-disk
    /// persistence format.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("id".to_owned(), Json::Str(self.id.clone()))];
        pairs.extend(self.spec.fields());
        pairs.push(("state".to_owned(), Json::Str(self.state.name().to_owned())));
        pairs.push(("total".to_owned(), Json::u64(self.total as u64)));
        pairs.push(("done".to_owned(), Json::u64(self.done as u64)));
        pairs.push(("cache_hits".to_owned(), Json::u64(self.cache_hits as u64)));
        if self.fleet {
            pairs.push(("fleet".to_owned(), Json::Bool(true)));
        }
        pairs.push(("partial".to_owned(), profile_to_json(&self.partial)));
        pairs.push((
            "outcomes".to_owned(),
            Json::Obj(
                fsp_stats::stream::CLASS_LABELS
                    .iter()
                    .zip(self.outcome_counts)
                    .map(|(label, count)| ((*label).to_owned(), Json::u64(count)))
                    .collect(),
            ),
        ));
        pairs.push(("sum_w2".to_owned(), Json::Num(self.sum_w2)));
        pairs.push((
            "settled".to_owned(),
            Json::Arr(self.settled.iter().map(|&w| Json::Num(w)).collect()),
        ));
        if let Some(error) = &self.error {
            pairs.push(("error".to_owned(), Json::Str(error.clone())));
        }
        if let Some(result) = &self.result {
            pairs.push(("result".to_owned(), result_to_json(&self.spec, result)));
        }
        Json::Obj(pairs)
    }

    /// Decodes a persisted job document.
    ///
    /// # Errors
    ///
    /// Returns a message on any missing or malformed field.
    pub fn from_json(value: &Json) -> Result<JobRecord, String> {
        let spec = JobSpec::from_json(value)?;
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .ok_or("missing field `id`")?
            .to_owned();
        let state = value
            .get("state")
            .and_then(Json::as_str)
            .and_then(JobState::from_name)
            .ok_or("missing or unknown `state`")?;
        let int =
            |name: &str| -> usize { value.get(name).and_then(Json::as_u64).unwrap_or(0) as usize };
        let partial = match value.get("partial") {
            Some(p) => profile_from_json(p)?,
            None => ResilienceProfile::new(),
        };
        let result = value
            .get("result")
            .map(|r| -> Result<JobResult, String> {
                let early = r
                    .get("early_stopped")
                    .map(|flag| -> Result<EarlyStopReport, String> {
                        Ok(EarlyStopReport {
                            stopped: flag.as_bool().ok_or("`early_stopped` must be a boolean")?,
                            sites_injected: r
                                .get("sites_injected")
                                .and_then(Json::as_u64)
                                .ok_or("early-stop result missing `sites_injected`")?
                                as usize,
                            achieved_margin: r
                                .get("achieved_margin")
                                .and_then(Json::as_f64)
                                .ok_or("early-stop result missing `achieved_margin`")?,
                        })
                    })
                    .transpose()?;
                Ok(JobResult {
                    fingerprint: r
                        .get("fingerprint")
                        .and_then(Json::as_u64)
                        .ok_or("result missing `fingerprint`")?,
                    launch: r
                        .get("launch")
                        .and_then(Json::as_u64)
                        .ok_or("result missing `launch`")?,
                    sites: r.get("sites").and_then(Json::as_u64).unwrap_or(0) as usize,
                    profile: profile_from_json(
                        r.get("profile").ok_or("result missing `profile`")?,
                    )?,
                    early,
                })
            })
            .transpose()?;
        // Documents persisted before streaming progress existed carry no
        // per-outcome counts or weight moments; default to zero.
        let mut outcome_counts = [0u64; 5];
        if let Some(counts) = value.get("outcomes") {
            for (k, label) in fsp_stats::stream::CLASS_LABELS.iter().enumerate() {
                outcome_counts[k] = counts.get(label).and_then(Json::as_u64).unwrap_or(0);
            }
        }
        let mut settled = [0.0f64; 3];
        if let Some(Json::Arr(items)) = value.get("settled") {
            for (slot, item) in settled.iter_mut().zip(items) {
                *slot = item.as_f64().unwrap_or(0.0);
            }
        }
        Ok(JobRecord {
            id,
            spec,
            state,
            total: int("total"),
            done: int("done"),
            cache_hits: int("cache_hits"),
            partial,
            outcome_counts,
            sum_w2: value.get("sum_w2").and_then(Json::as_f64).unwrap_or(0.0),
            settled,
            error: value.get("error").and_then(Json::as_str).map(str::to_owned),
            result,
            fleet: value.get("fleet").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// The canonical result document for a finished campaign. `fsp submit
/// --local` prints exactly this for an in-process run, so CI can diff the
/// service path against the library path byte-for-byte.
#[must_use]
pub fn result_to_json(spec: &JobSpec, result: &JobResult) -> Json {
    let mut pairs = spec.fields();
    pairs.push(("fingerprint".to_owned(), Json::u64(result.fingerprint)));
    pairs.push(("launch".to_owned(), Json::u64(result.launch)));
    pairs.push(("sites".to_owned(), Json::u64(result.sites as u64)));
    pairs.push(("profile".to_owned(), profile_to_json(&result.profile)));
    let (m, s, o) = result.profile.percentages();
    pairs.push((
        "percentages".to_owned(),
        Json::Arr(vec![Json::Num(m), Json::Num(s), Json::Num(o)]),
    ));
    if let Some(early) = &result.early {
        pairs.push(("early_stopped".to_owned(), Json::Bool(early.stopped)));
        pairs.push((
            "sites_injected".to_owned(),
            Json::u64(early.sites_injected as u64),
        ));
        pairs.push((
            "achieved_margin".to_owned(),
            Json::Num(early.achieved_margin),
        ));
        pairs.push((
            "stream_version".to_owned(),
            Json::u64(fsp_stats::stream_version()),
        ));
    }
    Json::Obj(pairs)
}

/// The live statistical progress document (`GET /jobs/:id/progress`):
/// per-outcome point estimates with Wilson intervals at the requested (or
/// paper-default) confidence, the achieved-vs-requested margin, and a
/// projection of sites remaining to convergence. Assembled purely from
/// the job record's counters, so in-process and fleet jobs — and resumed
/// jobs restored from disk — all render identically.
#[must_use]
pub fn progress_to_json(record: &JobRecord) -> Json {
    use fsp_stats::stream::CLASS_LABELS;
    use fsp_stats::{StopRule, StreamEstimator};

    let stop = record.spec.stop;
    let confidence = stop.map_or(0.998, |s| s.confidence);
    // No requested margin still yields a useful projection: report
    // distance from the paper's baseline ±0.63% criterion.
    let margin = stop.map_or(0.0063, |s| s.margin);
    let p = &record.partial;
    let mut weights = [p.masked(), p.sdc(), p.crashes(), p.hangs(), p.detected()];
    let certain = [
        record.settled[0],
        0.0,
        record.settled[1],
        0.0,
        record.settled[2],
    ];
    // A completed job's partial profile is the *settled* final profile;
    // peel the certain mass back out so it is not counted twice.
    if record.state == JobState::Completed {
        for (w, c) in weights.iter_mut().zip(certain) {
            *w = (*w - c).max(0.0);
        }
    }
    let est = StreamEstimator::from_parts(record.outcome_counts, weights, record.sum_w2, certain);
    let intervals = est.intervals(confidence);
    let rule = StopRule::new(confidence, margin);
    let projected = rule.projected_total(&est);
    let mut pairs = vec![
        ("id".to_owned(), Json::Str(record.id.clone())),
        (
            "state".to_owned(),
            Json::Str(record.state.name().to_owned()),
        ),
        ("kernel".to_owned(), Json::Str(record.spec.kernel.clone())),
        (
            "mode".to_owned(),
            Json::Str(record.spec.mode.mode_name().to_owned()),
        ),
        ("fleet".to_owned(), Json::Bool(record.fleet)),
        ("total".to_owned(), Json::u64(record.total as u64)),
        ("done".to_owned(), Json::u64(record.done as u64)),
        ("cache_hits".to_owned(), Json::u64(record.cache_hits as u64)),
        (
            "stream_version".to_owned(),
            Json::u64(fsp_stats::stream_version()),
        ),
        ("confidence".to_owned(), Json::Num(confidence)),
        (
            "margin".to_owned(),
            stop.map_or(Json::Null, |s| Json::Num(s.margin)),
        ),
        ("stop_requested".to_owned(), Json::Bool(stop.is_some())),
        (
            "outcomes".to_owned(),
            Json::Arr(
                CLASS_LABELS
                    .iter()
                    .enumerate()
                    .map(|(k, label)| {
                        Json::obj([
                            ("outcome", Json::Str((*label).to_owned())),
                            ("count", Json::u64(record.outcome_counts[k])),
                            ("weight", Json::Num(certain[k] + weights[k])),
                            ("estimate", Json::Num(intervals[k].estimate)),
                            ("lo", Json::Num(intervals[k].lo)),
                            ("hi", Json::Num(intervals[k].hi)),
                            ("half_width", Json::Num(intervals[k].half_width())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "achieved_margin".to_owned(),
            Json::Num(est.achieved_margin(confidence)),
        ),
        (
            "converged".to_owned(),
            Json::Bool(est.converged(confidence, margin)),
        ),
        ("projected_total".to_owned(), Json::u64(projected)),
        (
            "projected_remaining".to_owned(),
            Json::u64(
                projected
                    .saturating_sub(est.len())
                    .min(record.total.saturating_sub(record.done) as u64),
            ),
        ),
    ];
    if let Some(early) = record.result.as_ref().and_then(|r| r.early) {
        pairs.push(("early_stopped".to_owned(), Json::Bool(early.stopped)));
        pairs.push((
            "sites_injected".to_owned(),
            Json::u64(early.sites_injected as u64),
        ));
        pairs.push((
            "final_achieved_margin".to_owned(),
            Json::Num(early.achieved_margin),
        ));
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_stats::Outcome;

    #[test]
    fn spec_round_trips_both_modes() {
        for spec in [
            JobSpec::pruned("gemm"),
            JobSpec {
                kernel: "hotspot".to_owned(),
                mode: CampaignMode::Sampled { samples: 1234 },
                model: FaultModel::StuckAt1,
                seed: u64::MAX,
                stop: None,
            },
            JobSpec::sampled("fdtd", 900).with_stop(0.0063, 0.998),
            JobSpec {
                kernel: "pathfinder".to_owned(),
                mode: CampaignMode::Protect {
                    budget_millis: 375,
                    scope: ProtectScope::Opcode,
                    samples: 200,
                },
                model: FaultModel::SingleBitFlip,
                seed: 7,
                stop: None,
            },
        ] {
            let text = spec.to_json().to_string();
            let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn spec_defaults_fill_in() {
        let spec = JobSpec::from_json(&Json::parse(r#"{"kernel":"mvt"}"#).unwrap()).unwrap();
        assert_eq!(spec, JobSpec::pruned("mvt"));
        assert!(JobSpec::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(
            JobSpec::from_json(&Json::parse(r#"{"kernel":"x","mode":"sampled"}"#).unwrap())
                .is_err(),
            "sampled mode requires a sample count"
        );
        let spec =
            JobSpec::from_json(&Json::parse(r#"{"kernel":"bfs","mode":"protect"}"#).unwrap())
                .unwrap();
        assert_eq!(spec, JobSpec::protect("bfs", 0.25, 500));
        assert!(
            JobSpec::from_json(
                &Json::parse(r#"{"kernel":"x","mode":"protect","scope":"warp"}"#).unwrap()
            )
            .is_err(),
            "unknown scope names are rejected"
        );
    }

    #[test]
    fn record_round_trips_with_result() {
        let mut p = ResilienceProfile::new();
        p.record_weighted(Outcome::Sdc, 1.0 / 3.0);
        p.record_weighted(Outcome::HANG, 0.1 + 0.2);
        let mut record = JobRecord::new("job-7".to_owned(), JobSpec::sampled("gemm", 50));
        record.state = JobState::Completed;
        record.total = 50;
        record.done = 50;
        record.cache_hits = 20;
        record.partial = p;
        record.result = Some(JobResult {
            fingerprint: u64::MAX - 1,
            launch: 42,
            sites: 50,
            profile: p,
            early: None,
        });
        let text = record.to_json().to_string();
        let back = JobRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.id, record.id);
        assert_eq!(back.spec, record.spec);
        assert_eq!(back.state, record.state);
        assert_eq!(back.cache_hits, record.cache_hits);
        assert_eq!(back.partial, record.partial, "profile survives bit-exactly");
        assert_eq!(back.result.unwrap().profile, p);
    }
}
