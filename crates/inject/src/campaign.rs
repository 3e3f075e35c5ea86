//! Golden-run preparation, single injections and parallel campaigns.
//!
//! Campaigns run on a checkpoint-resume fast path: the golden run captured
//! by [`Experiment::prepare`] leaves behind resumable machine snapshots
//! ([`fsp_sim::Checkpoint`]), and each run resumes from the closest
//! snapshot at or before its fault site instead of re-executing the shared
//! golden prefix. The fast path has two engines. Batched lanes
//! (`crate::batch`) ride one fault-free replay per group of sites and
//! track each site's divergence from it; every unit of a batched campaign
//! is such a replay. The solo engine (`crate::solo`) runs one faulty
//! execution and stops it at the faulty thread's exit or the first CTA
//! boundary from which the rest of the run provably replays the golden run
//! (`crate::cut`), classified from its corrupted words alone; it runs the
//! lanes a replay demotes, single injections and every site at a lane
//! budget of 1.
//! The slow path — a full re-execution per site — is kept behind
//! [`Experiment::set_fast_path`] as the differential-testing oracle; the
//! paths are byte-identical in outcomes and SDC severities.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fsp_isa::{MemSpace, PredTest, PARAM_BASE};
use fsp_sim::{
    BoundaryRecorder, Checkpoint, CheckpointConfig, ExecHook, GoldenBoundaries, KernelTrace,
    Launch, MemBlock, ResumeScratch, RetireEvent, SimFault, Simulator, Tracer, Writeback,
};
use fsp_stats::{Outcome, OutcomeKind, ResilienceProfile};

use crate::batch::{BatchInjectionHook, DemoteCause, LaneEnd, RetireCause, MAX_BATCH};
use crate::cut::{CtaCut, CutMetrics};
use crate::hook::InjectionHook;
use crate::site::{SiteSpace, WeightedSite};
use crate::solo::SoloHook;
use crate::target::InjectionTarget;

/// Sites per work unit handed to a campaign worker. Small enough to load
/// balance across heterogeneous site costs, large enough that claiming a
/// chunk (the only synchronized step) is negligible next to running it.
const CHUNK: usize = 16;

/// Chunk-level progress events from a running campaign.
///
/// Implementations observe a campaign from outside the worker pool: after
/// every completed chunk the workers report the chunk's outcomes, and
/// between chunks they poll [`CampaignObserver::should_cancel`] so a
/// long-running campaign can be stopped at chunk granularity. The
/// orchestration service (`fsp-serve`) uses this to persist outcomes
/// incrementally and to checkpoint/resume jobs.
pub trait CampaignObserver: Sync {
    /// Called by a worker after it finishes a chunk of freshly injected
    /// sites: `outcomes[k]` is the outcome of `sites[indices[k]]`. Only
    /// injected sites are reported — pre-resolved outcomes were supplied by
    /// the caller, who already has them. Chunks follow the campaign's
    /// checkpoint-locality schedule, so `indices` is not contiguous.
    fn on_chunk(&self, indices: &[usize], outcomes: &[Outcome]) {
        let _ = (indices, outcomes);
    }

    /// Polled by every worker before claiming the next chunk; returning
    /// `true` stops the campaign. Already-claimed chunks finish (and are
    /// still reported through [`CampaignObserver::on_chunk`]), so
    /// cancellation never tears a chunk.
    fn should_cancel(&self) -> bool {
        false
    }
}

/// The do-nothing observer used by the blocking campaign entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopObserver;

impl CampaignObserver for NopObserver {}

/// Hang-detection margin: an injected run may retire at most this many
/// times the fault-free dynamic instruction count before being declared
/// hung.
///
/// Calibrated against the workload suite: the longest *finite* injected
/// run observed across all 17 kernels retires 2.08x the fault-free count
/// (a corrupted LUD loop bound that doubles one thread's trip count), and
/// every other kernel stays below 1.15x — so a 4x budget keeps roughly a
/// 2x margin over the worst finite run. The budget defines a hang, but the
/// fast path rarely pays it: when a corrupted induction variable leaves the
/// faulty thread circling a loop whose exit compare provably cannot flip
/// within the remaining budget, the simulator's spin detector cuts the run
/// short with the same verdict (DESIGN.md §10) — once the thread is alone
/// in its CTA, or, in a data-oblivious kernel, while its siblings still
/// run ([`PreparedRun`]'s live-sibling bit). The slow path runs every
/// hang out and so checks each prediction. The [`MIN_BUDGET`] floor below
/// protects tiny kernels where a multiplicative margin is meaningless.
const HANG_FACTOR: u64 = 4;
/// Floor for the hang budget, so tiny kernels still tolerate benign
/// control-flow perturbations.
///
/// Calibrated like [`HANG_FACTOR`]: the floor only governs kernels whose
/// fault-free count is below 5k instructions, and the longest finite
/// injected run observed on any of those retires ~4.5k instructions —
/// a 4.5x margin. Hangs the spin detector cannot certify burn the whole
/// budget, so an over-generous floor (the previous 100k was 46x the
/// fault-free count of the smallest LUD kernel) dominates small-kernel
/// campaign time for no classification benefit.
const MIN_BUDGET: u64 = 20_000;

/// Stable hash of the outcome-classifier parameters (the hang budget
/// calibration above).
///
/// Injection outcomes are a function of *(program, launch, fault model,
/// site)* **and** of how the classifier cuts off non-terminating runs.
/// Persistent outcome stores must fold this value into their keys so that
/// outcomes computed under a different hang-budget calibration miss
/// instead of being served as current.
#[must_use]
pub fn classifier_hash() -> u64 {
    // FNV-1a over the two calibration constants.
    let mut h = fsp_obs::Fnv1a::new();
    h.write_u64(HANG_FACTOR);
    h.write_u64(MIN_BUDGET);
    h.finish()
}

/// Prometheus label values for the five outcome classes, indexed by
/// [`outcome_index`].
const OUTCOME_LABELS: [&str; 5] = ["masked", "sdc", "crash", "hang", "detected"];

fn outcome_index(o: Outcome) -> usize {
    match o {
        Outcome::Masked => 0,
        Outcome::Sdc => 1,
        Outcome::Other(OutcomeKind::Crash) => 2,
        Outcome::Other(OutcomeKind::Hang) => 3,
        Outcome::Detected => 4,
    }
}

/// Handles into the process-global metrics registry, resolved once and
/// then updated lock-free on the injection hot path.
struct InjectMetrics {
    /// Injected-run wall time by outcome class.
    run_nanos: [fsp_obs::Histogram; 5],
    /// Runs that resumed from a golden checkpoint vs. started cold.
    runs_resumed: fsp_obs::Counter,
    runs_cold: fsp_obs::Counter,
    /// Classified outcomes by class, across all three engines (batched,
    /// solo, slow). Recorded once per finished chunk so live
    /// estimators can watch the registry without touching the hot loop.
    outcome_total: [fsp_obs::Counter; 5],
    /// Instructions retired by injected runs, faulted ones included, by
    /// engine (see [`ENGINE_LABELS`]).
    retired: [fsp_obs::Counter; 3],
}

/// Prometheus label values of the three injection engines: shared batched
/// replays, solo fast-path runs, slow-path runs.
const ENGINE_LABELS: [&str; 3] = ["batch", "solo", "slow"];

/// [`ENGINE_LABELS`] indices of the engines that run one site at a time.
const SOLO: usize = 1;
const SLOW: usize = 2;

fn inject_metrics() -> &'static InjectMetrics {
    static METRICS: OnceLock<InjectMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = fsp_obs::registry();
        InjectMetrics {
            run_nanos: std::array::from_fn(|i| {
                r.histogram_labeled(
                    "fsp_inject_run_nanos",
                    &[("outcome", OUTCOME_LABELS[i])],
                    "Injected-run wall time by outcome class.",
                )
            }),
            runs_resumed: r.counter_labeled(
                "fsp_inject_runs_total",
                &[("path", "resume")],
                "Injected runs by start path (checkpoint resume vs. cold).",
            ),
            runs_cold: r.counter_labeled(
                "fsp_inject_runs_total",
                &[("path", "cold")],
                "Injected runs by start path (checkpoint resume vs. cold).",
            ),
            outcome_total: std::array::from_fn(|i| {
                r.counter_labeled(
                    "fsp_inject_outcome_total",
                    &[("outcome", OUTCOME_LABELS[i])],
                    "Classified injection outcomes by class.",
                )
            }),
            retired: std::array::from_fn(|i| {
                r.counter_labeled(
                    "fsp_inject_retired_instructions_total",
                    &[("engine", ENGINE_LABELS[i])],
                    "Instructions retired by injected runs, faulted runs included, by engine.",
                )
            }),
        }
    })
}

/// Prometheus label values for the batched-lane retirement causes, indexed
/// by [`lane_end_index`].
const LANE_END_LABELS: [&str; 9] = [
    "converged",
    "untriggered",
    "end_masked",
    "end_sdc",
    "trapped",
    "demoted_control",
    "demoted_cap",
    "demoted_fuel",
    "demoted_replay",
];

fn lane_end_index(end: LaneEnd) -> usize {
    match end {
        LaneEnd::Resolved(_, RetireCause::Converged) => 0,
        LaneEnd::Resolved(_, RetireCause::Untriggered) => 1,
        LaneEnd::Resolved(_, RetireCause::EndMasked) => 2,
        LaneEnd::Resolved(_, RetireCause::EndSdc) => 3,
        LaneEnd::Resolved(_, RetireCause::Trapped) => 4,
        LaneEnd::Demoted(DemoteCause::Control) => 5,
        LaneEnd::Demoted(DemoteCause::Capacity) => 6,
        LaneEnd::Demoted(DemoteCause::Fuel) => 7,
        LaneEnd::Demoted(DemoteCause::Replay) => 8,
    }
}

/// Batched-execution metrics: lane occupancy per replay and per-lane
/// retirement causes.
struct BatchMetrics {
    /// Lanes riding each batched replay.
    lanes: fsp_obs::Histogram,
    /// Lanes by how they retired (see [`LANE_END_LABELS`]).
    lane_end: [fsp_obs::Counter; 9],
}

fn batch_metrics() -> &'static BatchMetrics {
    static METRICS: OnceLock<BatchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = fsp_obs::registry();
        BatchMetrics {
            lanes: r.histogram(
                "fsp_inject_batch_lanes",
                "Lane occupancy of batched injection replays.",
            ),
            lane_end: std::array::from_fn(|i| {
                r.counter_labeled(
                    "fsp_inject_batch_lane_total",
                    &[("cause", LANE_END_LABELS[i])],
                    "Batched injection lanes by retirement cause.",
                )
            }),
        }
    })
}

impl InjectMetrics {
    /// Records one run of `engine` ([`SOLO`] or [`SLOW`]).
    fn record_run(&self, engine: usize, meta: RunMeta, outcome: Outcome, start_ns: u64) {
        self.run_nanos[outcome_index(outcome)].record(fsp_obs::now_ns().saturating_sub(start_ns));
        self.retired[engine].add(meta.executed);
        if meta.ckpt_hit {
            self.runs_resumed.inc();
        } else {
            self.runs_cold.inc();
        }
    }
}

/// Per-injection cost accounting returned alongside the outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RunMeta {
    /// Golden-prefix instructions skipped by resuming from a checkpoint.
    skipped: u64,
    /// Instructions actually executed (suffix only when resumed), faulted
    /// runs included.
    executed: u64,
    /// Whether the run resumed from a checkpoint.
    ckpt_hit: bool,
    /// The golden position the run was cut at (see `crate::cut`).
    cut: Option<u32>,
}

/// Aggregated cost accounting of one batched replay plus its solo
/// fallbacks, mirroring the per-run [`RunMeta`] counters lane-by-lane.
#[derive(Debug, Clone, Copy, Default)]
struct BatchRunMeta {
    /// Lanes that resumed from a golden checkpoint (counted per lane: each
    /// lane stands for one injected run that skipped its golden prefix).
    hits: u64,
    /// Golden-prefix instructions skipped, summed over lanes.
    skipped: u64,
    /// Instructions actually executed: the shared replay once, plus any
    /// solo fallback runs, faulted ones included.
    executed: u64,
    /// Lanes resolved by early convergence (see
    /// [`IncrementalCampaign::early_converged`]).
    early: u64,
    /// Shared golden replays run (1 per batch; 0 when every lane fell
    /// back solo before the replay could start — never happens today).
    replays: u64,
    /// Lanes resolved *on* the shared replay, i.e. without a solo
    /// fallback. `lanes / replays` is the effective batch occupancy.
    lanes: u64,
}

/// Everything [`Experiment::prepare`] derives from one fault-free run of a
/// target: golden output, initial memory image, calibrated hang budget, the
/// golden trace and resumable checkpoints. It reads nothing back from the
/// target afterwards, so one `PreparedRun` behind an [`Arc`] serves every
/// [`Experiment`] view of the same kernel and launch, in any number of
/// jobs at once (see [`crate::ExperimentCache`]).
#[derive(Debug)]
pub struct PreparedRun {
    /// The launch, with the calibrated instruction budget applied.
    launch: Launch,
    /// The target's output region, `(byte address, length in words)`.
    output: (u32, usize),
    initial: MemBlock,
    golden: Vec<u32>,
    fault_free_instructions: u64,
    /// The golden trace, with a full trace for every thread; every
    /// [`SiteSpace`] of this run shares it.
    trace: Arc<KernelTrace>,
    checkpoints: Vec<Checkpoint>,
    /// The golden run at each CTA boundary and thread exit, for the replay
    /// cut.
    boundaries: GoldenBoundaries,
    /// `fsp_inject_cta_cut_total{at}` and `fsp_inject_cta_cut_refused_total`
    /// for this kernel.
    cut_metrics: CutMetrics,
    /// Whether the CTA siblings of a solo rerun's faulty thread follow
    /// their golden paths whatever it does short of storing into the
    /// parameter block: the program is data-oblivious
    /// ([`fsp_analyze::data_oblivious`]) and the golden run stores nothing
    /// into the parameter block. Lets the spin detector certify the faulty
    /// thread's hang while its siblings still run
    /// ([`ExecHook::siblings_follow_golden`]).
    siblings_follow_golden: bool,
    /// `fsp_inject_hang_predicted_total{kernel}`: fast-path runs the
    /// simulator proved hung and cut short.
    hangs_predicted: fsp_obs::Counter,
    /// `fsp_inject_hang_predicted_live_total{kernel}`: the subset of those
    /// certified while a CTA sibling of the faulty thread was still live.
    hangs_predicted_live: fsp_obs::Counter,
    /// `fsp_inject_crash_predicted_total{kernel}`: fast-path runs the
    /// simulator proved to walk out of bounds and cut short.
    crashes_predicted: fsp_obs::Counter,
}

/// A prepared injection experiment: a target plus its shared
/// [`PreparedRun`], with this view's own engine settings (fast path on or
/// off, lanes per batched replay). Views are cheap: changing a setting on
/// one never affects another view of the same run.
#[derive(Debug)]
pub struct Experiment<'a, T: InjectionTarget> {
    target: &'a T,
    run: Arc<PreparedRun>,
    fast_path: bool,
    /// Shadow lanes per batched replay (see [`Experiment::set_batch`]);
    /// `1` disables batching entirely.
    batch: usize,
}

/// Composes the dynamic-instruction tracer with the boundary recorder so
/// [`Experiment::prepare`] still runs the fault-free launch exactly once,
/// and notes whether the golden run stores into the parameter block.
/// Neither overrides write-back values or stops the run, so composition
/// order is immaterial.
struct PrepareHook<'h> {
    tracer: &'h mut Tracer,
    boundaries: &'h mut BoundaryRecorder,
    params: Range<u32>,
    param_stored: bool,
}

impl ExecHook for PrepareHook<'_> {
    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        self.boundaries.on_retire(ev);
        self.tracer.on_retire(ev);
        self.param_stored |= stores_into(&ev, &self.params);
    }

    fn on_cta_end(&mut self, cta: u32, global: &MemBlock, budget: u64) -> bool {
        self.boundaries.on_cta_end(cta, global, budget)
    }

    fn writeback(&mut self, wb: &Writeback) -> Option<u32> {
        self.tracer.writeback(wb)
    }

    fn on_guard_fail(&mut self, tid: u32, pred: u8, test: PredTest) {
        self.tracer.on_guard_fail(tid, pred, test);
    }
}

/// The parameter block of `launch`: the shared-memory byte addresses its
/// parameters are loaded at.
fn param_block(launch: &Launch) -> Range<u32> {
    PARAM_BASE..PARAM_BASE + 4 * launch.param_values().len() as u32
}

/// Whether the retirement `ev` stored into the shared-memory byte range
/// `block`.
pub(crate) fn stores_into(ev: &RetireEvent<'_>, block: &Range<u32>) -> bool {
    ev.accesses
        .iter()
        .any(|a| a.is_store && a.space == MemSpace::Shared && block.contains(&a.addr))
}

impl PreparedRun {
    /// Runs `target` fault-free — once — to capture the golden output,
    /// calibrate the hang budget, record every thread's full
    /// dynamic-instruction trace (so [`Experiment::site_space`] needs no
    /// second run), snapshot resumable checkpoints and record the golden
    /// boundaries for the campaign fast path. Each call records one
    /// `inject.prepare` span.
    ///
    /// # Errors
    ///
    /// Returns the [`SimFault`] if the *fault-free* run itself faults —
    /// that is a workload bug, not an injection outcome.
    pub fn prepare<T: InjectionTarget>(target: &T) -> Result<Self, SimFault> {
        let _prepare = fsp_obs::span("inject.prepare");
        let launch = target.launch();
        let initial = target.init_memory();
        let mut memory = initial.clone();
        let num_threads = launch.num_threads();
        let mut tracer =
            Tracer::new(num_threads, launch.threads_per_cta()).with_full_traces(0..num_threads);
        let mut boundaries = BoundaryRecorder::new(&launch, initial.len_bytes() / 4);
        let params = param_block(&launch);
        let (stats, checkpoints, param_stored) = {
            let _golden = fsp_obs::span("inject.golden_run");
            let mut hook = PrepareHook {
                tracer: &mut tracer,
                boundaries: &mut boundaries,
                params: params.clone(),
                param_stored: false,
            };
            let (stats, checkpoints) = Simulator::new().run_with_checkpoints(
                &launch,
                &mut memory,
                &mut hook,
                CheckpointConfig::default(),
            )?;
            (stats, checkpoints, hook.param_stored)
        };
        let siblings_follow_golden =
            !param_stored && fsp_analyze::data_oblivious(launch.program(), params);
        let output = target.output_region();
        let golden = memory.read_words(output.0, output.1);
        let budget = (stats.instructions * HANG_FACTOR).max(MIN_BUDGET);
        let kernel = [("kernel", target.name())];
        let hangs_predicted = fsp_obs::registry().counter_labeled(
            "fsp_inject_hang_predicted_total",
            &kernel,
            "Fast-path injected runs proved hung and cut short, by kernel.",
        );
        let hangs_predicted_live = fsp_obs::registry().counter_labeled(
            "fsp_inject_hang_predicted_live_total",
            &kernel,
            "Fast-path injected runs proved hung while a CTA sibling of the faulty thread was live, by kernel.",
        );
        let crashes_predicted = fsp_obs::registry().counter_labeled(
            "fsp_inject_crash_predicted_total",
            &kernel,
            "Fast-path injected runs proved to fault out of bounds and cut short, by kernel.",
        );
        let cut_metrics = CutMetrics::new(target.name());
        Ok(PreparedRun {
            launch: launch.instr_budget(budget),
            output,
            initial,
            golden,
            fault_free_instructions: stats.instructions,
            trace: Arc::new(tracer.finish()),
            checkpoints,
            boundaries: boundaries.finish(),
            cut_metrics,
            siblings_follow_golden,
            hangs_predicted,
            hangs_predicted_live,
            crashes_predicted,
        })
    }
}

impl<'a, T: InjectionTarget> Experiment<'a, T> {
    /// Prepares `target` afresh ([`PreparedRun::prepare`]) and returns a
    /// view of it with the fast path on and the full lane budget
    /// ([`MAX_BATCH`]).
    ///
    /// # Errors
    ///
    /// Returns the [`SimFault`] if the *fault-free* run itself faults —
    /// that is a workload bug, not an injection outcome.
    pub fn prepare(target: &'a T) -> Result<Self, SimFault> {
        Ok(Self::from_prepared(
            target,
            Arc::new(PreparedRun::prepare(target)?),
        ))
    }

    /// A view of an already prepared run, with the fast path on and the
    /// full lane budget. `run` must come from [`PreparedRun::prepare`] of
    /// `target` or of a target with the same launch, memory image and
    /// output region; [`crate::ExperimentCache`] keys its entries so.
    #[must_use]
    pub fn from_prepared(target: &'a T, run: Arc<PreparedRun>) -> Self {
        Experiment {
            target,
            run,
            fast_path: true,
            batch: MAX_BATCH,
        }
    }

    /// The target being injected.
    #[must_use]
    pub fn target(&self) -> &T {
        self.target
    }

    /// Dynamic instructions retired by the fault-free run.
    #[must_use]
    pub fn fault_free_instructions(&self) -> u64 {
        self.run.fault_free_instructions
    }

    /// Fast-path injected runs of this kernel, process-wide, that the
    /// simulator proved hung and cut short instead of running out their
    /// budget (the `fsp_inject_hang_predicted_total` series).
    #[must_use]
    pub fn hangs_predicted(&self) -> u64 {
        self.run.hangs_predicted.get()
    }

    /// The subset of [`Experiment::hangs_predicted`] certified while a CTA
    /// sibling of the faulty thread was still live, by the live-sibling
    /// rule (the `fsp_inject_hang_predicted_live_total` series).
    #[must_use]
    pub fn hangs_predicted_live(&self) -> u64 {
        self.run.hangs_predicted_live.get()
    }

    /// Fast-path injected runs of this kernel, process-wide, that the
    /// simulator proved to end in an out-of-bounds access and cut short
    /// before the access (the `fsp_inject_crash_predicted_total` series).
    #[must_use]
    pub fn crashes_predicted(&self) -> u64 {
        self.run.crashes_predicted.get()
    }

    /// Fast-path injected runs of this kernel, process-wide, stopped at a
    /// CTA boundary or at the faulty thread's exit because the rest of the
    /// run provably replays the golden run (the `fsp_inject_cta_cut_total`
    /// series, summed over cut points and outcomes). Batched lanes settled
    /// there count as cut runs too.
    #[must_use]
    pub fn cta_cuts(&self) -> u64 {
        self.run.cut_metrics.cuts()
    }

    /// CTA boundaries of this kernel, process-wide, at which the cut rule
    /// refused to stop a fast-path run (the
    /// `fsp_inject_cta_cut_refused_total` series, summed over reasons).
    #[must_use]
    pub fn cta_cut_refusals(&self) -> u64 {
        self.run.cut_metrics.refusals()
    }

    /// The replay cut rule over this experiment's golden run.
    fn cta_cut(&self) -> CtaCut<'_> {
        CtaCut::new(&self.run.boundaries, self.run.output, &self.run.cut_metrics)
    }

    /// The golden output words.
    #[must_use]
    pub fn golden(&self) -> &[u32] {
        &self.run.golden
    }

    /// Resumable golden checkpoints captured by [`Experiment::prepare`].
    #[must_use]
    pub fn num_checkpoints(&self) -> usize {
        self.run.checkpoints.len()
    }

    /// Enables or disables the fast path (on by default): checkpoint
    /// resume, batched lanes, the replay cut and hang prediction. The slow
    /// path re-executes every injected run from the start and classifies
    /// purely by output comparison; it exists as the differential-testing
    /// oracle for the fast path.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
    }

    /// Builder-style [`Experiment::set_fast_path`].
    #[must_use]
    pub fn with_fast_path(mut self, on: bool) -> Self {
        self.fast_path = on;
        self
    }

    /// Sets the number of shadow lanes per batched replay (clamped to
    /// `1..=`[`MAX_BATCH`], which is the default). Campaign sites that
    /// trigger in the same CTA ride one shared fault-free replay, up to
    /// this many at a time; a site with no such neighbour rides a replay
    /// of its own. `1` disables batching: every site runs solo, as one
    /// faulty run stopped at the replay cut, with no early-convergence
    /// tracking. Outcomes are byte-identical across batch sizes — batching
    /// only changes how the work is amortized.
    pub fn set_batch(&mut self, lanes: usize) {
        self.batch = lanes.clamp(1, MAX_BATCH);
    }

    /// Builder-style [`Experiment::set_batch`].
    #[must_use]
    pub fn with_batch(mut self, lanes: usize) -> Self {
        self.set_batch(lanes);
        self
    }

    /// Current shadow-lane count per batched replay.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The exhaustive [`SiteSpace`] over the golden trace that
    /// [`Experiment::prepare`] recorded. The space shares that trace, so
    /// this costs one prefix-sum pass and no copy.
    ///
    /// The returned space addresses every thread of the launch, whatever
    /// `full_traces` names: the parameter only documents which threads the
    /// caller will sample or enumerate, and each named thread must be in
    /// the launch.
    #[must_use]
    pub fn site_space(&self, full_traces: impl IntoIterator<Item = u32>) -> SiteSpace {
        let num_threads = self.run.launch.num_threads();
        for tid in full_traces {
            debug_assert!(tid < num_threads, "thread {tid} is not in the launch");
        }
        SiteSpace::new(Arc::clone(&self.run.trace))
    }

    /// The latest checkpoint taken strictly before `site`'s flip could
    /// retire: the last one where the flip is still
    /// [ahead](Checkpoint::ahead). Across checkpoints it turns from ahead
    /// to behind at most once, so a binary search finds it.
    fn checkpoint_for(&self, site: crate::FaultSite) -> Option<&Checkpoint> {
        self.checkpoint_key(site)
            .checked_sub(1)
            .map(|i| &self.run.checkpoints[i])
    }

    /// Batch-group identity of a site's resume point: `0` for a cold start,
    /// `i + 1` for checkpoint `i`. Sites sharing a key restore identical
    /// machine state, so they can ride one replay.
    fn checkpoint_key(&self, site: crate::FaultSite) -> usize {
        self.run
            .checkpoints
            .partition_point(|c| c.ahead(site.tid, site.dyn_idx))
    }

    /// The batch-group sort key of a site: `(CTA, resume point)`. Campaign
    /// batching co-schedules sites sharing a CTA — a batch resumes from the
    /// *earliest* checkpoint among its lanes, which is sound for every
    /// later lane because a flip ahead at a checkpoint is ahead at every
    /// earlier one, so the earlier restore point still precedes each
    /// lane's trigger. Sorting by resume point within the CTA keeps the
    /// checkpoint spread inside one batch small. Distributed chunk
    /// formation (fsp-serve / fsp-fleet) aligns lease boundaries to CTA
    /// groups so a lease split never tears a batch.
    #[must_use]
    pub fn batch_group_key(&self, site: crate::FaultSite) -> (u32, usize) {
        (
            site.tid / self.run.launch.threads_per_cta().max(1),
            self.checkpoint_key(site),
        )
    }

    /// Runs one single-bit-flip injection and classifies its outcome.
    #[must_use]
    pub fn run_one(&self, site: crate::FaultSite) -> Outcome {
        self.run_one_with(site, crate::FaultModel::SingleBitFlip)
    }

    /// Runs one injection under an explicit [`crate::FaultModel`].
    #[must_use]
    pub fn run_one_with(&self, site: crate::FaultSite, model: crate::FaultModel) -> Outcome {
        self.run_one_detailed(site, model).0
    }

    /// Runs one injection and, for SDC outcomes, also reports the output's
    /// relative L2 error vs the golden run (SDC severity — see
    /// [`crate::relative_l2_error`]).
    #[must_use]
    pub fn run_one_detailed(
        &self,
        site: crate::FaultSite,
        model: crate::FaultModel,
    ) -> (Outcome, Option<f64>) {
        let mut scratch = self.run.initial.clone();
        let mut resume = ResumeScratch::default();
        let (outcome, meta) = self.run_one_in(site, model, &mut scratch, &mut resume);
        if outcome != Outcome::Sdc {
            return (outcome, None);
        }
        let out = match meta.cut {
            Some(pos) => self.cta_cut().output(pos, &scratch, &self.run.golden),
            None => {
                let (addr, len) = self.run.output;
                scratch.read_words(addr, len)
            }
        };
        (
            outcome,
            Some(crate::relative_l2_error(&self.run.golden, &out)),
        )
    }

    /// Runs one injection in a caller-owned scratch memory block (reused
    /// across calls to amortize allocation) and classifies it. This is the
    /// campaign hot path; SDC severity is left to
    /// [`Experiment::run_one_detailed`], which reads `scratch` afterwards.
    fn run_one_in(
        &self,
        site: crate::FaultSite,
        model: crate::FaultModel,
        scratch: &mut MemBlock,
        resume: &mut ResumeScratch,
    ) -> (Outcome, RunMeta) {
        let start_ns = fsp_obs::now_ns();
        let sim = Simulator::new();
        let mut meta = RunMeta::default();
        let (engine, result) = if self.fast_path {
            let threads_per_cta = self.run.launch.threads_per_cta();
            let params = self
                .run
                .siblings_follow_golden
                .then(|| param_block(&self.run.launch));
            let mut hook = SoloHook::new(site, model, threads_per_cta, self.cta_cut(), params);
            let run = match self.checkpoint_for(site) {
                Some(cp) => {
                    meta.ckpt_hit = true;
                    meta.skipped = cp.retired();
                    sim.run_from_with(cp, &self.run.launch, scratch, &mut hook, resume)
                }
                None => {
                    scratch.clone_from(&self.run.initial);
                    sim.run_with(&self.run.launch, scratch, &mut hook, resume)
                }
            };
            meta.executed = resume.retired();
            match hook.predicted() {
                Some((SimFault::BudgetExceeded, live)) => {
                    self.run.hangs_predicted.inc();
                    if live {
                        self.run.hangs_predicted_live.inc();
                    }
                }
                Some(_) => self.run.crashes_predicted.inc(),
                None => {}
            }
            if let (Ok(_), Some(cut)) = (&run, hook.cut()) {
                // The rest of the run replays the golden run.
                meta.cut = Some(cut.pos);
                inject_metrics().record_run(SOLO, meta, cut.outcome, start_ns);
                return (cut.outcome, meta);
            }
            (SOLO, run)
        } else {
            scratch.clone_from(&self.run.initial);
            let mut hook = InjectionHook::with_model(site, model);
            let run = sim.run_with(&self.run.launch, scratch, &mut hook, resume);
            meta.executed = resume.retired();
            (SLOW, run)
        };
        let outcome = match result {
            Err(SimFault::BudgetExceeded) => Outcome::HANG,
            Err(SimFault::DetectedExit { .. }) => Outcome::Detected,
            Err(_) => Outcome::CRASH,
            Ok(_) if scratch.region_eq(self.run.output.0, &self.run.golden) => Outcome::Masked,
            Ok(_) => Outcome::Sdc,
        };
        inject_metrics().record_run(engine, meta, outcome, start_ns);
        (outcome, meta)
    }

    /// Runs one batched replay over sites sharing a batch group (same
    /// resume checkpoint, same CTA): a single fault-free resumed simulation
    /// drives one shadow lane per site, lanes the replay demotes are re-run
    /// solo through [`Experiment::run_one_in`], and the per-site outcomes
    /// are appended to `outs` in site order.
    fn run_batch_in(
        &self,
        batch_sites: &[crate::FaultSite],
        model: crate::FaultModel,
        scratch: &mut MemBlock,
        resume: &mut ResumeScratch,
        outs: &mut Vec<Outcome>,
    ) -> BatchRunMeta {
        let _span = fsp_obs::span_labeled("inject.batch", format!("{} lanes", batch_sites.len()));
        let sim = Simulator::new();
        let mut hook = BatchInjectionHook::new(
            batch_sites,
            model,
            self.run.launch.num_threads(),
            self.run.launch.threads_per_cta(),
            self.run.output,
        )
        .with_cut(self.cta_cut());
        let mut meta = BatchRunMeta::default();
        let cp = self.checkpoint_for(batch_sites[0]);
        let run = match cp {
            Some(cp) => sim.run_from_with(cp, &self.run.launch, scratch, &mut hook, resume),
            None => {
                scratch.clone_from(&self.run.initial);
                sim.run_with(&self.run.launch, scratch, &mut hook, resume)
            }
        };
        meta.executed += resume.retired();
        inject_metrics().retired[0].add(resume.retired());
        if run.is_err() {
            // The shared replay is fault-free by construction; a fault here
            // means no lane outcome can be attributed — solo-rerun them all.
            hook.demote_all();
        }
        let ends = hook.finish();
        let metrics = batch_metrics();
        metrics.lanes.record(batch_sites.len() as u64);
        meta.replays = 1;
        for (&site, &end) in batch_sites.iter().zip(&ends) {
            metrics.lane_end[lane_end_index(end)].inc();
            match end {
                LaneEnd::Resolved(outcome, cause) => {
                    if let Some(cp) = cp {
                        meta.hits += 1;
                        meta.skipped += cp.retired();
                    }
                    meta.early += u64::from(cause == RetireCause::Converged);
                    meta.lanes += 1;
                    outs.push(outcome);
                }
                LaneEnd::Demoted(_) => {
                    let (outcome, rm) = self.run_one_in(site, model, scratch, resume);
                    meta.hits += u64::from(rm.ckpt_hit);
                    meta.skipped += rm.skipped;
                    meta.executed += rm.executed;
                    outs.push(outcome);
                }
            }
        }
        meta
    }

    /// Runs a single-bit-flip campaign over `sites` on `workers` OS
    /// threads (`0` is clamped to 1).
    ///
    /// Outcomes are indexed by site position, so the result is deterministic
    /// regardless of scheduling.
    #[must_use]
    pub fn run_campaign(&self, sites: &[WeightedSite], workers: usize) -> CampaignResult {
        self.run_campaign_with(sites, crate::FaultModel::SingleBitFlip, workers)
    }

    /// Runs a campaign under an explicit [`crate::FaultModel`] (`workers ==
    /// 0` is clamped to 1).
    #[must_use]
    pub fn run_campaign_with(
        &self,
        sites: &[WeightedSite],
        model: crate::FaultModel,
        workers: usize,
    ) -> CampaignResult {
        let run = self.run_campaign_incremental(sites, model, workers, &[], &NopObserver);
        run.into_result(sites)
            .expect("uncancellable campaign always completes")
    }

    /// Runs a campaign incrementally: sites whose outcome is already known
    /// (`resolved[i] == Some(..)` — e.g. from a persistent outcome store)
    /// are taken as-is, only the remainder is injected, and `observer`
    /// receives chunk-level progress and may cancel between chunks.
    ///
    /// `resolved` must be empty (nothing pre-resolved) or exactly
    /// `sites.len()` long. `workers == 0` is clamped to 1.
    ///
    /// Unresolved sites are scheduled in checkpoint order (all sites
    /// resuming from the same golden snapshot run back to back), which
    /// keeps each worker's copy-on-write scratch memory warm; outcomes are
    /// still indexed by site position, so the result is deterministic in
    /// site order regardless of worker count and of how the outcomes are
    /// split between `resolved` and fresh injections: a fully warm run, a
    /// resumed run and a cold run of the same sites produce identical
    /// outcome vectors.
    ///
    /// # Panics
    ///
    /// Panics if `resolved` is non-empty with a length other than
    /// `sites.len()`.
    #[must_use]
    pub fn run_campaign_incremental(
        &self,
        sites: &[WeightedSite],
        model: crate::FaultModel,
        workers: usize,
        resolved: &[Option<Outcome>],
        observer: &dyn CampaignObserver,
    ) -> IncrementalCampaign {
        assert!(
            resolved.is_empty() || resolved.len() == sites.len(),
            "resolved length {} does not match {} sites",
            resolved.len(),
            sites.len()
        );
        let _campaign = fsp_obs::span_labeled("inject.campaign", format!("{} sites", sites.len()));
        let mut outcomes: Vec<Option<Outcome>> = if resolved.is_empty() {
            vec![None; sites.len()]
        } else {
            resolved.to_vec()
        };
        let from_cache = outcomes.iter().filter(|o| o.is_some()).count();
        // Checkpoint-locality schedule: unresolved sites ordered by resume
        // position (ties broken by site index for determinism of the
        // *schedule*; outcomes are order-independent).
        let batched = self.fast_path && self.batch > 1;
        let order: Vec<usize> = {
            let mut v: Vec<usize> = (0..sites.len())
                .filter(|&i| outcomes[i].is_none())
                .collect();
            if batched {
                // Batch-group order: sites sharing a CTA land adjacent,
                // sorted by resume point, so unit formation below can
                // co-schedule them with a small checkpoint spread.
                v.sort_by_key(|&i| {
                    let (cta, ckpt) = self.batch_group_key(sites[i].site);
                    (cta, ckpt, i)
                });
            } else if self.fast_path {
                v.sort_by_key(|&i| {
                    (
                        self.checkpoint_for(sites[i].site)
                            .map_or(0, Checkpoint::retired),
                        i,
                    )
                });
            }
            v
        };
        // Work units claimed by workers: runs of the schedule sharing a
        // CTA (capped at the lane budget) when batching, plain fixed-size
        // chunks otherwise. A batch resumes from its first lane's
        // checkpoint — the earliest in the unit, since the schedule sorts
        // by resume point within the CTA. Every unit of a batched campaign
        // is a replay, single-site units included; a lane budget of 1 runs
        // every site solo.
        let units: Vec<(usize, usize)> = if batched {
            let mut u = Vec::new();
            let mut start = 0;
            while start < order.len() {
                let (cta, _) = self.batch_group_key(sites[order[start]].site);
                let mut end = start + 1;
                while end < order.len()
                    && end - start < self.batch
                    && self.batch_group_key(sites[order[end]].site).0 == cta
                {
                    end += 1;
                }
                u.push((start, end));
                start = end;
            }
            u
        } else {
            (0..order.len())
                .step_by(CHUNK)
                .map(|s| (s, (s + CHUNK).min(order.len())))
                .collect()
        };
        let injected = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let cursor = AtomicUsize::new(0);
        let checkpoint_hits = AtomicU64::new(0);
        let skipped_instructions = AtomicU64::new(0);
        let executed_instructions = AtomicU64::new(0);
        let early_converged = AtomicU64::new(0);
        let batch_replays = AtomicU64::new(0);
        let batch_lanes = AtomicU64::new(0);
        {
            // Workers claim chunks of the schedule via the cursor and run
            // them against a private scratch memory; the mutex guards only
            // the brief scatter write of finished outcomes, so the
            // injection hot path runs lock-free.
            let results = Mutex::new(&mut outcomes);
            std::thread::scope(|scope| {
                for _ in 0..workers.max(1).min(order.len().max(1)) {
                    scope.spawn(|| {
                        let mut scratch = self.run.initial.clone();
                        let mut resume = ResumeScratch::default();
                        loop {
                            if cancelled.load(Ordering::Relaxed) || observer.should_cancel() {
                                cancelled.store(true, Ordering::Relaxed);
                                break;
                            }
                            let unit = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&(lo, hi)) = units.get(unit) else {
                                break;
                            };
                            let indices = &order[lo..hi];
                            let _chunk = fsp_obs::span("inject.chunk");
                            let mut outs = Vec::with_capacity(indices.len());
                            let (mut hits, mut skipped, mut executed, mut early) =
                                (0u64, 0u64, 0u64, 0u64);
                            if batched {
                                let batch_sites: Vec<crate::FaultSite> =
                                    indices.iter().map(|&i| sites[i].site).collect();
                                let bm = self.run_batch_in(
                                    &batch_sites,
                                    model,
                                    &mut scratch,
                                    &mut resume,
                                    &mut outs,
                                );
                                hits += bm.hits;
                                skipped += bm.skipped;
                                executed += bm.executed;
                                early += bm.early;
                                batch_replays.fetch_add(bm.replays, Ordering::Relaxed);
                                batch_lanes.fetch_add(bm.lanes, Ordering::Relaxed);
                            } else {
                                for &i in indices {
                                    let (o, meta) = self.run_one_in(
                                        sites[i].site,
                                        model,
                                        &mut scratch,
                                        &mut resume,
                                    );
                                    hits += u64::from(meta.ckpt_hit);
                                    skipped += meta.skipped;
                                    executed += meta.executed;
                                    outs.push(o);
                                }
                            }
                            injected.fetch_add(indices.len(), Ordering::Relaxed);
                            checkpoint_hits.fetch_add(hits, Ordering::Relaxed);
                            skipped_instructions.fetch_add(skipped, Ordering::Relaxed);
                            executed_instructions.fetch_add(executed, Ordering::Relaxed);
                            early_converged.fetch_add(early, Ordering::Relaxed);
                            let im = inject_metrics();
                            for &o in &outs {
                                im.outcome_total[outcome_index(o)].inc();
                            }
                            {
                                let mut slots = results.lock().expect("campaign worker panicked");
                                for (&i, &o) in indices.iter().zip(&outs) {
                                    slots[i] = Some(o);
                                }
                            }
                            observer.on_chunk(indices, &outs);
                        }
                    });
                }
            });
        }
        IncrementalCampaign {
            outcomes,
            injected: injected.into_inner(),
            from_cache,
            cancelled: cancelled.into_inner(),
            checkpoint_hits: checkpoint_hits.into_inner(),
            skipped_instructions: skipped_instructions.into_inner(),
            executed_instructions: executed_instructions.into_inner(),
            early_converged: early_converged.into_inner(),
            batch_replays: batch_replays.into_inner(),
            batch_lanes: batch_lanes.into_inner(),
        }
    }
}

/// The result of a campaign: per-site outcomes plus the weighted profile.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Outcome per injected site, in input order.
    pub outcomes: Vec<Outcome>,
    /// The weighted resilience profile.
    pub profile: ResilienceProfile,
}

/// The result of an incremental campaign run (see
/// [`Experiment::run_campaign_incremental`]): possibly partial when the
/// observer cancelled it.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalCampaign {
    /// Per-site outcomes in input order; `None` marks sites the campaign
    /// was cancelled before reaching.
    pub outcomes: Vec<Option<Outcome>>,
    /// Sites actually injected by this run.
    pub injected: usize,
    /// Sites resolved from the caller-supplied outcomes (cache hits).
    pub from_cache: usize,
    /// Whether the observer stopped the campaign before it finished.
    pub cancelled: bool,
    /// Injected runs that resumed from a golden checkpoint.
    pub checkpoint_hits: u64,
    /// Golden-prefix instructions skipped via checkpoint resume.
    pub skipped_instructions: u64,
    /// Instructions actually executed by injected runs: every shared
    /// batched replay, and every solo or slow-path run, including the
    /// partial work of runs that crashed or hung.
    pub executed_instructions: u64,
    /// Lanes of batched replays classified `Masked` by early convergence:
    /// their divergence set emptied, or the replay cut settled them at a
    /// point after which every corrupted word is stored again or dies.
    /// Solo runs track no divergence and never count here, so a campaign
    /// at a lane budget of 1 reports 0.
    pub early_converged: u64,
    /// Shared golden replays run by the batched fast path (0 when the
    /// campaign ran solo).
    pub batch_replays: u64,
    /// Lanes resolved on a shared replay without a solo fallback;
    /// `batch_lanes / batch_replays` is the effective lane occupancy.
    pub batch_lanes: u64,
}

impl IncrementalCampaign {
    /// Whether every site has an outcome.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(Option::is_some)
    }

    /// The weighted profile over the sites resolved so far, accumulated in
    /// site order (so a complete run's partial profile is bit-identical
    /// across worker counts and cache splits).
    #[must_use]
    pub fn partial_profile(&self, sites: &[WeightedSite]) -> ResilienceProfile {
        let mut profile = ResilienceProfile::new();
        for (ws, o) in sites.iter().zip(&self.outcomes) {
            if let Some(o) = o {
                profile.record_weighted(*o, ws.weight);
            }
        }
        profile
    }

    /// Converts a complete run into a [`CampaignResult`]; returns `None`
    /// if any site is still unresolved.
    #[must_use]
    pub fn into_result(self, sites: &[WeightedSite]) -> Option<CampaignResult> {
        let profile = self.partial_profile(sites);
        let outcomes: Option<Vec<Outcome>> = self.outcomes.into_iter().collect();
        outcomes.map(|outcomes| CampaignResult { outcomes, profile })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::CountdownTarget;
    use crate::FaultSite;

    #[test]
    fn prepare_captures_golden() {
        let t = CountdownTarget::new();
        let e = Experiment::prepare(&t).unwrap();
        assert!(e.fault_free_instructions() > 0);
        assert!(!e.golden().is_empty());
    }

    #[test]
    fn site_spaces_share_the_prepared_trace() {
        let t = CountdownTarget::new();
        let e = Experiment::prepare(&t).unwrap();
        let all = e.site_space(0..CountdownTarget::THREADS);
        let one = e.site_space([0]);
        assert!(std::ptr::eq(all.trace(), one.trace()), "trace was copied");
        let last = CountdownTarget::THREADS - 1;
        assert_eq!(
            one.site_at(one.total_sites() - 1).tid,
            last,
            "a space addresses every thread, not just the named ones"
        );
        assert_eq!(
            one.thread_site_iter(last).count() as u64,
            one.thread_sites(last)
        );
    }

    #[test]
    fn masked_sdc_hang_all_reachable() {
        let t = CountdownTarget::new();
        let e = Experiment::prepare(&t).unwrap();
        let space = e.site_space(0..4);
        // Exhaust every site of thread 0 and tally; the countdown kernel is
        // engineered so all three outcome classes occur.
        let sites: Vec<WeightedSite> = space.thread_site_iter(0).map(WeightedSite::from).collect();
        let result = e.run_campaign(&sites, 2);
        assert!(result.profile.masked() > 0.0, "some flips must mask");
        assert!(result.profile.sdc() > 0.0, "some flips must corrupt output");
        assert!(result.profile.other() > 0.0, "some flips must hang/crash");
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        let t = CountdownTarget::new();
        let e = Experiment::prepare(&t).unwrap();
        let space = e.site_space(0..4);
        let sites: Vec<WeightedSite> = space.thread_site_iter(1).map(WeightedSite::from).collect();
        let a = e.run_campaign(&sites, 1);
        let b = e.run_campaign(&sites, 4);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let t = CountdownTarget::new();
        let e = Experiment::prepare(&t).unwrap();
        let space = e.site_space(0..4);
        let sites: Vec<WeightedSite> = space.thread_site_iter(0).map(WeightedSite::from).collect();
        let a = e.run_campaign(&sites, 0);
        let b = e.run_campaign(&sites, 1);
        assert_eq!(a.outcomes, b.outcomes);
    }

    /// The tentpole's correctness contract in miniature: the fast path
    /// (checkpoint resume + early convergence) and the slow path (full
    /// re-execution, output comparison only) must agree on every outcome
    /// *and* every SDC severity, under every fault model.
    #[test]
    fn fast_path_matches_slow_path_everywhere() {
        let t = CountdownTarget::new();
        let fast = Experiment::prepare(&t).unwrap();
        let slow = Experiment::prepare(&t).unwrap().with_fast_path(false);
        let space = fast.site_space(0..4);
        let sites: Vec<WeightedSite> = (0..4)
            .flat_map(|tid| space.thread_site_iter(tid))
            .map(WeightedSite::from)
            .collect();
        for model in crate::FaultModel::ALL {
            for ws in &sites {
                let (of, sf) = fast.run_one_detailed(ws.site, model);
                let (os, ss) = slow.run_one_detailed(ws.site, model);
                assert_eq!(of, os, "outcome diverged at {:?} under {model:?}", ws.site);
                assert_eq!(sf, ss, "severity diverged at {:?} under {model:?}", ws.site);
            }
        }
    }

    #[test]
    fn campaign_counters_are_consistent() {
        let t = CountdownTarget::new();
        let e = Experiment::prepare(&t).unwrap();
        let space = e.site_space(0..4);
        let sites: Vec<WeightedSite> = (0..4)
            .flat_map(|tid| space.thread_site_iter(tid))
            .map(WeightedSite::from)
            .collect();
        let run = e.run_campaign_incremental(
            &sites,
            crate::FaultModel::SingleBitFlip,
            2,
            &[],
            &NopObserver,
        );
        assert!(run.is_complete());
        assert_eq!(run.injected, sites.len());
        assert!(
            run.early_converged > 0,
            "dead-register flips converge early"
        );
        assert!(run.early_converged <= run.injected as u64);
        assert!(run.executed_instructions > 0);
        assert_eq!(
            run.checkpoint_hits > 0,
            e.num_checkpoints() > 0,
            "hits iff checkpoints exist"
        );
    }

    #[test]
    fn incremental_resolves_cache_hits_without_injecting() {
        let t = CountdownTarget::new();
        let e = Experiment::prepare(&t).unwrap();
        let space = e.site_space(0..4);
        let sites: Vec<WeightedSite> = space.thread_site_iter(0).map(WeightedSite::from).collect();
        let cold = e.run_campaign(&sites, 2);
        // Pre-resolve every other site from the cold run; the warm run must
        // inject exactly the gaps and reproduce the cold outcomes.
        let resolved: Vec<Option<Outcome>> = cold
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, &o)| (i % 2 == 0).then_some(o))
            .collect();
        let hits = resolved.iter().filter(|o| o.is_some()).count();
        let warm = e.run_campaign_incremental(
            &sites,
            crate::FaultModel::SingleBitFlip,
            2,
            &resolved,
            &NopObserver,
        );
        assert!(warm.is_complete() && !warm.cancelled);
        assert_eq!(warm.from_cache, hits);
        assert_eq!(warm.injected, sites.len() - hits);
        let warm = warm.into_result(&sites).unwrap();
        assert_eq!(warm.outcomes, cold.outcomes);
        assert_eq!(warm.profile, cold.profile);
    }

    #[test]
    fn observer_sees_chunks_and_can_cancel() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct CancelAfter {
            seen: AtomicUsize,
            limit: usize,
        }
        impl CampaignObserver for CancelAfter {
            fn on_chunk(&self, indices: &[usize], outcomes: &[Outcome]) {
                assert_eq!(indices.len(), outcomes.len());
                self.seen.fetch_add(outcomes.len(), Ordering::Relaxed);
            }
            fn should_cancel(&self) -> bool {
                self.seen.load(Ordering::Relaxed) >= self.limit
            }
        }

        let t = CountdownTarget::new();
        let e = Experiment::prepare(&t).unwrap();
        let space = e.site_space(0..4);
        let sites: Vec<WeightedSite> = (0..4)
            .flat_map(|tid| space.thread_site_iter(tid))
            .map(WeightedSite::from)
            .collect();
        let observer = CancelAfter {
            seen: AtomicUsize::new(0),
            limit: 32,
        };
        let run =
            e.run_campaign_incremental(&sites, crate::FaultModel::SingleBitFlip, 1, &[], &observer);
        assert!(run.cancelled);
        assert!(!run.is_complete(), "cancellation must leave sites undone");
        assert!(run.injected >= 32, "claimed chunks run to completion");
        assert!(run.injected < sites.len());
        // The partial outcomes agree with an uninterrupted run site-by-site.
        let full = e.run_campaign(&sites, 2);
        for (i, o) in run.outcomes.iter().enumerate() {
            if let Some(o) = o {
                assert_eq!(*o, full.outcomes[i]);
            }
        }
    }

    #[test]
    fn unreached_site_is_masked() {
        let t = CountdownTarget::new();
        let e = Experiment::prepare(&t).unwrap();
        let o = e.run_one(FaultSite {
            tid: 999,
            dyn_idx: 0,
            bit: 0,
        });
        assert_eq!(o, Outcome::Masked);
    }
}
