//! The grid executor: CTAs in launch order, barrier-phase thread scheduling.

use fsp_isa::MemSpace;

use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::exec::{step, AccessLog, ExecCtx, SimFault, SrcLog, StepEffect};
use crate::hook::ExecHook;
use crate::launch::Launch;
use crate::mem::MemBlock;
use crate::thread::{ThreadCoords, ThreadState, ThreadStatus};
use crate::PARAM_BASE;

/// Summary of a completed (fault-free or survivable-fault) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Total dynamic instructions retired across all threads. For runs
    /// resumed from a checkpoint this covers the executed suffix only.
    pub instructions: u64,
    /// Number of barrier releases across all CTAs (suffix-only when
    /// resumed).
    pub barriers: u64,
    /// Total threads executed.
    pub threads: u32,
}

/// How threads of a CTA are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Threads run to the next barrier one at a time, in thread-id order —
    /// the fast default; functionally equivalent for race-free kernels.
    #[default]
    ThreadSerial,
    /// Warps of `width` lanes run in lockstep with a SIMT reconvergence
    /// stack, as GPGPU-Sim executes PTXPlus. Detects divergent
    /// `bar.sync` ([`SimFault::BarrierDivergence`]).
    WarpLockstep {
        /// Lanes per warp (32 on NVIDIA hardware).
        width: u32,
    },
}

/// The functional simulator.
///
/// Stateless between runs; construct once and reuse. See the crate docs for
/// the scheduling model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simulator {
    mode: ExecMode,
}

/// Reusable per-worker buffers for [`Simulator::run_from_with`]: the
/// thread-state vector and shared-memory image a resume clones out of the
/// checkpoint. Campaigns resume thousands of runs per worker; reusing one
/// scratch keeps those clones off the allocator.
#[derive(Debug)]
pub struct ResumeScratch {
    threads: Vec<ThreadState>,
    shared: MemBlock,
}

impl Default for ResumeScratch {
    fn default() -> Self {
        ResumeScratch {
            threads: Vec::new(),
            shared: MemBlock::with_space(0, MemSpace::Shared),
        }
    }
}

/// Resets a CTA's shared memory and writes the launch parameters at the
/// base.
fn reset_shared(shared: &mut MemBlock, launch: &Launch) {
    shared.clear();
    for (i, &p) in launch.param_values().iter().enumerate() {
        shared
            .store(PARAM_BASE + 4 * i as u32, p)
            .expect("parameters fit in shared memory");
    }
}

/// (Re)builds the thread states of the CTA at `(cx, cy)` in `threads`,
/// reusing existing allocations.
fn fill_cta_threads(threads: &mut Vec<ThreadState>, launch: &Launch, cx: u32, cy: u32) {
    let (gx, gy) = launch.grid_dim();
    let (bx, by, bz) = launch.block_dim();
    let mut idx = 0;
    for tz in 0..bz {
        for ty in 0..by {
            for tx in 0..bx {
                let coords = ThreadCoords {
                    tid: (tx, ty, tz),
                    ctaid: (cx, cy),
                    ntid: (bx, by, bz),
                    nctaid: (gx, gy),
                };
                if idx < threads.len() {
                    threads[idx].reset(coords);
                } else {
                    threads.push(ThreadState::new(coords));
                }
                idx += 1;
            }
        }
    }
}

impl Simulator {
    /// Creates a simulator with the default thread-serial schedule.
    #[must_use]
    pub fn new() -> Self {
        Simulator {
            mode: ExecMode::ThreadSerial,
        }
    }

    /// Creates a warp-lockstep simulator (hardware warps are 32 lanes).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn warp_lockstep(width: u32) -> Self {
        assert!(width > 0, "warp width must be positive");
        Simulator {
            mode: ExecMode::WarpLockstep { width },
        }
    }

    /// The scheduling mode.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Runs `launch` against `global` memory, reporting execution events to
    /// `hook`.
    ///
    /// In thread-serial mode the hook's [`ExecHook::converged`] is polled
    /// between steps and [`ExecHook::on_cta_end`] is called after each CTA;
    /// a `true` from either stops the run early with the stats retired so
    /// far.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimFault`] raised by any thread (invalid or
    /// misaligned memory access, or dynamic-instruction budget exhaustion).
    /// On error, `global` is left in its partially-updated state — injection
    /// campaigns treat the run as crashed/hung and discard it.
    pub fn run<H: ExecHook>(
        &self,
        launch: &Launch,
        global: &mut MemBlock,
        hook: &mut H,
    ) -> Result<RunStats, SimFault> {
        let program = launch.program();
        let (gx, gy) = launch.grid_dim();
        let cta_threads = launch.threads_per_cta() as usize;
        let mut budget = launch.budget();
        let mut stats = RunStats {
            instructions: 0,
            barriers: 0,
            threads: launch.num_threads(),
        };

        let mut shared = MemBlock::with_space(
            (launch.shared_size() as usize).div_ceil(4),
            MemSpace::Shared,
        );
        let mut threads: Vec<ThreadState> = Vec::with_capacity(cta_threads);
        // Reconvergence table for warp-lockstep mode, once per launch. An
        // explicit `ssy <label>` earlier in the same basic block wins
        // (PTXPlus-style annotation); otherwise the immediate
        // post-dominator from the CFG.
        let rpcs: Vec<Option<usize>> = match self.mode {
            ExecMode::ThreadSerial => Vec::new(),
            ExecMode::WarpLockstep { .. } => {
                let cfg = program.cfg();
                let pdom = cfg.post_dominators();
                (0..program.len())
                    .map(|pc| {
                        let block = &cfg.blocks()[cfg.block_of(pc)];
                        let declared = (block.start..pc).rev().find_map(|p| {
                            let i = program.instr(p);
                            (i.opcode == fsp_isa::Opcode::Ssy)
                                .then_some(i.target)
                                .flatten()
                        });
                        declared.or_else(|| pdom[cfg.block_of(pc)].map(|b| cfg.blocks()[b].start))
                    })
                    .collect()
            }
        };

        for cy in 0..gy {
            for cx in 0..gx {
                // Fresh shared memory per CTA, parameters at the base.
                reset_shared(&mut shared, launch);
                fill_cta_threads(&mut threads, launch, cx, cy);

                match self.mode {
                    ExecMode::ThreadSerial => {
                        if self.run_cta(
                            program,
                            global,
                            &mut shared,
                            &mut threads[..cta_threads],
                            hook,
                            &mut budget,
                            &mut stats,
                        )? || hook.on_cta_end(cy * gx + cx, global, budget)
                        {
                            stats.instructions = launch.budget() - budget;
                            return Ok(stats);
                        }
                    }
                    ExecMode::WarpLockstep { width } => self.run_cta_warps(
                        program,
                        global,
                        &mut shared,
                        &mut threads[..cta_threads],
                        hook,
                        &mut budget,
                        &mut stats,
                        width,
                        &rpcs,
                    )?,
                }
            }
        }
        stats.instructions = launch.budget() - budget;
        Ok(stats)
    }

    /// Runs `launch` like [`Simulator::run`] while capturing resumable
    /// snapshots of the machine roughly every `config.interval` retired
    /// instructions (thread-serial schedule only). The returned checkpoints
    /// are ordered by [`Checkpoint::retired`] and every per-thread
    /// [`Checkpoint::icnt`] is nondecreasing across them.
    ///
    /// [`ExecHook::on_cta_end`] is called after each CTA; a `true` stops
    /// the run there with the checkpoints captured so far.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics in warp-lockstep mode: mid-warp reconvergence state is not
    /// snapshot-able.
    pub fn run_with_checkpoints<H: ExecHook>(
        &self,
        launch: &Launch,
        global: &mut MemBlock,
        hook: &mut H,
        config: CheckpointConfig,
    ) -> Result<(RunStats, Vec<Checkpoint>), SimFault> {
        assert!(
            matches!(self.mode, ExecMode::ThreadSerial),
            "checkpoint capture requires the thread-serial schedule"
        );
        let program = launch.program();
        let (gx, _) = launch.grid_dim();
        let cta_threads = launch.threads_per_cta() as usize;
        let nctas = launch.num_ctas();
        let mut budget = launch.budget();
        let mut stats = RunStats {
            instructions: 0,
            barriers: 0,
            threads: launch.num_threads(),
        };
        let mut shared = MemBlock::with_space(
            (launch.shared_size() as usize).div_ceil(4),
            MemSpace::Shared,
        );
        let mut threads: Vec<ThreadState> = Vec::with_capacity(cta_threads);
        // Retired counts of threads in already-completed CTAs; threads of
        // the running CTA are overlaid at capture time.
        let mut icnt_done = vec![0u32; launch.num_threads() as usize];
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut interval = config.interval.max(1);
        let max = config.max.max(1);
        let mut next_at = interval;

        for cta in 0..nctas {
            let (cx, cy) = (cta % gx, cta / gx);
            reset_shared(&mut shared, launch);
            fill_cta_threads(&mut threads, launch, cx, cy);
            loop {
                let mut all_done = true;
                for i in 0..cta_threads {
                    if threads[i].status != ThreadStatus::Ready {
                        if threads[i].status == ThreadStatus::AtBarrier {
                            all_done = false;
                        }
                        continue;
                    }
                    loop {
                        // Between-step snapshot point: the machine state
                        // here (statuses + memories) fully determines the
                        // rest of the run under the serial schedule.
                        let retired = launch.budget() - budget;
                        if retired >= next_at {
                            let _cap = fsp_obs::span("sim.checkpoint_capture");
                            let mut icnt = icnt_done.clone();
                            for t in &threads[..cta_threads] {
                                icnt[t.coords.flat_tid() as usize] = t.icnt;
                            }
                            checkpoints.push(Checkpoint {
                                retired,
                                barriers: stats.barriers,
                                cta,
                                threads: threads[..cta_threads].to_vec(),
                                shared: shared.clone(),
                                global: global.clone(),
                                icnt,
                            });
                            if checkpoints.len() >= max {
                                // Thin to every other snapshot and double
                                // the cadence: long runs keep a bounded
                                // set at geometrically coarser spacing.
                                let mut keep = 0u32;
                                checkpoints.retain(|_| {
                                    keep += 1;
                                    keep % 2 == 1
                                });
                                interval *= 2;
                            }
                            next_at = retired + interval;
                        }
                        let mut ctx = ExecCtx {
                            program,
                            global,
                            shared: &mut shared,
                            accesses: AccessLog::default(),
                            srcs: SrcLog::default(),
                        };
                        match step(&mut threads[i], &mut ctx, hook, &mut budget)? {
                            StepEffect::Continue => {}
                            StepEffect::Barrier => {
                                all_done = false;
                                break;
                            }
                            StepEffect::Done => break,
                        }
                    }
                }
                if all_done {
                    break;
                }
                stats.barriers += 1;
                for thread in threads.iter_mut() {
                    if thread.status == ThreadStatus::AtBarrier {
                        thread.status = ThreadStatus::Ready;
                    }
                }
            }
            for t in &threads[..cta_threads] {
                icnt_done[t.coords.flat_tid() as usize] = t.icnt;
            }
            if hook.on_cta_end(cta, global, budget) {
                break;
            }
        }
        stats.instructions = launch.budget() - budget;
        Ok((stats, checkpoints))
    }

    /// Resumes `launch` from `checkpoint`, skipping the already-retired
    /// golden prefix (thread-serial schedule only). `global` is overwritten
    /// with the checkpoint's image (copy-on-write, so this is O(chunk
    /// pointers)). The remaining dynamic-instruction budget is
    /// `launch.budget() - checkpoint.retired()`, which makes hang
    /// classification identical to a full run.
    ///
    /// The returned stats cover the executed suffix only.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics in warp-lockstep mode, or if the checkpoint does not belong
    /// to an equivalent launch (thread-count mismatch).
    pub fn run_from<H: ExecHook>(
        &self,
        checkpoint: &Checkpoint,
        launch: &Launch,
        global: &mut MemBlock,
        hook: &mut H,
    ) -> Result<RunStats, SimFault> {
        self.run_from_with(
            checkpoint,
            launch,
            global,
            hook,
            &mut ResumeScratch::default(),
        )
    }

    /// [`Simulator::run_from`] with caller-owned resume buffers: campaigns
    /// resume thousands of runs per worker, so the per-resume thread-state
    /// and shared-memory images are cloned into `scratch`'s allocations
    /// instead of fresh ones.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Same as [`Simulator::run_from`].
    pub fn run_from_with<H: ExecHook>(
        &self,
        checkpoint: &Checkpoint,
        launch: &Launch,
        global: &mut MemBlock,
        hook: &mut H,
        scratch: &mut ResumeScratch,
    ) -> Result<RunStats, SimFault> {
        assert!(
            matches!(self.mode, ExecMode::ThreadSerial),
            "checkpoint resume requires the thread-serial schedule"
        );
        let program = launch.program();
        let (gx, _) = launch.grid_dim();
        let cta_threads = launch.threads_per_cta() as usize;
        assert_eq!(
            checkpoint.threads.len(),
            cta_threads,
            "checkpoint does not match this launch"
        );
        let restore = fsp_obs::span("sim.checkpoint_restore");
        global.clone_from(&checkpoint.global);
        let start_budget = launch.budget().saturating_sub(checkpoint.retired);
        let mut budget = start_budget;
        let mut stats = RunStats {
            instructions: 0,
            barriers: 0,
            threads: launch.num_threads(),
        };
        let ResumeScratch { threads, shared } = scratch;
        shared.clone_from(&checkpoint.shared);
        threads.clone_from(&checkpoint.threads);
        drop(restore);
        // Finish the checkpointed CTA from its snapshot state, then the
        // remaining CTAs from scratch.
        for cta in checkpoint.cta..launch.num_ctas() {
            if cta > checkpoint.cta {
                let (cx, cy) = (cta % gx, cta / gx);
                reset_shared(shared, launch);
                fill_cta_threads(threads, launch, cx, cy);
            }
            if self.run_cta(
                program,
                global,
                shared,
                &mut threads[..cta_threads],
                hook,
                &mut budget,
                &mut stats,
            )? || hook.on_cta_end(cta, global, budget)
            {
                break;
            }
        }
        stats.instructions = start_budget - budget;
        Ok(stats)
    }

    /// Runs one CTA to completion under the serial schedule. Returns `true`
    /// if the hook reported convergence and the run should stop early.
    ///
    /// Each thread's quantum is watched by a [`SpinDetector`]: under the
    /// serial schedule a quantum has exclusive access to the machine, so a
    /// provably non-terminating thread (state recurs exactly, or — under a
    /// hook with [`ExecHook::PREDICT_HANGS`] — up to counters that cannot
    /// reach their exit compare, with no stores in between) is aborted as
    /// [`SimFault::BudgetExceeded`] without grinding through the remaining
    /// budget.
    #[allow(clippy::too_many_arguments)]
    fn run_cta<H: ExecHook>(
        &self,
        program: &fsp_isa::KernelProgram,
        global: &mut MemBlock,
        shared: &mut MemBlock,
        threads: &mut [ThreadState],
        hook: &mut H,
        budget: &mut u64,
        stats: &mut RunStats,
    ) -> Result<bool, SimFault> {
        let mut ctx = ExecCtx {
            program,
            global,
            shared,
            accesses: AccessLog::default(),
            srcs: SrcLog::default(),
        };
        // Live (not yet exited) threads: the detector may only persist
        // across barriers once the watched thread is the last one.
        let mut live = threads
            .iter()
            .filter(|t| t.status != ThreadStatus::Done)
            .count();
        let mut spin = SpinDetector::new();
        loop {
            let mut all_done = true;
            for (i, thread) in threads.iter_mut().enumerate() {
                if thread.status != ThreadStatus::Ready {
                    if thread.status == ThreadStatus::AtBarrier {
                        all_done = false;
                    }
                    continue;
                }
                // Run this thread until it blocks, exits or faults.
                spin.enter(i, live == 1, H::PREDICT_HANGS);
                loop {
                    let effect = step(thread, &mut ctx, hook, budget)?;
                    if hook.converged() {
                        return Ok(true);
                    }
                    match effect {
                        StepEffect::Continue => {}
                        StepEffect::Barrier => {
                            all_done = false;
                            if spin.lone {
                                // The barrier releases at once: the
                                // thread's path runs on through it.
                                spin.observe(program, thread, false, *budget, hook)?;
                            }
                            break;
                        }
                        StepEffect::Done => {
                            live -= 1;
                            break;
                        }
                    }
                    spin.observe(program, thread, ctx.accesses.has_store(), *budget, hook)?;
                }
            }
            if all_done {
                return Ok(false);
            }
            // Every live thread is at the barrier: release them all.
            stats.barriers += 1;
            for thread in threads.iter_mut() {
                if thread.status == ThreadStatus::AtBarrier {
                    thread.status = ThreadStatus::Ready;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_cta_warps<H: ExecHook>(
        &self,
        program: &fsp_isa::KernelProgram,
        global: &mut MemBlock,
        shared: &mut MemBlock,
        threads: &mut [ThreadState],
        hook: &mut H,
        budget: &mut u64,
        stats: &mut RunStats,
        width: u32,
        rpcs: &[Option<usize>],
    ) -> Result<(), SimFault> {
        use crate::warp::{WarpEffect, WarpStack};
        let mut ctx = ExecCtx {
            program,
            global,
            shared,
            accesses: AccessLog::default(),
            srcs: SrcLog::default(),
        };
        let mut warps: Vec<WarpStack> = (0..threads.len())
            .collect::<Vec<_>>()
            .chunks(width as usize)
            .map(|lanes| WarpStack::new(lanes.to_vec()))
            .collect();
        loop {
            let mut any_at_barrier = false;
            for warp in &mut warps {
                match warp.run(threads, &mut ctx, hook, budget, rpcs)? {
                    WarpEffect::Done => {}
                    WarpEffect::AtBarrier => any_at_barrier = true,
                }
            }
            if !any_at_barrier {
                debug_assert!(
                    threads.iter().all(|t| t.status == ThreadStatus::Done),
                    "a warp stopped without finishing or reaching a barrier"
                );
                return Ok(());
            }
            stats.barriers += 1;
            for thread in threads.iter_mut() {
                if thread.status == ThreadStatus::AtBarrier {
                    thread.status = ThreadStatus::Ready;
                }
            }
        }
    }
}

/// Step count a watched thread must exceed before spin detection arms.
///
/// Legitimate runs never get there: the longest *whole-thread* retirement
/// stream across all evaluated kernels is 588 instructions, and a quantum
/// (or a lone thread's run of quanta) is a slice of one. Below this
/// threshold the detector costs one counter increment per step and
/// nothing else. The threshold is a performance knob, not a soundness one:
/// arming during a legitimate long quantum merely adds a cheap
/// pc-first state comparison per step until the quantum ends, while every
/// detected hang pays it once, so it sits just above the longest stream.
const SPIN_ARM_STEPS: u64 = 1 << 10;

/// Longest single-iteration path (in steps) the affine certificate
/// records. Hang loops in the workload suite run a few dozen steps per
/// iteration; a longer path falls back to the exact-recurrence rule.
const SPIN_PATH_CAP: usize = 1 << 10;

/// Detects provably infinite loops of a thread that has the machine to
/// itself.
///
/// Under the serial schedule a thread's quantum has exclusive access to
/// global, shared and local memory — nothing else runs until it blocks. A
/// thread whose CTA siblings have all exited keeps that exclusivity across
/// its barriers too (they release at once), so in affine mode
/// ([`ExecHook::PREDICT_HANGS`]) such a *lone* thread's detector persists
/// across quanta instead of resetting at every `bar.sync`.
///
/// Two rules abort the run with [`SimFault::BudgetExceeded`], classifying
/// it exactly as budget exhaustion would at a fraction of the cost:
///
/// - **Exact recurrence** (all modes): the complete architectural state
///   (`pc`, registers, predicates, offset registers) recurs with *no store
///   to any address space* in between. Every load repeats its value, so
///   execution is periodic and can never end.
/// - **Affine recurrence** (affine mode only): `pc`, predicates and offset
///   registers recur with no store in between, and the recorded path of
///   that one iteration passes [`affine_certificate`]: the registers that
///   changed (D) are counters written only by `add r, r, imm` and read only
///   by that add and by integer `set` compares against a D-free operand,
///   none of which can flip within the remaining budget. Every other
///   value, address and branch on the path then repeats iteration 0's, so
///   the same path (which did not fault) re-runs until the budget is gone.
///   Exact recurrence is the D = ∅ case.
///
/// `icnt` is deliberately excluded from the comparison: it increments every
/// retirement but only feeds hook events, never execution semantics, and a
/// fault-injection hook has necessarily already fired by the time a run
/// diverges into a spin (the fault-free run finishes within budget).
///
/// Snapshots are taken at power-of-two step counts (Brent's cycle-finding
/// schedule), so a period of any length is caught within a small constant
/// factor of its first full repetition.
struct SpinDetector {
    steps: u64,
    next_snap: u64,
    /// No store retired since the current snapshot was taken.
    clean: bool,
    /// Register index that broke the last full comparison, checked first:
    /// a monotone hang loop (a corrupted induction variable counting away
    /// from its bound) revisits the snapshot `pc` every iteration but
    /// keeps differing in the same striding register, so this hint turns
    /// the per-revisit scan into a single compare.
    hint: usize,
    snap: Option<Box<SpinSnapshot>>,
    /// CTA-local index of the watched thread.
    owner: usize,
    /// Affine mode, and the watched thread was its CTA's last live thread
    /// when the detector started: it persists across barriers.
    lone: bool,
    /// `(pc, icnt)` after each step since the snapshot, recorded in affine
    /// mode up to the first revisit of the snapshot `pc` — one iteration.
    path: Vec<(usize, u32)>,
    recording: bool,
}

struct SpinSnapshot {
    pc: usize,
    ofs: [u32; 4],
    preds: [u8; 8],
    gprs: [u32; 128],
    icnt: u32,
}

impl SpinDetector {
    fn new() -> Self {
        SpinDetector {
            steps: 0,
            next_snap: SPIN_ARM_STEPS,
            clean: false,
            hint: 0,
            snap: None,
            owner: usize::MAX,
            lone: false,
            path: Vec::new(),
            recording: false,
        }
    }

    /// Starts watching a quantum of thread `owner`; `lone` says whether
    /// every other thread of its CTA is done. An affine-mode detector
    /// already watching that lone thread carries on; any other start
    /// resets it.
    #[inline]
    fn enter(&mut self, owner: usize, lone: bool, affine: bool) {
        if self.lone && self.owner == owner {
            return;
        }
        self.steps = 0;
        self.next_snap = SPIN_ARM_STEPS;
        self.clean = false;
        self.snap = None;
        self.recording = false;
        self.owner = owner;
        self.lone = affine && lone;
    }

    /// Observes one retired (non-terminal) step of the watched thread;
    /// `budget` is the instruction budget left after it.
    ///
    /// `stored` is whether the step wrote memory; over-reporting is safe
    /// (it only delays detection), under-reporting would be unsound.
    #[inline]
    fn observe<H: ExecHook>(
        &mut self,
        program: &fsp_isa::KernelProgram,
        thread: &ThreadState,
        stored: bool,
        budget: u64,
        hook: &mut H,
    ) -> Result<(), SimFault> {
        self.steps += 1;
        if stored {
            self.clean = false;
        }
        if self.steps >= self.next_snap {
            self.next_snap *= 2;
            self.snapshot(thread, H::PREDICT_HANGS);
        } else if self.clean && self.revisit(program, thread, budget) {
            hook.on_hang_predicted();
            return Err(SimFault::BudgetExceeded);
        }
        Ok(())
    }

    fn snapshot(&mut self, thread: &ThreadState, affine: bool) {
        let snap = SpinSnapshot {
            pc: thread.pc,
            ofs: thread.ofs,
            preds: thread.preds,
            gprs: thread.gprs,
            icnt: thread.icnt,
        };
        match &mut self.snap {
            Some(s) => **s = snap,
            None => self.snap = Some(Box::new(snap)),
        }
        self.clean = true;
        self.recording = affine;
        self.path.clear();
        if affine {
            self.path.push((thread.pc, thread.icnt));
        }
    }

    /// One clean step after the snapshot: whether the thread provably
    /// never finishes.
    fn revisit(
        &mut self,
        program: &fsp_isa::KernelProgram,
        thread: &ThreadState,
        budget: u64,
    ) -> bool {
        if self.recording {
            if self.path.len() < SPIN_PATH_CAP {
                self.path.push((thread.pc, thread.icnt));
            } else {
                self.recording = false;
            }
        }
        let Some(s) = self.snap.as_deref() else {
            return false;
        };
        if s.pc != thread.pc || s.ofs != thread.ofs || s.preds != thread.preds {
            return false;
        }
        if s.gprs[self.hint] == thread.gprs[self.hint] {
            match (0..s.gprs.len()).find(|&i| s.gprs[i] != thread.gprs[i]) {
                Some(i) => self.hint = i,
                None => return true,
            }
        }
        if self.recording {
            self.recording = false;
            return affine_certificate(program, s, thread, &self.path, budget);
        }
        false
    }
}

/// Whether the recorded iteration `path` from snapshot `s` to `thread`'s
/// current state (same `pc`, predicates and offset registers; no store on
/// the way) certifies that the loop re-runs that path until `budget` more
/// instructions are spent.
///
/// Each compare reading a changed register is checked for all iterations
/// `k ≤ ⌈budget / path length⌉ + 1`, under the compare's own wrapping
/// `u32` or `s32` order, so the certificate is exact, never heuristic.
fn affine_certificate(
    program: &fsp_isa::KernelProgram,
    s: &SpinSnapshot,
    thread: &ThreadState,
    path: &[(usize, u32)],
    budget: u64,
) -> bool {
    use fsp_isa::{Dest, Opcode, Operand, Register};
    let mut d = 0u128;
    for (i, (a, b)) in s.gprs.iter().zip(&thread.gprs).enumerate() {
        if a != b {
            d |= 1 << i;
        }
    }
    let per_iteration = u64::from(thread.icnt.wrapping_sub(s.icnt));
    if per_iteration == 0 {
        return false;
    }
    let k_max = budget.div_ceil(per_iteration) + 1;
    let in_d = |r: Register| matches!(r, Register::Gpr(n) if d >> n & 1 == 1);
    let reads_d = |op: &Operand| match op {
        Operand::Reg { reg, .. } => in_d(*reg),
        Operand::Imm(_) => false,
        Operand::Mem(m) => m.base.is_some_and(in_d),
    };
    // Counter values as iteration 0 reaches each instruction, and the
    // registers written so far in it (whose mid-path values are unknown).
    let mut cur = s.gprs;
    let mut written = 0u128;
    for w in path.windows(2) {
        let (pc, icnt) = w[0];
        if w[1].1 == icnt {
            // Guard failed: nothing read, nothing written.
            continue;
        }
        let instr = program.instr(pc);
        if let Some((r, step)) = counter_step(instr) {
            if d >> r & 1 == 1 {
                cur[r] = cur[r].wrapping_add(step);
                continue;
            }
        }
        if instr.dests().any(|dst| match dst {
            Dest::Reg(r) => in_d(*r),
            Dest::Mem(m) => m.base.is_some_and(in_d),
        }) {
            return false;
        }
        let mut counter_compare = None;
        if let (Opcode::Set, Some(a), Some(b)) = (instr.opcode, &instr.src[0], &instr.src[1]) {
            let counter = |op: &Operand| match *op {
                Operand::Reg {
                    reg: Register::Gpr(n),
                    half: None,
                    neg: false,
                } if d >> n & 1 == 1 => Some(usize::from(n)),
                _ => None,
            };
            counter_compare = match (counter(a), counter(b)) {
                (Some(r), None) if !reads_d(b) => Some((r, b, true)),
                (None, Some(r)) if !reads_d(a) => Some((r, a, false)),
                _ => None,
            };
        }
        match counter_compare {
            Some((r, fixed, counter_first)) => {
                let Some(c) = fixed_value(fixed, instr.src_ty, s, thread, written) else {
                    return false;
                };
                let step = thread.gprs[r].wrapping_sub(s.gprs[r]);
                if !compare_holds(instr, counter_first, cur[r], c, step, k_max) {
                    return false;
                }
            }
            None if instr.sources().any(reads_d) => return false,
            None => {}
        }
        for dst in instr.dests() {
            if let Dest::Reg(Register::Gpr(n)) = dst {
                written |= 1 << n;
            }
        }
    }
    (0..128).all(|i| d >> i & 1 == 0 || cur[i] == thread.gprs[i])
}

/// `add r, r, imm` on a 32-bit integer register: the register and its
/// per-execution step.
fn counter_step(instr: &fsp_isa::Instruction) -> Option<(usize, u32)> {
    use fsp_isa::{Dest, Opcode, Operand, Register, ScalarType};
    if instr.opcode != Opcode::Add
        || !matches!(
            instr.ty,
            ScalarType::U32 | ScalarType::S32 | ScalarType::B32
        )
        || !matches!(instr.dst[1], None | Some(Dest::Reg(Register::Discard)))
    {
        return None;
    }
    let (
        Some(Dest::Reg(Register::Gpr(n))),
        Some(Operand::Reg {
            reg,
            half: None,
            neg: false,
        }),
        Some(Operand::Imm(imm)),
    ) = (instr.dst[0], instr.src[0], instr.src[1])
    else {
        return None;
    };
    (reg == Register::Gpr(n)).then_some((usize::from(n), imm))
}

/// The value of a compare's D-free operand, when it is known from the
/// snapshot alone: an immediate, a special register, or a general-purpose
/// register not yet written in the iteration.
fn fixed_value(
    op: &fsp_isa::Operand,
    ty: fsp_isa::ScalarType,
    s: &SpinSnapshot,
    thread: &ThreadState,
    written: u128,
) -> Option<u32> {
    use fsp_isa::{Operand, Register};
    match *op {
        Operand::Imm(v) => Some(v),
        Operand::Reg { reg, half, neg } => {
            let raw = match reg {
                Register::Gpr(124) => 0,
                Register::Gpr(n) if written >> n & 1 == 0 => s.gprs[usize::from(n)],
                Register::Special(sp) => thread.coords.special(sp),
                _ => return None,
            };
            Some(crate::exec::apply_half_neg(raw, half, neg, ty))
        }
        Operand::Mem(_) => None,
    }
}

/// Whether the integer `set` `instr` keeps the result it gives at `k = 0`
/// for every `k ≤ k_max`, when one operand is the counter
/// `x_k = v0 + k·step` (wrapping; the first operand iff `counter_first`)
/// and the other is the constant `c`.
///
/// Every integer compare's truth set is one arc of the `u32` circle (a
/// signed order is the unsigned one rotated by 2³¹), so the question is
/// whether the arithmetic sequence leaves the arc that holds `v0`. With a
/// stride no longer than the opposite arc it cannot step over it, and the
/// first exit follows from the distance to the arc's end; a one-point
/// opposite arc (`eq`/`ne`) is solved exactly as a linear congruence;
/// anything else is refused.
fn compare_holds(
    instr: &fsp_isa::Instruction,
    counter_first: bool,
    v0: u32,
    c: u32,
    step: u32,
    k_max: u64,
) -> bool {
    use fsp_isa::{CmpOp, ScalarType};
    const CIRCLE: u64 = 1 << 32;
    let signed = match instr.src_ty {
        ScalarType::U32 | ScalarType::B32 => false,
        ScalarType::S32 => true,
        _ => return false,
    };
    let Some(cmp) = instr.cmp else {
        return false;
    };
    // Counter on the left: `c < x` is `x > c`.
    let cmp = match (counter_first, cmp) {
        (true, cmp) | (false, cmp @ (CmpOp::Eq | CmpOp::Ne)) => cmp,
        (false, CmpOp::Lt) => CmpOp::Gt,
        (false, CmpOp::Le) => CmpOp::Ge,
        (false, CmpOp::Gt) => CmpOp::Lt,
        (false, CmpOp::Ge) => CmpOp::Le,
    };
    let bias = if signed { 1u32 << 31 } else { 0 };
    let (u, kc) = (v0 ^ bias, c ^ bias);
    // The arc `[start, start + len)` where the compare (or, for the
    // complementary `ne`/`ge`/`gt`, its negation) holds: the result flips
    // exactly when the sequence crosses its boundary.
    let (start, len) = match cmp {
        CmpOp::Eq | CmpOp::Ne => (kc, 1),
        CmpOp::Lt | CmpOp::Ge => (0, u64::from(kc)),
        CmpOp::Le | CmpOp::Gt => (0, u64::from(kc) + 1),
    };
    if step == 0 || len == 0 || len == CIRCLE {
        return true;
    }
    let off = u64::from(u.wrapping_sub(start));
    // The arc holding the counter, and the distance from it to that arc's
    // end in the direction of travel.
    let (home_start, home_len) = if off < len {
        (start, len)
    } else {
        (start.wrapping_add(len as u32), CIRCLE - len)
    };
    let off = u64::from(u.wrapping_sub(home_start));
    let stride = i64::from(step as i32);
    let distance = if stride > 0 { home_len - 1 - off } else { off };
    let first_exit = distance / stride.unsigned_abs() + 1;
    if first_exit > k_max {
        return true;
    }
    let away_len = CIRCLE - home_len;
    if stride.unsigned_abs() <= away_len {
        return false;
    }
    if away_len != 1 {
        return false;
    }
    let target = home_start.wrapping_add(home_len as u32);
    first_hit(u, step, target).is_none_or(|k| k > k_max)
}

/// The least `k ≥ 1` with `u + k·step ≡ target (mod 2³²)`, if any.
fn first_hit(u: u32, step: u32, target: u32) -> Option<u64> {
    let gap = target.wrapping_sub(u);
    let tz = step.trailing_zeros();
    if tz >= 32 || gap.trailing_zeros() < tz {
        return None;
    }
    // Solve (step / 2^tz)·k ≡ gap / 2^tz mod 2^(32 - tz) with the inverse
    // of the odd factor (Newton's iteration doubles its correct bits).
    let odd = step >> tz;
    let mut inv = odd;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u32.wrapping_sub(odd.wrapping_mul(inv)));
    }
    let modulus = 1u64 << (32 - tz);
    let k = u64::from((gap >> tz).wrapping_mul(inv)) % modulus;
    Some(if k == 0 { modulus } else { k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NopHook;
    use fsp_isa::assemble;

    #[test]
    fn barrier_communicates_through_shared() {
        // Thread 0 writes a value to shared memory before the barrier; all
        // threads read it after and store to their global slot.
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            // set.eq leaves the zero flag CLEAR when the comparison holds
            // (the boolean result is all-ones), so "branch if equal" is
            // `set.eq` + `@$p0.ne` — exactly the idiom in the paper's
            // PathFinder listing.
            set.eq.u32.u32 $p0/$o127, $r1, $r124
            @$p0.ne bra writer
            bra join
            writer:
            mov.u32 $r2, 0x2A
            mov.u32 s[0x0100], $r2
            join:
            bar.sync 0x0
            mov.u32 $r3, s[0x0100]
            shl.u32 $r4, $r1, 0x2
            add.u32 $r4, $r4, s[0x0010]
            st.global.u32 [$r4], $r3
            exit
            "#,
        )
        .unwrap();
        let mut global = MemBlock::with_words(8);
        let launch = Launch::new(p).grid(1, 1).block(8, 1, 1).param(0);
        let stats = Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap();
        assert_eq!(global.to_vec(), [42u32; 8]);
        assert_eq!(stats.barriers, 1);
        assert_eq!(stats.threads, 8);
    }

    #[test]
    fn provable_spin_aborts_without_draining_budget() {
        // With a budget this large, only spin detection lets the run
        // terminate in test time.
        let p = assemble("t", "spin: bra spin").unwrap();
        let mut global = MemBlock::with_words(1);
        let launch = Launch::new(p).instr_budget(1 << 40);
        let err = Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
    }

    #[test]
    fn long_finite_loop_is_not_flagged_as_spin() {
        // 100k iterations, no stores, register state never recurs: must run
        // to completion even though the quantum is far past the arm
        // threshold.
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x186A0
            loop:
            sub.u32 $r1, $r1, 0x1
            set.ne.u32.u32 $p0/$o127, $r1, $r124
            @$p0.ne bra loop
            mov.u32 $r2, s[0x0010]
            st.global.u32 [$r2], $r1
            exit
            "#,
        )
        .unwrap();
        let mut global = MemBlock::with_words(1);
        let launch = Launch::new(p).instr_budget(1 << 40).param(0);
        let stats = Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap();
        assert_eq!(global.load(0).unwrap(), 0);
        assert!(stats.instructions > 100_000);
    }

    /// A hook that opts into hang prediction and counts what happened.
    #[derive(Default)]
    struct PredictingHook {
        retired: u64,
        predicted: u32,
    }

    impl ExecHook for PredictingHook {
        const PREDICT_HANGS: bool = true;

        fn on_retire(&mut self, _ev: crate::hook::RetireEvent<'_>) {
            self.retired += 1;
        }

        fn on_hang_predicted(&mut self) {
            self.predicted += 1;
        }
    }

    /// Runs a one-thread counting loop: `$r1` starts at `start`, steps by
    /// `+1` and the loop continues while `set.<cond> $r1, <bound>` holds.
    fn counting_loop(
        start: u32,
        cond: &str,
        bound: u32,
        budget: u64,
    ) -> (Result<RunStats, SimFault>, PredictingHook, u32) {
        let p = assemble(
            "t",
            &format!(
                r#"
                mov.u32 $r1, {start:#x}
                loop:
                add.u32 $r1, $r1, 0x1
                set.{cond} $p0/$o127, $r1, {bound:#x}
                @$p0.ne bra loop
                mov.u32 $r2, s[0x0010]
                st.global.u32 [$r2], $r1
                exit
                "#
            ),
        )
        .unwrap();
        let mut global = MemBlock::with_words(1);
        let launch = Launch::new(p).instr_budget(budget).param(0);
        let mut hook = PredictingHook::default();
        let run = Simulator::new().run(&launch, &mut global, &mut hook);
        (run, hook, global.load(0).unwrap())
    }

    #[test]
    fn lone_thread_counting_loop_through_barriers_is_predicted() {
        // Thread 1 exits at once; thread 0's counter skipped its `!= 0x10`
        // exit and steps through two barriers per iteration. Once it is
        // alone its barriers are no-ops, so the detector spans them.
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            set.ne.u32.u32 $p0/$o127, $r1, $r124
            @$p0.ne bra out
            mov.u32 $r2, 0x11
            loop:
            bar.sync 0x0
            add.u32 $r2, $r2, 0x1
            mov.u32 $r3, s[0x0010]
            bar.sync 0x0
            set.ne.u32.u32 $p1/$o127, $r2, 0x10
            @$p1.ne bra loop
            out:
            exit
            "#,
        )
        .unwrap();
        let budget = 10_000_000;
        let launch = Launch::new(p).block(2, 1, 1).instr_budget(budget).param(0);
        let mut global = MemBlock::with_words(1);
        let mut hook = PredictingHook::default();
        let err = Simulator::new()
            .run(&launch, &mut global, &mut hook)
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
        assert_eq!(hook.predicted, 1);
        assert!(
            hook.retired < budget / 100,
            "retired {} of a {budget} budget",
            hook.retired
        );
        // Without the hook's opt-in the same run spends the whole budget.
        let mut global = MemBlock::with_words(1);
        let launch = launch.instr_budget(200_000);
        let mut counter = CountingHook::default();
        let err = Simulator::new()
            .run(&launch, &mut global, &mut counter)
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
        assert_eq!(counter.0, 200_000);
    }

    #[derive(Default)]
    struct CountingHook(u64);

    impl ExecHook for CountingHook {
        fn on_retire(&mut self, _ev: crate::hook::RetireEvent<'_>) {
            self.0 += 1;
        }
    }

    #[test]
    fn exit_one_iteration_inside_the_budget_is_not_predicted() {
        // mov, 10_000 iterations of 3 instructions (the last branch fails
        // its guard and does not retire), then mov + st + exit.
        let needed = 1 + 30_000 - 1 + 3;
        let (run, hook, out) = counting_loop(0, "ne.u32.u32", 10_000, needed);
        let stats = run.expect("the exit is within budget");
        assert_eq!(stats.instructions, needed);
        assert_eq!(out, 10_000);
        assert_eq!(hook.predicted, 0);
        // One instruction short: the exit compare still flips inside the
        // budget, so no prediction — the budget runs out instead.
        let (run, hook, _) = counting_loop(0, "ne.u32.u32", 10_000, needed - 1);
        assert_eq!(run.unwrap_err(), SimFault::BudgetExceeded);
        assert_eq!(hook.predicted, 0);
        assert_eq!(hook.retired, needed - 1);
    }

    #[test]
    fn wrap_around_exit_is_honoured() {
        // `while r1 >= 0x10` from 0xFFFF_0000 exits only once the counter
        // wraps through zero: 0x1_0000 iterations.
        let (run, hook, out) = counting_loop(0xFFFF_0000, "ge.u32.u32", 0x10, 1_000_000);
        assert!(run.is_ok(), "the wrapped exit is reachable");
        assert_eq!(out, 0);
        assert_eq!(hook.predicted, 0);
        // With a budget short of the wrap the loop is a certified hang.
        let (run, hook, _) = counting_loop(0xFFFF_0000, "ge.u32.u32", 0x10, 150_000);
        assert_eq!(run.unwrap_err(), SimFault::BudgetExceeded);
        assert_eq!(hook.predicted, 1);
        assert!(hook.retired < 20_000);
    }

    #[test]
    fn signed_compare_flips_at_signed_overflow() {
        // `while r1 > 100` (signed) from 0x7FFF_0000 exits when the counter
        // overflows to negative, long before an unsigned reading would.
        let (run, hook, out) = counting_loop(0x7FFF_0000, "gt.s32.s32", 100, 1_000_000);
        assert!(run.is_ok(), "the signed exit is reachable");
        assert_eq!(out, 0x8000_0000);
        assert_eq!(hook.predicted, 0);
        let (run, hook, _) = counting_loop(0x7FFF_0000, "gt.s32.s32", 100, 100_000);
        assert_eq!(run.unwrap_err(), SimFault::BudgetExceeded);
        assert_eq!(hook.predicted, 1);
    }

    #[test]
    fn counter_tainted_load_address_is_not_predicted() {
        // The counter walks a pointer off the end of global memory: the
        // loop must run until the load faults.
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, s[0x0010]
            loop:
            ld.global.u32 $r3, [$r1]
            add.u32 $r1, $r1, 0x4
            bra loop
            "#,
        )
        .unwrap();
        let mut global = MemBlock::with_words(8192);
        let launch = Launch::new(p).instr_budget(1 << 40).param(0);
        let mut hook = PredictingHook::default();
        let err = Simulator::new()
            .run(&launch, &mut global, &mut hook)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SimFault::InvalidAccess {
                    space: MemSpace::Global,
                    addr: 0x8000
                }
            ),
            "{err:?}"
        );
        assert_eq!(hook.predicted, 0);
    }

    #[test]
    fn barrier_loop_with_a_second_live_thread_is_not_predicted() {
        // Both threads loop through a barrier forever; neither is alone,
        // so the other thread could store between any two quanta.
        let p = assemble(
            "t",
            r#"
            mov.u32 $r2, 0x11
            loop:
            add.u32 $r2, $r2, 0x1
            bar.sync 0x0
            set.ne.u32.u32 $p1/$o127, $r2, 0x10
            @$p1.ne bra loop
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p).block(2, 1, 1).instr_budget(200_000);
        let mut global = MemBlock::with_words(1);
        let mut hook = PredictingHook::default();
        let err = Simulator::new()
            .run(&launch, &mut global, &mut hook)
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
        assert_eq!(hook.predicted, 0);
        assert_eq!(hook.retired, 200_000);
    }

    #[test]
    fn compare_certificate_agrees_with_brute_force() {
        use fsp_isa::{CmpOp, Instruction, Opcode, ScalarType};
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let cmps = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let edges: [u32; 5] = [0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF];
        let (mut certified, mut refused) = (0, 0);
        for _ in 0..20_000 {
            let mut instr = Instruction::new(Opcode::Set);
            instr.cmp = Some(cmps[(next() % 6) as usize]);
            instr.src_ty = if next() & 1 == 0 {
                ScalarType::U32
            } else {
                ScalarType::S32
            };
            let v0 = match next() % 3 {
                0 => edges[(next() % 5) as usize].wrapping_add(next() as u32 % 64),
                _ => next() as u32,
            };
            let step = match next() % 4 {
                0 => 1,
                1 => u32::MAX,
                2 => (next() % 9) as u32 + 2,
                _ => next() as u32 | 1,
            };
            // The fixed operand lies a few hundred steps away, or anywhere.
            let c = match next() % 3 {
                0 => edges[(next() % 5) as usize],
                1 => v0.wrapping_add(step.wrapping_mul(next() as u32 % 600)),
                _ => next() as u32,
            };
            let k_max = next() % 1000 + 1;
            let counter_first = next() & 1 == 0;
            let hit = |v: u32| {
                let srcs = if counter_first { [v, c] } else { [c, v] };
                crate::exec::eval_op(&instr, &srcs).0 != 0
            };
            let holds =
                (0..=k_max).all(|k| hit(v0.wrapping_add(step.wrapping_mul(k as u32))) == hit(v0));
            let claim = compare_holds(&instr, counter_first, v0, c, step, k_max);
            assert!(
                !claim || holds,
                "unsound: {:?} {:?} v0={v0:#x} c={c:#x} step={step:#x} k_max={k_max} first={counter_first}",
                instr.cmp,
                instr.src_ty
            );
            if holds && (step == 1 || step == u32::MAX) {
                assert!(claim, "unit strides are decided exactly");
            }
            if claim {
                certified += 1;
            } else if holds {
                refused += 1;
            }
        }
        assert!(certified > 5_000, "only {certified} certified");
        assert!(
            refused < certified / 10,
            "{refused} refused vs {certified} certified"
        );
    }

    #[test]
    fn budget_exhaustion_reports_hang() {
        let p = assemble("t", "spin: bra spin").unwrap();
        let mut global = MemBlock::with_words(1);
        let launch = Launch::new(p).instr_budget(1000);
        let err = Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
    }

    #[test]
    fn oob_store_faults() {
        let p = assemble("t", "mov.u32 $r1, 0x1000\nst.global.u32 [$r1], $r1\nexit").unwrap();
        let mut global = MemBlock::with_words(4);
        let launch = Launch::new(p);
        let err = Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap_err();
        assert!(matches!(
            err,
            SimFault::InvalidAccess {
                space: MemSpace::Global,
                ..
            }
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            cvt.u32.u16 $r2, %ctaid.x
            mul.lo.u32 $r3, $r2, $r1
            shl.u32 $r4, $r1, 0x2
            add.u32 $r4, $r4, s[0x0010]
            st.global.u32 [$r4], $r3
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p).grid(2, 1).block(4, 1, 1).param(0);
        let run = || {
            let mut g = MemBlock::with_words(16);
            Simulator::new().run(&launch, &mut g, &mut NopHook).unwrap();
            g.to_vec()
        };
        assert_eq!(run(), run());
    }

    /// A multi-CTA, barrier-using kernel for checkpoint tests.
    fn checkpoint_kernel() -> Launch {
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            cvt.u32.u16 $r2, %ctaid.x
            mul.lo.u32 $r3, $r2, $r1
            mov.u32 $r5, 0x0
            mov.u32 $r6, 0x8
            loop:
            add.u32 $r3, $r3, $r1
            add.u32 $r5, $r5, 0x1
            set.lt.u32.u32 $p0/$o127, $r5, $r6
            @$p0.ne bra loop
            bar.sync 0x0
            mad.lo.u32 $r4, $r2, 0x4, $r1
            shl.u32 $r4, $r4, 0x2
            add.u32 $r4, $r4, s[0x0010]
            st.global.u32 [$r4], $r3
            exit
            "#,
        )
        .unwrap();
        Launch::new(p)
            .grid(3, 1)
            .block(4, 1, 1)
            .param(0)
            .instr_budget(100_000)
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let launch = checkpoint_kernel();
        let mut plain = MemBlock::with_words(16);
        let plain_stats = Simulator::new()
            .run(&launch, &mut plain, &mut NopHook)
            .unwrap();
        let mut ckpt = MemBlock::with_words(16);
        let (stats, cps) = Simulator::new()
            .run_with_checkpoints(
                &launch,
                &mut ckpt,
                &mut NopHook,
                CheckpointConfig {
                    interval: 16,
                    max: 64,
                },
            )
            .unwrap();
        assert_eq!(stats, plain_stats);
        assert_eq!(ckpt, plain);
        assert!(!cps.is_empty(), "a 16-instruction cadence captures some");
        assert!(cps.windows(2).all(|w| w[0].retired < w[1].retired));
        for tid in 0..launch.num_threads() {
            assert!(
                cps.windows(2).all(|w| w[0].icnt(tid) <= w[1].icnt(tid)),
                "per-thread icnt must be nondecreasing"
            );
        }
    }

    #[test]
    fn resume_from_every_checkpoint_reproduces_the_run() {
        let launch = checkpoint_kernel();
        let mut golden = MemBlock::with_words(16);
        let golden_stats = Simulator::new()
            .run(&launch, &mut golden, &mut NopHook)
            .unwrap();
        let mut tmp = MemBlock::with_words(16);
        let (_, cps) = Simulator::new()
            .run_with_checkpoints(
                &launch,
                &mut tmp,
                &mut NopHook,
                CheckpointConfig {
                    interval: 7,
                    max: 1000,
                },
            )
            .unwrap();
        assert!(cps.len() > 3, "want snapshots across CTA boundaries");
        let mut resumed = MemBlock::with_words(16);
        for cp in &cps {
            let stats = Simulator::new()
                .run_from(cp, &launch, &mut resumed, &mut NopHook)
                .unwrap();
            assert_eq!(resumed, golden, "resume at retired={}", cp.retired());
            assert_eq!(
                stats.instructions,
                golden_stats.instructions - cp.retired(),
                "suffix stats count only the skipped-prefix remainder"
            );
        }
    }

    #[test]
    fn checkpoint_thinning_bounds_the_set() {
        let launch = checkpoint_kernel();
        let mut g = MemBlock::with_words(16);
        let (_, cps) = Simulator::new()
            .run_with_checkpoints(
                &launch,
                &mut g,
                &mut NopHook,
                CheckpointConfig {
                    interval: 1,
                    max: 8,
                },
            )
            .unwrap();
        assert!(cps.len() <= 8, "thinning keeps the set bounded");
        assert!(cps.windows(2).all(|w| w[0].retired < w[1].retired));
    }

    /// Logs every CTA end with the global memory and budget it saw, and
    /// asks to stop after CTA `stop_after`.
    #[derive(Default)]
    struct CtaEndHook {
        retired: u64,
        ends: Vec<(u32, Vec<u32>, u64)>,
        stop_after: Option<u32>,
    }

    impl ExecHook for CtaEndHook {
        fn on_retire(&mut self, _ev: crate::hook::RetireEvent<'_>) {
            self.retired += 1;
        }

        fn on_cta_end(&mut self, cta: u32, global: &MemBlock, budget: u64) -> bool {
            self.ends.push((cta, global.to_vec(), budget));
            self.stop_after == Some(cta)
        }
    }

    fn cta_ids(hook: &CtaEndHook) -> Vec<u32> {
        hook.ends.iter().map(|e| e.0).collect()
    }

    #[test]
    fn cta_end_fires_once_per_cta_on_every_run_path() {
        let launch = checkpoint_kernel();
        let budget = launch.budget();
        let sim = Simulator::new();
        let mut plain = CtaEndHook::default();
        let mut global = MemBlock::with_words(16);
        let stats = sim.run(&launch, &mut global, &mut plain).unwrap();
        assert_eq!(cta_ids(&plain), [0, 1, 2]);
        // CTA c stores words 4c..4c+4: each boundary sees exactly the CTAs
        // before it, and the budget each one leaves.
        for (cta, image, left) in &plain.ends {
            let done = 4 * (*cta as usize + 1);
            assert_eq!(image[..done], global.to_vec()[..done]);
            assert!(image[done..].iter().all(|&w| w == 0));
            assert!(*left < budget);
        }
        assert_eq!(plain.ends[2].2, budget - stats.instructions);

        let mut ckpt = CtaEndHook::default();
        let (_, cps) = sim
            .run_with_checkpoints(
                &launch,
                &mut MemBlock::with_words(16),
                &mut ckpt,
                CheckpointConfig {
                    interval: 7,
                    max: 1000,
                },
            )
            .unwrap();
        assert_eq!(ckpt.ends, plain.ends);
        assert!(cps.iter().any(|c| c.cta == 1), "want a mid-grid snapshot");

        for cp in &cps {
            let mut resumed = CtaEndHook::default();
            sim.run_from(cp, &launch, &mut MemBlock::with_words(16), &mut resumed)
                .unwrap();
            let want: Vec<u32> = (cp.cta..3).collect();
            assert_eq!(cta_ids(&resumed), want, "resume at retired={}", cp.retired);
            assert_eq!(resumed.ends[..], plain.ends[cp.cta as usize..]);
        }

        // The index is linear over a 2-D grid: `cy * gx + cx`.
        let grid = checkpoint_kernel().grid(2, 2);
        let mut hook = CtaEndHook::default();
        sim.run(&grid, &mut MemBlock::with_words(16), &mut hook)
            .unwrap();
        assert_eq!(cta_ids(&hook), [0, 1, 2, 3]);
    }

    #[test]
    fn cta_end_returning_true_stops_the_run() {
        let launch = checkpoint_kernel();
        let sim = Simulator::new();
        let mut full = CtaEndHook::default();
        sim.run(&launch, &mut MemBlock::with_words(16), &mut full)
            .unwrap();
        let stop = || CtaEndHook {
            stop_after: Some(0),
            ..CtaEndHook::default()
        };
        let check = |hook: &CtaEndHook, stats: RunStats, global: &MemBlock, from: u64| {
            assert_eq!(cta_ids(hook), [0]);
            assert_eq!(hook.ends[0], full.ends[0]);
            assert_eq!(stats.instructions, hook.retired);
            assert_eq!(from + hook.retired, launch.budget() - full.ends[0].2);
            assert!(
                global.to_vec()[4..].iter().all(|&w| w == 0),
                "CTA 1 never ran"
            );
        };

        let (mut hook, mut global) = (stop(), MemBlock::with_words(16));
        let stats = sim.run(&launch, &mut global, &mut hook).unwrap();
        check(&hook, stats, &global, 0);

        let (mut hook, mut global) = (stop(), MemBlock::with_words(16));
        let (stats, cps) = sim
            .run_with_checkpoints(
                &launch,
                &mut global,
                &mut hook,
                CheckpointConfig {
                    interval: 7,
                    max: 1000,
                },
            )
            .unwrap();
        check(&hook, stats, &global, 0);
        assert!(cps.iter().all(|c| c.cta == 0), "no capture past the stop");

        let cp = &cps[cps.len() / 2];
        let (mut hook, mut global) = (stop(), MemBlock::with_words(16));
        let stats = sim.run_from(cp, &launch, &mut global, &mut hook).unwrap();
        check(&hook, stats, &global, cp.retired);
    }

    #[test]
    fn hang_budget_is_identical_when_resumed() {
        // A kernel that spins forever: full run and resumed run must both
        // classify as BudgetExceeded, with the resumed budget shrunk by
        // exactly the skipped prefix.
        let p = assemble("t", "spin: bra spin").unwrap();
        let launch = Launch::new(p).instr_budget(1000);
        let mut g = MemBlock::with_words(1);
        let err = Simulator::new()
            .run_with_checkpoints(&launch, &mut g, &mut NopHook, CheckpointConfig::default())
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
    }
}
