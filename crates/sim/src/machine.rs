//! The grid executor: CTAs in launch order, barrier-phase thread scheduling.

use fsp_isa::MemSpace;

use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::decode::{Dst, Op, RegRead, Src};
use crate::exec::{step, ExecCtx, SimFault, StepEffect};
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

/// Reusable per-worker buffers for [`Simulator::run_with`] and
/// [`Simulator::run_from_with`]: the thread-state vector and the
/// shared-memory image of the running CTA. Campaigns run thousands of
/// injections per worker; reusing one scratch keeps those buffers off the
/// allocator.
///
/// The scratch also reports how many instructions the last run through it
/// retired ([`ResumeScratch::retired`]), including runs that ended in a
/// [`SimFault`], whose [`RunStats`] are never returned.
#[derive(Debug)]
pub struct ResumeScratch {
    threads: Vec<ThreadState>,
    shared: MemBlock,
    retired: u64,
}

impl Default for ResumeScratch {
    fn default() -> Self {
        ResumeScratch {
            threads: Vec::new(),
            shared: MemBlock::with_space(0, MemSpace::Shared),
            retired: 0,
        }
    }
}

impl ResumeScratch {
    /// Instructions the last run through this scratch retired, whether it
    /// finished or faulted (suffix only for a resumed run). A run cut
    /// short by the spin detector counts what it retired before the cut;
    /// one that ran its budget out counts the whole budget.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Records that the run just ended retired `retired` instructions, and
    /// returns its stats unless it faulted.
    fn finish(&mut self, retired: u64, result: Result<(), SimFault>) -> Result<RunStats, SimFault> {
        self.retired = retired;
        result.map(|()| RunStats {
            instructions: retired,
        })
    }
}

/// Resets a CTA's shared memory to the launch's size, zeroed, with the
/// launch parameters at the base.
fn reset_shared(shared: &mut MemBlock, launch: &Launch) {
    let words = (launch.shared_size() as usize).div_ceil(4);
    if shared.len_bytes() == words * 4 {
        shared.clear();
    } else {
        *shared = MemBlock::with_space(words, MemSpace::Shared);
    }
    for (i, &p) in launch.param_values().iter().enumerate() {
        shared
            .store(PARAM_BASE + 4 * i as u32, p)
            .expect("parameters fit in shared memory");
    }
}

/// (Re)builds the thread states of CTA `cta` (linear launch index) in
/// `threads`, reusing existing allocations.
fn fill_cta_threads(threads: &mut Vec<ThreadState>, launch: &Launch, cta: u32) {
    let (gx, gy) = launch.grid_dim();
    let (bx, by, bz) = launch.block_dim();
    let mut idx = 0;
    for tz in 0..bz {
        for ty in 0..by {
            for tx in 0..bx {
                let coords = ThreadCoords {
                    tid: (tx, ty, tz),
                    ctaid: (cta % gx, cta / gx),
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
    /// between steps, [`ExecHook::on_thread_exit`] is called after each
    /// thread exits and [`ExecHook::on_cta_end`] after each CTA; a `true`
    /// from any of them stops the run early with the stats retired so far.
    /// Warp-lockstep runs call none of the three.
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
        self.run_with(launch, global, hook, &mut ResumeScratch::default())
    }

    /// [`Simulator::run`] with caller-owned run buffers, which also record
    /// the instructions the run retired ([`ResumeScratch::retired`]) when
    /// it faults.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_with<H: ExecHook>(
        &self,
        launch: &Launch,
        global: &mut MemBlock,
        hook: &mut H,
        scratch: &mut ResumeScratch,
    ) -> Result<RunStats, SimFault> {
        match self.mode {
            ExecMode::ThreadSerial => run_serial(launch, global, hook, scratch, None, &mut ()),
            ExecMode::WarpLockstep { width } => run_warps(launch, global, hook, scratch, width),
        }
    }

    /// Runs `launch` like [`Simulator::run`] while capturing resumable
    /// snapshots of the machine roughly every `config.interval` retired
    /// instructions (thread-serial schedule only). The returned checkpoints
    /// are ordered by [`Checkpoint::retired`], and for every instruction
    /// of every thread [`Checkpoint::ahead`] turns from `true` to `false`
    /// at most once across them.
    ///
    /// The hook is driven exactly as in a thread-serial [`Simulator::run`]:
    /// a `true` from [`ExecHook::converged`], [`ExecHook::on_thread_exit`]
    /// or [`ExecHook::on_cta_end`] stops the run there with the checkpoints
    /// captured so far.
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
        let interval = config.interval.max(1);
        let mut capture = Checkpoints {
            start: launch.budget(),
            interval,
            max: config.max.max(1),
            next_at: interval,
            list: Vec::new(),
        };
        let scratch = &mut ResumeScratch::default();
        let stats = run_serial(launch, global, hook, scratch, None, &mut capture)?;
        Ok((stats, capture.list))
    }

    /// Resumes `launch` from `checkpoint`, skipping the already-retired
    /// golden prefix (thread-serial schedule only). `global` is overwritten
    /// with the checkpoint's image (copy-on-write, so this is O(chunk
    /// pointers)), and the checkpoint's thread states and shared memory
    /// are cloned into `scratch`'s allocations: campaigns resume thousands
    /// of runs per worker. The remaining dynamic-instruction budget is
    /// `launch.budget() - checkpoint.retired()`, which makes hang
    /// classification identical to a full run.
    ///
    /// The returned stats, and [`ResumeScratch::retired`], cover the
    /// executed suffix only.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics in warp-lockstep mode, or if the checkpoint does not belong
    /// to an equivalent launch (thread-count mismatch).
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
        assert_eq!(
            checkpoint.threads.len(),
            launch.threads_per_cta() as usize,
            "checkpoint does not match this launch"
        );
        run_serial(launch, global, hook, scratch, Some(checkpoint), &mut ())
    }
}

/// Snapshot capture during a thread-serial run, offered a snapshot before
/// every step. `()` captures nothing: its `due` is a constant `false`, so
/// a run without capture pays nothing per step.
trait Capture {
    /// Whether a snapshot is due before the next step, with `budget`
    /// instructions left.
    fn due(&self, budget: u64) -> bool;

    /// Snapshots the machine between two steps: CTA `cta`, which has
    /// `released` a barrier, with its `threads` and the memories of `ctx`.
    fn take(
        &mut self,
        cta: u32,
        released: bool,
        threads: &[ThreadState],
        ctx: &ExecCtx<'_>,
        budget: u64,
    );
}

impl Capture for () {
    #[inline(always)]
    fn due(&self, _budget: u64) -> bool {
        false
    }

    fn take(&mut self, _: u32, _: bool, _: &[ThreadState], _: &ExecCtx<'_>, _: u64) {}
}

/// The golden checkpoints of [`Simulator::run_with_checkpoints`].
struct Checkpoints {
    /// The launch's whole budget: a run with `budget` left has retired
    /// `start - budget`.
    start: u64,
    interval: u64,
    max: usize,
    /// Retired count at which the next snapshot is due.
    next_at: u64,
    list: Vec<Checkpoint>,
}

impl Capture for Checkpoints {
    #[inline]
    fn due(&self, budget: u64) -> bool {
        self.start - budget >= self.next_at
    }

    fn take(
        &mut self,
        cta: u32,
        released: bool,
        threads: &[ThreadState],
        ctx: &ExecCtx<'_>,
        budget: u64,
    ) {
        let _cap = fsp_obs::span("sim.checkpoint_capture");
        let retired = self.start - budget;
        self.list.push(Checkpoint {
            retired,
            cta,
            released,
            threads: threads.to_vec(),
            shared: ctx.shared.clone(),
            global: ctx.global.clone(),
        });
        if self.list.len() >= self.max {
            // Thin to every other snapshot and double the cadence: long
            // runs keep a bounded set at geometrically coarser spacing.
            let mut keep = 0u32;
            self.list.retain(|_| {
                keep += 1;
                keep % 2 == 1
            });
            self.interval *= 2;
        }
        self.next_at = retired + self.interval;
    }
}

/// The thread-serial schedule, the one CTA loop behind [`Simulator::run`],
/// [`Simulator::run_with_checkpoints`] and [`Simulator::run_from_with`]:
/// runs the CTAs in launch order through [`run_cta`], from CTA 0 or, given
/// a checkpoint, from its snapshot with the budget its prefix left, and
/// calls [`ExecHook::on_cta_end`] after each.
fn run_serial<H: ExecHook, C: Capture>(
    launch: &Launch,
    global: &mut MemBlock,
    hook: &mut H,
    scratch: &mut ResumeScratch,
    from: Option<&Checkpoint>,
    capture: &mut C,
) -> Result<RunStats, SimFault> {
    let start = launch
        .budget()
        .saturating_sub(from.map_or(0, |cp| cp.retired));
    let mut budget = start;
    let ResumeScratch {
        threads, shared, ..
    } = scratch;
    if let Some(cp) = from {
        let _restore = fsp_obs::span("sim.checkpoint_restore");
        global.clone_from(&cp.global);
        shared.clone_from(&cp.shared);
        threads.clone_from(&cp.threads);
    }
    let cta_threads = launch.threads_per_cta() as usize;
    let mut ctx = ExecCtx::new(launch, global, shared);
    let mut stop = Ok(false);
    for cta in from.map_or(0, |cp| cp.cta)..launch.num_ctas() {
        // The checkpointed CTA goes on from its snapshot; every other CTA
        // starts afresh, with parameters at the base of shared memory.
        let released = match from {
            Some(cp) if cp.cta == cta => cp.released,
            _ => {
                reset_shared(ctx.shared, launch);
                fill_cta_threads(threads, launch, cta);
                false
            }
        };
        stop = run_cta(
            &mut ctx,
            &mut threads[..cta_threads],
            hook,
            &mut budget,
            capture,
            cta,
            released,
        );
        // A fault, or a hook's request to stop, ends the run.
        if stop != Ok(false) || hook.on_cta_end(cta, ctx.global, budget) {
            break;
        }
    }
    scratch.finish(start - budget, stop.map(|_| ()))
}

/// Runs CTA `cta` to completion under the serial schedule. Returns `true`
/// if the hook reported convergence, or asked to stop at a thread's exit,
/// and the run should stop early. `released` says whether the CTA has
/// already released a barrier (a CTA resumed from a checkpoint).
///
/// Before every step `capture` is asked whether a snapshot is due: the
/// machine state there (statuses and memories) fully determines the rest
/// of the run under the serial schedule.
///
/// Each thread's quantum is watched by a [`SpinDetector`]: under the
/// serial schedule a quantum has exclusive access to the machine, so a
/// thread whose end is provable (state recurs exactly, or — under a hook
/// with [`ExecHook::PREDICT_HANGS`] — a loop of counters and pointer walks
/// that either cannot reach its exit compare or walks out of bounds first)
/// is aborted with the [`SimFault`] it would end in, without grinding
/// through the rest of the loop.
fn run_cta<H: ExecHook, C: Capture>(
    ctx: &mut ExecCtx<'_>,
    threads: &mut [ThreadState],
    hook: &mut H,
    budget: &mut u64,
    capture: &mut C,
    cta: u32,
    mut released: bool,
) -> Result<bool, SimFault> {
    // Live (not yet exited) threads: the detector may only persist
    // across barriers once the watched thread is the last one.
    let mut live = threads
        .iter()
        .filter(|t| t.status != ThreadStatus::Done)
        .count();
    let mut spin = SpinDetector::new();
    let code = LoopCode {
        ops: ctx.ops,
        instrs: ctx.instrs,
        global_bytes: ctx.global.len_bytes(),
        shared_bytes: ctx.shared.len_bytes(),
    };
    loop {
        let mut all_done = true;
        for i in 0..threads.len() {
            if threads[i].status != ThreadStatus::Ready {
                if threads[i].status == ThreadStatus::AtBarrier {
                    all_done = false;
                }
                continue;
            }
            // Run this thread until it blocks, exits or faults.
            ctx.tid = threads[i].coords.flat_tid();
            let flip = H::PREDICT_HANGS.then(|| hook.flip_at(ctx.tid)).flatten();
            spin.enter(i, threads[i].icnt, live == 1, H::PREDICT_HANGS, flip);
            loop {
                if capture.due(*budget) {
                    capture.take(cta, released, threads, ctx, *budget);
                }
                let thread = &mut threads[i];
                let effect = step(thread, ctx, hook, budget)?;
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
                            spin.observe(&code, thread, false, *budget, hook)?;
                        }
                        break;
                    }
                    StepEffect::Done => {
                        live -= 1;
                        if hook.on_thread_exit(ctx.tid, released, ctx.global, *budget) {
                            return Ok(true);
                        }
                        break;
                    }
                }
                spin.observe(&code, thread, ctx.accesses.has_store(), *budget, hook)?;
            }
        }
        if all_done {
            return Ok(false);
        }
        // Every live thread is at the barrier: release them all.
        released = true;
        for thread in threads.iter_mut() {
            if thread.status == ThreadStatus::AtBarrier {
                thread.status = ThreadStatus::Ready;
            }
        }
    }
}

/// The warp-lockstep schedule: CTAs in launch order, each run by
/// [`run_cta_warps`]. It stays apart from [`run_serial`] as the reference
/// schedule that tests compare the thread-serial one against.
fn run_warps<H: ExecHook>(
    launch: &Launch,
    global: &mut MemBlock,
    hook: &mut H,
    scratch: &mut ResumeScratch,
    width: u32,
) -> Result<RunStats, SimFault> {
    // Reconvergence table, once per launch. An explicit `ssy <label>`
    // earlier in the same basic block wins (PTXPlus-style annotation);
    // otherwise the immediate post-dominator from the CFG.
    let program = launch.program();
    let cfg = program.cfg();
    let pdom = cfg.post_dominators();
    let rpcs: Vec<Option<usize>> = (0..program.len())
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
        .collect();
    let ResumeScratch {
        threads, shared, ..
    } = scratch;
    let cta_threads = launch.threads_per_cta() as usize;
    let mut ctx = ExecCtx::new(launch, global, shared);
    let mut budget = launch.budget();
    let result = (0..launch.num_ctas()).try_for_each(|cta| {
        reset_shared(ctx.shared, launch);
        fill_cta_threads(threads, launch, cta);
        let threads = &mut threads[..cta_threads];
        run_cta_warps(&mut ctx, threads, hook, &mut budget, width, &rpcs)
    });
    scratch.finish(launch.budget() - budget, result)
}

fn run_cta_warps<H: ExecHook>(
    ctx: &mut ExecCtx<'_>,
    threads: &mut [ThreadState],
    hook: &mut H,
    budget: &mut u64,
    width: u32,
    rpcs: &[Option<usize>],
) -> Result<(), SimFault> {
    use crate::warp::{WarpEffect, WarpStack};
    let mut warps: Vec<WarpStack> = (0..threads.len())
        .collect::<Vec<_>>()
        .chunks(width as usize)
        .map(|lanes| WarpStack::new(lanes.to_vec()))
        .collect();
    loop {
        let mut any_at_barrier = false;
        for warp in &mut warps {
            match warp.run(threads, ctx, hook, budget, rpcs)? {
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
        for thread in threads.iter_mut() {
            if thread.status == ThreadStatus::AtBarrier {
                thread.status = ThreadStatus::Ready;
            }
        }
    }
}

/// Step count a watched thread must exceed before spin detection arms,
/// unless the hook names the thread's flip ([`ExecHook::flip_at`]).
///
/// Below this threshold the detector costs one counter increment per step
/// and nothing else. At eval scale fault-free runs never get there: the
/// longest *whole-thread* retirement stream across all evaluated kernels
/// is 588 instructions, and a quantum (or a lone thread's run of quanta)
/// is a slice of one. Paper-scale threads run longer (a gemm thread
/// retires about 1 300), so golden runs, checkpoint capture included, may
/// arm. That is harmless: without [`ExecHook::PREDICT_HANGS`] only exact
/// recurrence is checked, and it cannot fire on a run that terminates, so
/// an armed golden run pays for snapshots and compares, never an outcome.
///
/// The threshold is also what keeps the flip *behind* the snapshot
/// wherever the flip's position is not known. An affine certificate
/// extrapolates the strides of one recorded iteration, so it is only
/// sound once the flip has retired: an iteration that spans the flip
/// reads the flipped value as part of a counter's stride. Before its flip
/// a thread runs its golden path, and at eval scale no golden quantum gets
/// this far. That is why every thread the hook names no flip for — all
/// threads of golden runs, batch replays and the slow path, and the
/// non-faulty threads of a solo rerun — keeps it. The faulty thread of a
/// [`ExecHook::PREDICT_HANGS`] run instead takes its first snapshot as
/// soon as its `icnt` has passed the flip's `dyn_idx`.
const SPIN_ARM_STEPS: u64 = 1 << 10;

/// Longest single-iteration path (in steps) the affine certificate
/// records. Hang loops in the workload suite run a few dozen steps per
/// iteration; a longer path falls back to the exact-recurrence rule.
const SPIN_PATH_CAP: usize = 1 << 10;

/// Detects provably ending loops of a thread that has the machine to
/// itself.
///
/// Under the serial schedule a thread's quantum has exclusive access to
/// global, shared and local memory — nothing else runs until it blocks. A
/// thread whose CTA siblings have all exited keeps that exclusivity across
/// its barriers too (they release at once), so in affine mode
/// ([`ExecHook::PREDICT_HANGS`]) such a *lone* thread's detector persists
/// across quanta instead of resetting at every `bar.sync`.
///
/// Two rules abort the run with the fault it would end in, at a fraction
/// of the cost of running into it:
///
/// - **Exact recurrence** (all modes): the complete architectural state
///   (`pc`, registers, predicates, offset registers) recurs with *no store
///   to any address space* in between. Every load repeats its value, so
///   execution is periodic and ends in [`SimFault::BudgetExceeded`].
/// - **Affine recurrence** (affine mode only): `pc`, predicates and offset
///   registers recur, and the recorded path of that one iteration passes
///   [`affine_certificate`]: the registers that changed (D) are counters
///   written only by `add r, r, imm` — read only by that add, by integer
///   `set` compares against a fixed operand and as memory bases — and data
///   registers, which only feed data arithmetic and store values. Every
///   branch on the path then repeats iteration 0's until a compare flips,
///   and every address moves by a fixed stride, so the certificate names
///   the first out-of-bounds access ([`SimFault::InvalidAccess`]) or
///   budget exhaustion, whichever comes first. Exact recurrence is the
///   D = ∅, store-free case.
///
/// `icnt` is deliberately excluded from the comparison: it increments every
/// retirement but only feeds hook events, never execution semantics, and a
/// fault-injection hook has necessarily already fired by the time a run
/// diverges into a spin (the fault-free run finishes within budget).
///
/// Snapshots are taken at power-of-two step counts (Brent's cycle-finding
/// schedule), so a period of any length is caught within a small constant
/// factor of its first full repetition. The schedule starts at
/// [`SPIN_ARM_STEPS`], or, for the thread the hook names a flip for
/// ([`ExecHook::flip_at`]), at the first step after which the thread's
/// `icnt` has passed the flip. That gate counts retirements, not steps: a
/// step whose guard fails advances `steps` but not `icnt`.
struct SpinDetector {
    steps: u64,
    next_snap: u64,
    /// Retirement ordinal of the watched thread's flip until its `icnt`
    /// has passed it; no snapshot is taken before then.
    flip: Option<u32>,
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
            flip: None,
            clean: false,
            hint: 0,
            snap: None,
            owner: usize::MAX,
            lone: false,
            path: Vec::new(),
            recording: false,
        }
    }

    /// Starts watching a quantum of thread `owner`, which has retired
    /// `icnt` instructions; `lone` says whether every other thread of its
    /// CTA is done, and `flip` is the retirement ordinal of the fault the
    /// thread carries, if the hook names one. An affine-mode detector
    /// already watching that lone thread carries on; any other start
    /// resets it.
    #[inline]
    fn enter(&mut self, owner: usize, icnt: u32, lone: bool, affine: bool, flip: Option<u32>) {
        if self.lone && self.owner == owner {
            return;
        }
        self.steps = 0;
        self.flip = flip;
        self.next_snap = match flip {
            // A step retires at most once: no earlier step can pass it.
            Some(f) => u64::from(f.saturating_sub(icnt)) + 1,
            None => SPIN_ARM_STEPS,
        };
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
    #[inline(always)]
    fn observe<H: ExecHook>(
        &mut self,
        code: &LoopCode<'_>,
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
            self.arm(thread, H::PREDICT_HANGS);
        } else if self.clean || self.recording {
            return self.revisit(code, thread, budget).map_or(Ok(()), |fault| {
                hook.on_fault_predicted(fault);
                Err(fault)
            });
        }
        Ok(())
    }

    /// Takes the scheduled snapshot, or, while the watched thread has not
    /// yet retired its flip, schedules the next step that could.
    fn arm(&mut self, thread: &ThreadState, affine: bool) {
        if let Some(flip) = self.flip {
            if thread.icnt <= flip {
                // Failed guards stepped without retiring.
                self.next_snap = self.steps + u64::from(flip - thread.icnt) + 1;
                return;
            }
            // Brent's schedule runs from the flip.
            self.flip = None;
            self.steps = 1;
            self.next_snap = 1;
        }
        self.next_snap *= 2;
        self.snapshot(thread, affine);
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

    /// One step after the snapshot: the fault the thread provably ends
    /// in, if it is proved.
    #[inline(never)]
    fn revisit(
        &mut self,
        code: &LoopCode<'_>,
        thread: &ThreadState,
        budget: u64,
    ) -> Option<SimFault> {
        if self.recording {
            if self.path.len() < SPIN_PATH_CAP {
                self.path.push((thread.pc, thread.icnt));
            } else {
                self.recording = false;
            }
        }
        let s = self.snap.as_deref()?;
        if s.pc != thread.pc || s.ofs != thread.ofs || s.preds != thread.preds {
            return None;
        }
        if self.clean && s.gprs[self.hint] == thread.gprs[self.hint] {
            match (0..s.gprs.len()).find(|&i| s.gprs[i] != thread.gprs[i]) {
                Some(i) => self.hint = i,
                None => return Some(SimFault::BudgetExceeded),
            }
        }
        if self.recording {
            self.recording = false;
            return affine_certificate(code, s, thread, &self.path, budget);
        }
        None
    }
}

/// What the certificate reads of the running CTA: its program, decoded and
/// as written, and the size of each address space (fixed for the CTA).
/// Kept apart from [`ExecCtx`]: a reference to the context escaping into
/// the certificate made the step loop 3–6% slower on fault-free runs.
struct LoopCode<'a> {
    ops: &'a [Op],
    instrs: &'a [fsp_isa::Instruction],
    global_bytes: usize,
    shared_bytes: usize,
}

/// A memory access on the recorded path whose base is a counter: the
/// first iteration that takes it out of its space's bounds, and where.
struct Exit {
    /// Iteration, counting the recorded one as 0.
    k: u64,
    /// Index of its step in the recorded path.
    at: usize,
    space: MemSpace,
    addr: u32,
}

/// What the recorded iteration `path` from snapshot `s` to `thread`'s
/// current state (same `pc`, predicates and offset registers) proves about
/// the rest of the thread's run, with `budget` instructions left: the
/// fault it ends in, or `None` if the certificate is refused.
///
/// The registers that changed over the iteration (D) must each be a
/// *counter*, written only by `add r, r, imm` and read only by that add,
/// by integer `set` compares against a fixed operand and as a memory base,
/// or a *data* register. A data register is written from memory the loop
/// walks or stores to, from a counter's value or from other data, and is
/// read only by data arithmetic and as a store value — never by a compare,
/// a guard, an address or a counter. Branches and addresses then depend on
/// counters and invariants alone: each compare is checked for every
/// iteration up to the verdict's, and each counter-based access gives the
/// first iteration at which its address leaves its space. The run ends at
/// the earliest such access if the budget reaches it
/// ([`SimFault::InvalidAccess`]) and runs out of budget otherwise. Both
/// are exact, never heuristic: the slow path runs every such loop out.
fn affine_certificate(
    code: &LoopCode<'_>,
    s: &SpinSnapshot,
    thread: &ThreadState,
    path: &[(usize, u32)],
    budget: u64,
) -> Option<SimFault> {
    use fsp_isa::{Opcode, Operand, Register};
    let per_iteration = u64::from(thread.icnt.wrapping_sub(s.icnt));
    if per_iteration == 0 {
        return None;
    }
    let k_max = budget.div_ceil(per_iteration) + 1;
    let mut changed = 0u128;
    for (i, (a, b)) in s.gprs.iter().zip(&thread.gprs).enumerate() {
        if a != b {
            changed |= 1 << i;
        }
    }
    // The retired steps of the iteration, as (path index, pc): a step
    // whose guard failed reads and writes nothing.
    let steps = || {
        path.windows(2)
            .enumerate()
            .filter(|(_, w)| w[1].1 != w[0].1)
            .map(|(j, w)| (j, w[0].0))
    };
    let (mut stepped, mut other, mut stores) = (0u128, 0u128, false);
    for (_, pc) in steps() {
        if let Some((r, _)) = counter_step(&code.instrs[pc]) {
            stepped |= 1 << r;
            continue;
        }
        for dst in &code.ops[pc].dsts {
            match *dst {
                Dst::Reg {
                    reg: Register::Gpr(n),
                    ..
                } => other |= 1 << n,
                Dst::Mem(_) => stores = true,
                _ => {}
            }
        }
    }
    let counters = changed & stepped & !other;
    let is_step =
        |pc: usize| counter_step(&code.instrs[pc]).is_some_and(|(r, _)| counters >> r & 1 == 1);
    // Data registers, to a fixpoint: a later write can make an earlier
    // read data.
    let mut data = 0u128;
    loop {
        let before = data;
        for (_, pc) in steps() {
            if code.instrs[pc].opcode != Opcode::Set
                && !is_step(pc)
                && reads_varying(&code.ops[pc], counters | data, stores)
            {
                data |= gpr_dests(&code.ops[pc]);
            }
        }
        if data == before {
            break;
        }
    }
    if changed & !(counters | data) != 0 {
        return None;
    }
    let varying = counters | data;
    // Counter values as iteration 0 reaches each step, and the registers
    // written so far in it (whose mid-path values are not the snapshot's).
    let mut cur = s.gprs;
    let mut written = 0u128;
    let mut first: Option<Exit> = None;
    let mut compares = Vec::new();
    for (j, pc) in steps() {
        let (instr, op) = (&code.instrs[pc], &code.ops[pc]);
        if is_step(pc) {
            let (r, step) = counter_step(instr).expect("a counter step");
            cur[r] = cur[r].wrapping_add(step);
            continue;
        }
        // Memory accesses, in the order the step makes them.
        let loads = op.srcs[..usize::from(op.nsrc)]
            .iter()
            .filter_map(|src| match *src {
                Src::Mem(a) => Some(a),
                _ => None,
            });
        let stored = op.dsts.iter().filter_map(|dst| match *dst {
            Dst::Mem(a) => Some(a),
            _ => None,
        });
        for a in loads.chain(stored) {
            let RegRead::Gpr(n) = a.base else {
                continue;
            };
            if data >> n & 1 == 1 {
                return None;
            }
            if counters >> n & 1 == 0 {
                continue;
            }
            let n = usize::from(n);
            let stride = thread.gprs[n].wrapping_sub(s.gprs[n]);
            let bound = match a.space {
                MemSpace::Global => code.global_bytes,
                MemSpace::Shared => code.shared_bytes,
                MemSpace::Local => crate::thread::LOCAL_WORDS * 4,
            };
            let (k, addr) = leaves_bounds(cur[n].wrapping_add(a.offset), stride, bound as u64)?;
            if first.as_ref().is_none_or(|e| k < e.k) {
                first = Some(Exit {
                    k,
                    at: j,
                    space: a.space,
                    addr,
                });
            }
        }
        if reads_varying(op, varying, stores) {
            if instr.opcode == Opcode::Set {
                // Only a counter against a fixed operand.
                let counter = |o: &Operand| match *o {
                    Operand::Reg {
                        reg: Register::Gpr(n),
                        half: None,
                        neg: false,
                    } if counters >> n & 1 == 1 => Some(usize::from(n)),
                    _ => None,
                };
                let (Some(a), Some(b)) = (&instr.src[0], &instr.src[1]) else {
                    return None;
                };
                let (r, fixed, counter_first) = match (counter(a), counter(b)) {
                    (Some(r), None) => (r, b, true),
                    (None, Some(r)) => (r, a, false),
                    _ => return None,
                };
                let c = fixed_value(fixed, instr.src_ty, s, thread, written | varying)?;
                let step = thread.gprs[r].wrapping_sub(s.gprs[r]);
                compares.push((instr, counter_first, cur[r], c, step));
            } else if op
                .dsts
                .iter()
                .any(|d| matches!(d, Dst::Reg { reg, .. } if !matches!(reg, Register::Gpr(_))))
            {
                // Data may not reach a predicate or an offset register.
                return None;
            }
        }
        written |= gpr_dests(op);
    }
    let fault = first.filter(|e| e.k <= k_max);
    let horizon = fault.as_ref().map_or(k_max, |e| e.k);
    if !compares
        .iter()
        .all(|&(instr, first, v0, c, step)| compare_holds(instr, first, v0, c, step, horizon))
    {
        return None;
    }
    Some(match fault {
        // Iteration k's step `at` retires after (k - 1) whole iterations
        // and the steps before it in its own.
        Some(e)
            if budget
                > (e.k - 1) * per_iteration + u64::from(path[e.at].1.wrapping_sub(path[0].1)) =>
        {
            SimFault::InvalidAccess {
                space: e.space,
                addr: e.addr,
            }
        }
        _ => SimFault::BudgetExceeded,
    })
}

/// Whether `op` reads a register of `varying` as a value, or loads from
/// memory that varies across iterations: through a `varying` base, or any
/// memory at all when the loop `stores`.
fn reads_varying(op: &Op, varying: u128, stores: bool) -> bool {
    let hit = |n: u8| varying >> n & 1 == 1;
    op.srcs[..usize::from(op.nsrc)]
        .iter()
        .any(|src| match *src {
            Src::Gpr(n)
            | Src::Reg {
                reg: RegRead::Gpr(n),
                ..
            } => hit(n),
            Src::Mem(a) => stores || matches!(a.base, RegRead::Gpr(n) if hit(n)),
            _ => false,
        })
}

/// The general-purpose registers `op` writes.
fn gpr_dests(op: &Op) -> u128 {
    op.dsts.iter().fold(0, |acc, dst| match *dst {
        Dst::Reg {
            reg: fsp_isa::Register::Gpr(n),
            ..
        } => acc | 1 << n,
        _ => acc,
    })
}

/// Where the pointer walk `a0 + k·stride` (wrapping, `stride ≠ 0`) first
/// leaves a space of `len` bytes that holds `a0`: the least such `k ≥ 1`
/// and the address there. Refused for strides that are not whole words,
/// whose walks fault as misaligned, and for strides longer than the
/// out-of-bounds arc, which could jump it.
fn leaves_bounds(a0: u32, stride: u32, len: u64) -> Option<(u64, u32)> {
    if !stride.is_multiple_of(4)
        || u64::from(a0) >= len
        || u64::from((stride as i32).unsigned_abs()) > CIRCLE - len
    {
        return None;
    }
    let k = arc_steps(a0, stride, 0, len);
    Some((k, a0.wrapping_add(stride.wrapping_mul(k as u32))))
}

/// The 2³² values of a `u32`, as a circle.
const CIRCLE: u64 = 1 << 32;

/// The least `k ≥ 1` at which `u + k·step` (wrapping, `step ≠ 0` read as
/// signed) passes the end of the arc `[start, start + len)` that holds
/// `u`, in its direction of travel. Before that step the sequence stays on
/// the arc; at it, the sequence lands off the arc unless the stride is
/// longer than the rest of the circle.
fn arc_steps(u: u32, step: u32, start: u32, len: u64) -> u64 {
    let off = u64::from(u.wrapping_sub(start));
    let stride = i64::from(step as i32);
    let distance = if stride > 0 { len - 1 - off } else { off };
    distance / stride.unsigned_abs() + 1
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

/// The value of a compare's fixed operand, when it is known from the
/// snapshot alone: an immediate, a special register, or a general-purpose
/// register outside `unknown` (registers written so far in the iteration,
/// counters and data).
fn fixed_value(
    op: &fsp_isa::Operand,
    ty: fsp_isa::ScalarType,
    s: &SpinSnapshot,
    thread: &ThreadState,
    unknown: u128,
) -> Option<u32> {
    use fsp_isa::{Operand, Register};
    match *op {
        Operand::Imm(v) => Some(v),
        Operand::Reg { reg, half, neg } => {
            let raw = match reg {
                Register::Gpr(124) => 0,
                Register::Gpr(n) if unknown >> n & 1 == 0 => s.gprs[usize::from(n)],
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
    // The arc holding the counter.
    let (home_start, home_len) = if u64::from(u.wrapping_sub(start)) < len {
        (start, len)
    } else {
        (start.wrapping_add(len as u32), CIRCLE - len)
    };
    if arc_steps(u, step, home_start, home_len) > k_max {
        return true;
    }
    let away_len = CIRCLE - home_len;
    if u64::from((step as i32).unsigned_abs()) <= away_len {
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
    use crate::trace::Tracer;
    use fsp_isa::assemble;

    /// [`Simulator::run_from_with`] with fresh buffers.
    fn resume<H: ExecHook>(
        cp: &Checkpoint,
        launch: &Launch,
        global: &mut MemBlock,
        hook: &mut H,
    ) -> Result<RunStats, SimFault> {
        Simulator::new().run_from_with(cp, launch, global, hook, &mut ResumeScratch::default())
    }

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
        Simulator::new()
            .run(&launch, &mut global, &mut NopHook)
            .unwrap();
        assert_eq!(global.to_vec(), [42u32; 8]);
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
        let sim = Simulator::new();
        let stats = sim.run(&launch, &mut global, &mut NopHook).unwrap();
        assert_eq!(global.load(0).unwrap(), 0);
        assert!(stats.instructions > 100_000);
        // Golden capture and every resume run under the same detector.
        let mut captured = MemBlock::with_words(1);
        let (ckpt_stats, cps) = sim
            .run_with_checkpoints(
                &launch,
                &mut captured,
                &mut NopHook,
                CheckpointConfig::default(),
            )
            .unwrap();
        assert_eq!(ckpt_stats, stats);
        assert_eq!(captured, global);
        assert!(
            cps.iter()
                .any(|c| c.retired > SPIN_ARM_STEPS && c.retired < stats.instructions - 3),
            "want a snapshot inside the loop, with the detector armed"
        );
        for cp in &cps {
            let mut resumed = MemBlock::with_words(1);
            let suffix = resume(cp, &launch, &mut resumed, &mut NopHook).unwrap();
            assert_eq!(resumed, global, "resume at retired={}", cp.retired);
            assert_eq!(cp.retired + suffix.instructions, stats.instructions);
        }
    }

    /// A hook that opts into fault prediction and counts what happened.
    #[derive(Default)]
    struct PredictingHook {
        retired: u64,
        predicted: u32,
        fault: Option<SimFault>,
    }

    impl ExecHook for PredictingHook {
        const PREDICT_HANGS: bool = true;

        fn on_retire(&mut self, _ev: crate::hook::RetireEvent<'_>) {
            self.retired += 1;
        }

        fn on_fault_predicted(&mut self, fault: SimFault) {
            self.predicted += 1;
            self.fault = Some(fault);
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

    /// A hook that names a flip at thread 0's first retirement, counts how
    /// often the loop asks for it, and opts into prediction when `P`.
    #[derive(Default)]
    struct FlipHook<const P: bool> {
        asked: std::cell::Cell<u32>,
        inner: PredictingHook,
    }

    impl<const P: bool> ExecHook for FlipHook<P> {
        const PREDICT_HANGS: bool = P;

        fn flip_at(&self, tid: u32) -> Option<u32> {
            self.asked.set(self.asked.get() + 1);
            (tid == 0).then_some(0)
        }

        fn on_retire(&mut self, ev: crate::hook::RetireEvent<'_>) {
            self.inner.on_retire(ev);
        }

        fn on_fault_predicted(&mut self, fault: SimFault) {
            self.inner.on_fault_predicted(fault);
        }
    }

    #[test]
    fn flip_position_is_asked_only_when_predicting_and_is_forwarded() {
        // The counter needs 2^32 iterations to wrap to its exit.
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x1
            loop:
            add.u32 $r1, $r1, 0x1
            set.ne.u32.u32 $p0/$o127, $r1, $r124
            @$p0.ne bra loop
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p).instr_budget(1_000_000);
        let mut global = MemBlock::with_words(1);
        // Through `&mut H`: the named flip arms the detector at once, and
        // the hang is certified within the first iterations.
        let mut flip = FlipHook::<true>::default();
        let err = Simulator::new()
            .run(&launch, &mut global, &mut &mut flip)
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
        assert!(flip.asked.get() > 0, "a predicting hook is asked");
        assert_eq!(flip.inner.predicted, 1);
        assert!(flip.inner.retired < 16, "retired {}", flip.inner.retired);
        // With no flip named the thread waits out the step threshold.
        let mut plain = PredictingHook::default();
        let err = Simulator::new()
            .run(&launch, &mut global, &mut plain)
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
        assert_eq!(plain.predicted, 1);
        assert!(
            plain.retired > SPIN_ARM_STEPS / 2,
            "retired {}",
            plain.retired
        );
        // A hook that does not predict is never asked.
        let mut quiet = FlipHook::<false>::default();
        let launch = launch.instr_budget(20_000);
        let err = Simulator::new()
            .run(&launch, &mut global, &mut &mut quiet)
            .unwrap_err();
        assert_eq!(err, SimFault::BudgetExceeded);
        assert_eq!(quiet.asked.get(), 0, "a non-predicting hook is asked");
        assert_eq!(quiet.inner.retired, 20_000);
    }

    #[test]
    fn counter_walked_load_address_predicts_the_crash() {
        // The counter walks a pointer off the end of global memory: the
        // run ends in the load's fault, which the certificate names long
        // before the walk gets there.
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
        assert_eq!(hook.predicted, 1);
        assert_eq!(hook.fault, Some(err));
        assert!(hook.retired < 3 * 8192 / 2, "retired {}", hook.retired);
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
        // Every golden instruction turns from ahead to behind at most once
        // across the checkpoints, which keeps `partition_point` exact.
        let mut tracer = Tracer::new(launch.num_threads(), launch.threads_per_cta());
        Simulator::new()
            .run(&launch, &mut MemBlock::with_words(16), &mut tracer)
            .unwrap();
        for (tid, &icnt) in (0..).zip(&tracer.finish().icnt) {
            for dyn_idx in 0..icnt {
                let ahead: Vec<bool> = cps.iter().map(|c| c.ahead(tid, dyn_idx)).collect();
                assert!(
                    ahead.windows(2).all(|w| w[0] || !w[1]),
                    "thread {tid} instruction {dyn_idx}: {ahead:?}"
                );
            }
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
            let stats = resume(cp, &launch, &mut resumed, &mut NopHook).unwrap();
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
            resume(cp, &launch, &mut MemBlock::with_words(16), &mut resumed).unwrap();
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
        let stats = resume(cp, &launch, &mut global, &mut hook).unwrap();
        check(&hook, stats, &global, cp.retired);

        // `converged` stops a checkpointed run as it stops a plain one.
        let converge = || ConvergeAfter {
            retired: 0,
            after: 20,
        };
        let stats = sim
            .run(&launch, &mut MemBlock::with_words(16), &mut converge())
            .unwrap();
        assert_eq!(stats.instructions, 20);
        let (stats, cps) = sim
            .run_with_checkpoints(
                &launch,
                &mut MemBlock::with_words(16),
                &mut converge(),
                CheckpointConfig {
                    interval: 7,
                    max: 1000,
                },
            )
            .unwrap();
        assert_eq!(stats.instructions, 20);
        assert!(
            cps.iter().all(|c| c.retired < 20),
            "no capture past the stop"
        );
    }

    /// Reports convergence once it has seen `after` retirements.
    struct ConvergeAfter {
        retired: u64,
        after: u64,
    }

    impl ExecHook for ConvergeAfter {
        fn on_retire(&mut self, _ev: crate::hook::RetireEvent<'_>) {
            self.retired += 1;
        }

        fn converged(&self) -> bool {
            self.retired >= self.after
        }
    }

    /// Three CTAs of four threads; only CTA 1 runs a (guarded) barrier.
    fn exit_kernel() -> Launch {
        let p = assemble(
            "t",
            r#"
            cvt.u32.u16 $r1, %tid.x
            cvt.u32.u16 $r2, %ctaid.x
            mov.u32 $r5, 0x0
            mov.u32 $r6, 0x4
            loop:
            add.u32 $r5, $r5, 0x1
            set.lt.u32.u32 $p0/$o127, $r5, $r6
            @$p0.ne bra loop
            set.eq.u32.u32 $p1/$o127, $r2, 0x1
            @$p1.ne bar.sync 0x0
            mad.lo.u32 $r4, $r2, 0x4, $r1
            shl.u32 $r4, $r4, 0x2
            add.u32 $r4, $r4, s[0x0010]
            st.global.u32 [$r4], $r5
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

    /// Logs every thread exit (tid, `released`) and CTA end, and asks to
    /// stop at the exit of thread `stop_at`.
    #[derive(Default)]
    struct ExitHook {
        retired: u64,
        exits: Vec<(u32, bool)>,
        ctas: Vec<u32>,
        stop_at: Option<u32>,
    }

    impl ExecHook for ExitHook {
        fn on_retire(&mut self, _ev: crate::hook::RetireEvent<'_>) {
            self.retired += 1;
        }

        fn on_cta_end(&mut self, cta: u32, _global: &MemBlock, _budget: u64) -> bool {
            self.ctas.push(cta);
            false
        }

        fn on_thread_exit(
            &mut self,
            tid: u32,
            released: bool,
            _global: &MemBlock,
            _budget: u64,
        ) -> bool {
            self.exits.push((tid, released));
            self.stop_at == Some(tid)
        }
    }

    #[test]
    fn thread_exit_fires_once_per_thread_on_every_run_path() {
        let launch = exit_kernel();
        let sim = Simulator::new();
        let mut plain = ExitHook::default();
        sim.run(&launch, &mut MemBlock::with_words(16), &mut plain)
            .unwrap();
        let want: Vec<(u32, bool)> = (0..12).map(|t| (t, t / 4 == 1)).collect();
        assert_eq!(plain.exits, want);

        let mut ckpt = ExitHook::default();
        let (_, cps) = sim
            .run_with_checkpoints(
                &launch,
                &mut MemBlock::with_words(16),
                &mut ckpt,
                CheckpointConfig {
                    interval: 3,
                    max: 1000,
                },
            )
            .unwrap();
        assert_eq!(ckpt.exits, want);
        assert!(
            cps.iter().any(|c| c.cta == 1 && c.released),
            "want a snapshot after CTA 1's release"
        );

        for cp in &cps {
            let mut resumed = ExitHook::default();
            resume(cp, &launch, &mut MemBlock::with_words(16), &mut resumed).unwrap();
            // Threads that exited before the snapshot do not exit again.
            let done = 4 * cp.cta as usize
                + cp.threads
                    .iter()
                    .filter(|t| t.status == ThreadStatus::Done)
                    .count();
            assert_eq!(resumed.exits[..], want[done..], "resume at {}", cp.retired);
        }

        let mut warp = ExitHook::default();
        Simulator::warp_lockstep(4)
            .run(&launch, &mut MemBlock::with_words(16), &mut warp)
            .unwrap();
        assert!(warp.exits.is_empty(), "never called in warp lockstep");
        assert_eq!(warp.ctas, [] as [u32; 0]);
    }

    #[test]
    fn thread_exit_returning_true_stops_the_run() {
        let launch = exit_kernel();
        let sim = Simulator::new();
        let stop = || ExitHook {
            stop_at: Some(5),
            ..ExitHook::default()
        };
        let check = |hook: &ExitHook, stats: RunStats, global: &MemBlock| {
            assert_eq!(hook.exits.last(), Some(&(5, true)));
            assert_eq!(hook.ctas, [0], "CTA 1 never ends");
            assert_eq!(stats.instructions, hook.retired);
            // Threads 4 and 5 stored their words; 6, 7 and CTA 2 never ran
            // past the barrier.
            let words = global.to_vec();
            assert_eq!(words[4..6], [4, 4]);
            assert!(words[6..].iter().all(|&w| w == 0));
        };

        let (mut hook, mut global) = (stop(), MemBlock::with_words(16));
        let stats = sim.run(&launch, &mut global, &mut hook).unwrap();
        check(&hook, stats, &global);
        let full = launch.budget() - stats.instructions;

        let (mut hook, mut global) = (stop(), MemBlock::with_words(16));
        let (stats, cps) = sim
            .run_with_checkpoints(
                &launch,
                &mut global,
                &mut hook,
                CheckpointConfig {
                    interval: 3,
                    max: 1000,
                },
            )
            .unwrap();
        check(&hook, stats, &global);
        assert_eq!(launch.budget() - stats.instructions, full);

        let cp = cps
            .iter()
            .find(|c| c.cta == 1 && c.released)
            .expect("a snapshot after CTA 1's release");
        let (mut hook, mut global) = (stop(), MemBlock::with_words(16));
        let stats = resume(cp, &launch, &mut global, &mut hook).unwrap();
        assert_eq!(hook.exits.last(), Some(&(5, true)));
        assert_eq!(cp.retired() + stats.instructions, launch.budget() - full);
        assert!(global.to_vec()[6..].iter().all(|&w| w == 0));
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
