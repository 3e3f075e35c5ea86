//! Warp-lockstep SIMT execution with a divergence (reconvergence) stack —
//! the execution model GPGPU-Sim uses for PTXPlus.
//!
//! Threads of a warp share one program counter. On a divergent branch the
//! warp splits: the current stack entry parks at the branch's
//! *reconvergence pc* (the immediate post-dominator, which GPGPU-Sim
//! derives from `ssy` annotations and this implementation derives from the
//! CFG), and one entry per distinct successor pc is pushed. The top of the
//! stack always executes; an entry whose pc reaches its reconvergence pc
//! pops, re-joining the threads below.
//!
//! For the well-synchronized kernels the paper evaluates, warp-lockstep
//! execution is *functionally identical* to the default thread-serial
//! schedule (the cross-validation test in `tests/warp_equivalence.rs`
//! checks every workload); it exists to demonstrate the fidelity of the
//! substrate and to catch kernels that would misbehave on real SIMT
//! hardware — executing `bar.sync` while the warp is diverged raises
//! [`SimFault::BarrierDivergence`], which on silicon would be undefined
//! behaviour.

use std::collections::BTreeMap;

use crate::decode::Class;
use crate::exec::{step, ExecCtx, SimFault};
use crate::hook::ExecHook;
use crate::thread::{ThreadState, ThreadStatus};

/// A reconvergence-stack entry: a set of warp lanes executing together at
/// `pc` until they reach `rpc`.
#[derive(Debug, Clone)]
struct StackEntry {
    /// Shared program counter of the entry's live lanes.
    pc: usize,
    /// Reconvergence pc: pop when `pc` reaches it (`None` = only at thread
    /// exit).
    rpc: Option<usize>,
    /// Thread indices (into the CTA thread slice) covered by this entry.
    members: Vec<usize>,
}

/// The divergence stack of one warp.
#[derive(Debug, Clone)]
pub(crate) struct WarpStack {
    stack: Vec<StackEntry>,
}

/// What stopped a warp's execution slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpEffect {
    /// All lanes exited.
    Done,
    /// The warp is parked at a barrier.
    AtBarrier,
}

impl WarpStack {
    /// A fresh warp over the given thread indices, starting at pc 0.
    pub(crate) fn new(members: Vec<usize>) -> Self {
        WarpStack {
            stack: vec![StackEntry {
                pc: 0,
                rpc: None,
                members,
            }],
        }
    }

    /// Runs the warp until every lane exits or parks at a barrier.
    ///
    /// `rpcs` is the per-pc reconvergence table (precomputed once per
    /// launch from the CFG's post-dominators).
    pub(crate) fn run<H: ExecHook>(
        &mut self,
        threads: &mut [ThreadState],
        ctx: &mut ExecCtx<'_>,
        hook: &mut H,
        budget: &mut u64,
        rpcs: &[Option<usize>],
    ) -> Result<WarpEffect, SimFault> {
        loop {
            let Some(top) = self.stack.last() else {
                return Ok(WarpEffect::Done);
            };
            // Live lanes of the top entry.
            let active: Vec<usize> = top
                .members
                .iter()
                .copied()
                .filter(|&t| threads[t].status == ThreadStatus::Ready)
                .collect();
            if active.is_empty() {
                // All lanes of this entry exited or are parked; if any are
                // parked at a barrier the whole warp waits (they can only
                // be parked at stack depth 1 — enforced below).
                if top
                    .members
                    .iter()
                    .any(|&t| threads[t].status == ThreadStatus::AtBarrier)
                {
                    return Ok(WarpEffect::AtBarrier);
                }
                self.stack.pop();
                continue;
            }
            let pc = top.pc;
            if top.rpc == Some(pc) {
                self.stack.pop();
                continue;
            }
            debug_assert!(
                active.iter().all(|&t| threads[t].pc == pc),
                "lockstep invariant: every active lane sits at the entry pc"
            );
            // Divergent barriers are UB on hardware; refuse deterministically.
            if ctx.ops.get(pc).is_some_and(|op| op.class == Class::Bar) && self.stack.len() > 1 {
                return Err(SimFault::BarrierDivergence { pc: pc as u32 });
            }
            for &t in &active {
                ctx.tid = threads[t].coords.flat_tid();
                step(&mut threads[t], ctx, hook, budget)?;
            }
            // Regroup by where the lanes went.
            let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            let mut any_barrier = false;
            for &t in &active {
                match threads[t].status {
                    ThreadStatus::Ready => {
                        groups.entry(threads[t].pc).or_default().push(t);
                    }
                    ThreadStatus::AtBarrier => any_barrier = true,
                    ThreadStatus::Done => {}
                }
            }
            let top = self.stack.last_mut().expect("entry still on stack");
            if any_barrier {
                // `bar.sync` executes for the whole active set at once.
                top.pc = pc + 1;
                return Ok(WarpEffect::AtBarrier);
            }
            match groups.len() {
                0 => { /* every lane exited; next iteration pops */ }
                1 => {
                    top.pc = *groups.keys().next().expect("one group");
                }
                _ => {
                    // Divergence: park this entry at the reconvergence pc
                    // and push one entry per successor, lowest pc on top so
                    // fall-through paths run first (deterministic; any
                    // order is functionally equivalent for race-free code).
                    let rpc = rpcs.get(pc).copied().flatten();
                    top.pc = rpc.unwrap_or(usize::MAX);
                    let mut split: Vec<(usize, Vec<usize>)> = groups.into_iter().collect();
                    split.sort_by_key(|&(pc, _)| std::cmp::Reverse(pc));
                    for (gpc, members) in split {
                        self.stack.push(StackEntry {
                            pc: gpc,
                            rpc,
                            members,
                        });
                    }
                }
            }
        }
    }
}
