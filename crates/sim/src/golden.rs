//! Golden value traces: per-thread commit logs of the fault-free run.
//!
//! The checkpoint-resume fast path classifies an injection as Masked the
//! moment its *divergence set* — the registers and memory words whose
//! values differ from the fault-free run at the same retirement point —
//! becomes empty. Deciding membership requires the fault-free values, so
//! [`Experiment::prepare`] records one [`GoldenTrace`] alongside the
//! dynamic-instruction trace: for every thread, the PC stream, every
//! committed register write-back and every store, in retirement order.
//!
//! Because the simulator is deterministic and threads only interact at
//! barrier-phase boundaries (CTAs run serially), a faulty run whose
//! per-thread PC streams stay aligned with the golden run can be compared
//! *positionally*: the value committed by thread `t`'s `k`-th retirement
//! is directly comparable to the golden value at the same `(t, k, slot)`
//! coordinate, with no cursor state in the tracker. The index structures
//! here (`wb_end` / `st_end` prefix-sum arrays) exist to make that random
//! access O(1), which in turn lets checkpoint-resumed runs — which start
//! mid-stream at an arbitrary `dyn_idx` — share the same trace.
//!
//! [`Experiment::prepare`]: ../../fsp_inject/campaign/struct.Experiment.html

use fsp_isa::{MemSpace, Opcode};

use crate::hook::{ExecHook, RetireEvent, Writeback};
use crate::mem::MemBlock;

/// One store committed by the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenStore {
    /// Address space written.
    pub space: MemSpace,
    /// Resolved byte address.
    pub addr: u32,
    /// The word stored.
    pub value: u32,
}

/// The fault-free commit log of a single thread.
#[derive(Debug, Clone, Default)]
pub struct GoldenThread {
    /// PC of the `k`-th retired instruction.
    pcs: Vec<u32>,
    /// Exclusive prefix-sum: write-backs committed by retirements `0..=k`.
    wb_end: Vec<u32>,
    /// Exclusive prefix-sum: stores committed by retirements `0..=k`.
    st_end: Vec<u32>,
    /// All committed register values, in (retirement, slot) order.
    values: Vec<u32>,
    /// All committed stores, in retirement order.
    stores: Vec<GoldenStore>,
}

impl GoldenThread {
    /// Number of instructions the thread retired in the golden run.
    #[must_use]
    pub fn retirements(&self) -> u32 {
        self.pcs.len() as u32
    }

    /// PC of the `k`-th retirement, or `None` past the end of the stream.
    #[must_use]
    pub fn pc(&self, k: u32) -> Option<u32> {
        self.pcs.get(k as usize).copied()
    }

    /// Index into the value log of the `k`-th retirement's slot-0
    /// write-back (valid for `k <= retirements()`).
    #[must_use]
    pub fn wb_index(&self, k: u32) -> u32 {
        if k == 0 {
            0
        } else {
            self.wb_end[k as usize - 1]
        }
    }

    /// Index into the store log of the `k`-th retirement's store (valid
    /// for `k <= retirements()`).
    #[must_use]
    pub fn store_index(&self, k: u32) -> u32 {
        if k == 0 {
            0
        } else {
            self.st_end[k as usize - 1]
        }
    }

    /// The committed register value at `idx` (see [`Self::wb_index`]).
    #[must_use]
    pub fn value(&self, idx: u32) -> Option<u32> {
        self.values.get(idx as usize).copied()
    }

    /// The committed store at `idx` (see [`Self::store_index`]).
    #[must_use]
    pub fn store(&self, idx: u32) -> Option<GoldenStore> {
        self.stores.get(idx as usize).copied()
    }
}

/// Grid-wide profile of the golden run's stores to one global word.
///
/// Built by [`GoldenTrace::global_write_profile`]; the early-convergence
/// tracker uses it to prove that a divergent output word can never be
/// restored (no golden store to it remains in the schedule's future) and
/// stop tracking the run on the spot.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalWriteStats {
    /// Total golden stores to the word, grid-wide.
    pub count: u32,
    /// Last CTA (serial launch order) whose threads store the word.
    pub last_cta: u32,
}

/// Grid-wide global-store profile: one [`GlobalWriteStats`] per global
/// word the golden run stores, held as a sorted vector keyed by address.
/// Lookup is a branch-free binary search — this is probed on the
/// per-instruction comparison path of the injection fast paths, where the
/// previous `HashMap` paid a SipHash per divergent store.
#[derive(Debug, Clone, Default)]
pub struct GlobalWriteProfile {
    entries: Vec<(u32, GlobalWriteStats)>,
}

impl GlobalWriteProfile {
    /// The profile of global word `addr`, or `None` if the golden run
    /// never stores it.
    #[must_use]
    pub fn get(&self, addr: u32) -> Option<&GlobalWriteStats> {
        self.entries
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Number of distinct global words stored by the golden run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the golden run stores no global words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(addr, stats)` pairs in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &GlobalWriteStats)> {
        self.entries.iter().map(|(a, s)| (*a, s))
    }
}

/// The golden run as seen at its CTA boundaries and thread exits.
///
/// A *position* is a golden retirement ordinal: position `p` is the
/// machine state right after the golden run's `p`-th retirement (1-based,
/// in serial schedule order). Under the serial schedule nothing but global
/// memory survives a CTA boundary (shared memory resets, threads start
/// fresh), and inside a CTA that releases no barrier each thread runs from
/// start to exit in one quantum, so at a thread's exit every earlier thread
/// of the CTA is done and every later one is fresh. These records are what
/// an injected run is compared against to prove that the rest of it
/// replays the golden run. Recorded by [`BoundaryRecorder`].
#[derive(Debug, Clone, Default)]
pub struct GoldenBoundaries {
    /// Global memory after CTA `c` (chunks shared copy-on-write).
    images: Vec<MemBlock>,
    /// Position at the end of CTA `c`.
    ends: Vec<u32>,
    /// CTA `c` released a barrier.
    barrier: Vec<bool>,
    /// Position of CTA `c`'s last shared-memory load; 0 for none.
    shared_load: Vec<u32>,
    /// Position of each thread's last retirement, from per-thread
    /// retirement counts (meaningful in CTAs that release no barrier).
    exits: Vec<u32>,
    /// Position of the last golden load of each global word; 0 for none.
    last_load: Vec<u32>,
    /// Position of the last golden store to each global word; 0 for none.
    last_store: Vec<u32>,
    threads_per_cta: u32,
}

impl GoldenBoundaries {
    /// Number of CTAs recorded.
    #[must_use]
    pub fn num_ctas(&self) -> u32 {
        self.images.len() as u32
    }

    /// Golden global memory right after CTA `cta` finished.
    #[must_use]
    pub fn image(&self, cta: u32) -> Option<&MemBlock> {
        self.images.get(cta as usize)
    }

    /// Golden global memory at the end of the run.
    #[must_use]
    pub fn final_image(&self) -> Option<&MemBlock> {
        self.images.last()
    }

    /// The position at the end of CTA `cta` (0 past the last CTA).
    #[must_use]
    pub fn end(&self, cta: u32) -> u32 {
        self.ends.get(cta as usize).copied().unwrap_or(0)
    }

    /// Instructions the golden run retires after position `pos`.
    #[must_use]
    pub fn retirements_after(&self, pos: u32) -> u64 {
        let total = self.ends.last().copied().unwrap_or(0);
        u64::from(total.saturating_sub(pos))
    }

    /// Whether the golden run loads global word `addr` after position
    /// `pos`.
    #[must_use]
    pub fn loaded_after(&self, addr: u32, pos: u32) -> bool {
        self.last_load
            .get(addr as usize / 4)
            .is_some_and(|&p| p > pos)
    }

    /// Whether the golden run stores global word `addr` after position
    /// `pos`.
    #[must_use]
    pub fn stored_after(&self, addr: u32, pos: u32) -> bool {
        self.last_store
            .get(addr as usize / 4)
            .is_some_and(|&p| p > pos)
    }

    /// Whether CTA `cta` loads shared memory after position `pos`.
    #[must_use]
    pub fn shared_loaded_after(&self, cta: u32, pos: u32) -> bool {
        self.shared_load.get(cta as usize).is_some_and(|&p| p > pos)
    }

    /// The CTA of flat thread `tid` and the position of its exit, if a run
    /// can stop there: its CTA releases no barrier and runs threads after
    /// it. `None` otherwise (the CTA's end is then the next stop).
    #[must_use]
    pub fn thread_exit(&self, tid: u32) -> Option<(u32, u32)> {
        let cta = tid / self.threads_per_cta.max(1);
        let pos = *self.exits.get(tid as usize)?;
        let barrier_free = !*self.barrier.get(cta as usize)?;
        (barrier_free && pos < self.end(cta)).then_some((cta, pos))
    }
}

/// Hook that records [`GoldenBoundaries`] during a fault-free
/// thread-serial run (it needs [`ExecHook::on_cta_end`]).
#[derive(Debug, Clone, Default)]
pub struct BoundaryRecorder {
    images: Vec<MemBlock>,
    ends: Vec<u32>,
    barrier: Vec<bool>,
    shared_load: Vec<u32>,
    last_load: Vec<u32>,
    last_store: Vec<u32>,
    threads_per_cta: u32,
    /// Retirements so far: the position after the running retirement.
    pos: u32,
    /// The running CTA retired a `bar`.
    cta_barrier: bool,
    /// Position of the running CTA's last shared load.
    cta_shared_load: u32,
}

impl BoundaryRecorder {
    /// A recorder for `launch` over `global_words` words of global memory.
    #[must_use]
    pub fn new(launch: &crate::Launch, global_words: usize) -> Self {
        let ctas = launch.num_ctas() as usize;
        BoundaryRecorder {
            images: Vec::with_capacity(ctas),
            ends: Vec::with_capacity(ctas),
            barrier: Vec::with_capacity(ctas),
            shared_load: Vec::with_capacity(ctas),
            last_load: vec![0; global_words],
            last_store: vec![0; global_words],
            threads_per_cta: launch.threads_per_cta(),
            ..BoundaryRecorder::default()
        }
    }

    /// Finalizes the recording. `trace` is the golden trace of the same
    /// run; each thread's exit position is derived from its retirement
    /// count. A run too long for `u32` positions records no boundaries.
    #[must_use]
    pub fn finish(self, trace: &GoldenTrace) -> GoldenBoundaries {
        let mut pos = 0u64;
        let exits = trace
            .threads
            .iter()
            .map(|t| {
                pos += t.pcs.len() as u64;
                pos as u32
            })
            .collect();
        if pos != u64::from(self.pos) {
            return GoldenBoundaries::default();
        }
        GoldenBoundaries {
            images: self.images,
            ends: self.ends,
            barrier: self.barrier,
            shared_load: self.shared_load,
            exits,
            last_load: self.last_load,
            last_store: self.last_store,
            threads_per_cta: self.threads_per_cta,
        }
    }
}

impl ExecHook for BoundaryRecorder {
    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        self.pos = self.pos.wrapping_add(1);
        for a in ev.accesses {
            match (a.space, a.is_store) {
                (MemSpace::Global, false) => {
                    if let Some(p) = self.last_load.get_mut(a.addr as usize / 4) {
                        *p = self.pos;
                    }
                }
                (MemSpace::Global, true) => {
                    if let Some(p) = self.last_store.get_mut(a.addr as usize / 4) {
                        *p = self.pos;
                    }
                }
                (MemSpace::Shared, false) => self.cta_shared_load = self.pos,
                _ => {}
            }
        }
        // Under the serial schedule a retired `bar` is always released.
        self.cta_barrier |= ev.instr.opcode == Opcode::Bar;
    }

    fn on_cta_end(&mut self, _cta: u32, global: &MemBlock, _budget: u64) -> bool {
        self.images.push(global.clone());
        self.ends.push(self.pos);
        self.barrier.push(std::mem::take(&mut self.cta_barrier));
        self.shared_load
            .push(std::mem::take(&mut self.cta_shared_load));
        false
    }
}

/// Per-thread fault-free commit logs for a whole launch.
#[derive(Debug, Clone, Default)]
pub struct GoldenTrace {
    threads: Vec<GoldenThread>,
}

impl GoldenTrace {
    /// Profiles every global word the golden run stores: how many times
    /// grid-wide and the last CTA to do so. Words absent from the profile
    /// are never stored by the fault-free run.
    #[must_use]
    pub fn global_write_profile(&self, threads_per_cta: u32) -> GlobalWriteProfile {
        let tpc = threads_per_cta.max(1);
        let mut map = std::collections::BTreeMap::new();
        for (tid, t) in self.threads.iter().enumerate() {
            let cta = tid as u32 / tpc;
            for s in t.stores.iter().filter(|s| s.space == MemSpace::Global) {
                let e: &mut GlobalWriteStats = map.entry(s.addr).or_default();
                e.count += 1;
                e.last_cta = e.last_cta.max(cta);
            }
        }
        GlobalWriteProfile {
            entries: map.into_iter().collect(),
        }
    }

    /// The commit log of flat thread `tid`, if it is in range.
    #[must_use]
    pub fn thread(&self, tid: u32) -> Option<&GoldenThread> {
        self.threads.get(tid as usize)
    }

    /// Number of threads in the recorded launch.
    #[must_use]
    pub fn num_threads(&self) -> u32 {
        self.threads.len() as u32
    }

    /// Total committed register values across all threads (memory sizing).
    #[must_use]
    pub fn total_values(&self) -> usize {
        self.threads.iter().map(|t| t.values.len()).sum()
    }
}

/// Hook that records a [`GoldenTrace`] during a fault-free run.
///
/// Must be composed so that no other hook overrides write-back values
/// (the recorder logs `wb.value` as the committed value).
#[derive(Debug, Clone)]
pub struct GoldenRecorder {
    threads: Vec<GoldenThread>,
}

impl GoldenRecorder {
    /// A recorder for a launch of `num_threads` flat threads.
    #[must_use]
    pub fn new(num_threads: u32) -> Self {
        GoldenRecorder {
            threads: vec![GoldenThread::default(); num_threads as usize],
        }
    }

    /// Finalizes the recording.
    #[must_use]
    pub fn finish(self) -> GoldenTrace {
        GoldenTrace {
            threads: self.threads,
        }
    }
}

impl ExecHook for GoldenRecorder {
    fn writeback(&mut self, wb: &Writeback) -> Option<u32> {
        let t = &mut self.threads[wb.tid as usize];
        debug_assert_eq!(
            t.values.len() as u32,
            t.wb_index(wb.dyn_idx) + u32::from(wb.slot),
            "write-back out of retirement order"
        );
        t.values.push(wb.value);
        None
    }

    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        let t = &mut self.threads[ev.tid as usize];
        debug_assert_eq!(t.pcs.len() as u32, ev.dyn_idx, "retirement gap");
        for a in ev.accesses.iter().filter(|a| a.is_store) {
            t.stores.push(GoldenStore {
                space: a.space,
                addr: a.addr,
                value: a.value,
            });
        }
        t.pcs.push(ev.pc as u32);
        t.wb_end.push(t.values.len() as u32);
        t.st_end.push(t.stores.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Launch, MemBlock, Simulator};
    use fsp_isa::assemble;

    fn trace_of(src: &str, block: u32) -> GoldenTrace {
        let program = assemble("golden_test", src).expect("assembles");
        let launch = Launch::new(program).grid(1, 1).block(block, 1, 1);
        let mut memory = MemBlock::with_words(64);
        let mut rec = GoldenRecorder::new(launch.num_threads());
        Simulator::new()
            .run(&launch, &mut memory, &mut rec)
            .expect("golden run");
        rec.finish()
    }

    #[test]
    fn records_pc_value_and_store_streams() {
        let trace = trace_of(
            r#"
            mov.u32 $r1, 0x7
            add.u32 $r1, $r1, 0x3
            st.global.u32 [0x4], $r1
            exit
            "#,
            1,
        );
        let t = trace.thread(0).expect("thread 0");
        assert_eq!(t.retirements(), 4);
        assert_eq!(t.pc(0), Some(0));
        assert_eq!(t.pc(3), Some(3));
        assert_eq!(t.pc(4), None);
        // Retirements 0 and 1 each committed one write-back.
        assert_eq!(t.wb_index(0), 0);
        assert_eq!(t.wb_index(1), 1);
        assert_eq!(t.value(t.wb_index(0)), Some(7));
        assert_eq!(t.value(t.wb_index(1)), Some(10));
        // The store retired third.
        assert_eq!(t.store_index(2), 0);
        assert_eq!(t.store_index(3), 1);
        assert_eq!(
            t.store(0),
            Some(GoldenStore {
                space: MemSpace::Global,
                addr: 4,
                value: 10
            })
        );
    }

    fn boundaries_of(launch: &Launch, words: usize) -> (GoldenBoundaries, crate::RunStats) {
        let mut rec = GoldenRecorder::new(launch.num_threads());
        Simulator::new()
            .run(launch, &mut MemBlock::with_words(words), &mut rec)
            .expect("golden run");
        let mut bounds = BoundaryRecorder::new(launch, words);
        let stats = Simulator::new()
            .run(launch, &mut MemBlock::with_words(words), &mut bounds)
            .expect("golden run");
        (bounds.finish(&rec.finish()), stats)
    }

    #[test]
    fn boundaries_record_images_suffixes_and_last_readers() {
        // Each CTA loads word 0 and stores its id + 1 to word 1 + ctaid;
        // only CTA 0 loads word 8.
        let program = assemble(
            "boundaries",
            r#"
            cvt.u32.u16 $r1, %ctaid.x
            ld.global.u32 $r2, [$r124]
            set.eq.u32.u32 $p0/$o127, $r1, $r124
            @$p0.ne ld.global.u32 $r3, [$r124+0x20]
            add.u32 $r2, $r1, 0x1
            shl.u32 $r4, $r1, 0x2
            st.global.u32 [$r4+0x4], $r2
            exit
            "#,
        )
        .expect("assembles");
        let launch = Launch::new(program).grid(3, 1).block(1, 1, 1);
        let (b, stats) = boundaries_of(&launch, 16);
        assert_eq!(b.num_ctas(), 3);
        for cta in 0..3u32 {
            let image = b.image(cta).expect("image");
            for c in 0..3u32 {
                let want = if c <= cta { c + 1 } else { 0 };
                assert_eq!(image.load(4 + 4 * c).unwrap(), want, "after CTA {cta}");
            }
        }
        // CTA 0 retires 8 instructions (its guarded load passes), CTAs 1
        // and 2 retire 7 each.
        assert_eq!(stats.instructions, 22);
        assert_eq!([b.end(0), b.end(1), b.end(2)], [8, 15, 22]);
        assert_eq!(b.retirements_after(b.end(0)), 14);
        assert_eq!(b.retirements_after(b.end(1)), 7);
        assert_eq!(b.retirements_after(b.end(2)), 0);
        // Word 0 is loaded at positions 2, 10 and 17; word 8 at 4 only.
        assert!(b.loaded_after(0, 16) && !b.loaded_after(0, 17));
        assert!(b.loaded_after(0x20, 3) && !b.loaded_after(0x20, 4));
        assert!(!b.loaded_after(4, 0), "stored, never loaded");
        assert!(b.stored_after(4, 6) && !b.stored_after(4, 7));
        assert!(!b.loaded_after(4 * 100, 0), "out of range");
        // One-thread CTAs: a thread's exit is its CTA's end.
        assert_eq!(b.thread_exit(0), None);
    }

    #[test]
    fn thread_exits_need_a_barrier_free_cta_and_a_later_thread() {
        // CTA 0 runs a guarded `bar`; every thread loads a parameter from
        // shared memory, then stores its tid.
        let program = assemble(
            "exits",
            r#"
            cvt.u32.u16 $r1, %ctaid.x
            set.eq.u32.u32 $p0/$o127, $r1, $r124
            @$p0.ne bar.sync 0x0
            add.u32 $r2, $r124, s[0x0010]
            cvt.u32.u16 $r3, %tid.x
            shl.u32 $r4, $r3, 0x2
            st.global.u32 [$r4], $r3
            exit
            "#,
        )
        .expect("assembles");
        let launch = Launch::new(program).grid(2, 1).block(3, 1, 1).param(0);
        let (b, _) = boundaries_of(&launch, 4);
        // CTA 0: 3 threads of 8 retirements; CTA 1: 3 of 7.
        assert_eq!([b.end(0), b.end(1)], [24, 45]);
        assert_eq!(b.thread_exit(0), None, "CTA 0 releases a barrier");
        assert_eq!(b.thread_exit(3), Some((1, 31)));
        assert_eq!(b.thread_exit(4), Some((1, 38)));
        assert_eq!(b.thread_exit(5), None, "the last thread ends its CTA");
        // Thread 5 loads its parameter at position 41; thread 3 stores
        // word 0 at position 30.
        assert!(b.shared_loaded_after(1, 40) && !b.shared_loaded_after(1, 41));
        assert!(b.stored_after(0, 29) && !b.stored_after(0, 30));
    }

    #[test]
    fn per_thread_streams_are_independent() {
        let trace = trace_of(
            r#"
            cvt.u32.u16 $r1, %tid.x
            shl.u32 $r2, $r1, 0x2
            st.global.u32 [$r2], $r1
            exit
            "#,
            4,
        );
        for tid in 0..4 {
            let t = trace.thread(tid).expect("thread");
            assert_eq!(t.retirements(), 4);
            assert_eq!(t.value(t.wb_index(0)), Some(tid));
            let s = t.store(0).expect("store");
            assert_eq!((s.addr, s.value), (tid * 4, tid));
        }
        assert!(trace.thread(4).is_none());
    }
}
