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

use fsp_isa::MemSpace;

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

/// Grid-wide profile of the golden run's global loads: the last CTA
/// (serial launch order) that loads each word.
///
/// The CTA-boundary cut uses it to prove that no CTA after a boundary
/// reads a word the fault corrupted. Held as one dense entry per global
/// word, so building it during the golden run is an indexed store per load
/// and a lookup is one array read.
#[derive(Debug, Clone, Default)]
pub struct GlobalReadProfile {
    /// `1 + last loading CTA` per word; 0 for words never loaded.
    last: Vec<u32>,
}

impl GlobalReadProfile {
    /// The last CTA that loads global word `addr`, or `None` if the golden
    /// run never loads it.
    #[must_use]
    pub fn last_cta(&self, addr: u32) -> Option<u32> {
        self.last
            .get(addr as usize / 4)
            .and_then(|&c| c.checked_sub(1))
    }
}

/// The golden run as seen at its CTA boundaries: global memory and the
/// retirements still ahead after each CTA, plus the global read profile.
///
/// Under the serial schedule nothing but global memory survives a CTA
/// boundary (shared memory resets, threads start fresh), so these are
/// what an injected run is compared against to prove that its remaining
/// CTAs replay the golden run. Recorded by [`BoundaryRecorder`].
#[derive(Debug, Clone, Default)]
pub struct GoldenBoundaries {
    /// Global memory after CTA `c` (chunks shared copy-on-write).
    images: Vec<MemBlock>,
    /// Golden retirements in CTAs after `c`.
    after: Vec<u64>,
    reads: GlobalReadProfile,
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

    /// Instructions the golden run retires in the CTAs after `cta`.
    #[must_use]
    pub fn retirements_after(&self, cta: u32) -> u64 {
        self.after.get(cta as usize).copied().unwrap_or(0)
    }

    /// The last-reader profile of global loads.
    #[must_use]
    pub fn reads(&self) -> &GlobalReadProfile {
        &self.reads
    }
}

/// Hook that records [`GoldenBoundaries`] during a fault-free
/// thread-serial run (it needs [`ExecHook::on_cta_end`]).
#[derive(Debug, Clone, Default)]
pub struct BoundaryRecorder {
    images: Vec<MemBlock>,
    /// Unspent budget after each CTA.
    budgets: Vec<u64>,
    last: Vec<u32>,
}

impl BoundaryRecorder {
    /// A recorder for a launch over `global_words` words of global memory.
    #[must_use]
    pub fn new(global_words: usize) -> Self {
        BoundaryRecorder {
            last: vec![0; global_words],
            ..BoundaryRecorder::default()
        }
    }

    /// Finalizes the recording.
    #[must_use]
    pub fn finish(self) -> GoldenBoundaries {
        let end = self.budgets.last().copied().unwrap_or(0);
        GoldenBoundaries {
            images: self.images,
            after: self.budgets.iter().map(|&b| b - end).collect(),
            reads: GlobalReadProfile { last: self.last },
        }
    }
}

impl ExecHook for BoundaryRecorder {
    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        // CTAs run serially, so the running CTA is the count finished.
        let cta = self.images.len() as u32;
        for a in ev.accesses {
            if !a.is_store && a.space == MemSpace::Global {
                if let Some(c) = self.last.get_mut(a.addr as usize / 4) {
                    *c = cta + 1;
                }
            }
        }
    }

    fn on_cta_end(&mut self, _cta: u32, global: &MemBlock, budget: u64) -> bool {
        self.images.push(global.clone());
        self.budgets.push(budget);
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
        let mut memory = MemBlock::with_words(16);
        let mut rec = BoundaryRecorder::new(16);
        let stats = Simulator::new()
            .run(&launch, &mut memory, &mut rec)
            .expect("golden run");
        let b = rec.finish();
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
        assert_eq!(b.retirements_after(0), 14);
        assert_eq!(b.retirements_after(1), 7);
        assert_eq!(b.retirements_after(2), 0);
        assert_eq!(b.reads().last_cta(0), Some(2));
        assert_eq!(b.reads().last_cta(0x20), Some(0));
        assert_eq!(b.reads().last_cta(4), None, "stored, never loaded");
        assert_eq!(b.reads().last_cta(4 * 100), None, "out of range");
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
