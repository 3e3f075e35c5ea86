//! The golden run as the replay cut reads it.
//!
//! An injected run can stop early once the rest of it provably replays the
//! fault-free run (the injection crate's replay cut). Deciding that needs a
//! few facts about the golden run at its CTA boundaries and thread exits:
//! global memory after each CTA, the last load and last store of each
//! global word, each CTA's last shared load, whether it released a
//! barrier, each thread's exit position, and the global and shared words
//! each thread stores. [`BoundaryRecorder`] records them all during the one
//! fault-free run of `Experiment::prepare`, into [`GoldenBoundaries`].

use fsp_isa::{MemSpace, Opcode};

use crate::hook::{ExecHook, RetireEvent};
use crate::mem::MemBlock;

/// One global or shared store of the golden run: `(tid, dyn_idx, space,
/// byte address)`.
type Store = (u32, u32, MemSpace, u32);

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
    /// Global and shared stores of the threads of barrier-free CTAs,
    /// sorted by thread, then retirement.
    stores: Vec<Store>,
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

    /// The global and shared words, as `(space, byte address)`, that thread
    /// `tid` of a barrier-free CTA stores from its `dyn_idx`-th retirement
    /// on in the golden run. Empty for threads of CTAs that release a
    /// barrier.
    pub fn stores_from(
        &self,
        tid: u32,
        dyn_idx: u32,
    ) -> impl Iterator<Item = (MemSpace, u32)> + '_ {
        let lo = self.stores.partition_point(|s| (s.0, s.1) < (tid, dyn_idx));
        let hi = self.stores.partition_point(|s| s.0 <= tid);
        self.stores[lo..hi].iter().map(|s| (s.2, s.3))
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
    /// Instructions each thread retired.
    retired: Vec<u32>,
    /// Global and shared stores in retirement order; the running CTA's
    /// start at `cta_stores`.
    stores: Vec<Store>,
    cta_stores: usize,
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
            retired: vec![0; launch.num_threads() as usize],
            threads_per_cta: launch.threads_per_cta(),
            ..BoundaryRecorder::default()
        }
    }

    /// Finalizes the recording. Each thread's exit position is derived
    /// from the retirement counts. A run too long for `u32` positions
    /// records no boundaries.
    #[must_use]
    pub fn finish(mut self) -> GoldenBoundaries {
        let mut pos = 0u64;
        let exits = self
            .retired
            .iter()
            .map(|&n| {
                pos += u64::from(n);
                pos as u32
            })
            .collect();
        if pos != u64::from(self.pos) {
            return GoldenBoundaries::default();
        }
        self.stores.sort_by_key(|s| (s.0, s.1));
        self.stores.shrink_to_fit();
        GoldenBoundaries {
            images: self.images,
            ends: self.ends,
            barrier: self.barrier,
            shared_load: self.shared_load,
            exits,
            last_load: self.last_load,
            last_store: self.last_store,
            stores: self.stores,
            threads_per_cta: self.threads_per_cta,
        }
    }
}

impl ExecHook for BoundaryRecorder {
    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        self.pos = self.pos.wrapping_add(1);
        if let Some(n) = self.retired.get_mut(ev.tid as usize) {
            *n += 1;
        }
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
            if a.is_store && a.space != MemSpace::Local {
                self.stores.push((ev.tid, ev.dyn_idx, a.space, a.addr));
            }
        }
        // Under the serial schedule a retired `bar` is always released.
        self.cta_barrier |= ev.instr.opcode == Opcode::Bar;
    }

    fn on_cta_end(&mut self, _cta: u32, global: &MemBlock, _budget: u64) -> bool {
        self.images.push(global.clone());
        self.ends.push(self.pos);
        if self.cta_barrier {
            // No thread of a barrier CTA is judged at its exit.
            self.stores.truncate(self.cta_stores);
        }
        self.cta_stores = self.stores.len();
        self.barrier.push(std::mem::take(&mut self.cta_barrier));
        self.shared_load
            .push(std::mem::take(&mut self.cta_shared_load));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Launch, MemBlock, Simulator};
    use fsp_isa::assemble;

    fn boundaries_of(launch: &Launch, words: usize) -> (GoldenBoundaries, crate::RunStats) {
        let mut bounds = BoundaryRecorder::new(launch, words);
        let stats = Simulator::new()
            .run(launch, &mut MemBlock::with_words(words), &mut bounds)
            .expect("golden run");
        (bounds.finish(), stats)
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
        // CTA 1's thread stores word 2 at its retirement 5 (the guarded
        // load fails there).
        assert_eq!(
            b.stores_from(1, 5).collect::<Vec<_>>(),
            [(MemSpace::Global, 8)]
        );
        assert_eq!(b.stores_from(1, 6).count(), 0);
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
        // Each thread of CTA 1 stores word `tid.x` at its retirement 5;
        // CTA 0's stores are not kept.
        for (tid, addr) in [(3, 0), (4, 4), (5, 8)] {
            let from = |k| b.stores_from(tid, k).collect::<Vec<_>>();
            assert_eq!(from(0), [(MemSpace::Global, addr)], "thread {tid}");
            assert_eq!(from(5), from(0));
            assert!(from(6).is_empty());
        }
        assert_eq!(b.stores_from(0, 0).count(), 0);
        assert_eq!(b.stores_from(6, 0).count(), 0, "out of range");
    }
}
