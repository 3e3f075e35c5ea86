//! Dynamic-trace collection.
//!
//! Two granularities, matching what the pruning stages need:
//!
//! * **Per-thread summaries** (always collected): dynamic instruction count
//!   (`iCnt`) and destination-register bit totals. These feed Equation (1)
//!   — the exhaustive fault-site count of Table I — and the CTA-/thread-wise
//!   grouping of Section III-B.
//! * **Full traces** (collected only for threads in the filter): the exact
//!   `(pc, dest_bits)` sequence. These feed instruction-wise, loop-wise and
//!   bit-wise pruning, which only ever look at a handful of representative
//!   threads.

use crate::hook::{ExecHook, RetireEvent};

/// One executed instruction in a full thread trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Static instruction index.
    pub pc: u32,
    /// Destination-register fault-site bits of this dynamic instruction.
    pub dest_bits: u16,
}

/// The full dynamic trace of one thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Executed instructions in order.
    pub entries: Vec<TraceEntry>,
}

impl ThreadTrace {
    /// Total fault-site bits of this thread.
    #[must_use]
    pub fn fault_bits(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.dest_bits)).sum()
    }

    /// The sequence of static pcs (used by sequence alignment).
    #[must_use]
    pub fn pcs(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.pc).collect()
    }
}

/// Full per-thread traces, stored densely: a vector of optional traces
/// indexed by flat thread id. Lookup is a bounds check plus an indexed
/// load — this sits on the per-instruction comparison path of the
/// injection fast paths, where the previous `BTreeMap` paid a pointer
/// chase per retirement.
#[derive(Debug, Clone, Default)]
pub struct FullTraces {
    slots: Vec<Option<ThreadTrace>>,
    count: usize,
}

impl FullTraces {
    /// An empty trace set.
    #[must_use]
    pub fn new() -> Self {
        FullTraces::default()
    }

    /// Inserts (or replaces) the full trace of `tid`.
    pub fn insert(&mut self, tid: u32, trace: ThreadTrace) -> Option<ThreadTrace> {
        let idx = tid as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        let prev = self.slots[idx].replace(trace);
        if prev.is_none() {
            self.count += 1;
        }
        prev
    }

    /// The full trace of `tid`, if one was recorded.
    #[must_use]
    pub fn get(&self, tid: u32) -> Option<&ThreadTrace> {
        self.slots.get(tid as usize).and_then(Option::as_ref)
    }

    /// Mutable access to the full trace of `tid`.
    pub fn get_mut(&mut self, tid: u32) -> Option<&mut ThreadTrace> {
        self.slots.get_mut(tid as usize).and_then(Option::as_mut)
    }

    /// Removes and returns the full trace of `tid`.
    pub fn remove(&mut self, tid: u32) -> Option<ThreadTrace> {
        let prev = self.slots.get_mut(tid as usize).and_then(Option::take);
        if prev.is_some() {
            self.count -= 1;
        }
        prev
    }

    /// Number of recorded traces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no traces were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// `(tid, trace)` pairs in ascending thread order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &ThreadTrace)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (i as u32, t)))
    }

    /// Recorded thread ids in ascending order.
    pub fn tids(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(t, _)| t)
    }

    /// Recorded traces in ascending thread order.
    pub fn values(&self) -> impl Iterator<Item = &ThreadTrace> {
        self.iter().map(|(_, t)| t)
    }
}

impl std::ops::Index<u32> for FullTraces {
    type Output = ThreadTrace;

    fn index(&self, tid: u32) -> &ThreadTrace {
        self.get(tid)
            .unwrap_or_else(|| panic!("no full trace recorded for thread {tid}"))
    }
}

impl PartialEq for FullTraces {
    fn eq(&self, other: &Self) -> bool {
        // Trailing empty slots are representation detail, not content.
        self.count == other.count && self.iter().eq(other.iter())
    }
}

impl Eq for FullTraces {}

impl FromIterator<(u32, ThreadTrace)> for FullTraces {
    fn from_iter<I: IntoIterator<Item = (u32, ThreadTrace)>>(iter: I) -> Self {
        let mut full = FullTraces::new();
        for (tid, trace) in iter {
            full.insert(tid, trace);
        }
        full
    }
}

/// Aggregated trace of one kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTrace {
    /// Per-thread dynamic instruction count, indexed by flat thread id.
    pub icnt: Vec<u32>,
    /// Per-thread destination-register bit totals (fault sites per thread).
    pub fault_bits: Vec<u64>,
    /// Threads per CTA (to regroup flat tids into CTAs).
    pub threads_per_cta: u32,
    /// Full traces for the threads that were requested.
    pub full: FullTraces,
}

impl KernelTrace {
    /// Exhaustive fault-site count of the launch — Equation (1):
    /// `sum_t sum_i bit(t, i)`.
    #[must_use]
    pub fn total_fault_sites(&self) -> u64 {
        self.fault_bits.iter().sum()
    }

    /// Number of threads.
    #[must_use]
    pub fn num_threads(&self) -> u32 {
        self.icnt.len() as u32
    }

    /// Number of CTAs.
    #[must_use]
    pub fn num_ctas(&self) -> u32 {
        self.num_threads() / self.threads_per_cta.max(1)
    }

    /// Iterator over the flat thread-id range of one CTA.
    #[must_use]
    pub fn cta_threads(&self, cta: u32) -> std::ops::Range<u32> {
        let per = self.threads_per_cta;
        (cta * per)..((cta + 1) * per)
    }

    /// Mean per-thread `iCnt` of one CTA (the CTA classifier of Fig. 3).
    #[must_use]
    pub fn cta_mean_icnt(&self, cta: u32) -> f64 {
        let range = self.cta_threads(cta);
        let n = range.len() as f64;
        let sum: u64 = range.map(|t| u64::from(self.icnt[t as usize])).sum();
        sum as f64 / n
    }
}

/// An [`ExecHook`] that records traces.
#[derive(Debug, Clone)]
pub struct Tracer {
    icnt: Vec<u32>,
    fault_bits: Vec<u64>,
    threads_per_cta: u32,
    full: FullTraces,
}

impl Tracer {
    /// Creates a tracer for a launch of `num_threads` threads grouped into
    /// CTAs of `threads_per_cta`.
    #[must_use]
    pub fn new(num_threads: u32, threads_per_cta: u32) -> Self {
        Tracer {
            icnt: vec![0; num_threads as usize],
            fault_bits: vec![0; num_threads as usize],
            threads_per_cta,
            full: FullTraces::new(),
        }
    }

    /// Requests full traces for the given flat thread ids.
    #[must_use]
    pub fn with_full_traces(mut self, tids: impl IntoIterator<Item = u32>) -> Self {
        for t in tids {
            self.full.insert(t, ThreadTrace::default());
        }
        self
    }

    /// Finishes tracing and returns the aggregate.
    #[must_use]
    pub fn finish(self) -> KernelTrace {
        KernelTrace {
            icnt: self.icnt,
            fault_bits: self.fault_bits,
            threads_per_cta: self.threads_per_cta,
            full: self.full,
        }
    }
}

impl ExecHook for Tracer {
    #[inline]
    fn on_retire(&mut self, ev: RetireEvent<'_>) {
        let t = ev.tid as usize;
        self.icnt[t] += 1;
        let bits = ev.instr.dest_bits();
        self.fault_bits[t] += u64::from(bits);
        if let Some(full) = self.full.get_mut(ev.tid) {
            full.entries.push(TraceEntry {
                pc: ev.pc as u32,
                dest_bits: bits as u16,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::Launch;
    use crate::machine::Simulator;
    use crate::mem::MemBlock;
    use fsp_isa::assemble;

    fn traced_run(src: &str, grid: u32, block: u32) -> KernelTrace {
        let p = assemble("t", src).unwrap();
        let launch = Launch::new(p).grid(grid, 1).block(block, 1, 1).param(0);
        let mut tracer =
            Tracer::new(launch.num_threads(), launch.threads_per_cta()).with_full_traces([0]);
        let mut global = MemBlock::with_words(1024);
        Simulator::new()
            .run(&launch, &mut global, &mut tracer)
            .unwrap();
        tracer.finish()
    }

    #[test]
    fn icnt_counts_executed_instructions_only() {
        // Guarded-off instructions must not count (fault sites are writes
        // that actually happen).
        let trace = traced_run(
            r#"
            set.eq.u32.u32 $p0/$o127, $r124, $r124   // true -> zero flag clear
            @$p0.eq bra skip                          // not taken
            add.u32 $r1, $r1, 0x1
            skip:
            @$p0.eq retp                              // guard fails: not executed
            exit
            "#,
            1,
            1,
        );
        // executed: set, bra(guard pass? no: eq fails so bra is skipped),
        // add, exit => set + add + exit = 3 (skipped guard instructions
        // don't retire).
        assert_eq!(trace.icnt[0], 3);
    }

    #[test]
    fn fault_bits_match_eq1() {
        let trace = traced_run(
            r#"
            mov.u32 $r1, 0x5                          // 32 bits
            set.lt.u32.u32 $p0/$r2, $r1, 0xA          // 4 + 32 bits
            st.global.u32 [$r124], $r1                // 0 bits
            exit                                      // 0 bits
            "#,
            1,
            2,
        );
        assert_eq!(trace.fault_bits[0], 32 + 36);
        assert_eq!(trace.total_fault_sites(), 2 * (32 + 36));
        let full = &trace.full[0];
        assert_eq!(full.fault_bits(), 68);
        assert_eq!(full.pcs(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn cta_grouping_helpers() {
        let trace = traced_run("mov.u32 $r1, 0x1\nexit", 3, 4);
        assert_eq!(trace.num_threads(), 12);
        assert_eq!(trace.num_ctas(), 3);
        assert_eq!(trace.cta_threads(1), 4..8);
        assert!((trace.cta_mean_icnt(0) - 2.0).abs() < 1e-9);
    }
}
