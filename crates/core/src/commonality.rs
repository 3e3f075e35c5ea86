//! Stage 2 — instruction-wise pruning (Section III-C).
//!
//! Representative threads frequently share large common blocks of dynamic
//! instructions (the paper's Figure 5 shows two PathFinder threads whose
//! 500+-instruction traces differ by a single 17-instruction block). The
//! common blocks have near-identical outcome distributions, so they are
//! injected once — in a *reference* thread — and extrapolated to the other
//! representatives.
//!
//! The alignment is a longest-common-subsequence over the traces' static-pc
//! sequences, computed with Hirschberg's linear-space algorithm (traces run
//! to a few thousand dynamic instructions).

use fsp_sim::ThreadTrace;

/// Configuration for the commonality stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommonalityConfig {
    /// A representative is only pruned against the reference when at least
    /// this fraction of its trace matches (the paper skips kernels whose
    /// representatives share little code).
    pub min_shared_fraction: f64,
    /// Representatives with traces shorter than this are never pruned
    /// (kernels like Gaussian K1/K2 pair a <10-instruction thread with a
    /// huge one — no commonality worth exploiting).
    pub min_trace_len: usize,
    /// A representative is only pruned when its trace is at least this
    /// fraction of the reference's length. Extrapolation assumes the common
    /// instructions have similar resilience, which holds for peers doing
    /// the same work (the paper's PathFinder pair: 516 vs 533 dynamic
    /// instructions) but *not* for a short halo/early-exit thread whose
    /// matching instructions are mostly dead — its faults are masked while
    /// the reference's same-pc faults are live.
    pub min_length_ratio: f64,
}

impl Default for CommonalityConfig {
    fn default() -> Self {
        CommonalityConfig {
            min_shared_fraction: 0.4,
            min_trace_len: 16,
            min_length_ratio: 0.75,
        }
    }
}

/// A pairwise alignment between two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Matched dynamic-instruction index pairs `(idx_in_a, idx_in_b)` in
    /// increasing order on both sides.
    pub pairs: Vec<(u32, u32)>,
}

impl Alignment {
    /// Fraction of `b_len` that is matched.
    #[must_use]
    pub fn coverage_of_b(&self, b_len: usize) -> f64 {
        if b_len == 0 {
            0.0
        } else {
            self.pairs.len() as f64 / b_len as f64
        }
    }
}

/// Longest common subsequence of two sequences, with matched index pairs,
/// in O(len_a * len_b) time and O(len_a + len_b) space (Hirschberg).
#[must_use]
pub fn align_lcs(a: &[u32], b: &[u32]) -> Alignment {
    let mut pairs = Vec::new();
    hirschberg(a, b, 0, 0, &mut pairs);
    Alignment { pairs }
}

/// One row of LCS lengths: `lcs_row(a, b)[j]` = LCS length of `a` and
/// `b[..j]`.
fn lcs_row(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut prev = vec![0u32; b.len() + 1];
    let mut cur = vec![0u32; b.len() + 1];
    for &x in a {
        for (j, &y) in b.iter().enumerate() {
            cur[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev
}

fn hirschberg(a: &[u32], b: &[u32], a_off: u32, b_off: u32, out: &mut Vec<(u32, u32)>) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    if a.len() == 1 {
        if let Some(j) = b.iter().position(|&y| y == a[0]) {
            out.push((a_off, b_off + j as u32));
        }
        return;
    }
    let mid = a.len() / 2;
    let left = lcs_row(&a[..mid], b);
    let rev_a: Vec<u32> = a[mid..].iter().rev().copied().collect();
    let rev_b: Vec<u32> = b.iter().rev().copied().collect();
    let right = lcs_row(&rev_a, &rev_b);
    // Best split point of b.
    let split = (0..=b.len())
        .max_by_key(|&j| left[j] + right[b.len() - j])
        .expect("non-empty range");
    hirschberg(&a[..mid], &b[..split], a_off, b_off, out);
    hirschberg(
        &a[mid..],
        &b[split..],
        a_off + mid as u32,
        b_off + split as u32,
        out,
    );
}

/// Role assigned to each representative by the commonality analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepRole {
    /// The reference thread: injected in full.
    Reference,
    /// Aligned against the reference: matched instructions are pruned, each
    /// extrapolated from its partner `(own_idx -> reference_idx)`; only the
    /// unmatched remainder is injected.
    Pruned {
        /// Matched `(own dynamic index, reference dynamic index)` pairs.
        matches: Vec<(u32, u32)>,
    },
    /// Left untouched (shared fraction below threshold, or trace too
    /// short).
    Unpruned,
}

/// Result of the instruction-wise analysis across representatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commonality {
    /// Index (into the representative list) of the reference thread.
    pub reference: usize,
    /// Role per representative, parallel to the input list.
    pub roles: Vec<RepRole>,
    /// Dynamic instructions pruned across all representatives.
    pub pruned_instructions: u64,
    /// Dynamic instructions across all representatives before pruning.
    pub total_instructions: u64,
}

impl Commonality {
    /// Analyzes the representatives' traces. The longest trace becomes the
    /// reference; every other trace is aligned against it and pruned when
    /// the shared fraction clears `config.min_shared_fraction`.
    ///
    /// Only instructions whose *pc and destination width* both match are
    /// treated as common (extrapolation must map a site onto a site of the
    /// same shape).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[must_use]
    pub fn analyze(traces: &[&ThreadTrace], config: &CommonalityConfig) -> Self {
        assert!(!traces.is_empty(), "commonality needs at least one trace");
        // First-longest trace wins ties, keeping the choice deterministic.
        let reference = traces
            .iter()
            .enumerate()
            .rev()
            .max_by_key(|(_, t)| t.entries.len())
            .map(|(i, _)| i)
            .expect("non-empty");
        let ref_pcs = traces[reference].pcs();
        let ref_entries = &traces[reference].entries;

        let mut roles = Vec::with_capacity(traces.len());
        let mut pruned = 0u64;
        let mut total = 0u64;
        for (i, trace) in traces.iter().enumerate() {
            total += trace.entries.len() as u64;
            if i == reference {
                roles.push(RepRole::Reference);
                continue;
            }
            if trace.entries.len() < config.min_trace_len
                || (trace.entries.len() as f64) < config.min_length_ratio * ref_entries.len() as f64
            {
                roles.push(RepRole::Unpruned);
                continue;
            }
            let pcs = trace.pcs();
            let alignment = align_lcs(&pcs, &ref_pcs);
            // Keep only shape-identical matches.
            let matches: Vec<(u32, u32)> = alignment
                .pairs
                .iter()
                .copied()
                .filter(|&(own, re)| {
                    trace.entries[own as usize].dest_bits == ref_entries[re as usize].dest_bits
                })
                .collect();
            let coverage = matches.len() as f64 / pcs.len() as f64;
            if coverage >= config.min_shared_fraction {
                pruned += matches.len() as u64;
                roles.push(RepRole::Pruned { matches });
            } else {
                roles.push(RepRole::Unpruned);
            }
        }
        Commonality {
            reference,
            roles,
            pruned_instructions: pruned,
            total_instructions: total,
        }
    }

    /// Fraction of representative instructions pruned (the paper's
    /// "% pruned common insn", Table VI).
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        if self.total_instructions == 0 {
            0.0
        } else {
            self.pruned_instructions as f64 / self.total_instructions as f64
        }
    }

    /// Whether the stage pruned anything at all.
    #[must_use]
    pub fn is_effective(&self) -> bool {
        self.pruned_instructions > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_sim::{ThreadTrace, TraceEntry};

    fn trace_of(pcs: &[u32]) -> ThreadTrace {
        ThreadTrace {
            entries: pcs
                .iter()
                .map(|&pc| TraceEntry { pc, dest_bits: 32 })
                .collect(),
        }
    }

    #[test]
    fn lcs_basic() {
        let a = [1, 2, 3, 4, 5];
        let b = [2, 4, 5];
        let al = align_lcs(&a, &b);
        assert_eq!(al.pairs, vec![(1, 0), (3, 1), (4, 2)]);
    }

    #[test]
    fn lcs_identical() {
        let a = [7, 8, 9];
        let al = align_lcs(&a, &a);
        assert_eq!(al.pairs.len(), 3);
        assert!(al.pairs.iter().all(|&(x, y)| x == y));
    }

    #[test]
    fn lcs_disjoint() {
        let al = align_lcs(&[1, 2], &[3, 4]);
        assert!(al.pairs.is_empty());
    }

    #[test]
    fn lcs_monotone_pairs() {
        let a = [1, 3, 1, 3, 5, 1];
        let b = [3, 1, 5, 3, 1];
        let al = align_lcs(&a, &b);
        for w in al.pairs.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1, "non-monotone {al:?}");
        }
        for &(i, j) in &al.pairs {
            assert_eq!(a[i as usize], b[j as usize]);
        }
    }

    #[test]
    fn pathfinder_shape_prunes_shorter_thread() {
        // Mimic Figure 5: thread a = prefix ++ extra(17) ++ suffix;
        // thread b = prefix ++ suffix.
        let prefix: Vec<u32> = (0..53).collect();
        let extra: Vec<u32> = (100..117).collect();
        let suffix: Vec<u32> = (53..100).collect();
        let a: Vec<u32> = prefix
            .iter()
            .chain(&extra)
            .chain(&suffix)
            .copied()
            .collect();
        let b: Vec<u32> = prefix.iter().chain(&suffix).copied().collect();
        let (ta, tb) = (trace_of(&a), trace_of(&b));
        let c = Commonality::analyze(&[&ta, &tb], &CommonalityConfig::default());
        assert_eq!(c.reference, 0);
        assert!(matches!(c.roles[0], RepRole::Reference));
        let RepRole::Pruned { matches } = &c.roles[1] else {
            panic!("thread b should be pruned, got {:?}", c.roles[1]);
        };
        // The entire b is common.
        assert_eq!(matches.len(), b.len());
        assert_eq!(c.pruned_instructions, b.len() as u64);
    }

    #[test]
    fn short_traces_left_alone() {
        let ta = trace_of(&(0..100).collect::<Vec<_>>());
        let tb = trace_of(&[0, 1, 2]);
        let c = Commonality::analyze(&[&ta, &tb], &CommonalityConfig::default());
        assert!(matches!(c.roles[1], RepRole::Unpruned));
        assert!(!c.is_effective());
    }

    #[test]
    fn low_coverage_left_alone() {
        let ta = trace_of(&(0..100).collect::<Vec<_>>());
        let tb = trace_of(&(200..300).collect::<Vec<_>>());
        let c = Commonality::analyze(&[&ta, &tb], &CommonalityConfig::default());
        assert!(matches!(c.roles[1], RepRole::Unpruned));
    }

    #[test]
    fn width_mismatch_blocks_match() {
        // Same pcs but different dest widths must not match.
        let ta = trace_of(&(0..50).collect::<Vec<_>>());
        let mut tb = trace_of(&(0..50).collect::<Vec<_>>());
        for e in &mut tb.entries {
            e.dest_bits = 4;
        }
        let c = Commonality::analyze(&[&ta, &tb], &CommonalityConfig::default());
        assert!(matches!(c.roles[1], RepRole::Unpruned));
    }
}
