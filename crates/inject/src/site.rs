//! Fault sites and the per-kernel site population.

use std::sync::Arc;

use fsp_sim::KernelTrace;
use rand::Rng;

/// A single fault site: one bit of the destination register(s) of one
/// dynamic instruction of one thread.
///
/// `bit` indexes the instruction's destination bits in write-back order:
/// a `set.eq $p0/$r1` has 36 sites — bits `0..4` land in the predicate's
/// condition codes, bits `4..36` in the general-purpose register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultSite {
    /// Grid-wide flat thread id.
    pub tid: u32,
    /// 0-based dynamic instruction index within the thread.
    pub dyn_idx: u32,
    /// Bit position within the instruction's destination bits.
    pub bit: u32,
}

/// A fault site together with its extrapolation weight.
///
/// Pruned campaigns inject into one representative site and account its
/// outcome for all the sites it represents; unpruned campaigns use weight 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedSite {
    /// The site to inject.
    pub site: FaultSite,
    /// How many exhaustive sites this injection stands for.
    pub weight: f64,
}

impl From<FaultSite> for WeightedSite {
    fn from(site: FaultSite) -> Self {
        WeightedSite { site, weight: 1.0 }
    }
}

/// Packs fault sites into a flat little-endian byte plan (12 bytes per
/// site: `tid`, `dyn_idx`, `bit`), the chunk-plan serialization used by
/// distributed campaign execution.
#[must_use]
pub fn pack_sites(sites: &[FaultSite]) -> Vec<u8> {
    let mut out = Vec::with_capacity(sites.len() * 12);
    for site in sites {
        out.extend_from_slice(&site.tid.to_le_bytes());
        out.extend_from_slice(&site.dyn_idx.to_le_bytes());
        out.extend_from_slice(&site.bit.to_le_bytes());
    }
    out
}

/// Unpacks a [`pack_sites`] plan; `None` if the byte length is not a
/// multiple of the 12-byte site record (a torn plan).
#[must_use]
pub fn unpack_sites(bytes: &[u8]) -> Option<Vec<FaultSite>> {
    if !bytes.len().is_multiple_of(12) {
        return None;
    }
    let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
    Some(
        bytes
            .chunks_exact(12)
            .map(|rec| FaultSite {
                tid: word(&rec[0..4]),
                dyn_idx: word(&rec[4..8]),
                bit: word(&rec[8..12]),
            })
            .collect(),
    )
}

/// The exhaustive fault-site population of one traced kernel launch.
///
/// Sampling or enumerating a thread's sites needs its *full* trace; site
/// *counting* needs only the trace summary. The trace is shared, not
/// owned: every space that [`crate::Experiment::site_space`] returns holds
/// the prepared run's trace, which has a full trace for every thread.
#[derive(Debug, Clone)]
pub struct SiteSpace {
    trace: Arc<KernelTrace>,
    /// Prefix sums of per-thread fault bits: `thread_prefix[t]` = sites of
    /// threads `0..t`. Length = threads + 1.
    thread_prefix: Vec<u64>,
}

impl SiteSpace {
    /// Builds the site space over a kernel trace, owned or shared.
    #[must_use]
    pub fn new(trace: impl Into<Arc<KernelTrace>>) -> Self {
        let trace = trace.into();
        let mut thread_prefix = Vec::with_capacity(trace.fault_bits.len() + 1);
        let mut acc = 0u64;
        thread_prefix.push(0);
        for &bits in &trace.fault_bits {
            acc += bits;
            thread_prefix.push(acc);
        }
        SiteSpace {
            trace,
            thread_prefix,
        }
    }

    /// The underlying trace.
    #[must_use]
    pub fn trace(&self) -> &KernelTrace {
        &self.trace
    }

    /// Total number of fault sites — Equation (1).
    #[must_use]
    pub fn total_sites(&self) -> u64 {
        *self.thread_prefix.last().unwrap_or(&0)
    }

    /// Number of fault sites in one thread.
    #[must_use]
    pub fn thread_sites(&self, tid: u32) -> u64 {
        self.trace.fault_bits[tid as usize]
    }

    /// The site at a global index in `0..total_sites()`, ordered by thread,
    /// then dynamic instruction, then bit.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or if the owning thread has no
    /// full trace.
    #[must_use]
    pub fn site_at(&self, index: u64) -> FaultSite {
        assert!(index < self.total_sites(), "site index out of range");
        // Find the thread via the prefix sums.
        let tid = match self.thread_prefix.binary_search(&index) {
            Ok(mut i) => {
                // Land on the first thread whose range starts at `index`
                // and is non-empty.
                while self.thread_prefix[i + 1] == index {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        } as u32;
        let mut rem = index - self.thread_prefix[tid as usize];
        let full = self
            .trace
            .full
            .get(tid)
            .unwrap_or_else(|| panic!("thread {tid} has no full trace"));
        for (dyn_idx, entry) in full.entries.iter().enumerate() {
            let bits = u64::from(entry.dest_bits);
            if rem < bits {
                return FaultSite {
                    tid,
                    dyn_idx: dyn_idx as u32,
                    bit: rem as u32,
                };
            }
            rem -= bits;
        }
        unreachable!("trace summary and full trace disagree on fault bits");
    }

    /// Draws one site uniformly at random from the whole population.
    ///
    /// # Panics
    ///
    /// Panics if the population is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> FaultSite {
        let total = self.total_sites();
        assert!(total > 0, "cannot sample from an empty site space");
        self.site_at(rng.gen_range(0..total))
    }

    /// Draws `n` sites uniformly (with replacement — the fraction sampled
    /// is vanishingly small, matching the statistical model of Eq. 3).
    pub fn sample_many<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<FaultSite> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Enumerates every site of one thread (requires its full trace).
    ///
    /// # Panics
    ///
    /// Panics if the thread has no full trace.
    pub fn thread_site_iter(&self, tid: u32) -> impl Iterator<Item = FaultSite> + '_ {
        let full = self
            .trace
            .full
            .get(tid)
            .unwrap_or_else(|| panic!("thread {tid} has no full trace"));
        full.entries
            .iter()
            .enumerate()
            .flat_map(move |(dyn_idx, e)| {
                (0..u32::from(e.dest_bits)).map(move |bit| FaultSite {
                    tid,
                    dyn_idx: dyn_idx as u32,
                    bit,
                })
            })
    }

    /// Enumerates the sites of all dynamic occurrences of a static
    /// instruction (`pc`) in one thread.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no full trace.
    pub fn thread_pc_sites(&self, tid: u32, pc: u32) -> Vec<FaultSite> {
        let full = self
            .trace
            .full
            .get(tid)
            .unwrap_or_else(|| panic!("thread {tid} has no full trace"));
        full.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.pc == pc)
            .flat_map(|(dyn_idx, e)| {
                (0..u32::from(e.dest_bits)).map(move |bit| FaultSite {
                    tid,
                    dyn_idx: dyn_idx as u32,
                    bit,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp_isa::assemble;
    use fsp_sim::{Launch, MemBlock, Simulator, Tracer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SiteSpace {
        let p = assemble(
            "t",
            r#"
            mov.u32 $r1, 0x5                       // 32 bits
            set.lt.u32.u32 $p0/$r2, $r1, 0xA       // 36 bits
            exit
            "#,
        )
        .unwrap();
        let launch = Launch::new(p).grid(1, 1).block(4, 1, 1);
        let mut tracer = Tracer::new(4, 4).with_full_traces(0..4);
        let mut g = MemBlock::with_words(4);
        Simulator::new().run(&launch, &mut g, &mut tracer).unwrap();
        SiteSpace::new(tracer.finish())
    }

    #[test]
    fn totals_match_eq1() {
        let s = space();
        assert_eq!(s.total_sites(), 4 * 68);
        assert_eq!(s.thread_sites(2), 68);
    }

    #[test]
    fn site_at_walks_threads_instructions_bits() {
        let s = space();
        assert_eq!(
            s.site_at(0),
            FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 0
            }
        );
        assert_eq!(
            s.site_at(31),
            FaultSite {
                tid: 0,
                dyn_idx: 0,
                bit: 31
            }
        );
        assert_eq!(
            s.site_at(32),
            FaultSite {
                tid: 0,
                dyn_idx: 1,
                bit: 0
            }
        );
        assert_eq!(
            s.site_at(67),
            FaultSite {
                tid: 0,
                dyn_idx: 1,
                bit: 35
            }
        );
        assert_eq!(
            s.site_at(68),
            FaultSite {
                tid: 1,
                dyn_idx: 0,
                bit: 0
            }
        );
        assert_eq!(
            s.site_at(4 * 68 - 1),
            FaultSite {
                tid: 3,
                dyn_idx: 1,
                bit: 35
            }
        );
    }

    #[test]
    fn exhaustive_enumeration_matches_site_at() {
        let s = space();
        let from_iter: Vec<FaultSite> = (0..4).flat_map(|t| s.thread_site_iter(t)).collect();
        let from_index: Vec<FaultSite> = (0..s.total_sites()).map(|i| s.site_at(i)).collect();
        assert_eq!(from_iter, from_index);
    }

    #[test]
    fn sampling_is_uniform_ish_and_seeded() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(7);
        let a = s.sample_many(100, &mut rng);
        let mut rng = StdRng::seed_from_u64(7);
        let b = s.sample_many(100, &mut rng);
        assert_eq!(a, b, "same seed, same sample");
        // All threads should appear in a modest sample of a 4-thread space.
        let mut seen = [false; 4];
        for site in &a {
            seen[site.tid as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn site_packing_round_trips() {
        let sites: Vec<FaultSite> = (0..7)
            .map(|i| FaultSite {
                tid: i,
                dyn_idx: u32::from_le_bytes([1, 2, 3, 4]).wrapping_add(i),
                bit: 35 - i,
            })
            .collect();
        let packed = pack_sites(&sites);
        assert_eq!(packed.len(), sites.len() * 12);
        assert_eq!(unpack_sites(&packed).unwrap(), sites);
        assert_eq!(unpack_sites(&[]).unwrap(), Vec::new());
        assert_eq!(unpack_sites(&packed[..13]), None, "torn plan rejected");
    }

    #[test]
    fn pc_filtered_sites() {
        let s = space();
        let sites = s.thread_pc_sites(1, 1);
        assert_eq!(sites.len(), 36);
        assert!(sites.iter().all(|x| x.tid == 1 && x.dyn_idx == 1));
    }
}
