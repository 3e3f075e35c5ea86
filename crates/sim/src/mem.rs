//! Word-granular memory blocks used for global, shared and local spaces.
//!
//! Storage is chunked and copy-on-write: a block is a vector of
//! reference-counted 4 KiB chunks, so cloning a block (checkpoint capture,
//! per-injection scratch reset) is O(chunks) pointer copies and the actual
//! words are duplicated only when a chunk is first written through a given
//! clone. A campaign holding dozens of golden checkpoints therefore shares
//! one copy of every region the kernel never rewrites.

use std::sync::{Arc, OnceLock};

use crate::exec::SimFault;
use fsp_isa::MemSpace;

/// Words per copy-on-write chunk (4 KiB).
const CHUNK_WORDS: usize = 1024;
const CHUNK_SHIFT: u32 = CHUNK_WORDS.trailing_zeros();
const CHUNK_MASK: usize = CHUNK_WORDS - 1;

type Chunk = [u32; CHUNK_WORDS];

/// The process-wide all-zero chunk every fresh or cleared block points at.
fn zero_chunk() -> &'static Arc<Chunk> {
    static ZERO: OnceLock<Arc<Chunk>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new([0; CHUNK_WORDS]))
}

/// A byte-addressed, word-granular memory block.
///
/// All accesses must be 4-byte aligned and in bounds; violations surface as
/// [`SimFault::InvalidAccess`] / [`SimFault::Unaligned`], which the injector
/// classifies as a *crash* outcome.
///
/// Invariant: words past the logical length in the final chunk are always
/// zero (stores are bounds-checked first), so chunk-wise equality and
/// whole-chunk copies never observe stale padding.
#[derive(Debug, PartialEq, Eq)]
pub struct MemBlock {
    chunks: Vec<Arc<Chunk>>,
    words: usize,
    space: MemSpace,
}

impl Clone for MemBlock {
    fn clone(&self) -> Self {
        MemBlock {
            chunks: self.chunks.clone(),
            words: self.words,
            space: self.space,
        }
    }

    /// Reuses the chunk-pointer table allocation; the chunks themselves are
    /// shared, so resetting a scratch block to an initial image is O(chunks).
    fn clone_from(&mut self, source: &Self) {
        self.chunks.clone_from(&source.chunks);
        self.words = source.words;
        self.space = source.space;
    }
}

impl MemBlock {
    /// A block of `words` 32-bit words, zero-initialized, labelled as global
    /// memory.
    #[must_use]
    pub fn with_words(words: usize) -> Self {
        Self::with_space(words, MemSpace::Global)
    }

    /// A block sized in bytes (rounded up to a whole word).
    #[must_use]
    pub fn with_bytes(bytes: usize) -> Self {
        Self::with_words(bytes.div_ceil(4))
    }

    /// Same as [`MemBlock::with_words`] with a specific space label (used in
    /// fault reports).
    #[must_use]
    pub fn with_space(words: usize, space: MemSpace) -> Self {
        MemBlock {
            chunks: vec![zero_chunk().clone(); words.div_ceil(CHUNK_WORDS)],
            words,
            space,
        }
    }

    /// Size in bytes.
    #[must_use]
    pub fn len_bytes(&self) -> usize {
        self.words * 4
    }

    /// Resets all words to zero without copying: every chunk pointer is
    /// swapped back to the shared zero chunk.
    pub fn clear(&mut self) {
        for chunk in &mut self.chunks {
            if !Arc::ptr_eq(chunk, zero_chunk()) {
                *chunk = zero_chunk().clone();
            }
        }
    }

    #[inline]
    fn index(&self, addr: u32) -> Result<usize, SimFault> {
        if !addr.is_multiple_of(4) {
            return Err(SimFault::Unaligned {
                space: self.space,
                addr,
            });
        }
        let idx = (addr / 4) as usize;
        if idx >= self.words {
            return Err(SimFault::InvalidAccess {
                space: self.space,
                addr,
            });
        }
        Ok(idx)
    }

    /// Loads the word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// [`SimFault::Unaligned`] or [`SimFault::InvalidAccess`].
    #[inline]
    pub fn load(&self, addr: u32) -> Result<u32, SimFault> {
        self.index(addr)
            .map(|i| self.chunks[i >> CHUNK_SHIFT][i & CHUNK_MASK])
    }

    /// Stores `value` at byte address `addr`, materialising a private copy
    /// of the addressed chunk if it is still shared, and returns the word
    /// it overwrote.
    ///
    /// # Errors
    ///
    /// [`SimFault::Unaligned`] or [`SimFault::InvalidAccess`].
    #[inline]
    pub fn store(&mut self, addr: u32, value: u32) -> Result<u32, SimFault> {
        let i = self.index(addr)?;
        let word = &mut Arc::make_mut(&mut self.chunks[i >> CHUNK_SHIFT])[i & CHUNK_MASK];
        Ok(std::mem::replace(word, value))
    }

    /// Copies the whole block out into a dense vector (fingerprinting,
    /// test assertions).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.words);
        for chunk in &self.chunks {
            let take = (self.words - out.len()).min(CHUNK_WORDS);
            out.extend_from_slice(&chunk[..take]);
        }
        out
    }

    /// The words where `self` and `other` differ, as `(byte address,
    /// ours, theirs)` in ascending address order.
    ///
    /// Chunks the two blocks still share are skipped unread: diffing a run
    /// against a golden image both were cloned from costs only the chunks
    /// either side has rewritten since.
    ///
    /// # Panics
    ///
    /// Panics if the blocks differ in length.
    pub fn diff<'a>(&'a self, other: &'a MemBlock) -> impl Iterator<Item = (u32, u32, u32)> + 'a {
        assert_eq!(self.words, other.words, "diff of blocks of different sizes");
        self.unshared_chunks(other)
            .filter(move |&c| self.chunks[c] != other.chunks[c])
            .flat_map(move |c| {
                let (ours, theirs) = (&self.chunks[c], &other.chunks[c]);
                (0..CHUNK_WORDS)
                    .filter(move |&i| ours[i] != theirs[i])
                    .map(move |i| ((((c << CHUNK_SHIFT) | i) * 4) as u32, ours[i], theirs[i]))
            })
    }

    /// Indices of the chunks `self` and `other` do not share.
    fn unshared_chunks<'a>(&'a self, other: &'a MemBlock) -> impl Iterator<Item = usize> + 'a {
        (0..self.chunks.len()).filter(move |&c| !Arc::ptr_eq(&self.chunks[c], &other.chunks[c]))
    }

    /// Host-side helper: reads `len` words starting at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is unaligned or out of bounds — host readback
    /// bugs should fail loudly.
    #[must_use]
    pub fn read_words(&self, addr: u32, len: usize) -> Vec<u32> {
        assert_eq!(addr % 4, 0, "unaligned host read at {addr:#x}");
        let start = (addr / 4) as usize;
        assert!(
            start + len <= self.words,
            "host read of {len} words at {addr:#x} past end of block"
        );
        let mut out = Vec::with_capacity(len);
        let mut idx = start;
        while out.len() < len {
            let off = idx & CHUNK_MASK;
            let take = (len - out.len()).min(CHUNK_WORDS - off);
            out.extend_from_slice(&self.chunks[idx >> CHUNK_SHIFT][off..off + take]);
            idx += take;
        }
        out
    }

    /// Compares the words starting at byte address `addr` against
    /// `expected` without copying them out (golden-output checks in the
    /// injection hot path).
    ///
    /// # Panics
    ///
    /// Panics if the range is unaligned or out of bounds.
    #[must_use]
    pub fn region_eq(&self, addr: u32, expected: &[u32]) -> bool {
        assert_eq!(addr % 4, 0, "unaligned host read at {addr:#x}");
        let start = (addr / 4) as usize;
        assert!(
            start + expected.len() <= self.words,
            "host compare of {} words at {addr:#x} past end of block",
            expected.len()
        );
        let mut idx = start;
        let mut rest = expected;
        while !rest.is_empty() {
            let off = idx & CHUNK_MASK;
            let take = rest.len().min(CHUNK_WORDS - off);
            if self.chunks[idx >> CHUNK_SHIFT][off..off + take] != rest[..take] {
                return false;
            }
            idx += take;
            rest = &rest[take..];
        }
        true
    }

    /// Host-side helper: writes a `u32` slice starting at byte address
    /// `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is unaligned or out of bounds — host setup bugs
    /// should fail loudly.
    pub fn write_slice(&mut self, addr: u32, data: &[u32]) {
        assert_eq!(addr % 4, 0, "unaligned host write at {addr:#x}");
        let start = (addr / 4) as usize;
        assert!(
            start + data.len() <= self.words,
            "host write of {} words at {addr:#x} past end of block",
            data.len()
        );
        let mut idx = start;
        let mut rest = data;
        while !rest.is_empty() {
            let off = idx & CHUNK_MASK;
            let take = rest.len().min(CHUNK_WORDS - off);
            Arc::make_mut(&mut self.chunks[idx >> CHUNK_SHIFT])[off..off + take]
                .copy_from_slice(&rest[..take]);
            idx += take;
            rest = &rest[take..];
        }
    }

    /// Host-side helper: writes an `f32` slice starting at byte address
    /// `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is unaligned or out of bounds.
    pub fn write_f32_slice(&mut self, addr: u32, data: &[f32]) {
        assert_eq!(addr % 4, 0, "unaligned host write at {addr:#x}");
        let start = (addr / 4) as usize;
        assert!(
            start + data.len() <= self.words,
            "host write of {} words at {addr:#x} past end of block",
            data.len()
        );
        for (i, v) in data.iter().enumerate() {
            let idx = start + i;
            Arc::make_mut(&mut self.chunks[idx >> CHUNK_SHIFT])[idx & CHUNK_MASK] = v.to_bits();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let mut m = MemBlock::with_words(4);
        assert_eq!(m.store(8, 0xDEAD_BEEF).unwrap(), 0);
        assert_eq!(m.store(8, 0xDEAD_BEEF).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.load(8).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.load(0).unwrap(), 0);
    }

    #[test]
    fn out_of_bounds_faults() {
        let m = MemBlock::with_words(4);
        assert!(matches!(m.load(16), Err(SimFault::InvalidAccess { .. })));
        assert!(matches!(
            MemBlock::with_words(4).store(100, 1),
            Err(SimFault::InvalidAccess { .. })
        ));
    }

    #[test]
    fn unaligned_faults() {
        let m = MemBlock::with_words(4);
        assert!(matches!(m.load(2), Err(SimFault::Unaligned { .. })));
    }

    #[test]
    fn host_helpers() {
        let mut m = MemBlock::with_bytes(30); // rounds to 8 words
        assert_eq!(m.len_bytes(), 32);
        m.write_slice(4, &[1, 2, 3]);
        assert_eq!(m.read_words(4, 3), &[1, 2, 3]);
        assert!(m.region_eq(4, &[1, 2, 3]));
        assert!(!m.region_eq(4, &[1, 2, 4]));
        m.write_f32_slice(16, &[1.5]);
        assert_eq!(m.load(16).unwrap(), 1.5f32.to_bits());
        m.clear();
        assert_eq!(m.load(4).unwrap(), 0);
    }

    #[test]
    fn clone_shares_chunks_until_written() {
        let mut a = MemBlock::with_words(3 * CHUNK_WORDS);
        a.store(0, 7).unwrap();
        let mut b = a.clone();
        assert!(
            Arc::ptr_eq(&a.chunks[0], &b.chunks[0]),
            "clone is O(chunks)"
        );
        b.store(4, 9).unwrap();
        assert!(
            !Arc::ptr_eq(&a.chunks[0], &b.chunks[0]),
            "first write detaches the chunk"
        );
        assert_eq!(a.load(4).unwrap(), 0, "original unaffected");
        assert_eq!(b.load(0).unwrap(), 7, "detached chunk keeps prior words");
        assert!(
            Arc::ptr_eq(&a.chunks[1], &b.chunks[1]),
            "untouched chunks stay shared"
        );
    }

    #[test]
    fn clone_from_resets_to_source_image() {
        let mut golden = MemBlock::with_words(2 * CHUNK_WORDS + 5);
        golden.write_slice(0, &[1, 2, 3]);
        let mut scratch = golden.clone();
        scratch
            .store(4 * (2 * CHUNK_WORDS as u32 + 5), 42)
            .unwrap_err();
        scratch.store(4, 99).unwrap();
        scratch.clone_from(&golden);
        assert_eq!(scratch, golden);
        assert_eq!(scratch.load(4).unwrap(), 2);
    }

    #[test]
    fn cross_chunk_ranges() {
        let n = 2 * CHUNK_WORDS + 10;
        let mut m = MemBlock::with_words(n);
        let data: Vec<u32> = (0..n as u32).collect();
        m.write_slice(0, &data);
        assert_eq!(m.to_vec(), data);
        let mid = CHUNK_WORDS as u32 * 4 - 8;
        assert_eq!(
            m.read_words(mid, 4),
            &data[CHUNK_WORDS - 2..CHUNK_WORDS + 2]
        );
        assert!(m.region_eq(0, &data));
        m.clear();
        assert_eq!(m.to_vec(), vec![0; n]);
    }

    #[test]
    fn diff_skips_shared_chunks_and_reports_every_differing_word() {
        let n = 3 * CHUNK_WORDS + 7;
        let mut golden = MemBlock::with_words(n);
        golden.write_slice(0, &(0..n as u32).collect::<Vec<_>>());
        let mut run = golden.clone();
        assert_eq!(run.diff(&golden).count(), 0);
        assert_eq!(
            run.unshared_chunks(&golden).count(),
            0,
            "a clone shares all"
        );
        // Differing words in chunks 0 and 3 (the partial tail chunk), plus
        // a store of the value already there, which detaches chunk 2
        // without changing it.
        let last = 4 * (n as u32 - 1);
        run.store(8, 0xAAAA).unwrap();
        run.store(4 * 1000, 0xBBBB).unwrap();
        run.store(last, 0xCCCC).unwrap();
        let same = 4 * 2 * CHUNK_WORDS as u32;
        run.store(same, golden.load(same).unwrap()).unwrap();
        let unshared: Vec<usize> = run.unshared_chunks(&golden).collect();
        assert_eq!(unshared, [0, 2, 3], "chunk 1 is still shared");
        let diff: Vec<(u32, u32, u32)> = run.diff(&golden).collect();
        assert_eq!(
            diff,
            [
                (8, 0xAAAA, 2),
                (4000, 0xBBBB, 1000),
                (last, 0xCCCC, n as u32 - 1)
            ]
        );
        let back: Vec<(u32, u32, u32)> = golden.diff(&run).collect();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], (8, 2, 0xAAAA));
    }

    #[test]
    fn tail_padding_stays_zero() {
        // Logical length straddles into a partial final chunk; equality and
        // to_vec must ignore the padding (which stores can never touch).
        let mut a = MemBlock::with_words(10);
        let b = MemBlock::with_words(10);
        assert!(a.store(40, 1).is_err(), "past-end store rejected");
        assert_eq!(a, b);
        assert_eq!(a.to_vec().len(), 10);
    }
}
