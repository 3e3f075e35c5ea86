//! Per-thread architectural state.

use fsp_isa::Special;

use crate::mem::MemBlock;

/// Number of words of per-thread local memory (`l[...]`). Public so static
/// analyses can bound local-space addresses exactly as the machine does.
pub const LOCAL_WORDS: usize = 1024;

/// A thread's coordinates within the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadCoords {
    /// Thread index within the CTA (x, y, z).
    pub tid: (u32, u32, u32),
    /// CTA index within the grid (x, y).
    pub ctaid: (u32, u32),
    /// CTA dimensions.
    pub ntid: (u32, u32, u32),
    /// Grid dimensions.
    pub nctaid: (u32, u32),
}

impl ThreadCoords {
    /// Flat thread index within the CTA.
    #[must_use]
    pub fn flat_tid_in_cta(&self) -> u32 {
        self.tid.0 + self.tid.1 * self.ntid.0 + self.tid.2 * self.ntid.0 * self.ntid.1
    }

    /// Flat CTA index within the grid.
    #[must_use]
    pub fn flat_ctaid(&self) -> u32 {
        self.ctaid.0 + self.ctaid.1 * self.nctaid.0
    }

    /// Grid-wide flat thread index (CTAs in launch order).
    #[must_use]
    pub fn flat_tid(&self) -> u32 {
        let cta_size = self.ntid.0 * self.ntid.1 * self.ntid.2;
        self.flat_ctaid() * cta_size + self.flat_tid_in_cta()
    }

    /// Value of a special register for this thread.
    #[must_use]
    #[inline]
    pub fn special(&self, s: Special) -> u32 {
        match s {
            Special::TidX => self.tid.0,
            Special::TidY => self.tid.1,
            Special::TidZ => self.tid.2,
            Special::NTidX => self.ntid.0,
            Special::NTidY => self.ntid.1,
            Special::CtaIdX => self.ctaid.0,
            Special::CtaIdY => self.ctaid.1,
            Special::NCtaIdX => self.nctaid.0,
            Special::NCtaIdY => self.nctaid.1,
        }
    }
}

/// Scheduling status of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadStatus {
    /// Runnable.
    Ready,
    /// Stopped at a `bar.sync`, waiting for the CTA.
    AtBarrier,
    /// Exited (via `exit`, `ret`, `retp` or falling off the end).
    Done,
}

/// Architectural state of one thread.
#[derive(Debug, Clone)]
pub(crate) struct ThreadState {
    pub coords: ThreadCoords,
    pub pc: usize,
    pub status: ThreadStatus,
    /// General-purpose registers. `$r124` is forced to zero on read.
    pub gprs: [u32; 128],
    /// 4-bit condition-code registers.
    pub preds: [u8; 8],
    /// Address-offset registers.
    pub ofs: [u32; 4],
    /// Per-thread dynamic instruction count (guard-passing retirements).
    pub icnt: u32,
    /// Lazily allocated per-thread local memory.
    pub local: Option<Box<MemBlock>>,
}

impl ThreadState {
    pub fn new(coords: ThreadCoords) -> Self {
        ThreadState {
            coords,
            pc: 0,
            status: ThreadStatus::Ready,
            gprs: [0; 128],
            preds: [0; 8],
            ofs: [0; 4],
            icnt: 0,
            local: None,
        }
    }

    /// Reinitializes in place for reuse across CTAs.
    pub fn reset(&mut self, coords: ThreadCoords) {
        self.coords = coords;
        self.pc = 0;
        self.status = ThreadStatus::Ready;
        self.gprs = [0; 128];
        self.preds = [0; 8];
        self.ofs = [0; 4];
        self.icnt = 0;
        if let Some(local) = &mut self.local {
            local.clear();
        }
    }

    #[inline]
    pub fn local_mut(&mut self) -> &mut MemBlock {
        self.local.get_or_insert_with(|| {
            Box::new(MemBlock::with_space(LOCAL_WORDS, fsp_isa::MemSpace::Local))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords(tid: (u32, u32, u32), ctaid: (u32, u32)) -> ThreadCoords {
        ThreadCoords {
            tid,
            ctaid,
            ntid: (16, 16, 1),
            nctaid: (4, 2),
        }
    }

    #[test]
    fn flat_ids() {
        let c = coords((3, 2, 0), (1, 1));
        assert_eq!(c.flat_tid_in_cta(), 3 + 2 * 16);
        assert_eq!(c.flat_ctaid(), 1 + 4);
        assert_eq!(c.flat_tid(), 5 * 256 + 35);
    }

    #[test]
    fn specials() {
        let c = coords((3, 2, 0), (1, 1));
        assert_eq!(c.special(Special::TidX), 3);
        assert_eq!(c.special(Special::TidY), 2);
        assert_eq!(c.special(Special::NTidX), 16);
        assert_eq!(c.special(Special::CtaIdY), 1);
        assert_eq!(c.special(Special::NCtaIdX), 4);
    }

    #[test]
    fn reset_clears_state() {
        let mut t = ThreadState::new(coords((0, 0, 0), (0, 0)));
        t.gprs[5] = 42;
        t.icnt = 7;
        t.local_mut().store(0, 9).unwrap();
        t.reset(coords((1, 0, 0), (0, 0)));
        assert_eq!(t.gprs[5], 0);
        assert_eq!(t.icnt, 0);
        assert_eq!(t.local_mut().load(0).unwrap(), 0);
    }
}
