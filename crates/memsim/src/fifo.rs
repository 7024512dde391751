//! The on-chip header FIFO (paper Section V-D, last paragraph).
//!
//! `scan` can only be advanced once the size of the object at `scan` is
//! known, i.e. after its tospace header has been read — inside the
//! scan-lock critical section, so these reads are a potential bottleneck.
//! But gray tospace headers are *read in exactly the same order as they are
//! written* (both `scan` and `free` advance monotonically), so the
//! coprocessor buffers them in a FIFO: as long as the gray population fits,
//! the scan-side header read is a same-cycle FIFO pop and no memory access
//! is needed — neither the store at evacuation time nor the load at scan
//! time.
//!
//! On overflow (FIFO full at push time) the evacuating core must write the
//! gray header to memory, and the scanning core will miss the FIFO (head
//! address ≠ `scan`) and read the header from memory *while holding the
//! scan lock*, lengthening the critical section. That is the paper's `cup`
//! pathology (Tab. II: 10.49 % scan-lock stalls).

use std::collections::VecDeque;

/// Statistics of FIFO effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoStats {
    /// Successful pushes (gray header buffered on chip).
    pub pushes: u64,
    /// Pushes rejected because the FIFO was full.
    pub overflows: u64,
    /// Pops that satisfied a scan-side header read.
    pub hits: u64,
    /// Scan-side reads that missed (head mismatch or empty).
    pub misses: u64,
    /// High-water mark of occupancy.
    pub max_occupancy: usize,
}

/// On-chip FIFO of gray tospace headers: `(frame address, header word 0,
/// header word 1)`.
#[derive(Debug, Clone)]
pub struct HeaderFifo {
    capacity: usize,
    q: VecDeque<(u32, u32, u32)>,
    stats: FifoStats,
}

impl HeaderFifo {
    /// FIFO with room for `capacity` headers. Capacity 0 disables the
    /// optimization entirely (every gray header goes through memory).
    pub fn new(capacity: usize) -> HeaderFifo {
        HeaderFifo {
            capacity,
            q: VecDeque::with_capacity(capacity.min(65536)),
            stats: FifoStats::default(),
        }
    }

    /// Buffer a freshly written gray header. Returns `false` on overflow:
    /// the caller must fall back to a memory header store.
    #[inline]
    pub fn push(&mut self, addr: u32, w0: u32, w1: u32) -> bool {
        if self.q.len() >= self.capacity {
            self.stats.overflows += 1;
            return false;
        }
        self.q.push_back((addr, w0, w1));
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.q.len());
        self.stats.pushes += 1;
        true
    }

    /// Scan-side read: if the head entry is the frame at `scan_addr`, pop
    /// and return its header words (same-cycle, no memory access).
    /// Otherwise the header was pushed around an overflow and must be read
    /// from memory.
    #[inline]
    pub fn try_pop(&mut self, scan_addr: u32) -> Option<(u32, u32)> {
        match self.q.front() {
            Some(&(addr, w0, w1)) if addr == scan_addr => {
                self.q.pop_front();
                self.stats.hits += 1;
                Some((w0, w1))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Zero-cost peek at the head entry when it is the frame at
    /// `scan_addr` (hardware: the FIFO head is a register). Non-final
    /// chunk claims of the line-split extension re-read the header this
    /// way without consuming the entry. No statistics are recorded; a
    /// matching [`HeaderFifo::try_pop`] accounts the hit and
    /// [`HeaderFifo::count_miss`] accounts a scan-side read that had to go
    /// to memory.
    #[inline]
    pub fn peek(&self, scan_addr: u32) -> Option<(u32, u32)> {
        match self.q.front() {
            Some(&(addr, w0, w1)) if addr == scan_addr => Some((w0, w1)),
            _ => None,
        }
    }

    /// Record a scan-side header read that missed the FIFO (the header
    /// was pushed around an overflow, or the frame is a mid-cycle
    /// allocation) and therefore went to memory.
    #[inline]
    pub fn count_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Is the FIFO empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Statistics.
    pub fn stats(&self) -> FifoStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_matches_push_order() {
        let mut f = HeaderFifo::new(4);
        assert!(f.push(10, 1, 2));
        assert!(f.push(20, 3, 4));
        assert_eq!(f.try_pop(10), Some((1, 2)));
        assert_eq!(f.try_pop(20), Some((3, 4)));
        assert!(f.is_empty());
        assert_eq!(f.stats().hits, 2);
    }

    #[test]
    fn head_mismatch_is_a_miss_and_preserves_entry() {
        let mut f = HeaderFifo::new(4);
        f.push(10, 1, 2);
        assert_eq!(f.try_pop(99), None);
        assert_eq!(f.len(), 1);
        assert_eq!(f.try_pop(10), Some((1, 2)));
        assert_eq!(f.stats().misses, 1);
    }

    #[test]
    fn overflow_rejects_push() {
        let mut f = HeaderFifo::new(2);
        assert!(f.push(1, 0, 0));
        assert!(f.push(2, 0, 0));
        assert!(!f.push(3, 0, 0));
        assert_eq!(f.stats().overflows, 1);
        assert_eq!(f.stats().max_occupancy, 2);
        // Skipped entry (3) never enters; after popping 1 and 2, a read for
        // 3 misses — forcing the memory fallback, as in hardware.
        assert_eq!(f.try_pop(1), Some((0, 0)));
        assert_eq!(f.try_pop(2), Some((0, 0)));
        assert_eq!(f.try_pop(3), None);
    }

    #[test]
    fn zero_capacity_disables_fifo() {
        let mut f = HeaderFifo::new(0);
        assert!(!f.push(1, 0, 0));
        assert_eq!(f.try_pop(1), None);
    }

    #[test]
    fn pop_on_empty_is_miss() {
        let mut f = HeaderFifo::new(2);
        assert_eq!(f.try_pop(5), None);
        assert_eq!(f.stats().misses, 1);
    }
}
