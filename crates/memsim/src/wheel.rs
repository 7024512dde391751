//! The retirement calendar both memory backends share: a timing wheel.
//!
//! Every in-service transaction retires a bounded number of cycles after
//! its service start (the backend's worst-case service latency), and
//! each `(core, port)` buffer holds at most one transaction. So the
//! calendar needs no ordering structure at all: one slot per cycle of a
//! power-of-two horizon, each slot a bit set over `core * PORT_COUNT +
//! port`. Scheduling a retirement is one OR; a retire cycle pops its
//! slot's set bits in ascending order — which *is* the `(core, port)`
//! tie order of the old full port scan, the order the wake feed and the
//! event log are pinned to; and the next retirement is the next
//! non-empty slot, a find-first-set over a one-bit-per-slot summary.

use crate::system::PORT_COUNT;

/// Largest supported worst-case service latency, in cycles
/// ([`crate::MemConfig::worst_service_latency`]). The wheel is sized
/// from the configuration, not from this bound — Figure 6's `+20` costs
/// 32 slots — so the bound only keeps an absurd latency (a corrupt
/// worker frame, say) from turning into a giant allocation. Both
/// backend constructors assert it; the job codec rejects frames beyond
/// it.
pub const MAX_SERVICE_LATENCY: u64 = 1 << 16;

/// See the module docs. All cycles are absolute; an entry must lie
/// strictly within one horizon of the clock (`now < done_at < now +
/// horizon`), which the horizon's sizing guarantees for every latency
/// the backend can produce.
#[derive(Debug, Clone)]
pub(crate) struct RetireWheel {
    /// One allocation, two parts. First the summary: one bit per slot,
    /// set while the slot holds any entry (`summary_words` words). Then
    /// the slots: the bit set of the transactions retiring at `done_at`
    /// is the `words_per_slot` words of slot `done_at & mask`.
    words: Vec<u64>,
    summary_words: usize,
    words_per_slot: usize,
    /// Horizon − 1 (the horizon is a power of two).
    mask: u64,
}

impl RetireWheel {
    /// Wheel for `n_cores` cores whose transactions retire at most
    /// `worst_latency` cycles after service start.
    ///
    /// # Panics
    /// Panics if `worst_latency` exceeds [`MAX_SERVICE_LATENCY`].
    pub(crate) fn new(n_cores: usize, worst_latency: u64) -> RetireWheel {
        assert!(
            worst_latency <= MAX_SERVICE_LATENCY,
            "worst-case service latency {worst_latency} exceeds the supported maximum \
             {MAX_SERVICE_LATENCY}"
        );
        let horizon = (worst_latency + 2).next_power_of_two();
        let words_per_slot = (n_cores * PORT_COUNT).div_ceil(64).max(1);
        let summary_words = (horizon as usize).div_ceil(64);
        RetireWheel {
            words: vec![0; summary_words + horizon as usize * words_per_slot],
            summary_words,
            words_per_slot,
            mask: horizon - 1,
        }
    }

    /// Number of slots: entries must retire less than this many cycles
    /// after the clock.
    pub(crate) fn horizon(&self) -> u64 {
        self.mask + 1
    }

    #[inline]
    fn slot_of(&self, cycle: u64) -> usize {
        (cycle & self.mask) as usize
    }

    /// The summary and the bit set of `slot`.
    #[inline]
    fn parts(&mut self, slot: usize) -> (&mut [u64], &mut [u64]) {
        let (summary, slots) = self.words.split_at_mut(self.summary_words);
        (
            summary,
            &mut slots[slot * self.words_per_slot..][..self.words_per_slot],
        )
    }

    /// Schedule `(core, port)` to retire at `done_at`; `now` is the
    /// caller's clock (range check only).
    #[inline]
    pub(crate) fn insert(&mut self, now: u64, done_at: u64, core: usize, port: usize) {
        debug_assert!(
            done_at > now && done_at - now <= self.mask,
            "retirement at {done_at} outside the wheel's horizon at cycle {now}"
        );
        let slot = self.slot_of(done_at);
        let id = core * PORT_COUNT + port;
        let (summary, words) = self.parts(slot);
        debug_assert_eq!(words[id / 64] & (1 << (id % 64)), 0, "port scheduled twice");
        words[id / 64] |= 1 << (id % 64);
        summary[slot / 64] |= 1 << (slot % 64);
    }

    /// Pop the lowest `(core, port)` retiring at `cycle`, if any. Called
    /// until `None` on a retire cycle.
    #[inline]
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<(usize, usize)> {
        let slot = self.slot_of(cycle);
        let (summary, words) = self.parts(slot);
        let wi = words.iter().position(|&w| w != 0)?;
        let id = wi * 64 + words[wi].trailing_zeros() as usize;
        words[wi] &= words[wi] - 1;
        if words[wi..].iter().all(|&w| w == 0) {
            summary[slot / 64] &= !(1 << (slot % 64));
        }
        Some((id / PORT_COUNT, id % PORT_COUNT))
    }

    /// The earliest scheduled retirement strictly after `cycle`
    /// (`u64::MAX` when the wheel is empty): the next set bit of the
    /// slot summary in circular order from `cycle + 1`.
    #[inline]
    pub(crate) fn next_after(&self, cycle: u64) -> u64 {
        let summary = &self.words[..self.summary_words];
        let start = self.slot_of(cycle + 1);
        let (w0, b0) = (start / 64, start % 64);
        let ahead = summary[w0] >> b0;
        if ahead != 0 {
            return cycle + 1 + u64::from(ahead.trailing_zeros());
        }
        // Slots covered so far: the rest of word `w0` (a short wheel is
        // one partial word).
        let n = summary.len();
        let mut dist = self.horizon().min(64) - b0 as u64;
        for i in 1..n {
            let word = summary[(w0 + i) % n];
            if word != 0 {
                return cycle + 1 + dist + u64::from(word.trailing_zeros());
            }
            dist += 64;
        }
        let wrapped = summary[w0] & ((1 << b0) - 1);
        if wrapped != 0 {
            return cycle + 1 + dist + u64::from(wrapped.trailing_zeros());
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn horizon_is_the_next_power_of_two_past_latency_plus_two() {
        for (latency, horizon) in [
            (0, 2),
            (5, 8),
            (6, 8),
            (7, 16),
            (25, 32),
            (62, 64),
            (63, 128),
        ] {
            assert_eq!(
                RetireWheel::new(16, latency).horizon(),
                horizon,
                "{latency}"
            );
        }
        assert_eq!(
            RetireWheel::new(1, MAX_SERVICE_LATENCY).horizon(),
            2 * MAX_SERVICE_LATENCY
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn a_latency_past_the_maximum_is_refused() {
        RetireWheel::new(1, MAX_SERVICE_LATENCY + 1);
    }

    #[test]
    fn ties_pop_in_core_then_port_order() {
        let mut w = RetireWheel::new(17, 5);
        for (core, port) in [(16, 3), (3, 1), (16, 0), (0, 2), (3, 0)] {
            w.insert(10, 12, core, port);
        }
        w.insert(10, 11, 9, 2);
        assert_eq!(w.next_after(10), 11);
        assert_eq!(w.pop_due(11), Some((9, 2)));
        assert_eq!(w.pop_due(11), None);
        assert_eq!(w.next_after(11), 12);
        let mut order = Vec::new();
        while let Some(e) = w.pop_due(12) {
            order.push(e);
        }
        assert_eq!(order, [(0, 2), (3, 0), (3, 1), (16, 0), (16, 3)]);
        assert_eq!(w.next_after(12), u64::MAX);
    }

    /// One step of the model test: schedule a transaction `latency`
    /// cycles out on port `id` (skipped while that port is in flight —
    /// the backends' single-entry buffers), or advance the clock by
    /// `skip` cycles, capped so that no retirement is jumped over.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push { id: usize, latency: u64 },
        Advance { skip: u64 },
    }

    /// Raw draws, reduced to the wheel under test by [`op_for`]: two
    /// pushes for every advance.
    fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
        prop::collection::vec((0u8..3, 0usize..256, 0u64..1 << 16), 1..200)
    }

    fn op_for(n_cores: usize, worst: u64, (kind, a, b): (u8, usize, u64)) -> Op {
        if kind < 2 {
            Op::Push {
                id: a % (n_cores * PORT_COUNT),
                latency: 1 + b % worst,
            }
        } else {
            Op::Advance {
                skip: 1 + b % (2 * worst),
            }
        }
    }

    /// Drive the wheel and a `BinaryHeap` reference — the calendar the
    /// backends used to carry — through the same sequence: identical pop
    /// order (ties included) and identical `next_retire` throughout.
    fn wheel_matches_heap(n_cores: usize, worst: u64, start: u64, ops: &[Op]) {
        let mut wheel = RetireWheel::new(n_cores, worst);
        let mut heap: BinaryHeap<Reverse<(u64, u32, u8)>> = BinaryHeap::new();
        let mut busy = vec![false; n_cores * PORT_COUNT];
        let mut now = start;
        let heap_next = |heap: &BinaryHeap<Reverse<(u64, u32, u8)>>| {
            heap.peek().map_or(u64::MAX, |&Reverse((at, _, _))| at)
        };
        for op in ops {
            match *op {
                Op::Push { id, latency } => {
                    if busy[id] {
                        continue;
                    }
                    busy[id] = true;
                    let (core, port) = (id / PORT_COUNT, id % PORT_COUNT);
                    wheel.insert(now, now + latency, core, port);
                    heap.push(Reverse((now + latency, core as u32, port as u8)));
                }
                Op::Advance { skip } => {
                    // Land on the next retirement at the latest, as the
                    // backends' fast-forward contract demands.
                    now = (now + skip).min(heap_next(&heap));
                    while heap_next(&heap) == now {
                        let Reverse((_, core, port)) = heap.pop().expect("peeked");
                        assert_eq!(wheel.pop_due(now), Some((core as usize, port as usize)));
                        busy[core as usize * PORT_COUNT + port as usize] = false;
                    }
                    assert_eq!(wheel.pop_due(now), None);
                }
            }
            assert_eq!(wheel.next_after(now), heap_next(&heap), "at cycle {now}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// 1, 16, 17 and 64 cores are one, one, two and four words per
        /// slot; latencies reach the configured worst case (62 and 63
        /// straddle the one-word summary, 200 needs four words), and
        /// the start cycle puts the first wrap anywhere in the wheel.
        #[test]
        fn wheel_pops_exactly_like_the_heap_calendar(
            cores_pick in 0usize..4,
            worst_pick in 0usize..7,
            raw in raw_ops(),
            start in 0u64..1 << 20,
        ) {
            let n_cores = [1usize, 16, 17, 64][cores_pick];
            let worst = [1u64, 5, 6, 25, 62, 63, 200][worst_pick];
            let ops: Vec<Op> = raw.iter().map(|&r| op_for(n_cores, worst, r)).collect();
            wheel_matches_heap(n_cores, worst, start, &ops);
        }
    }
}
