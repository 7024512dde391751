//! The event calendar both memory backends share: a timing wheel.
//!
//! Every in-service transaction retires a bounded number of cycles after
//! its service start (the backend's worst-case service latency), and
//! each `(core, port)` buffer holds at most one transaction; a DRAM bank
//! likewise comes free a bounded number of cycles after its service
//! start (plus the closed-page precharge), with one `ready_at` pending
//! per bank. So the calendar needs no ordering structure at all: one
//! slot per cycle of a power-of-two horizon, each slot a bit set over
//! small ids — `core * PORT_COUNT + port` for retirements, the bank
//! index for bank readiness. Scheduling is one OR. A due cycle takes its
//! slot's whole bit set at once ([`RetireWheel::take`]) and walks it
//! word by word in ascending id order — which *is* the `(core, port)`
//! tie order of the old full port scan, the order the wake feed and the
//! event log are pinned to. The next event is the next non-empty slot, a
//! find-first-set over a one-bit-per-slot summary.

/// Largest supported worst-case service latency, in cycles
/// ([`crate::MemConfig::worst_service_latency`]). The wheel is sized
/// from the configuration, not from this bound — Figure 6's `+20` costs
/// 32 slots — so the bound only keeps an absurd latency (a corrupt
/// worker frame, say) from turning into a giant allocation. Both
/// backend constructors assert it; the job codec rejects frames beyond
/// it.
pub const MAX_SERVICE_LATENCY: u64 = 1 << 16;

/// See the module docs. All cycles are absolute; an entry must lie
/// strictly within one horizon of the clock (`now < at < now +
/// horizon`), which the horizon's sizing guarantees for every delay the
/// backend can produce.
#[derive(Debug, Clone)]
pub(crate) struct RetireWheel {
    /// One allocation, two parts. First the summary: one bit per slot,
    /// set while the slot holds any entry (`summary_words` words). Then
    /// the slots: the bit set of the ids due at cycle `at` is the
    /// `words_per_slot` words of slot `at & mask`.
    words: Vec<u64>,
    summary_words: usize,
    words_per_slot: usize,
    /// Horizon − 1 (the horizon is a power of two).
    mask: u64,
}

/// A slot [`RetireWheel::take`] emptied: its words, still to be walked
/// with [`Due::next_word`].
#[derive(Debug)]
pub(crate) struct Due {
    /// Index of the slot's first word in the wheel's storage.
    base: usize,
    next: usize,
    end: usize,
}

impl Due {
    /// The next non-empty word of the taken slot as `(w, bits)`: bit `i`
    /// of `bits` is id `64 * w + i`. Ascending `w`; `wheel` must be the
    /// wheel the slot was taken from.
    #[inline]
    pub(crate) fn next_word(&mut self, wheel: &mut RetireWheel) -> Option<(usize, u64)> {
        while self.next < self.end {
            let i = self.next;
            self.next += 1;
            let bits = std::mem::take(&mut wheel.words[i]);
            if bits != 0 {
                return Some((i - self.base, bits));
            }
        }
        None
    }
}

impl RetireWheel {
    /// Wheel over ids `0..n_ids` whose entries fall due at most
    /// `worst_latency + tail` cycles after they are scheduled: a service
    /// latency, plus what follows retirement before the event (the DRAM
    /// closed-page precharge for bank readiness, `0` for retirements).
    ///
    /// # Panics
    /// Panics if `worst_latency` exceeds [`MAX_SERVICE_LATENCY`].
    pub(crate) fn new(n_ids: usize, worst_latency: u64, tail: u32) -> RetireWheel {
        assert!(
            worst_latency <= MAX_SERVICE_LATENCY,
            "worst-case service latency {worst_latency} exceeds the supported maximum \
             {MAX_SERVICE_LATENCY}"
        );
        let horizon = (worst_latency + u64::from(tail) + 2).next_power_of_two();
        let words_per_slot = n_ids.div_ceil(64).max(1);
        let summary_words = (horizon as usize).div_ceil(64);
        RetireWheel {
            words: vec![0; summary_words + horizon as usize * words_per_slot],
            summary_words,
            words_per_slot,
            mask: horizon - 1,
        }
    }

    /// Number of slots: entries must fall due less than this many
    /// cycles after the clock.
    pub(crate) fn horizon(&self) -> u64 {
        self.mask + 1
    }

    #[inline]
    fn slot_of(&self, cycle: u64) -> usize {
        (cycle & self.mask) as usize
    }

    /// Schedule `id` at cycle `at`; `now` is the caller's clock (range
    /// check only).
    #[inline]
    pub(crate) fn insert(&mut self, now: u64, at: u64, id: usize) {
        debug_assert!(
            at > now && at - now <= self.mask,
            "entry at {at} outside the wheel's horizon at cycle {now}"
        );
        let slot = self.slot_of(at);
        let word = self.summary_words + slot * self.words_per_slot + id / 64;
        debug_assert_eq!(self.words[word] & (1 << (id % 64)), 0, "id scheduled twice");
        self.words[word] |= 1 << (id % 64);
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    /// Empty the slot of `cycle` in one step: the returned [`Due`] walks
    /// the ids that were scheduled at `cycle` (none when the slot was
    /// empty — one summary test).
    #[inline]
    pub(crate) fn take(&mut self, cycle: u64) -> Due {
        let slot = self.slot_of(cycle);
        let base = self.summary_words + slot * self.words_per_slot;
        let bit = 1u64 << (slot % 64);
        if self.words[slot / 64] & bit == 0 {
            return Due {
                base,
                next: base,
                end: base,
            };
        }
        self.words[slot / 64] &= !bit;
        Due {
            base,
            next: base,
            end: base + self.words_per_slot,
        }
    }

    /// The earliest scheduled entry strictly after `cycle` (`u64::MAX`
    /// when the wheel is empty): the next set bit of the slot summary in
    /// circular order from `cycle + 1`.
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

    /// Every id due at `cycle`, in the order the backends walk them.
    fn take_all(wheel: &mut RetireWheel, cycle: u64) -> Vec<usize> {
        let mut due = wheel.take(cycle);
        let mut ids = Vec::new();
        while let Some((w, mut bits)) = due.next_word(wheel) {
            while bits != 0 {
                ids.push(64 * w + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        ids
    }

    #[test]
    fn horizon_is_the_next_power_of_two_past_latency_plus_tail_plus_two() {
        for (latency, tail, horizon) in [
            (0, 0, 2),
            (5, 0, 8),
            (6, 0, 8),
            (7, 0, 16),
            (25, 0, 32),
            (62, 0, 64),
            (63, 0, 128),
            (11, 4, 32),
            (11, 3, 16),
        ] {
            assert_eq!(
                RetireWheel::new(64, latency, tail).horizon(),
                horizon,
                "{latency} + {tail}"
            );
        }
        assert_eq!(
            RetireWheel::new(4, MAX_SERVICE_LATENCY, 0).horizon(),
            2 * MAX_SERVICE_LATENCY
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn a_latency_past_the_maximum_is_refused() {
        RetireWheel::new(4, MAX_SERVICE_LATENCY + 1, 0);
    }

    #[test]
    fn a_due_slot_is_taken_whole_in_id_order() {
        // 68 ids: two words per slot.
        let mut w = RetireWheel::new(68, 5, 0);
        for id in [67, 13, 64, 2, 12] {
            w.insert(10, 12, id);
        }
        w.insert(10, 11, 38);
        assert_eq!(w.next_after(10), 11);
        assert_eq!(take_all(&mut w, 11), [38]);
        assert_eq!(take_all(&mut w, 11), [], "taking empties the slot");
        assert_eq!(w.next_after(11), 12);
        assert_eq!(take_all(&mut w, 12), [2, 12, 13, 64, 67]);
        assert_eq!(w.next_after(12), u64::MAX);
        // The slot is reusable one horizon later.
        w.insert(13, 20, 5);
        assert_eq!(take_all(&mut w, 20), [5]);
    }

    /// One step of the model test: schedule id `id` `latency` cycles out
    /// (skipped while that id is pending — the backends' single-entry
    /// buffers and single `ready_at` per bank), schedule up to 160 ids
    /// `latency` cycles out at once (`Flood`, so that slots hold more
    /// than 64 ids), or advance the clock by `skip` cycles, capped so
    /// that no entry is jumped over.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push {
            id: usize,
            latency: u64,
        },
        Flood {
            id: usize,
            stride: usize,
            latency: u64,
        },
        Advance {
            skip: u64,
        },
    }

    /// Raw draws, reduced to the wheel under test by [`op_for`]: for
    /// every advance, two pushes and, one time in eight, a flood.
    fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
        prop::collection::vec((0u8..24, 0usize..1 << 16, 0u64..1 << 16), 1..200)
    }

    fn op_for(n_ids: usize, worst: u64, (kind, a, b): (u8, usize, u64)) -> Op {
        match kind {
            0..=13 => Op::Push {
                id: a % n_ids,
                latency: 1 + b % worst,
            },
            14..=16 => Op::Flood {
                id: a % n_ids,
                stride: 1 + 2 * (a >> 12),
                latency: 1 + b % worst,
            },
            _ => Op::Advance {
                skip: 1 + b % (2 * worst),
            },
        }
    }

    /// Drive the wheel and a `BinaryHeap` reference — the calendar the
    /// backends used to carry — through the same sequence: identical
    /// order of due ids (ties included) and identical next event
    /// throughout.
    fn wheel_matches_heap(n_ids: usize, worst: u64, start: u64, ops: &[Op]) {
        let mut wheel = RetireWheel::new(n_ids, worst, 0);
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut pending = vec![false; n_ids];
        let mut now = start;
        let heap_next = |heap: &BinaryHeap<Reverse<(u64, usize)>>| {
            heap.peek().map_or(u64::MAX, |&Reverse((at, _))| at)
        };
        for op in ops {
            let (first, stride, count, latency) = match *op {
                Op::Push { id, latency } => (id, 0, 1, latency),
                Op::Flood {
                    id,
                    stride,
                    latency,
                } => (id, stride, n_ids.min(160), latency),
                Op::Advance { skip } => {
                    // Land on the next entry at the latest, as the
                    // backends' fast-forward contract demands.
                    now = (now + skip).min(heap_next(&heap));
                    let mut expected = Vec::new();
                    while heap_next(&heap) == now {
                        let Reverse((_, id)) = heap.pop().expect("peeked");
                        expected.push(id);
                        pending[id] = false;
                    }
                    assert_eq!(take_all(&mut wheel, now), expected, "at cycle {now}");
                    (0, 0, 0, 0)
                }
            };
            for j in 0..count {
                let id = (first + j * stride) % n_ids;
                if !pending[id] {
                    pending[id] = true;
                    wheel.insert(now, now + latency, id);
                    heap.push(Reverse((now + latency, id)));
                }
            }
            assert_eq!(wheel.next_after(now), heap_next(&heap), "at cycle {now}");
        }
    }

    #[test]
    fn a_slot_of_every_bank_is_taken_in_one_walk() {
        let n = crate::dram::MAX_BANKS as usize;
        let mut w = RetireWheel::new(n, 11, 4);
        for id in (0..n).rev() {
            w.insert(100, 107, id);
        }
        assert_eq!(take_all(&mut w, 107), (0..n).collect::<Vec<_>>());
        assert_eq!(w.next_after(107), u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// 4, 64, 68, 256 and 4096 ids are one, one, two, four and 64
        /// words per slot (1, 16, 17 and 64 cores' ports; the largest
        /// bank count); floods put more than 64 ids into one slot.
        /// Latencies reach the configured worst case (62 and 63 straddle
        /// the one-word summary, 200 needs four words), and the start
        /// cycle puts the first wrap anywhere in the wheel.
        #[test]
        fn wheel_takes_exactly_like_the_heap_calendar(
            ids_pick in 0usize..5,
            worst_pick in 0usize..7,
            raw in raw_ops(),
            start in 0u64..1 << 20,
        ) {
            let n_ids = [4usize, 64, 68, 256, 4096][ids_pick];
            let worst = [1u64, 5, 6, 25, 62, 63, 200][worst_pick];
            let ops: Vec<Op> = raw.iter().map(|&r| op_for(n_ids, worst, r)).collect();
            wheel_matches_heap(n_ids, worst, start, &ops);
        }
    }
}
