//! `GcStats::digest` against its definition: FNV-1a over the `Debug`
//! text of the stats. The digest streams those bytes without formatting
//! them; the oracle here formats them and hashes the text.
//!
//! * arbitrary stats — 1–64 cores, `dram` absent or with 1–256 banks,
//!   counters drawn from 0, `u64::MAX` and everything between — digest
//!   as the oracle does;
//! * three literal digests pin the values every ledger and cache file
//!   records.
//!
//! `PROPTEST_CASES` raises the case count (CI runs this in release with
//! 20000).

use hwgc_core::{GcStats, StallBreakdown, StallReason};
use hwgc_memsim::{DramStats, PORT_COUNT};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// FNV-1a over the `Debug` text: what `GcStats::digest` is defined as.
fn oracle(stats: &GcStats) -> u64 {
    format!("{stats:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A counter: 0, `u64::MAX`, a power of ten either side, or anything.
fn counter(rng: &mut TestRng) -> u64 {
    match rng.next_u64() % 6 {
        0 => 0,
        1 => u64::MAX,
        2 => 10u64.pow((rng.next_u64() % 20) as u32),
        3 => 10u64.pow((rng.next_u64() % 20) as u32) - 1,
        4 => rng.next_u64() % 1000,
        _ => rng.next_u64(),
    }
}

fn breakdown(rng: &mut TestRng) -> StallBreakdown {
    let mut b = StallBreakdown::default();
    for reason in StallReason::ALL {
        b.record_n(reason, counter(rng));
    }
    b
}

fn counters<const N: usize>(rng: &mut TestRng) -> [u64; N] {
    std::array::from_fn(|_| counter(rng))
}

/// Arbitrary `GcStats`.
struct ArbStats;

impl Strategy for ArbStats {
    type Value = GcStats;

    fn generate(&self, rng: &mut TestRng) -> GcStats {
        let mut s = GcStats {
            total_cycles: counter(rng),
            empty_worklist_cycles: counter(rng),
            stall: breakdown(rng),
            per_core: (0..1 + rng.next_u64() % 64)
                .map(|_| breakdown(rng))
                .collect(),
            objects_copied: counter(rng),
            words_copied: counter(rng),
            pointers_visited: counter(rng),
            chunks_claimed: counter(rng),
            roots_processed: counter(rng),
            root_phase_cycles: counter(rng),
            ..GcStats::default()
        };
        let [pushes, overflows, hits, misses, occupancy] = counters::<5>(rng);
        s.fifo.pushes = pushes;
        s.fifo.overflows = overflows;
        s.fifo.hits = hits;
        s.fifo.misses = misses;
        s.fifo.max_occupancy = occupancy as usize;
        s.mem.issued = counters::<PORT_COUNT>(rng);
        [
            s.mem.comparator_blocked_cycles,
            s.mem.header_cache_hits,
            s.mem.header_cache_misses,
            s.mem.queue_occupancy_sum,
            s.mem.queue_busy_cycles,
            s.mem.cycles,
        ] = counters::<6>(rng);
        if rng.next_u64().is_multiple_of(2) {
            let banks = 1 + (rng.next_u64() % 256) as usize;
            s.mem.dram = Some(DramStats {
                row_hits: counter(rng),
                row_empties: counter(rng),
                row_conflicts: counter(rng),
                bank_accesses: (0..banks).map(|_| counter(rng)).collect(),
                bank_busy_cycles: (0..banks).map(|_| counter(rng)).collect(),
            });
        }
        s.sync.acquisitions = counters::<3>(rng);
        s.sync.failed_attempts = counters::<3>(rng);
        s
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn digest_streams_the_debug_text(stats in ArbStats) {
        prop_assert_eq!(stats.digest(), oracle(&stats));
    }
}

/// Stats with every counter at `v`, `cores` cores and, when `banks` is
/// `Some`, DRAM sub-stats.
fn uniform(v: u64, cores: usize, banks: Option<usize>) -> GcStats {
    let mut b = StallBreakdown::default();
    for reason in StallReason::ALL {
        b.record_n(reason, v);
    }
    let mut s = GcStats {
        total_cycles: v,
        empty_worklist_cycles: v,
        stall: b,
        per_core: vec![b; cores],
        objects_copied: v,
        words_copied: v,
        pointers_visited: v,
        chunks_claimed: v,
        roots_processed: v,
        root_phase_cycles: v,
        ..GcStats::default()
    };
    s.fifo.pushes = v;
    s.fifo.max_occupancy = v as usize;
    s.mem.issued = [v; PORT_COUNT];
    s.mem.cycles = v;
    s.mem.dram = banks.map(|n| DramStats {
        row_hits: v,
        row_empties: v,
        row_conflicts: v,
        bank_accesses: vec![v; n],
        bank_busy_cycles: vec![v; n],
    });
    s.sync.acquisitions = [v; 3];
    s.sync.failed_attempts = [v; 3];
    s
}

/// The digests were computed by the `Debug`-formatting implementation
/// the streaming one replaced.
#[test]
fn pinned_digests() {
    let cases = [
        (GcStats::default(), 0x5f87_9f60_d0c5_24d2),
        (uniform(u64::MAX, 16, None), 0xb794_6184_eff9_570a),
        (uniform(1_234_567, 3, Some(8)), 0x499c_93b1_f1d9_cde5),
    ];
    for (stats, want) in &cases {
        assert_eq!(stats.digest(), *want, "{stats:?}");
        assert_eq!(oracle(stats), *want);
    }
}
