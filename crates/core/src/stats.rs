//! Cycle-accurate statistics matching the paper's evaluation.
//!
//! Table II reports, per benchmark at 16 cores, the total cycle count and
//! the mean number of cycles each core spent stalled on: the scan lock, the
//! free lock, header locks, body loads, body stores, header loads and
//! header stores. Table I reports the fraction of cycles during which the
//! work list is empty (`scan == free`). [`GcStats`] captures all of these
//! plus auxiliary counters used by the ablation experiments.

use hwgc_memsim::{FifoStats, MemStats};
use hwgc_sync::SyncStats;

/// Why a core failed to make progress in a given cycle. One reason is
/// recorded per stalled core per cycle, mirroring the paper's monitoring
/// framework which traces each core's stall cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// Waiting for the `scan` lock.
    ScanLock,
    /// Waiting for the `free` lock.
    FreeLock,
    /// Waiting for a header lock held by another core.
    HeaderLock,
    /// Waiting for a body load to complete.
    BodyLoad,
    /// Waiting for the body store buffer to drain.
    BodyStore,
    /// Waiting for a header load to complete.
    HeaderLoad,
    /// Waiting for the header store buffer to drain.
    HeaderStore,
    /// Work list empty (`scan == free`) but other cores still busy: the
    /// core spins. Not a stall in the paper's Table II sense; the basis of
    /// Table I.
    EmptySpin,
    /// Collection finished; waiting for the final buffer flush.
    Drain,
}

impl StallReason {
    /// Number of stall reasons (bus index space).
    pub const COUNT: usize = 9;

    /// Every reason, in index order: the seven Table II classes first,
    /// then the two idle causes (`EmptySpin`, `Drain`).
    pub const ALL: [StallReason; StallReason::COUNT] = [
        StallReason::ScanLock,
        StallReason::FreeLock,
        StallReason::HeaderLock,
        StallReason::BodyLoad,
        StallReason::BodyStore,
        StallReason::HeaderLoad,
        StallReason::HeaderStore,
        StallReason::EmptySpin,
        StallReason::Drain,
    ];

    /// Stable small index for the event bus (reasons travel as `u8` plus a
    /// name function, like microprogram states, so `hwgc-obs` needs no
    /// dependency on this crate).
    pub fn index(self) -> u8 {
        match self {
            StallReason::ScanLock => 0,
            StallReason::FreeLock => 1,
            StallReason::HeaderLock => 2,
            StallReason::BodyLoad => 3,
            StallReason::BodyStore => 4,
            StallReason::HeaderLoad => 5,
            StallReason::HeaderStore => 6,
            StallReason::EmptySpin => 7,
            StallReason::Drain => 8,
        }
    }

    /// The reason at bus index `i` (inverse of [`StallReason::index`]).
    pub fn from_index(i: u8) -> Option<StallReason> {
        StallReason::ALL.get(i as usize).copied()
    }

    /// snake_case display name, matching the `STALL_COLUMNS` /
    /// `hwgc-metrics-v1` naming.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::ScanLock => "scan_lock",
            StallReason::FreeLock => "free_lock",
            StallReason::HeaderLock => "header_lock",
            StallReason::BodyLoad => "body_load",
            StallReason::BodyStore => "body_store",
            StallReason::HeaderLoad => "header_load",
            StallReason::HeaderStore => "header_store",
            StallReason::EmptySpin => "empty_spin",
            StallReason::Drain => "drain",
        }
    }

    /// [`StallReason::name`] by bus index (the bus's `fn(u8)` form;
    /// unknown indices render as `"?"`).
    pub fn name_of(i: u8) -> &'static str {
        StallReason::from_index(i).map_or("?", StallReason::name)
    }
}

/// Per-core stall cycle counts (the columns of Table II).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    pub scan_lock: u64,
    pub free_lock: u64,
    pub header_lock: u64,
    pub body_load: u64,
    pub body_store: u64,
    pub header_load: u64,
    pub header_store: u64,
    pub empty_spin: u64,
    pub drain: u64,
}

impl StallBreakdown {
    /// Record one stalled cycle.
    pub fn record(&mut self, reason: StallReason) {
        self.record_n(reason, 1);
    }

    /// Record `n` stalled cycles with the same cause in one step — used by
    /// the engine's fast-forward to replicate what `n` naive iterations
    /// would have recorded for a core whose stall cannot resolve before
    /// the next memory event.
    pub fn record_n(&mut self, reason: StallReason, n: u64) {
        match reason {
            StallReason::ScanLock => self.scan_lock += n,
            StallReason::FreeLock => self.free_lock += n,
            StallReason::HeaderLock => self.header_lock += n,
            StallReason::BodyLoad => self.body_load += n,
            StallReason::BodyStore => self.body_store += n,
            StallReason::HeaderLoad => self.header_load += n,
            StallReason::HeaderStore => self.header_store += n,
            StallReason::EmptySpin => self.empty_spin += n,
            StallReason::Drain => self.drain += n,
        }
    }

    /// The recorded cycle count for `reason`.
    pub fn get(&self, reason: StallReason) -> u64 {
        match reason {
            StallReason::ScanLock => self.scan_lock,
            StallReason::FreeLock => self.free_lock,
            StallReason::HeaderLock => self.header_lock,
            StallReason::BodyLoad => self.body_load,
            StallReason::BodyStore => self.body_store,
            StallReason::HeaderLoad => self.header_load,
            StallReason::HeaderStore => self.header_store,
            StallReason::EmptySpin => self.empty_spin,
            StallReason::Drain => self.drain,
        }
    }

    /// Element-wise sum.
    pub fn merge(&mut self, o: &StallBreakdown) {
        self.scan_lock += o.scan_lock;
        self.free_lock += o.free_lock;
        self.header_lock += o.header_lock;
        self.body_load += o.body_load;
        self.body_store += o.body_store;
        self.header_load += o.header_load;
        self.header_store += o.header_store;
        self.empty_spin += o.empty_spin;
        self.drain += o.drain;
    }

    /// Total Table-II stall cycles (lock + memory stalls; spinning on an
    /// empty work list and end-of-cycle draining are reported separately,
    /// as in the paper).
    pub fn total_stalls(&self) -> u64 {
        self.scan_lock
            + self.free_lock
            + self.header_lock
            + self.body_load
            + self.body_store
            + self.header_load
            + self.header_store
    }
}

/// Full statistics of one simulated collection cycle.
///
/// `PartialEq` is part of the fast-forward contract: the differential
/// tests compare entire `GcStats` values between the fast-forwarding and
/// the per-cycle reference loop, field for field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Total clock cycles of the collection cycle (Table II "Total").
    pub total_cycles: u64,
    /// Cycles during which `scan == free` — no gray objects were available
    /// for processing (Table I).
    pub empty_worklist_cycles: u64,
    /// Stall cycles summed over all cores.
    pub stall: StallBreakdown,
    /// Stall cycles per core.
    pub per_core: Vec<StallBreakdown>,
    /// Objects evacuated (and later scanned).
    pub objects_copied: u64,
    /// Words copied, headers included.
    pub words_copied: u64,
    /// Pointer slots processed during scanning.
    pub pointers_visited: u64,
    /// Scan claims performed. Equals `objects_copied` at object
    /// granularity; exceeds it when the line-split extension divides
    /// large objects across several claims.
    pub chunks_claimed: u64,
    /// Roots processed by core 1 in the initialization phase.
    pub roots_processed: u64,
    /// Cycles consumed by the sequential root-evacuation phase.
    pub root_phase_cycles: u64,
    /// Header-FIFO effectiveness.
    pub fifo: FifoStats,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Synchronization-block contention counters.
    pub sync: SyncStats,
}

impl GcStats {
    /// FNV-1a digest over the complete statistics: every counter of
    /// every substructure, in the bytes of the canonical `Debug`
    /// rendering (`format!("{self:?}")` — all fields are integers, so the
    /// rendering is exact). The bytes are fed to the hash as they are
    /// produced, and nothing is formatted: the digits byte by byte, the
    /// constant text between them one precomputed step at a time. Two
    /// runs are stats-equivalent iff their digests match; the run ledger
    /// records this as the simulation's output fingerprint. Wall-clock
    /// never enters: `GcStats` carries simulated quantities only.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(FNV_OFFSET);
        text!(h, b"GcStats { total_cycles: ");
        h.u64(self.total_cycles);
        text!(h, b", empty_worklist_cycles: ");
        h.u64(self.empty_worklist_cycles);
        text!(h, b", stall: ");
        h.breakdown(&self.stall);
        text!(h, b", per_core: [");
        for (i, b) in self.per_core.iter().enumerate() {
            if i > 0 {
                h.bytes(b", ");
            }
            h.breakdown(b);
        }
        text!(h, b"], objects_copied: ");
        h.u64(self.objects_copied);
        text!(h, b", words_copied: ");
        h.u64(self.words_copied);
        text!(h, b", pointers_visited: ");
        h.u64(self.pointers_visited);
        text!(h, b", chunks_claimed: ");
        h.u64(self.chunks_claimed);
        text!(h, b", roots_processed: ");
        h.u64(self.roots_processed);
        text!(h, b", root_phase_cycles: ");
        h.u64(self.root_phase_cycles);
        let f = &self.fifo;
        text!(h, b", fifo: FifoStats { pushes: ");
        h.u64(f.pushes);
        text!(h, b", overflows: ");
        h.u64(f.overflows);
        text!(h, b", hits: ");
        h.u64(f.hits);
        text!(h, b", misses: ");
        h.u64(f.misses);
        text!(h, b", max_occupancy: ");
        h.u64(f.max_occupancy as u64);
        let m = &self.mem;
        text!(h, b" }, mem: MemStats { issued: ");
        h.list(&m.issued);
        text!(h, b", comparator_blocked_cycles: ");
        h.u64(m.comparator_blocked_cycles);
        text!(h, b", header_cache_hits: ");
        h.u64(m.header_cache_hits);
        text!(h, b", header_cache_misses: ");
        h.u64(m.header_cache_misses);
        text!(h, b", queue_occupancy_sum: ");
        h.u64(m.queue_occupancy_sum);
        text!(h, b", queue_busy_cycles: ");
        h.u64(m.queue_busy_cycles);
        text!(h, b", cycles: ");
        h.u64(m.cycles);
        match &m.dram {
            None => text!(h, b", dram: None"),
            Some(d) => {
                text!(h, b", dram: Some(DramStats { row_hits: ");
                h.u64(d.row_hits);
                text!(h, b", row_empties: ");
                h.u64(d.row_empties);
                text!(h, b", row_conflicts: ");
                h.u64(d.row_conflicts);
                text!(h, b", bank_accesses: ");
                h.list(&d.bank_accesses);
                text!(h, b", bank_busy_cycles: ");
                h.list(&d.bank_busy_cycles);
                h.bytes(b" })");
            }
        }
        text!(h, b" }, sync: SyncStats { acquisitions: ");
        h.list(&self.sync.acquisitions);
        text!(h, b", failed_attempts: ");
        h.list(&self.sync.failed_attempts);
        h.bytes(b" } }");
        h.0
    }

    /// Fraction of cycles with an empty work list (Table I), in [0, 1].
    pub fn empty_worklist_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.empty_worklist_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Mean fraction of time a core spent stalled on `reason`
    /// (the percentages of Table II).
    pub fn stall_fraction(&self, reason: StallReason) -> f64 {
        let n = self.per_core.len().max(1) as u64;
        let denom = (self.total_cycles * n) as f64;
        if denom == 0.0 {
            return 0.0;
        }
        self.stall.get(reason) as f64 / denom
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a constant byte string in one step.
///
/// A byte only changes the low 8 bits of the state it is XORed into, and
/// the low 8 bits of a product depend only on the low 8 bits of its
/// factors. So hashing `n` fixed bytes from state `h` gives
/// `h * P^n + add[h & 0xff]`: the bytes' effect depends on the incoming
/// state's low byte alone, and is tabulated here for all 256 of them.
struct Segment {
    mul: u64,
    add: [u64; 256],
}

impl Segment {
    const fn of(bytes: &[u8]) -> Segment {
        let mut mul = 1u64;
        let mut i = 0;
        while i < bytes.len() {
            mul = mul.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        let mut add = [0u64; 256];
        let mut low = 0;
        while low < 256 {
            let mut h = low as u64;
            let mut i = 0;
            while i < bytes.len() {
                h = (h ^ bytes[i] as u64).wrapping_mul(FNV_PRIME);
                i += 1;
            }
            add[low] = h.wrapping_sub((low as u64).wrapping_mul(mul));
            low += 1;
        }
        Segment { mul, add }
    }
}

/// Feed the constant text `$text` to the [`Fnv`] state `$h` in one step
/// (see [`Segment`]).
macro_rules! text {
    ($h:expr, $text:literal) => {{
        static SEGMENT: Segment = Segment::of($text);
        $h.segment(&SEGMENT)
    }};
}
use text;

/// FNV-1a state fed the `Debug` text of [`GcStats`] piece by piece.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn segment(&mut self, s: &Segment) {
        self.0 = self
            .0
            .wrapping_mul(s.mul)
            .wrapping_add(s.add[(self.0 & 0xff) as usize]);
    }

    /// `v` in decimal, as `{:?}` writes it.
    fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.bytes(&digits[start..]);
    }

    /// `[a, b, …]`.
    fn list(&mut self, values: &[u64]) {
        self.bytes(b"[");
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.bytes(b", ");
            }
            self.u64(v);
        }
        self.bytes(b"]");
    }

    fn breakdown(&mut self, b: &StallBreakdown) {
        text!(self, b"StallBreakdown { scan_lock: ");
        self.u64(b.scan_lock);
        text!(self, b", free_lock: ");
        self.u64(b.free_lock);
        text!(self, b", header_lock: ");
        self.u64(b.header_lock);
        text!(self, b", body_load: ");
        self.u64(b.body_load);
        text!(self, b", body_store: ");
        self.u64(b.body_store);
        text!(self, b", header_load: ");
        self.u64(b.header_load);
        text!(self, b", header_store: ");
        self.u64(b.header_store);
        text!(self, b", empty_spin: ");
        self.u64(b.empty_spin);
        text!(self, b", drain: ");
        self.u64(b.drain);
        self.bytes(b" }");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut a = StallBreakdown::default();
        a.record(StallReason::ScanLock);
        a.record(StallReason::ScanLock);
        a.record(StallReason::BodyLoad);
        let mut b = StallBreakdown::default();
        b.record(StallReason::HeaderLoad);
        b.merge(&a);
        assert_eq!(b.scan_lock, 2);
        assert_eq!(b.header_load, 1);
        assert_eq!(b.total_stalls(), 4);
    }

    #[test]
    fn empty_spin_not_a_table2_stall() {
        let mut a = StallBreakdown::default();
        a.record(StallReason::EmptySpin);
        a.record(StallReason::Drain);
        assert_eq!(a.total_stalls(), 0);
    }

    #[test]
    fn fractions() {
        let stats = GcStats {
            total_cycles: 100,
            empty_worklist_cycles: 25,
            stall: StallBreakdown {
                scan_lock: 40,
                ..Default::default()
            },
            per_core: vec![StallBreakdown::default(); 2],
            ..Default::default()
        };
        assert!((stats.empty_worklist_fraction() - 0.25).abs() < 1e-12);
        assert!((stats.stall_fraction(StallReason::ScanLock) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn reason_index_round_trips() {
        for (i, reason) in StallReason::ALL.iter().enumerate() {
            assert_eq!(reason.index() as usize, i);
            assert_eq!(StallReason::from_index(i as u8), Some(*reason));
            assert_eq!(StallReason::name_of(i as u8), reason.name());
        }
        assert_eq!(StallReason::from_index(StallReason::COUNT as u8), None);
        assert_eq!(StallReason::name_of(255), "?");
        // The first seven indices are exactly the Table II columns.
        let table2: u64 = StallReason::ALL[..7]
            .iter()
            .map(|r| {
                let mut b = StallBreakdown::default();
                b.record(*r);
                b.total_stalls()
            })
            .sum();
        assert_eq!(table2, 7);
    }

    #[test]
    fn digest_hashes_the_debug_text() {
        let mut stats = GcStats {
            total_cycles: 12_345,
            per_core: vec![StallBreakdown::default(); 3],
            ..Default::default()
        };
        stats.per_core[2].record_n(StallReason::HeaderLock, 7);
        stats.mem.issued[1] = u64::MAX;
        let text = format!("{stats:?}");
        let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(stats.digest(), fnv);
    }

    #[test]
    fn breakdown_get_matches_fields() {
        let mut b = StallBreakdown::default();
        for (n, reason) in StallReason::ALL.iter().enumerate() {
            b.record_n(*reason, n as u64 + 1);
        }
        for (n, reason) in StallReason::ALL.iter().enumerate() {
            assert_eq!(b.get(*reason), n as u64 + 1);
        }
    }

    #[test]
    fn zero_cycles_fractions_are_zero() {
        let stats = GcStats::default();
        assert_eq!(stats.empty_worklist_fraction(), 0.0);
        assert_eq!(stats.stall_fraction(StallReason::ScanLock), 0.0);
    }
}
