//! The bank/row DRAM service model.
//!
//! [`DramMemorySystem`] is the shared request protocol ([`Memory`]: the
//! per-core single-entry port buffers, the comparator array ordering
//! header loads behind matching header stores, the optional header cache
//! and retirement calendar) over the [`Dram`] service model, which
//! replaces the flat `latency` with a row-buffer model over `n_banks`
//! independent banks:
//!
//! * **row hit** — the addressed row is open: `tCAS`;
//! * **row empty** — the bank is precharged: `tRCD + tCAS`;
//! * **row conflict** — another row is open: wait out the remainder of
//!   `tRAS` since that row's activate, then `tRP + tRCD + tCAS`.
//!
//! Addresses map row-interleaved: `row = addr / row_words`,
//! `bank = row % n_banks`, so Cheney's sequentially allocated tospace
//! streams stay inside one open row for `row_words` words — the effect
//! the paper's flat-latency prototype could not measure — while random
//! header traffic scatters across banks.
//!
//! Each bank serves one access at a time (`ready_at`) from its own FIFO
//! queue; a global `bandwidth` cap bounds service starts per cycle, and
//! banks start in index order, so service is deterministic. Under
//! [`PagePolicy::Closed`] every access auto-precharges (`ready_at`
//! extends by `tRP`, the next access is always a row empty).
//!
//! The scheduler is event-driven. Two bit sets over the banks — those
//! with a queued request, and those busy until a `ready_at` in the
//! future — make a tick's service starts a find-first-set walk over
//! `queued & !busy`: work per start, not per bank. The busy set is
//! exact, kept so by a bank-ready calendar: a second timing wheel (see
//! [`crate::wheel`]) holding each busy bank in the slot of its
//! `ready_at`, whose horizon covers the worst service latency plus the
//! closed-page `tRP`. Every tick takes its own slot whole and clears
//! exactly the banks that came free, and a clock jump does the same for
//! every cycle it crosses — nothing walks the busy set. Row and bank of a
//! request are computed once, when it joins its bank queue, through
//! precomputed reciprocals (see [`Reciprocal`]); the row rides in the
//! queue entry.
//!
//! The Figure 6 `extra_latency` knob still applies to every access.
//! `tCAS >= 1` is asserted, so no access retires within its service
//! start tick, and since service starts one tick after issue at the
//! earliest, no queued request can retire within the next tick.
//!
//! # Calendar/fast-forward contracts (see [`crate::MemBackend`])
//!
//! * The earliest service start ([`Service::next_start`]) is exact:
//!   `cycle + 1` if a bank with a queued request is free, else the
//!   earliest `ready_at` of a bank with a queued request (under
//!   [`PagePolicy::Closed`] a bank re-arms `tRP` after its data retired,
//!   so it can come before the next retirement). Every tick before the
//!   activity horizon is a pure wait, and a fast-forward is legal across
//!   them with requests queued: the front end replicates the
//!   queue-occupancy counters in bulk, and nothing else drifts — bank
//!   stamps are absolute and `bank_busy_cycles` is charged at service
//!   start. The engine's all-parked jump therefore skips bank-busy
//!   windows on this backend exactly as it skips retirement waits on the
//!   fixed one.

use std::collections::VecDeque;

use crate::backend::{MemBackendKind, Service};
use crate::system::{MemConfig, MemEvent, Memory, Port, RowOutcome, PORT_COUNT};
use crate::wheel::RetireWheel;

/// Largest supported [`DramConfig::n_banks`]. Each bank owns a queue
/// sized for every port of every core, so the bound only keeps an absurd
/// count (a corrupt worker frame, say) from turning into a giant
/// allocation. [`Dram`]'s constructor asserts it; the job codec rejects
/// frames beyond it.
pub const MAX_BANKS: u32 = 4096;

/// Division of a `u32` by a configuration constant `d >= 1` without a
/// divide instruction: `n / d == ((n + 1) * m) >> 64` with
/// `m = floor((2^64 - 1) / d)`.
///
/// Exact for every `n, d < 2^32`. Write `2^64 - 1 = m*d + r` with
/// `r < d` and `n = q*d + s` with `s < d`; then `(n + 1) * m / 2^64` is
/// `(q + (s + 1)/d) * (1 - e)` with `e = (1 + r) / 2^64 > 0`. That is
/// below `q + 1` because `e > 0`, and at least `q` because
/// `e * (n + 1) <= d * 2^32 / 2^64 < 1 <= s + 1`. Rounding the
/// reciprocal down (and the dividend up) rather than the reciprocal up
/// keeps `m` inside 64 bits for `d = 1` too, so powers of two and one
/// take the same path as every other divisor.
#[derive(Debug, Clone, Copy)]
struct Reciprocal {
    d: u32,
    m: u64,
}

impl Reciprocal {
    fn new(d: u32) -> Reciprocal {
        assert!(d >= 1, "division by zero");
        Reciprocal {
            d,
            m: u64::MAX / u64::from(d),
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    fn div_rem(self, n: u32) -> (u32, u32) {
        let q = (((u128::from(n) + 1) * u128::from(self.m)) >> 64) as u32;
        (q, n - q * self.d)
    }
}

/// Row-buffer page policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Leave the accessed row open (row hits possible; conflicts pay
    /// precharge + activate).
    Open,
    /// Auto-precharge after every access: no hits, no conflicts, every
    /// access is a row empty, and the bank re-arms `tRP` after data.
    Closed,
}

impl PagePolicy {
    /// Parse a policy token from the `HWGC_MEM_BACKEND` grammar.
    pub fn parse(text: &str) -> Option<PagePolicy> {
        match text {
            "open" => Some(PagePolicy::Open),
            "closed" => Some(PagePolicy::Closed),
            _ => None,
        }
    }
}

/// DRAM timing parameters, in core clock cycles.
///
/// The named presets scale the TMS4256-style nanosecond tiers of
/// seritools/picoram's `DramTimingConfig` (150/120/100/80 ns parts)
/// onto the paper's 25 MHz-class core clock (≈25 ns per core cycle,
/// rounded up — the prototype's DDR-SDRAM ran several times faster
/// than the cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Activate-to-column delay (row empty adds this before `t_cas`).
    pub t_rcd: u32,
    /// Column access latency — every access pays at least this.
    pub t_cas: u32,
    /// Precharge time (conflict and closed-page re-arm delay).
    pub t_rp: u32,
    /// Minimum row-active time before a precharge may begin.
    pub t_ras: u32,
    /// Independent banks (row-interleaved mapping).
    pub n_banks: u32,
    /// Words per DRAM row — the unit of row-buffer locality.
    pub row_words: u32,
    /// Open- or closed-page controller policy.
    pub page_policy: PagePolicy,
}

impl Default for DramConfig {
    /// The `100ns` preset with open-page policy: comparable in
    /// random-access cost to the fixed model's default `latency: 5`
    /// (`tRCD + tCAS = 3` on an empty bank, more under conflicts).
    fn default() -> DramConfig {
        DramConfig::preset("100ns").expect("default preset exists")
    }
}

impl DramConfig {
    /// Look up a named timing preset (`150ns`, `120ns`, `100ns`,
    /// `80ns`). All presets use 8 banks, 128-word rows, open page.
    pub fn preset(name: &str) -> Option<DramConfig> {
        let (t_ras, t_cas, t_rcd, t_rp) = match name {
            "150ns" => (6, 3, 1, 4),
            "120ns" => (5, 3, 1, 4),
            "100ns" => (4, 2, 1, 4),
            "80ns" => (4, 2, 1, 3),
            _ => return None,
        };
        Some(DramConfig {
            t_rcd,
            t_cas,
            t_rp,
            t_ras,
            n_banks: 8,
            row_words: 128,
            page_policy: PagePolicy::Open,
        })
    }

    /// The slowest access the row-buffer model can produce: a row
    /// conflict that first waits out all of `tRAS` (before
    /// `extra_latency`; see [`MemConfig::worst_service_latency`]).
    pub fn worst_access_latency(&self) -> u64 {
        [self.t_ras, self.t_rp, self.t_rcd, self.t_cas]
            .into_iter()
            .map(u64::from)
            .sum()
    }
}

/// Bank/row counters, carried in [`crate::MemStats::dram`] (always `Some` for
/// this backend, `None` for the fixed one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Accesses that found their row open.
    pub row_hits: u64,
    /// Accesses to a precharged bank (includes every closed-page
    /// access).
    pub row_empties: u64,
    /// Accesses that had to close another row first.
    pub row_conflicts: u64,
    /// Service starts per bank.
    pub bank_accesses: Vec<u64>,
    /// Cycles each bank spent busy (access in flight or precharging).
    pub bank_busy_cycles: Vec<u64>,
}

impl DramStats {
    /// Total service starts.
    pub fn total_accesses(&self) -> u64 {
        self.row_hits + self.row_empties + self.row_conflicts
    }

    /// Fraction of accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The scheduler's view of 64 consecutive banks.
#[derive(Debug, Clone, Copy, Default)]
struct BankGroup {
    /// Banks whose queue is non-empty.
    queued: u64,
    /// Banks with `ready_at` in the future: set at service start,
    /// cleared by the bank-ready calendar when the clock reaches it.
    busy: u64,
}

/// Per-bank row-buffer and availability state. Timestamps are absolute
/// cycles, so clock jumps (`fast_forward`, `set_cycle`) need no fixup.
#[derive(Debug, Clone, Copy)]
struct Bank {
    /// Currently open row, if any.
    open_row: Option<u32>,
    /// First cycle at which this bank may start another access.
    ready_at: u64,
    /// Cycle the open row's activate was issued (for the `tRAS` floor).
    active_since: u64,
}

/// The bank/row DRAM service model (see the module docs).
#[derive(Debug, Clone)]
pub struct Dram {
    dram: DramConfig,
    /// Per-bank service queues, FIFO within a bank: `(core, port, row)`.
    bank_queues: Vec<VecDeque<(u16, Port, u32)>>,
    /// Total requests across all bank queues.
    queued_total: usize,
    /// The scheduler's two bit sets, bank `b` at bit `b % 64` of group
    /// `b / 64`. Sized for [`MAX_BANKS`] and kept inline — the scheduler
    /// reads them every tick — with only the first `n_groups` in use.
    bank_groups: [BankGroup; (MAX_BANKS / 64) as usize],
    n_groups: usize,
    /// The bank-ready calendar: every busy bank in the slot of its
    /// `ready_at`. Its slot words line up with `bank_groups`, so freeing
    /// a slot's banks is one AND-NOT per group.
    bank_ready: RetireWheel,
    /// `addr / row_words`.
    row_of: Reciprocal,
    /// `row % n_banks`.
    bank_of_row: Reciprocal,
    banks: Vec<Bank>,
}

/// The bank/row DRAM backend.
pub type DramMemorySystem = Memory<Dram>;

impl Dram {
    /// `(bank, row)` of `addr` under the row-interleaved map.
    #[inline]
    fn locate(&self, addr: u32) -> (usize, u32) {
        let (row, _) = self.row_of.div_rem(addr);
        let (_, bank) = self.bank_of_row.div_rem(row);
        (bank as usize, row)
    }

    /// Resolve one access to `row` against bank `b`'s row buffer at
    /// cycle `now`: returns the service latency (before `extra_latency`)
    /// and the row outcome, and commits the bank's new row/timing state
    /// for an access completing at `now + latency (+ extra)`.
    fn access_bank(&mut self, b: usize, row: u32, now: u64) -> (u32, RowOutcome) {
        let bank = &mut self.banks[b];
        match self.dram.page_policy {
            PagePolicy::Closed => (self.dram.t_rcd + self.dram.t_cas, RowOutcome::Empty),
            PagePolicy::Open => match bank.open_row {
                Some(open) if open == row => (self.dram.t_cas, RowOutcome::Hit),
                Some(_) => {
                    // Precharge may only begin once the open row has
                    // been active for `tRAS`; pay the remainder first.
                    let ras_rest =
                        (bank.active_since + self.dram.t_ras as u64).saturating_sub(now) as u32;
                    let latency = ras_rest + self.dram.t_rp + self.dram.t_rcd + self.dram.t_cas;
                    bank.open_row = Some(row);
                    bank.active_since = now + (ras_rest + self.dram.t_rp) as u64;
                    (latency, RowOutcome::Conflict)
                }
                None => {
                    bank.open_row = Some(row);
                    bank.active_since = now;
                    (self.dram.t_rcd + self.dram.t_cas, RowOutcome::Empty)
                }
            },
        }
    }

    /// Drop the banks whose `ready_at` is `cycle` from the busy set: the
    /// bank-ready calendar's slot, taken whole.
    #[inline]
    fn free_banks(&mut self, cycle: u64) {
        let mut freed = self.bank_ready.take(cycle);
        while let Some((g, banks)) = freed.next_word(&mut self.bank_ready) {
            self.bank_groups[g].busy &= !banks;
        }
    }

    /// Start the access at the head of free bank `b`'s queue.
    fn start_service(m: &mut Memory<Dram>, b: usize) {
        let now = m.cycle;
        let d = &mut m.service;
        let (core, port, row) = d.bank_queues[b]
            .pop_front()
            .expect("queued bit set on an empty bank queue");
        d.queued_total -= 1;
        let left_behind = d.bank_queues[b].len() as u32;
        if left_behind == 0 {
            d.bank_groups[b / 64].queued &= !(1 << (b % 64));
        }
        let (row_latency, outcome) = d.access_bank(b, row, now);
        let latency = row_latency + m.cfg.extra_latency;
        debug_assert!(latency >= 1, "tCAS >= 1 forbids zero-latency service");
        let done_at = now + u64::from(latency);
        let ready_at = match d.dram.page_policy {
            PagePolicy::Open => done_at,
            PagePolicy::Closed => done_at + u64::from(d.dram.t_rp),
        };
        d.banks[b].ready_at = ready_at;
        d.bank_groups[b / 64].busy |= 1 << (b % 64);
        d.bank_ready.insert(now, ready_at, b);
        let dstats = m.stats.dram.as_mut().expect("dram stats present");
        match outcome {
            RowOutcome::Hit => dstats.row_hits += 1,
            RowOutcome::Empty => dstats.row_empties += 1,
            RowOutcome::Conflict => dstats.row_conflicts += 1,
        }
        dstats.bank_accesses[b] += 1;
        dstats.bank_busy_cycles[b] += ready_at - now;
        m.log(MemEvent::DramAccess {
            core: u32::from(core),
            port,
            bank: b as u32,
            outcome,
            bank_queue: left_behind,
        });
        m.start(usize::from(core), port, latency);
    }
}

impl Service for Dram {
    /// Timing comes from `cfg.backend` when it is
    /// [`MemBackendKind::Dram`], otherwise from [`DramConfig::default`].
    fn new(n_cores: usize, cfg: &MemConfig) -> Dram {
        let dram = match cfg.backend {
            MemBackendKind::Dram(d) => d,
            MemBackendKind::Fixed => DramConfig::default(),
        };
        assert!(dram.t_cas >= 1, "tCAS must be at least one cycle");
        assert!(dram.n_banks >= 1, "need at least one bank");
        assert!(
            dram.n_banks <= MAX_BANKS,
            "n_banks {} exceeds the supported maximum {MAX_BANKS}",
            dram.n_banks
        );
        assert!(dram.row_words >= 1, "rows must hold at least one word");
        let n_banks = dram.n_banks as usize;
        // A bank comes free at its access's retirement, or `tRP` after
        // it under the closed-page policy.
        let precharge = match dram.page_policy {
            PagePolicy::Open => 0,
            PagePolicy::Closed => dram.t_rp,
        };
        let worst_latency = dram.worst_access_latency() + u64::from(cfg.extra_latency);
        // Built in a loop, not `vec![..; n]`: cloning a `VecDeque` does
        // not preserve capacity, and the steady-state loop must never
        // grow these (the engine's no-alloc test counts).
        let queue_cap = n_cores * PORT_COUNT + PORT_COUNT;
        let mut bank_queues = Vec::with_capacity(n_banks);
        bank_queues.resize_with(n_banks, || VecDeque::with_capacity(queue_cap));
        Dram {
            dram,
            bank_queues,
            queued_total: 0,
            bank_groups: [BankGroup::default(); (MAX_BANKS / 64) as usize],
            n_groups: n_banks.div_ceil(64),
            bank_ready: RetireWheel::new(n_banks, worst_latency, precharge),
            row_of: Reciprocal::new(dram.row_words),
            bank_of_row: Reciprocal::new(dram.n_banks),
            banks: vec![
                Bank {
                    open_row: None,
                    ready_at: 0,
                    active_since: 0,
                };
                n_banks
            ],
        }
    }

    fn worst_access_latency(&self) -> u64 {
        self.dram.worst_access_latency()
    }

    fn dram_stats(&self) -> Option<DramStats> {
        let n_banks = self.banks.len();
        Some(DramStats {
            bank_accesses: vec![0; n_banks],
            bank_busy_cycles: vec![0; n_banks],
            ..DramStats::default()
        })
    }

    /// Append the request to its bank's queue. Never `true`: service
    /// starts a tick after issue at the earliest and lasts at least
    /// `tCAS >= 1` cycles.
    #[inline]
    fn enqueue(&mut self, core: usize, port: Port, addr: u32) -> bool {
        let (bank, row) = self.locate(addr);
        self.bank_queues[bank].push_back((core as u16, port, row));
        self.bank_groups[bank / 64].queued |= 1 << (bank % 64);
        self.queued_total += 1;
        false
    }

    #[inline]
    fn queued(&self) -> usize {
        self.queued_total
    }

    /// The banks whose `ready_at` is this cycle come free; free banks
    /// with a queued request start service, in bank index order, up to
    /// `bandwidth` starts per cycle.
    #[inline]
    fn serve(m: &mut Memory<Dram>) {
        m.service.free_banks(m.cycle);
        if m.service.queued_total == 0 {
            return;
        }
        let mut budget = m.cfg.bandwidth;
        'banks: for g in 0..m.service.n_groups {
            // A start only touches its own bank's bits, so the snapshot
            // stays valid through the walk.
            let group = m.service.bank_groups[g];
            let mut startable = group.queued & !group.busy;
            while startable != 0 {
                if budget == 0 {
                    break 'banks;
                }
                budget -= 1;
                let b = g * 64 + startable.trailing_zeros() as usize;
                startable &= startable - 1;
                Dram::start_service(m, b);
            }
        }
    }

    /// A bank outside the busy set is free now; one inside it frees at
    /// its `ready_at`, which is in the future (the busy set is exact).
    fn next_start(&self, cycle: u64) -> u64 {
        let mut at = u64::MAX;
        for (g, group) in self.bank_groups[..self.n_groups].iter().enumerate() {
            if group.queued & !group.busy != 0 {
                return cycle + 1;
            }
            let mut waiting = group.queued;
            while waiting != 0 {
                let b = g * 64 + waiting.trailing_zeros() as usize;
                waiting &= waiting - 1;
                at = at.min(self.banks[b].ready_at);
            }
        }
        at
    }

    /// The banks whose `ready_at` the skipped cycles reach come free,
    /// exactly as the ticks would have freed them — a closed-page bank
    /// may still be precharging with nothing queued.
    fn advance(&mut self, from: u64, to: u64) {
        let mut at = self.bank_ready.next_after(from);
        while at <= to {
            self.free_banks(at);
            at = self.bank_ready.next_after(at);
        }
    }

    /// A root header fetch lands on a precharged bank: activate + column
    /// access (`extra_latency` excluded, as in the fixed backend).
    fn uncontended_read_latency(&self) -> u32 {
        self.dram.t_rcd + self.dram.t_cas
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::backend::MemBackend;

    fn dram_cfg() -> DramConfig {
        DramConfig {
            t_rcd: 2,
            t_cas: 2,
            t_rp: 3,
            t_ras: 6,
            n_banks: 4,
            row_words: 16,
            page_policy: PagePolicy::Open,
        }
    }

    fn mem(n: usize) -> DramMemorySystem {
        DramMemorySystem::new(
            n,
            MemConfig {
                bandwidth: 2,
                backend: MemBackendKind::Dram(dram_cfg()),
                ..MemConfig::default()
            },
        )
    }

    fn dstats(m: &DramMemorySystem) -> &DramStats {
        m.stats.dram.as_ref().unwrap()
    }

    #[test]
    fn row_empty_then_hit_then_conflict() {
        let mut m = mem(1);
        // Cold bank: empty access, tRCD + tCAS = 4.
        assert!(m.try_issue(0, Port::BodyLoad, 0).issued());
        m.tick(); // service starts at cycle 1, done at 5
        for _ in 0..3 {
            m.tick();
            assert!(!m.load_ready(0, Port::BodyLoad));
        }
        m.tick(); // cycle 5
        assert!(m.load_ready(0, Port::BodyLoad));
        assert_eq!(m.consume_load(0, Port::BodyLoad), 0);
        assert_eq!(dstats(&m).row_empties, 1);

        // Same row: hit, tCAS = 2.
        assert!(m.try_issue(0, Port::BodyLoad, 1).issued());
        m.tick(); // start at 6, done at 8
        m.tick();
        m.tick();
        assert!(m.load_ready(0, Port::BodyLoad));
        m.consume_load(0, Port::BodyLoad);
        assert_eq!(dstats(&m).row_hits, 1);

        // Different row, same bank (row 4 = addr 64 maps to bank 0):
        // conflict.
        assert!(m.try_issue(0, Port::BodyLoad, 64).issued());
        let before = m.cycle();
        while !m.load_ready(0, Port::BodyLoad) {
            m.tick();
            assert!(m.cycle() < before + 32);
        }
        m.consume_load(0, Port::BodyLoad);
        assert_eq!(dstats(&m).row_conflicts, 1);
        // Conflict paid at least tRP + tRCD + tCAS beyond the start.
        assert!(m.cycle() - before >= (3 + 2 + 2) as u64);
    }

    #[test]
    fn conflict_waits_out_t_ras() {
        let mut m = mem(1);
        // Activate row 0 at its service start.
        assert!(m.try_issue(0, Port::BodyLoad, 0).issued());
        m.tick(); // activate at cycle 1, done at 5 (tRAS runs to 7)
        for _ in 0..4 {
            m.tick();
        }
        m.consume_load(0, Port::BodyLoad);
        // Conflict right away: precharge can only start at
        // active_since + tRAS = 1 + 6 = 7.
        assert!(m.try_issue(0, Port::BodyLoad, 64).issued());
        m.tick(); // start at cycle 6: ras_rest = 1
                  // latency = 1 + 3 + 2 + 2 = 8 → done at 14.
        while !m.load_ready(0, Port::BodyLoad) {
            m.tick();
        }
        assert_eq!(m.cycle(), 14);
    }

    #[test]
    fn closed_page_never_hits_and_rearms_with_t_rp() {
        let mut m = DramMemorySystem::new(
            1,
            MemConfig {
                bandwidth: 2,
                backend: MemBackendKind::Dram(DramConfig {
                    page_policy: PagePolicy::Closed,
                    ..dram_cfg()
                }),
                ..MemConfig::default()
            },
        );
        for round in 0..2 {
            assert!(m.try_issue(0, Port::BodyLoad, round).issued());
            while !m.load_ready(0, Port::BodyLoad) {
                m.tick();
            }
            m.consume_load(0, Port::BodyLoad);
        }
        assert_eq!(dstats(&m).row_hits, 0);
        assert_eq!(dstats(&m).row_empties, 2);
        // Second access could not start while the bank precharged: its
        // done time shows the tRP gap. First: start 1, done 5, bank
        // ready 8. Second issued at 5, bank busy until 8 → starts at 8,
        // done at 12.
        assert_eq!(m.cycle(), 12);
    }

    #[test]
    fn banks_serve_in_parallel_under_bandwidth() {
        // Two accesses to different banks both start on the first tick
        // (bandwidth 2), so they retire together.
        let mut m = mem(2);
        assert!(m.try_issue(0, Port::BodyLoad, 0).issued()); // bank 0
        assert!(m.try_issue(1, Port::BodyLoad, 16).issued()); // bank 1
        for _ in 0..5 {
            m.tick();
        }
        assert!(m.load_ready(0, Port::BodyLoad));
        assert!(m.load_ready(1, Port::BodyLoad));
    }

    #[test]
    fn one_access_in_flight_per_bank() {
        // Two accesses to the same row of the same bank: the second
        // waits for the bank even though global bandwidth allows it.
        let mut m = mem(2);
        assert!(m.try_issue(0, Port::BodyLoad, 0).issued());
        assert!(m.try_issue(1, Port::BodyLoad, 1).issued());
        for _ in 0..5 {
            m.tick();
        }
        // First: start 1 (empty, 4) → done 5. Second: bank ready at 5,
        // starts at 5 (hit, 2) → done 7.
        assert!(m.load_ready(0, Port::BodyLoad));
        assert!(!m.load_ready(1, Port::BodyLoad));
        m.tick();
        m.tick();
        assert!(m.load_ready(1, Port::BodyLoad));
    }

    #[test]
    fn comparator_orders_header_load_after_store() {
        let mut m = mem(2);
        assert!(m.try_issue(0, Port::HeaderStore, 42).issued());
        assert!(m.try_issue(1, Port::HeaderLoad, 42).issued());
        assert!(m.header_store_pending(42));
        while m.header_store_pending(42) {
            assert!(!m.load_ready(1, Port::HeaderLoad), "load bypassed store");
            m.tick();
        }
        while !m.load_ready(1, Port::HeaderLoad) {
            m.tick();
        }
        assert!(m.stats().comparator_blocked_cycles > 0);
        m.consume_load(1, Port::HeaderLoad);
        assert!(m.all_idle());
    }

    #[test]
    fn sequential_body_stream_stays_in_the_open_row() {
        // A Cheney-style sequential scan: after the first (empty)
        // access, every following word in the row is a hit.
        let mut m = mem(1);
        for addr in 0..8u32 {
            assert!(m.try_issue(0, Port::BodyLoad, addr).issued());
            while !m.load_ready(0, Port::BodyLoad) {
                m.tick();
            }
            m.consume_load(0, Port::BodyLoad);
        }
        assert_eq!(dstats(&m).row_empties, 1);
        assert_eq!(dstats(&m).row_hits, 7);
    }

    #[test]
    fn horizon_contracts_match_the_fixed_model_shape() {
        let mut m = mem(1);
        assert_eq!(m.next_activity_cycle(), None, "idle system is quiet");
        assert!(m.try_issue(0, Port::BodyLoad, 0).issued());
        assert_eq!(m.next_activity_cycle(), Some(m.cycle() + 1), "bank free");
        m.tick(); // start at 1, done at 5
        assert_eq!(m.next_activity_cycle(), Some(5), "in service");
        // A second request behind the access in service (same bank, same
        // row) cannot start before the bank frees at that retirement:
        // the horizon stays there, and the wait can be skipped.
        assert!(m.try_issue(0, Port::BodyStore, 1).issued());
        assert_eq!(m.next_activity_cycle(), Some(5), "not cycle + 1");
        m.fast_forward(5 - 1 - m.cycle());
        assert_eq!(m.stats().queue_occupancy_sum, 1 + 3, "one request, 3 ticks");
        assert_eq!(m.stats().queue_busy_cycles, 1 + 3);
        m.tick(); // load retires, store starts (row hit): done at 7
        assert!(m.load_ready(0, Port::BodyLoad));
        assert_eq!(
            m.next_activity_cycle(),
            Some(7),
            "the completed load does not block the jump"
        );
        m.fast_forward(7 - 1 - m.cycle());
        m.tick();
        assert!(!m.port_busy(0, Port::BodyStore));
        assert_eq!(
            m.next_activity_cycle(),
            None,
            "completed load awaiting its owner is not future activity"
        );
        m.consume_load(0, Port::BodyLoad);
        assert_eq!(dstats(&m).bank_busy_cycles, [4 + 2, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn a_bank_count_past_the_maximum_is_refused() {
        DramMemorySystem::new(
            1,
            MemConfig::default().with_backend(MemBackendKind::Dram(DramConfig {
                n_banks: MAX_BANKS + 1,
                ..dram_cfg()
            })),
        );
    }

    #[test]
    fn reciprocal_division_is_exact() {
        let corners = [
            0,
            1,
            2,
            3,
            (1 << 16) - 1,
            1 << 16,
            (1 << 31) - 1,
            1 << 31,
            u32::MAX - 1,
            u32::MAX,
        ];
        for d in corners.into_iter().filter(|&d| d > 0) {
            let r = Reciprocal::new(d);
            for n in corners {
                // Around every multiple boundary the corner induces, too.
                for n in [n, (n / d * d).saturating_sub(1), n / d * d] {
                    assert_eq!(r.div_rem(n), (n / d, n % d), "{n} / {d}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

        /// Divisors of every magnitude (`d >> shift`), dividends over
        /// the whole range.
        #[test]
        fn reciprocal_matches_divide_and_modulo(
            n in 0u32..=u32::MAX,
            d in 1u32..=u32::MAX,
            shift in 0u32..32,
        ) {
            let d = (d >> shift).max(1);
            prop_assert_eq!(Reciprocal::new(d).div_rem(n), (n / d, n % d));
        }
    }

    #[test]
    fn fast_forward_is_bit_exact_against_naive_ticks() {
        let run = |ff: bool| {
            let mut m = mem(2);
            m.enable_event_log();
            assert!(m.try_issue(0, Port::HeaderStore, 42).issued());
            assert!(m.try_issue(1, Port::HeaderLoad, 42).issued());
            m.tick(); // store starts; load blocked
            if ff {
                let horizon = MemBackend::next_activity_cycle(&m).expect("in service");
                let jump = horizon - 1 - m.cycle();
                MemBackend::fast_forward(&mut m, jump);
            }
            while !m.load_ready(1, Port::HeaderLoad) {
                m.tick();
            }
            m.consume_load(1, Port::HeaderLoad);
            (m.take_event_log(), MemBackend::into_stats(m))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn wake_feed_reports_retirements() {
        let mut m = mem(2);
        m.enable_wake_feed();
        assert!(m.try_issue(0, Port::BodyLoad, 0).issued()); // bank 0
        assert!(m.try_issue(1, Port::BodyStore, 16).issued()); // bank 1
        m.tick(); // both start (bandwidth 2): done at 5
        assert_eq!(m.take_wakes(), [0; PORT_COUNT], "nothing retired yet");
        for _ in 0..4 {
            m.tick();
        }
        let mut expected = [0; PORT_COUNT];
        expected[Port::BodyLoad as usize] = 1 << 0;
        expected[Port::BodyStore as usize] = 1 << 1;
        assert_eq!(m.take_wakes(), expected);
        assert_eq!(m.take_wakes(), [0; PORT_COUNT], "taking clears");
        m.consume_load(0, Port::BodyLoad);
        assert!(m.all_idle());
    }

    #[test]
    fn oldest_inflight_age_reads_the_issue_stamps() {
        let mut m = mem(2);
        assert_eq!(m.oldest_inflight_age(), None);
        assert!(m.try_issue(0, Port::BodyLoad, 0).issued()); // cycle 0
        m.tick(); // row empty: in service from 1, done at 5
        assert!(m.try_issue(1, Port::BodyStore, 1).issued()); // cycle 1
        assert_eq!(m.oldest_inflight_age(), Some(1));
        // The store waits behind the busy bank: jump to the cycle before
        // the load retires.
        m.fast_forward(5 - 1 - m.cycle());
        assert_eq!(m.oldest_inflight_age(), Some(4));
        m.tick(); // cycle 5: the load retires, the store starts (hit): done at 7
        m.consume_load(0, Port::BodyLoad);
        assert_eq!(m.oldest_inflight_age(), Some(4));
        m.tick();
        m.tick(); // cycle 7: the store retires
        assert_eq!(m.oldest_inflight_age(), None);
    }

    #[test]
    fn event_log_records_dram_access_outcomes() {
        let mut m = mem(1);
        m.enable_event_log();
        assert!(m.try_issue(0, Port::BodyLoad, 0).issued());
        while !m.load_ready(0, Port::BodyLoad) {
            m.tick();
        }
        m.consume_load(0, Port::BodyLoad);
        let events = m.take_event_log();
        let access = events
            .iter()
            .find_map(|r| match r.event {
                MemEvent::DramAccess {
                    bank,
                    outcome,
                    bank_queue,
                    ..
                } => Some((bank, outcome, bank_queue)),
                _ => None,
            })
            .expect("DramAccess logged");
        assert_eq!(access, (0, RowOutcome::Empty, 0));
        // The DramAccess immediately precedes its ServiceStart.
        let pos = events
            .iter()
            .position(|r| matches!(r.event, MemEvent::DramAccess { .. }))
            .unwrap();
        assert!(matches!(
            events[pos + 1].event,
            MemEvent::ServiceStart { latency: 4, .. }
        ));
    }

    #[test]
    fn extra_latency_applies_to_every_access() {
        let mut m = DramMemorySystem::new(
            1,
            MemConfig {
                bandwidth: 2,
                backend: MemBackendKind::Dram(dram_cfg()),
                ..MemConfig::default()
            }
            .with_extra_latency(20),
        );
        assert!(m.try_issue(0, Port::BodyLoad, 0).issued());
        m.tick(); // start at 1: empty (4) + 20 → done at 25
        while !m.load_ready(0, Port::BodyLoad) {
            m.tick();
        }
        assert_eq!(m.cycle(), 25);
    }

    #[test]
    fn preset_table_is_monotone_in_speed_grade() {
        let presets: Vec<DramConfig> = ["150ns", "120ns", "100ns", "80ns"]
            .iter()
            .map(|n| DramConfig::preset(n).unwrap())
            .collect();
        for pair in presets.windows(2) {
            let (slow, fast) = (&pair[0], &pair[1]);
            assert!(fast.t_ras <= slow.t_ras);
            assert!(fast.t_cas <= slow.t_cas);
            assert!(fast.t_rp <= slow.t_rp);
        }
        assert_eq!(DramConfig::preset("60ns"), None);
    }
}
