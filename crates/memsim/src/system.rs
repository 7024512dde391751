//! The request protocol, and the fixed latency/bandwidth service model.
//!
//! [`Memory`] is the one front end of both memory backends (paper
//! Section V-D): the per-core port buffers and their issue stamps, the
//! comparator array that holds a header load behind a pending header
//! store to the same address, the shared header cache, the retirement
//! calendar, the statistics, the sparse engine's wake feed and the event
//! log. The one thing it leaves to its [`Service`] model is how a queued
//! request is served: [`Fixed`] (here, the paper's regime) or
//! [`Dram`](crate::Dram) (bank/row timing).

use std::collections::VecDeque;

use crate::backend::{backend_from, MemBackend, MemBackendKind, Service};
use crate::dram::DramStats;
use crate::wheel::RetireWheel;

/// Memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Cycles from service start to completion for *random* accesses
    /// (header traffic, and the first word of a body stream). The FPGA
    /// prototype's DDR-SDRAM ran at ≥4× the 25 MHz core clock, so its
    /// latency was "a few clock cycles"; Figure 6 adds an artificial +20
    /// to every access.
    pub latency: u32,
    /// Requests that may begin service per core cycle (bandwidth). The
    /// prototype's memory clock ratio gives it several transfers per core
    /// cycle.
    pub bandwidth: u32,
    /// Capacity of the on-chip header FIFO (prototype: up to 32k entries).
    pub header_fifo_capacity: usize,
    /// Extra latency applied to *every* access on top of any burst
    /// shortcut — the Figure 6 "artificial latency" knob.
    pub extra_latency: u32,
    /// Extension 2 (paper conclusions, item 2): a shared, direct-mapped,
    /// write-through header cache at the memory interface. Header loads
    /// that hit complete in one cycle without a DRAM request. `0`
    /// disables it (the paper's baseline).
    pub header_cache_entries: usize,
    /// Schedule-exploration knob: when set, DRAM starts service for queued
    /// requests in a seeded pseudo-random order instead of FIFO arrival
    /// order. Any service order is legal — the only architectural ordering
    /// requirement (header loads after matching header stores) is enforced
    /// by the comparator array *before* a request enters the queue — so a
    /// functional difference under reordering is a collector bug. `None`
    /// (the default) keeps FIFO service. Fixed backend only; the DRAM
    /// backend's service order is its per-bank FIFO discipline.
    pub service_reorder_seed: Option<u64>,
    /// Which timing backend the engine instantiates (see
    /// [`crate::MemBackend`]). Defaults from the `HWGC_MEM_BACKEND`
    /// environment knob ([`backend_from`] documents the grammar);
    /// [`MemorySystem`] ignores this field — it *is* the
    /// [`MemBackendKind::Fixed`] implementation — and
    /// [`DramMemorySystem`](crate::DramMemorySystem) takes its timings
    /// from it.
    pub backend: MemBackendKind,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        // Prototype-like regime: latency of a few core cycles and a memory
        // clock several times the core clock (Section VI-A), i.e. enough
        // bandwidth that ~a dozen active cores saturate it — which is what
        // bounds the paper's 16-core speedup at 12.1×.
        MemConfig {
            latency: 5,
            bandwidth: 10,
            header_fifo_capacity: 4096,
            extra_latency: 0,
            header_cache_entries: 0,
            service_reorder_seed: None,
            backend: backend_from(std::env::var("HWGC_MEM_BACKEND").ok().as_deref()),
        }
    }
}

impl MemConfig {
    /// The Figure 6 experiment: add cycles of artificial latency to every
    /// memory access (bursts included — the paper delays each access).
    pub fn with_extra_latency(mut self, extra: u32) -> MemConfig {
        self.extra_latency = extra;
        self
    }

    /// Serve the DRAM queue in a seeded pseudo-random order (schedule
    /// exploration; see [`MemConfig::service_reorder_seed`]).
    pub fn with_service_reorder(mut self, seed: u64) -> MemConfig {
        self.service_reorder_seed = Some(seed);
        self
    }

    /// Select the memory-timing backend (see [`MemBackendKind`]).
    pub fn with_backend(mut self, backend: MemBackendKind) -> MemConfig {
        self.backend = backend;
        self
    }

    /// The most cycles any access can spend between service start and
    /// retirement under the selected backend: `latency` (fixed) or a row
    /// conflict that waits out all of `tRAS` (DRAM), plus the artificial
    /// `extra_latency`. Sizes the retirement wheel and is bounded by
    /// [`crate::MAX_SERVICE_LATENCY`]; `u64`, so the sum of `u32` fields
    /// cannot overflow.
    pub fn worst_service_latency(&self) -> u64 {
        let access = match self.backend {
            MemBackendKind::Fixed => u64::from(self.latency),
            MemBackendKind::Dram(d) => d.worst_access_latency(),
        };
        access + u64::from(self.extra_latency)
    }
}

/// One of the four per-core buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Port {
    HeaderLoad = 0,
    HeaderStore = 1,
    BodyLoad = 2,
    BodyStore = 3,
}

/// Number of ports per core.
pub const PORT_COUNT: usize = 4;

impl Port {
    /// All ports, in index order.
    pub const ALL: [Port; PORT_COUNT] = [
        Port::HeaderLoad,
        Port::HeaderStore,
        Port::BodyLoad,
        Port::BodyStore,
    ];

    /// Is this a load port?
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, Port::HeaderLoad | Port::BodyLoad)
    }
}

/// What [`MemBackend::try_issue`] made of a request: refused, or taken
/// together with what the backend already knows about its retirement —
/// whether the state that waits on it can possibly find it retired when
/// it retries next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// The `(core, port)` buffer is still busy: nothing was issued, the
    /// core stalls.
    Busy,
    /// Issued, and it may retire within the next tick — or already has
    /// (a header-cache hit completes at issue).
    Soon,
    /// Issued, and it cannot retire within the next tick: every retry
    /// that waits on it stalls at least once.
    Later,
}

impl Issue {
    /// Was the request taken?
    #[inline]
    pub fn issued(self) -> bool {
        self != Issue::Busy
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    /// Header load waiting for a matching header store (comparator array).
    Blocked,
    /// Waiting in the service model's queue.
    Queued,
    /// In service; its retirement is on the calendar.
    InService,
    /// Load data sitting in the buffer, not yet consumed by the core.
    Complete,
}

/// The transaction in a port buffer: its address and state, 8 bytes —
/// four ports to half a cache line. Whatever the service model needs to
/// time it rides in the model's queue entry instead.
#[derive(Debug, Clone, Copy)]
struct Txn {
    addr: u32,
    state: TxnState,
}

/// One memory-system transition, as recorded by the opt-in event log (see
/// [`MemBackend::enable_event_log`]). Every variant is a *transition* —
/// something changed — so fast-forward windows (which are transition-free
/// by construction: empty queue, nothing retiring, no core issuing or
/// consuming) never need to replicate events, and the log stays bit-exact
/// under event-horizon skipping without pinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// A request entered the `(core, port)` buffer.
    Issue { core: u32, port: Port, addr: u32 },
    /// The comparator array held a header load behind a pending header
    /// store to the same address (at issue time).
    CompBlocked { core: u32, addr: u32 },
    /// The matching store retired; the held load joined the DRAM queue.
    CompUnblocked { core: u32, addr: u32 },
    /// A header load hit the shared header cache and completed on-chip.
    CacheHit { core: u32, addr: u32 },
    /// DRAM began serving the request; it completes `latency` cycles
    /// later (`0` = burst continuation, complete within this cycle).
    ServiceStart { core: u32, port: Port, latency: u32 },
    /// The transaction left DRAM: load data ready / store committed.
    Retire { core: u32, port: Port },
    /// The owning core consumed waiting load data, freeing the buffer.
    Consume { core: u32, port: Port },
    /// DRAM backend only: a service start resolved against the row
    /// buffer of `bank` with the given `outcome`; `bank_queue` requests
    /// were still waiting in that bank's queue afterwards. Emitted
    /// immediately before the matching [`MemEvent::ServiceStart`], and
    /// *never* by the fixed backend — existing event streams and golden
    /// files are byte-identical through the trait refactor.
    DramAccess {
        core: u32,
        port: Port,
        bank: u32,
        outcome: RowOutcome,
        bank_queue: u32,
    },
}

/// How a DRAM access resolved against its bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// The addressed row was already open: column access only (`tCAS`).
    Hit,
    /// The bank was precharged (no open row): activate + column access
    /// (`tRCD + tCAS`). Every closed-page access resolves here.
    Empty,
    /// Another row was open: precharge (after `tRAS` expires) +
    /// activate + column access.
    Conflict,
}

impl RowOutcome {
    /// Display name (metric key segment).
    pub fn name(self) -> &'static str {
        match self {
            RowOutcome::Hit => "hit",
            RowOutcome::Empty => "empty",
            RowOutcome::Conflict => "conflict",
        }
    }
}

/// A [`MemEvent`] stamped with the memory-system cycle it occurred in
/// (kept equal to the engine's cycle numbering via
/// [`MemBackend::set_cycle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEventRecord {
    pub cycle: u64,
    pub event: MemEvent,
}

/// Aggregate statistics of the memory system.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Transactions issued per port kind (indexed by `Port as usize`).
    pub issued: [u64; PORT_COUNT],
    /// Cycles a header load spent blocked behind a matching store.
    pub comparator_blocked_cycles: u64,
    /// Header-cache hits (loads served on-chip).
    pub header_cache_hits: u64,
    /// Header-cache misses (loads that went to DRAM while the cache was
    /// enabled).
    pub header_cache_misses: u64,
    /// Cumulative DRAM queue occupancy (for mean queue depth).
    pub queue_occupancy_sum: u64,
    /// Cycles with at least one request waiting for DRAM service.
    pub queue_busy_cycles: u64,
    /// Total cycles observed.
    pub cycles: u64,
    /// Bank/row counters — `Some` only when the DRAM backend produced
    /// these stats, so fixed-backend `GcStats` comparisons (and every
    /// committed golden) are untouched by the backend boundary.
    pub dram: Option<DramStats>,
}

impl MemStats {
    /// Mean number of requests waiting for DRAM service per cycle.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.queue_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Total transactions issued.
    pub fn total_issued(&self) -> u64 {
        self.issued.iter().sum()
    }
}

/// The split-transaction memory system: per-core single-entry buffers in
/// front of the service model `S`, with the comparator array that orders
/// header loads after matching header stores (see the module docs; the
/// methods are [`MemBackend`]'s).
#[derive(Debug, Clone)]
pub struct Memory<S> {
    pub(crate) cfg: MemConfig,
    pub(crate) cycle: u64,
    /// `ports[core][port]`.
    ports: Vec<[Option<Txn>; PORT_COUNT]>,
    /// Issue cycle of the transaction in `(core, port)`, at index
    /// `core * PORT_COUNT + port` — read only by the deadlock diagnostic
    /// [`MemBackend::oldest_inflight_age`], so kept out of the records
    /// the tick walks.
    issued_at: Vec<u64>,
    /// Pending header-store addresses (comparator array). Tiny: at most one
    /// entry per core.
    pending_header_stores: Vec<u32>,
    /// Shared direct-mapped header cache: tag (header address) per set.
    /// Timing-only — data always comes from the functional heap; the
    /// cache is write-through and therefore coherent by construction.
    header_cache: Vec<Option<u32>>,
    pub(crate) stats: MemStats,
    // Derived occupancy counters so the per-cycle tick touches no port
    // buffer unless something can actually change. Invariants:
    // `occupied` = number of `Some` port entries, `blocked` / `complete`
    // = entries in the corresponding `TxnState`, and `next_retire` =
    // earliest retirement cycle among in-service transactions
    // (`u64::MAX` when none).
    occupied: usize,
    blocked: usize,
    complete: usize,
    next_retire: u64,
    /// Retirement calendar: one entry per in-service transaction, id
    /// `core * PORT_COUNT + port` in the slot of its retirement cycle
    /// (see [`crate::wheel`]). A retire cycle takes exactly the
    /// transactions that are due, the whole slot at once, instead of
    /// scanning every port buffer and then rescanning to recompute
    /// `next_retire` — the scans were O(cores × ports) on nearly every
    /// cycle at 16 cores, and dominated the whole simulator (see
    /// DESIGN.md "profiling the simulator"). Within a cycle the slot's
    /// bit order reproduces the old scan's `(core, port)` retire order
    /// exactly (ports are declared in index order).
    retire_cal: RetireWheel,
    /// Set when a pending header store retired; the comparator re-check
    /// can only unblock a load on such a cycle.
    pending_stores_dirty: bool,
    /// Sparse-engine wake feed, on or off.
    wake_feed: bool,
    /// With the feed on: bit `c` of entry `p` is set when a transaction
    /// of core `c` on port `p` retired since the engine last took the
    /// masks. A core parked on a memory stall re-ticks when the port it
    /// waits on shows up here — that retirement is the only event that
    /// can make its retry succeed.
    wakes: [u64; PORT_COUNT],
    /// Cycle-stamped transition log; `None` (the default) records nothing
    /// and costs nothing.
    events: Option<Vec<MemEventRecord>>,
    /// How queued requests are served.
    pub(crate) service: S,
}

/// The fixed latency/bandwidth backend — the paper's regime.
pub type MemorySystem = Memory<Fixed>;

impl<S: Service> Memory<S> {
    /// Memory system serving `n_cores` cores.
    pub fn new(n_cores: usize, cfg: MemConfig) -> Memory<S> {
        assert!(cfg.bandwidth > 0, "bandwidth must be positive");
        // The service models key their queues by `u16` core ids.
        assert!(
            n_cores <= usize::from(u16::MAX) + 1,
            "{n_cores} cores exceed the memory system's 16-bit core ids"
        );
        let service = S::new(n_cores, &cfg);
        let worst_latency = service.worst_access_latency() + u64::from(cfg.extra_latency);
        Memory {
            cfg,
            cycle: 0,
            ports: vec![[None; PORT_COUNT]; n_cores],
            issued_at: vec![0; n_cores * PORT_COUNT],
            // Preallocated to the architectural maximum so the
            // steady-state loop never allocates: one pending header store
            // per core, plus the mutator's slot.
            pending_header_stores: Vec::with_capacity(n_cores + 1),
            header_cache: vec![None; cfg.header_cache_entries],
            stats: MemStats {
                dram: service.dram_stats(),
                ..MemStats::default()
            },
            occupied: 0,
            blocked: 0,
            complete: 0,
            next_retire: u64::MAX,
            retire_cal: RetireWheel::new(n_cores * PORT_COUNT, worst_latency, 0),
            pending_stores_dirty: false,
            wake_feed: false,
            wakes: [0; PORT_COUNT],
            events: None,
            service,
        }
    }

    /// Is a header store to `addr` pending (comparator array view)?
    #[inline]
    pub fn header_store_pending(&self, addr: u32) -> bool {
        self.pending_header_stores.contains(&addr)
    }

    #[inline]
    fn push_wake(&mut self, core: usize, port: Port) {
        if self.wake_feed {
            self.wakes[port as usize] |= 1 << core;
        }
    }

    #[inline]
    pub(crate) fn log(&mut self, event: MemEvent) {
        if let Some(events) = &mut self.events {
            events.push(MemEventRecord {
                cycle: self.cycle,
                event,
            });
        }
    }

    #[inline]
    fn cache_lookup(&mut self, addr: u32) -> bool {
        if self.header_cache.is_empty() {
            return false;
        }
        let set = addr as usize % self.header_cache.len();
        if self.header_cache[set] == Some(addr) {
            self.stats.header_cache_hits += 1;
            true
        } else {
            self.stats.header_cache_misses += 1;
            false
        }
    }

    #[inline]
    fn cache_fill(&mut self, addr: u32) {
        if self.header_cache.is_empty() {
            return;
        }
        let set = addr as usize % self.header_cache.len();
        self.header_cache[set] = Some(addr);
    }

    /// The service model starts the queued `(core, port)` transaction
    /// this tick; it retires `latency` cycles later. Latency `0` is a
    /// burst continuation: the open-row access completes within this
    /// memory cycle, so the data is ready when the core ticks.
    #[inline]
    pub(crate) fn start(&mut self, core: usize, port: Port, latency: u32) {
        self.log(MemEvent::ServiceStart {
            core: core as u32,
            port,
            latency,
        });
        let txn = self.ports[core][port as usize]
            .as_mut()
            .expect("queued transaction must exist");
        debug_assert_eq!(txn.state, TxnState::Queued);
        txn.state = TxnState::InService;
        if latency == 0 {
            self.retire(core, port);
            return;
        }
        let done_at = self.cycle + u64::from(latency);
        self.retire_cal
            .insert(self.cycle, done_at, core * PORT_COUNT + port as usize);
        self.next_retire = self.next_retire.min(done_at);
    }

    /// `(core, port)`'s in-service transaction leaves DRAM: load data
    /// ready, or the store committed and its buffer freed.
    #[inline]
    fn retire(&mut self, core: usize, port: Port) {
        let entry = &mut self.ports[core][port as usize];
        if port.is_load() {
            entry.as_mut().expect("retiring a missing load").state = TxnState::Complete;
            self.complete += 1;
        } else {
            let txn = entry.take().expect("retiring a missing store");
            self.occupied -= 1;
            if port == Port::HeaderStore {
                let pending = &mut self.pending_header_stores;
                let idx = pending
                    .iter()
                    .position(|&a| a == txn.addr)
                    .expect("pending store missing");
                pending.swap_remove(idx);
                self.pending_stores_dirty = true;
            }
        }
        self.log(MemEvent::Retire {
            core: core as u32,
            port,
        });
        self.push_wake(core, port);
    }

    /// Account `k` ticks in which nothing retires, starts or unblocks:
    /// the clock, and the per-tick counters of whatever stays blocked or
    /// queued.
    fn skip(&mut self, k: u64) {
        self.service.advance(self.cycle, self.cycle + k);
        self.cycle += k;
        self.stats.cycles += k;
        self.stats.comparator_blocked_cycles += k * self.blocked as u64;
        let queued = self.service.queued() as u64;
        if queued > 0 {
            self.stats.queue_occupancy_sum += k * queued;
            self.stats.queue_busy_cycles += k;
        }
    }
}

impl<S: Service> MemBackend for Memory<S> {
    fn new_backend(n_cores: usize, cfg: MemConfig) -> Memory<S> {
        Memory::new(n_cores, cfg)
    }

    #[inline]
    fn tick(&mut self) {
        self.cycle += 1;
        self.stats.cycles += 1;

        // 1. Retire in-service transactions that are done: take this
        // cycle's slot of the retirement calendar whole and walk it (its
        // bit order retires ties in the same `(core, port)` order the old
        // full port scan produced). `next_retire` is the calendar's
        // minimum, so cycles with nothing to retire cost one comparison.
        if self.next_retire <= self.cycle {
            debug_assert_eq!(self.next_retire, self.cycle, "a retirement was skipped");
            let mut due = self.retire_cal.take(self.cycle);
            while let Some((w, mut ids)) = due.next_word(&mut self.retire_cal) {
                while ids != 0 {
                    let id = 64 * w + ids.trailing_zeros() as usize;
                    ids &= ids - 1;
                    self.retire(id / PORT_COUNT, Port::ALL[id % PORT_COUNT]);
                }
            }
            self.next_retire = self.retire_cal.next_after(self.cycle);
        }

        // 2. Unblock header loads (comparator array re-check). A blocked
        // load can only unblock on a cycle where a pending header store
        // retired; otherwise every blocked load just re-counts.
        if self.blocked > 0 {
            if self.pending_stores_dirty {
                for core in 0..self.ports.len() {
                    if let Some(txn) = &mut self.ports[core][Port::HeaderLoad as usize] {
                        if txn.state == TxnState::Blocked {
                            if self.pending_header_stores.contains(&txn.addr) {
                                self.stats.comparator_blocked_cycles += 1;
                            } else {
                                txn.state = TxnState::Queued;
                                let addr = txn.addr;
                                self.blocked -= 1;
                                self.service.enqueue(core, Port::HeaderLoad, addr);
                                self.log(MemEvent::CompUnblocked {
                                    core: core as u32,
                                    addr,
                                });
                            }
                        }
                    }
                }
            } else {
                // No store retired since the last re-check: every blocked
                // load is still blocked (its matching store is still
                // pending), exactly as the scan would conclude.
                self.stats.comparator_blocked_cycles += self.blocked as u64;
            }
        }
        self.pending_stores_dirty = false;

        // 3. The service model starts what it can.
        let queued = self.service.queued() as u64;
        if queued > 0 {
            self.stats.queue_occupancy_sum += queued;
            self.stats.queue_busy_cycles += 1;
        }
        S::serve(self);
    }

    #[inline]
    fn try_issue(&mut self, core: usize, port: Port, addr: u32) -> Issue {
        if self.ports[core][port as usize].is_some() {
            return Issue::Busy;
        }
        self.issued_at[core * PORT_COUNT + port as usize] = self.cycle;
        self.occupied += 1;
        self.stats.issued[port as usize] += 1;
        self.log(MemEvent::Issue {
            core: core as u32,
            port,
            addr,
        });
        let (state, issue) = if port == Port::HeaderLoad && self.header_store_pending(addr) {
            // Comparator array: ordered behind the store regardless of
            // any cached copy, and `Later` at any latency (contract
            // obligation 5 in `backend.rs` says why).
            self.blocked += 1;
            self.log(MemEvent::CompBlocked {
                core: core as u32,
                addr,
            });
            (TxnState::Blocked, Issue::Later)
        } else if port == Port::HeaderLoad && self.cache_lookup(addr) {
            // Header-cache hit: served on-chip, no DRAM bandwidth
            // consumed, complete at issue.
            self.complete += 1;
            self.log(MemEvent::CacheHit {
                core: core as u32,
                addr,
            });
            (TxnState::Complete, Issue::Soon)
        } else {
            if port == Port::HeaderStore {
                self.pending_header_stores.push(addr);
            }
            if matches!(port, Port::HeaderLoad | Port::HeaderStore) {
                // A missing load's returning line fills the cache (tag
                // set at issue; the model is timing-only); a store writes
                // through.
                self.cache_fill(addr);
            }
            let soon = self.service.enqueue(core, port, addr);
            let issue = if soon { Issue::Soon } else { Issue::Later };
            (TxnState::Queued, issue)
        };
        self.ports[core][port as usize] = Some(Txn { addr, state });
        issue
    }

    #[inline]
    fn port_busy(&self, core: usize, port: Port) -> bool {
        self.ports[core][port as usize].is_some()
    }

    #[inline]
    fn load_ready(&self, core: usize, port: Port) -> bool {
        assert!(port.is_load());
        matches!(
            self.ports[core][port as usize],
            Some(Txn {
                state: TxnState::Complete,
                ..
            })
        )
    }

    #[inline]
    fn consume_load(&mut self, core: usize, port: Port) -> u32 {
        assert!(port.is_load());
        let txn = self.ports[core][port as usize]
            .take()
            .expect("no load in buffer");
        assert_eq!(
            txn.state,
            TxnState::Complete,
            "load consumed before completion"
        );
        self.occupied -= 1;
        self.complete -= 1;
        self.log(MemEvent::Consume {
            core: core as u32,
            port,
        });
        txn.addr
    }

    #[inline]
    fn all_idle(&self) -> bool {
        self.occupied == 0
    }

    #[inline]
    fn next_activity_cycle(&self) -> Option<u64> {
        if self.pending_stores_dirty {
            return Some(self.cycle + 1);
        }
        let mut next = self.next_retire;
        if self.service.queued() > 0 {
            next = next.min(self.service.next_start(self.cycle));
        }
        (next != u64::MAX).then_some(next)
    }

    #[inline]
    fn fast_forward(&mut self, k: u64) {
        debug_assert!(
            self.next_activity_cycle()
                .is_none_or(|at| self.cycle + k < at),
            "fast-forward of {k} cycles from {} over a retirement, service start or re-check",
            self.cycle
        );
        self.skip(k);
    }

    #[inline]
    fn stream_window(&self, streams: &[usize]) -> Option<u64> {
        S::stream_window(self, streams)
    }

    #[inline]
    fn apply_stream_window(&mut self, streams: &[usize], k: u64) {
        S::apply_stream_window(self, streams, k)
    }

    fn set_cycle(&mut self, cycle: u64) {
        assert!(cycle >= self.cycle, "memory clock may not go backwards");
        assert!(
            self.occupied == 0 && self.service.queued() == 0,
            "set_cycle with traffic in flight"
        );
        self.service.advance(self.cycle, cycle);
        self.cycle = cycle;
    }

    #[inline]
    fn cycle(&self) -> u64 {
        self.cycle
    }

    #[inline]
    fn uncontended_read_latency(&self) -> u32 {
        self.service.uncontended_read_latency()
    }

    fn enable_event_log(&mut self) {
        self.events = Some(Vec::new());
    }

    #[inline]
    fn event_log_enabled(&self) -> bool {
        self.events.is_some()
    }

    fn take_event_log(&mut self) -> Vec<MemEventRecord> {
        self.events.take().unwrap_or_default()
    }

    fn enable_wake_feed(&mut self) {
        assert!(self.ports.len() <= 64, "wake masks hold at most 64 cores");
        self.wake_feed = true;
    }

    #[inline]
    fn take_wakes(&mut self) -> [u64; PORT_COUNT] {
        std::mem::take(&mut self.wakes)
    }

    #[inline]
    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn into_stats(self) -> MemStats {
        self.stats
    }

    #[inline]
    fn queue_len(&self) -> usize {
        self.service.queued()
    }

    fn oldest_inflight_age(&self) -> Option<u64> {
        (0..self.issued_at.len())
            .filter(|&id| self.ports[id / PORT_COUNT][id % PORT_COUNT].is_some())
            .map(|id| self.cycle.saturating_sub(self.issued_at[id]))
            .max()
    }
}

/// The fixed latency/bandwidth service model: one queue, served in
/// arrival order (or a seeded random order under
/// [`MemConfig::service_reorder_seed`]), up to `bandwidth` starts per
/// tick, each retiring a latency after its start that is decided exactly
/// when the request joins the queue. Body accesses that continue their
/// port's sequential stream complete at burst speed (`0`, within the
/// tick that starts their service), header accesses and stream starts
/// pay the full random-access latency, and the Figure 6 artificial
/// latency is added to everything. Nothing can change that answer
/// before service starts: a body port's burst tracker moves only at
/// that port's own issue, and a port re-issues only after its previous
/// transaction retired.
#[derive(Debug, Clone)]
pub struct Fixed {
    /// [`MemConfig::latency`].
    latency: u32,
    /// [`MemConfig::extra_latency`].
    extra_latency: u32,
    /// Service queue: `(core, port, latency)`.
    queue: VecDeque<(u16, Port, u32)>,
    /// Address of the previous access per core and body port
    /// (load/store), for the sequential-burst fast path: bodies are
    /// streamed, so an access to `prev + 1` hits the open DRAM row /
    /// continues the burst.
    last_body_addr: Vec<[Option<u32>; 2]>,
    /// xorshift state for out-of-order queue service (`None` = FIFO).
    reorder_state: Option<u64>,
}

impl Fixed {
    /// Pop the next request to serve: FIFO normally, a seeded random pick
    /// under `service_reorder_seed`.
    #[inline]
    fn pop(&mut self) -> Option<(u16, Port, u32)> {
        match self.reorder_state.as_mut() {
            None => self.queue.pop_front(),
            Some(state) => {
                if self.queue.is_empty() {
                    return None;
                }
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                self.queue.remove(*state as usize % self.queue.len())
            }
        }
    }
}

impl Service for Fixed {
    fn new(n_cores: usize, cfg: &MemConfig) -> Fixed {
        Fixed {
            latency: cfg.latency,
            extra_latency: cfg.extra_latency,
            // At most one outstanding request per (core, port), plus the
            // mutator's ports: the steady-state loop never grows it.
            queue: VecDeque::with_capacity(n_cores * PORT_COUNT + PORT_COUNT),
            last_body_addr: vec![[None; 2]; n_cores],
            reorder_state: cfg.service_reorder_seed.map(|s| s | 1),
        }
    }

    fn worst_access_latency(&self) -> u64 {
        u64::from(self.latency)
    }

    #[inline]
    fn enqueue(&mut self, core: usize, port: Port, addr: u32) -> bool {
        let mut latency = self.latency;
        if let Port::BodyLoad | Port::BodyStore = port {
            let last = &mut self.last_body_addr[core][usize::from(port == Port::BodyStore)];
            if *last == Some(addr.wrapping_sub(1)) {
                latency = 0;
            }
            *last = Some(addr);
        }
        latency += self.extra_latency;
        self.queue.push_back((core as u16, port, latency));
        latency == 0
    }

    #[inline]
    fn queued(&self) -> usize {
        self.queue.len()
    }

    #[inline]
    fn serve(m: &mut Memory<Fixed>) {
        for _ in 0..m.cfg.bandwidth {
            let Some((core, port, latency)) = m.service.pop() else {
                break;
            };
            m.start(usize::from(core), port, latency);
        }
    }

    #[inline]
    fn next_start(&self, cycle: u64) -> u64 {
        cycle + 1
    }

    fn uncontended_read_latency(&self) -> u32 {
        self.latency
    }

    /// `None` unless the replay is exact: event log off (each tick would
    /// log four transitions per stream), FIFO service, no comparator re-check pending, no
    /// completed load waiting for a frozen core, and the queue holding
    /// precisely the stream pairs `(c, BodyStore), (c, BodyLoad)` in tick
    /// order, within the bandwidth, every one a zero-latency burst
    /// continuation. In such a tick the service serves exactly those
    /// pairs and the cores re-issue the same pairs one word further. The
    /// bound stops one tick short of the next retirement — with the
    /// queue holding only the stream pairs and no re-check pending, that
    /// is the activity horizon the streams leave behind: until then
    /// nothing but the streams moves, and blocked header loads merely
    /// re-count.
    fn stream_window(m: &Memory<Fixed>, streams: &[usize]) -> Option<u64> {
        let queue = &m.service.queue;
        if m.events.is_some()
            || m.service.reorder_state.is_some()
            || m.pending_stores_dirty
            || m.complete > 0
            || queue.len() != 2 * streams.len()
            || queue.len() > m.cfg.bandwidth as usize
        {
            return None;
        }
        let in_pattern = streams.iter().enumerate().all(|(i, &c)| {
            queue[2 * i] == (c as u16, Port::BodyStore, 0)
                && queue[2 * i + 1] == (c as u16, Port::BodyLoad, 0)
        });
        let limit = m.next_retire - 1 - m.cycle;
        (in_pattern && limit > 0).then_some(limit)
    }

    /// Each replayed tick found the stream pairs queued, served both
    /// halves within the tick and saw them re-issued one word further:
    /// the queued transactions, their issue stamps and the burst
    /// trackers shift by `k`, and the per-tick counters are replicated in
    /// bulk. With the wake feed on, each stream's body ports retired in
    /// every replayed tick, so their bits join the wake masks.
    fn apply_stream_window(m: &mut Memory<Fixed>, streams: &[usize], k: u64) {
        debug_assert!(
            Fixed::stream_window(m, streams).is_some_and(|limit| k <= limit),
            "stream window of {k} ticks applied beyond its bound"
        );
        m.skip(k);
        let words = u32::try_from(k).expect("stream window longer than the address space");
        for &c in streams {
            for (port, slot) in [(Port::BodyLoad, 0), (Port::BodyStore, 1)] {
                m.stats.issued[port as usize] += k;
                let txn = m.ports[c][port as usize]
                    .as_mut()
                    .expect("stream transaction must exist");
                txn.addr += words;
                m.service.last_body_addr[c][slot] = Some(txn.addr);
                m.issued_at[c * PORT_COUNT + port as usize] += k;
                m.push_wake(c, port);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(n: usize) -> MemorySystem {
        MemorySystem::new(
            n,
            MemConfig {
                latency: 3,
                bandwidth: 2,
                header_fifo_capacity: 16,
                ..MemConfig::default()
            },
        )
    }

    #[test]
    fn load_completes_after_latency() {
        let mut m = mem(1);
        assert!(m.try_issue(0, Port::BodyLoad, 100).issued());
        assert!(!m.load_ready(0, Port::BodyLoad));
        m.tick(); // service starts at cycle 1, completes at 4
        assert!(!m.load_ready(0, Port::BodyLoad));
        m.tick();
        m.tick();
        assert!(!m.load_ready(0, Port::BodyLoad));
        m.tick(); // cycle 4
        assert!(m.load_ready(0, Port::BodyLoad));
        assert_eq!(m.consume_load(0, Port::BodyLoad), 100);
        assert!(m.all_idle());
    }

    #[test]
    fn port_busy_until_consumed() {
        let mut m = mem(1);
        assert!(m.try_issue(0, Port::BodyLoad, 1).issued());
        assert!(
            !m.try_issue(0, Port::BodyLoad, 2).issued(),
            "buffer holds previous load"
        );
        for _ in 0..10 {
            m.tick();
        }
        assert!(m.load_ready(0, Port::BodyLoad));
        assert!(
            !m.try_issue(0, Port::BodyLoad, 2).issued(),
            "unconsumed data still occupies buffer"
        );
        m.consume_load(0, Port::BodyLoad);
        assert!(m.try_issue(0, Port::BodyLoad, 2).issued());
    }

    #[test]
    fn store_buffer_frees_on_completion() {
        let mut m = mem(1);
        assert!(m.try_issue(0, Port::BodyStore, 5).issued());
        assert!(!m.try_issue(0, Port::BodyStore, 6).issued());
        for _ in 0..4 {
            m.tick();
        }
        assert!(m.all_idle());
        assert!(m.try_issue(0, Port::BodyStore, 6).issued());
    }

    #[test]
    fn bandwidth_limits_service_starts() {
        // 3 cores each issue a body load; bandwidth 2 ⇒ the third is
        // serviced one cycle later.
        let mut m = mem(3);
        for c in 0..3 {
            assert!(m.try_issue(c, Port::BodyLoad, c as u32).issued());
        }
        for _ in 0..4 {
            m.tick();
        }
        // Cores 0 and 1 started at cycle 1 → done at cycle 4.
        assert!(m.load_ready(0, Port::BodyLoad));
        assert!(m.load_ready(1, Port::BodyLoad));
        assert!(
            !m.load_ready(2, Port::BodyLoad),
            "third request started a cycle later"
        );
        m.tick();
        assert!(m.load_ready(2, Port::BodyLoad));
    }

    #[test]
    fn comparator_array_orders_header_load_after_store() {
        let mut m = mem(2);
        assert!(m.try_issue(0, Port::HeaderStore, 42).issued());
        assert!(m.try_issue(1, Port::HeaderLoad, 42).issued());
        assert!(m.header_store_pending(42));
        // Store: starts cycle 1, done cycle 4. Load blocked until then,
        // queued cycle 5 (after the tick notices), done cycle 5+3.
        for _ in 0..4 {
            m.tick();
        }
        assert!(!m.header_store_pending(42));
        assert!(
            !m.load_ready(1, Port::HeaderLoad),
            "load must not bypass the store"
        );
        for _ in 0..4 {
            m.tick();
        }
        assert!(m.load_ready(1, Port::HeaderLoad));
        assert!(m.stats().comparator_blocked_cycles > 0);
    }

    #[test]
    fn header_load_to_other_address_not_blocked() {
        let mut m = mem(2);
        assert!(m.try_issue(0, Port::HeaderStore, 42).issued());
        assert!(m.try_issue(1, Port::HeaderLoad, 43).issued());
        for _ in 0..4 {
            m.tick();
        }
        assert!(m.load_ready(1, Port::HeaderLoad));
    }

    #[test]
    fn independent_ports_of_one_core() {
        let mut m = mem(1);
        assert!(m.try_issue(0, Port::HeaderLoad, 1).issued());
        assert!(m.try_issue(0, Port::HeaderStore, 2).issued());
        assert!(m.try_issue(0, Port::BodyLoad, 3).issued());
        assert!(m.try_issue(0, Port::BodyStore, 4).issued());
        assert!(!m.all_idle());
        for _ in 0..12 {
            m.tick();
        }
        m.consume_load(0, Port::HeaderLoad);
        m.consume_load(0, Port::BodyLoad);
        assert!(m.all_idle());
        assert_eq!(m.stats().total_issued(), 4);
    }

    #[test]
    #[should_panic(expected = "load consumed before completion")]
    fn consuming_incomplete_load_panics() {
        let mut m = mem(1);
        m.try_issue(0, Port::BodyLoad, 9);
        m.consume_load(0, Port::BodyLoad);
    }

    #[test]
    fn horizon_is_earliest_completion() {
        let mut m = mem(2); // latency 3, bandwidth 2
        assert_eq!(m.next_activity_cycle(), None, "idle system is quiet");
        assert!(m.try_issue(0, Port::BodyLoad, 10).issued());
        assert_eq!(m.next_activity_cycle(), Some(m.cycle() + 1), "queued");
        m.tick(); // service starts at cycle 1, completes at 4
        assert!(m.try_issue(1, Port::BodyStore, 20).issued());
        assert_eq!(m.next_activity_cycle(), Some(2), "new request is queued");
        m.tick(); // second service starts: done at 5
        assert_eq!(m.next_activity_cycle(), Some(4));
        // Fast-forward to just before the horizon, then tick normally.
        m.fast_forward(4 - 1 - m.cycle());
        assert_eq!(m.cycle(), 3);
        m.tick();
        assert!(m.load_ready(0, Port::BodyLoad));
        m.consume_load(0, Port::BodyLoad);
        assert_eq!(m.next_activity_cycle(), Some(5));
        m.tick();
        assert!(m.all_idle());
    }

    #[test]
    fn completed_load_does_not_block_the_horizon() {
        let mut m = mem(2); // latency 3, bandwidth 2
        assert!(m.try_issue(0, Port::BodyLoad, 10).issued());
        for _ in 0..3 {
            m.tick(); // in service from 1, done at 4
        }
        assert!(m.try_issue(1, Port::BodyStore, 20).issued());
        m.tick(); // the load retires, the store starts: done at 7
        assert!(m.load_ready(0, Port::BodyLoad));
        // The load waits for its owner's tick, which no memory tick
        // changes: the store's retirement is the next activity, and the
        // wait up to it is a jump.
        assert_eq!(m.next_activity_cycle(), Some(7));
        let mut ticked = m.clone();
        ticked.tick();
        ticked.tick();
        m.fast_forward(2);
        assert_eq!(m.stats(), ticked.stats());
        m.tick();
        assert!(m.load_ready(0, Port::BodyLoad));
        assert!(!m.port_busy(1, Port::BodyStore), "the store retired at 7");
    }

    #[test]
    fn fast_forward_replicates_comparator_blocking() {
        let mut m = mem(2);
        assert!(m.try_issue(0, Port::HeaderStore, 42).issued());
        assert!(m.try_issue(1, Port::HeaderLoad, 42).issued());
        m.tick(); // store in service (done at 4); load blocked
        let naive = {
            let mut n = m.clone();
            let mut ticks = 0;
            while !n.load_ready(1, Port::HeaderLoad) {
                n.tick();
                ticks += 1;
                assert!(ticks < 32);
            }
            n.stats().clone()
        };
        // Fast-forwarded: skip to one cycle before the store retires.
        let horizon = m.next_activity_cycle().expect("store in service");
        m.fast_forward(horizon - 1 - m.cycle());
        while !m.load_ready(1, Port::HeaderLoad) {
            m.tick();
        }
        assert_eq!(m.stats(), &naive);
    }

    #[test]
    fn event_log_off_by_default_and_opt_in() {
        let mut m = mem(1);
        assert!(!m.event_log_enabled());
        assert!(m.try_issue(0, Port::BodyLoad, 1).issued());
        for _ in 0..5 {
            m.tick();
        }
        m.consume_load(0, Port::BodyLoad);
        assert!(m.take_event_log().is_empty());
    }

    #[test]
    fn event_log_records_transaction_lifecycle() {
        let mut m = mem(1); // latency 3
        m.enable_event_log();
        assert!(m.try_issue(0, Port::BodyLoad, 7).issued());
        for _ in 0..4 {
            m.tick();
        }
        m.consume_load(0, Port::BodyLoad);
        let events = m.take_event_log();
        assert_eq!(
            events,
            vec![
                MemEventRecord {
                    cycle: 0,
                    event: MemEvent::Issue {
                        core: 0,
                        port: Port::BodyLoad,
                        addr: 7
                    }
                },
                MemEventRecord {
                    cycle: 1,
                    event: MemEvent::ServiceStart {
                        core: 0,
                        port: Port::BodyLoad,
                        latency: 3
                    }
                },
                MemEventRecord {
                    cycle: 4,
                    event: MemEvent::Retire {
                        core: 0,
                        port: Port::BodyLoad
                    }
                },
                MemEventRecord {
                    cycle: 4,
                    event: MemEvent::Consume {
                        core: 0,
                        port: Port::BodyLoad
                    }
                },
            ]
        );
    }

    #[test]
    fn event_log_records_comparator_block_and_unblock() {
        let mut m = mem(2);
        m.enable_event_log();
        assert!(m.try_issue(0, Port::HeaderStore, 42).issued());
        assert!(m.try_issue(1, Port::HeaderLoad, 42).issued());
        while !m.load_ready(1, Port::HeaderLoad) {
            m.tick();
        }
        let events = m.take_event_log();
        let blocked = events
            .iter()
            .position(|r| matches!(r.event, MemEvent::CompBlocked { core: 1, addr: 42 }));
        let unblocked = events
            .iter()
            .position(|r| matches!(r.event, MemEvent::CompUnblocked { core: 1, addr: 42 }));
        let store_retire = events.iter().position(|r| {
            matches!(
                r.event,
                MemEvent::Retire {
                    core: 0,
                    port: Port::HeaderStore
                }
            )
        });
        assert!(blocked.unwrap() < store_retire.unwrap());
        assert!(store_retire.unwrap() < unblocked.unwrap());
    }

    #[test]
    fn event_log_is_bit_exact_under_fast_forward() {
        // Dead-wait windows are transition-free, so skipping them must not
        // change the recorded stream.
        let run = |ff: bool| {
            let mut m = mem(1);
            m.enable_event_log();
            assert!(m.try_issue(0, Port::BodyLoad, 9).issued());
            m.tick(); // service starts; done at 1 + 3 = 4
            if ff {
                let horizon = m.next_activity_cycle().expect("in service");
                m.fast_forward(horizon - 1 - m.cycle());
            }
            while !m.load_ready(0, Port::BodyLoad) {
                m.tick();
            }
            m.consume_load(0, Port::BodyLoad);
            (m.take_event_log(), m.into_stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn set_cycle_aligns_the_clock() {
        let mut m = mem(1);
        m.enable_event_log();
        m.set_cycle(100);
        assert_eq!(m.cycle(), 100);
        assert!(m.try_issue(0, Port::BodyLoad, 3).issued());
        assert_eq!(m.take_event_log()[0].cycle, 100);
    }

    #[test]
    #[should_panic(expected = "16-bit core ids")]
    fn core_ids_past_sixteen_bits_are_refused() {
        MemorySystem::new(usize::from(u16::MAX) + 2, MemConfig::default());
    }

    #[test]
    #[should_panic(expected = "traffic in flight")]
    fn set_cycle_with_traffic_panics() {
        let mut m = mem(1);
        assert!(m.try_issue(0, Port::BodyLoad, 3).issued());
        m.set_cycle(50);
    }

    #[test]
    fn queue_stats_accumulate() {
        let mut m = mem(4);
        for c in 0..4 {
            m.try_issue(c, Port::BodyLoad, c as u32);
        }
        m.tick();
        assert!(m.stats().queue_busy_cycles >= 1);
        assert!(m.stats().mean_queue_depth() > 0.0);
    }

    #[test]
    fn reordered_service_completes_every_request() {
        let mut m = MemorySystem::new(
            6,
            MemConfig {
                latency: 3,
                bandwidth: 1,
                header_fifo_capacity: 16,
                ..MemConfig::default()
            }
            .with_service_reorder(0xC0FFEE),
        );
        for c in 0..6 {
            assert!(m.try_issue(c, Port::BodyLoad, 100 + 2 * c as u32).issued());
        }
        for _ in 0..40 {
            m.tick();
        }
        for c in 0..6 {
            assert!(m.load_ready(c, Port::BodyLoad), "core {c} starved");
            m.consume_load(c, Port::BodyLoad);
        }
        assert!(m.all_idle());
    }

    #[test]
    fn reordered_service_can_invert_arrival_order() {
        // bandwidth 1 and two queued loads: FIFO always serves core 0
        // first; some seed must serve core 1 first.
        let inverted = (0..32u64).any(|seed| {
            let mut m = MemorySystem::new(
                2,
                MemConfig {
                    latency: 4,
                    bandwidth: 1,
                    header_fifo_capacity: 16,
                    ..MemConfig::default()
                }
                .with_service_reorder(seed),
            );
            assert!(m.try_issue(0, Port::BodyLoad, 10).issued());
            assert!(m.try_issue(1, Port::BodyLoad, 20).issued());
            // First-served request: service starts at cycle 1, retires at
            // cycle 1 + latency = 5; the other starts a cycle later.
            for _ in 0..5 {
                m.tick();
            }
            m.load_ready(1, Port::BodyLoad) && !m.load_ready(0, Port::BodyLoad)
        });
        assert!(inverted, "no seed inverted the service order");
    }

    #[test]
    fn wake_feed_reports_retirements() {
        let mut m = mem(2); // latency 3, bandwidth 2
        m.enable_wake_feed();
        assert_eq!(m.take_wakes(), [0; PORT_COUNT]);
        assert!(m.try_issue(0, Port::BodyLoad, 10).issued());
        assert!(m.try_issue(1, Port::BodyStore, 20).issued());
        m.tick(); // both start service: done at cycle 4
        assert_eq!(m.take_wakes(), [0; PORT_COUNT], "nothing retired yet");
        m.tick();
        m.tick();
        m.tick(); // cycle 4: both retire
        let mut expected = [0; PORT_COUNT];
        expected[Port::BodyLoad as usize] = 1 << 0;
        expected[Port::BodyStore as usize] = 1 << 1;
        assert_eq!(m.take_wakes(), expected);
        assert_eq!(m.take_wakes(), [0; PORT_COUNT], "taking clears");
        m.consume_load(0, Port::BodyLoad);
        assert!(m.all_idle());
    }

    #[test]
    fn wake_feed_reports_zero_latency_burst_retirements() {
        // Sequential body stores: the second continues the burst and
        // retires within the tick that starts its service.
        let mut m = mem(1);
        m.enable_wake_feed();
        let mut store = [0; PORT_COUNT];
        store[Port::BodyStore as usize] = 1;
        assert!(m.try_issue(0, Port::BodyStore, 100).issued());
        for _ in 0..4 {
            m.tick();
        }
        assert_eq!(m.take_wakes(), store);
        assert!(m.try_issue(0, Port::BodyStore, 101).issued());
        m.tick(); // burst continuation: latency 0, retires at service start
        assert_eq!(m.take_wakes(), store);
        assert!(m.all_idle());
    }

    #[test]
    fn oldest_inflight_age_reads_the_issue_stamps() {
        let mut m = mem(2); // latency 3, bandwidth 2
        assert_eq!(m.oldest_inflight_age(), None);
        assert!(m.try_issue(0, Port::BodyLoad, 10).issued()); // cycle 0
        m.tick(); // in service from 1, done at 4
        m.tick();
        assert!(m.try_issue(1, Port::HeaderStore, 20).issued()); // cycle 2
        assert_eq!(m.oldest_inflight_age(), Some(2));
        m.tick(); // the store starts: done at 6
        m.fast_forward(4 - 1 - m.cycle());
        m.tick(); // cycle 4: the load retires, and waits for its owner
        assert_eq!(
            m.oldest_inflight_age(),
            Some(4),
            "a completed load occupies its buffer until consumed"
        );
        m.consume_load(0, Port::BodyLoad);
        assert_eq!(m.oldest_inflight_age(), Some(2));
        m.tick();
        m.tick(); // cycle 6: the store retires
        assert_eq!(m.oldest_inflight_age(), None);
    }

    #[test]
    fn oldest_inflight_age_survives_a_stream_window() {
        // One streaming core: the replay shifts the issue stamps with the
        // clock, so its transactions are exactly as young as the ones
        // explicit rounds would have issued.
        let mut m = mem(1); // latency 3, bandwidth 2
        assert!(m.try_issue(0, Port::BodyLoad, 100).issued());
        for addr in [101, 102] {
            while !m.load_ready(0, Port::BodyLoad) || m.port_busy(0, Port::BodyStore) {
                m.tick();
            }
            m.consume_load(0, Port::BodyLoad);
            assert!(m.try_issue(0, Port::BodyStore, addr + 400).issued());
            assert!(m.try_issue(0, Port::BodyLoad, addr).issued());
        }
        let limit = m.stream_window(&[0]).expect("a pure stream");
        let k = limit.min(5);
        let mut ticked = m.clone();
        for j in 1..=k as u32 {
            ticked.tick();
            ticked.consume_load(0, Port::BodyLoad);
            assert!(ticked.try_issue(0, Port::BodyStore, 502 + j).issued());
            assert!(ticked.try_issue(0, Port::BodyLoad, 102 + j).issued());
        }
        m.apply_stream_window(&[0], k);
        assert_eq!(m.oldest_inflight_age(), Some(0));
        assert_eq!(m.oldest_inflight_age(), ticked.oldest_inflight_age());
        assert_eq!(format!("{m:?}"), format!("{ticked:?}"));
    }

    #[test]
    fn next_activity_tracks_queue_service_and_quiet() {
        let mut m = mem(2); // latency 3, bandwidth 2
        assert_eq!(m.next_activity_cycle(), None, "idle system is quiet");
        assert!(m.try_issue(0, Port::BodyLoad, 10).issued());
        assert_eq!(
            m.next_activity_cycle(),
            Some(m.cycle() + 1),
            "queued request starts service next tick"
        );
        m.tick(); // service starts at cycle 1, retires at 4
        assert_eq!(m.next_activity_cycle(), Some(4));
        m.tick();
        assert_eq!(m.next_activity_cycle(), Some(4), "horizon is absolute");
        m.tick();
        m.tick(); // retires
        assert_eq!(
            m.next_activity_cycle(),
            None,
            "a completed load awaiting its owner is not future activity"
        );
        m.consume_load(0, Port::BodyLoad);
        assert_eq!(m.next_activity_cycle(), None);
    }

    #[test]
    fn next_activity_bounds_jump_at_pending_comparator_recheck() {
        // Under zero DRAM latency a header store retires within the tick
        // that starts its service, leaving the dirty flag set for the
        // *next* tick's comparator re-check; the horizon may not jump
        // past that tick.
        let mut m = MemorySystem::new(
            1,
            MemConfig {
                latency: 0,
                bandwidth: 1,
                header_fifo_capacity: 16,
                ..MemConfig::default()
            },
        );
        assert!(m.try_issue(0, Port::HeaderStore, 42).issued());
        m.tick(); // service starts and retires in one tick
        assert!(m.all_idle());
        assert_eq!(
            m.next_activity_cycle(),
            Some(m.cycle() + 1),
            "the re-check is activity even with every buffer idle"
        );
        m.tick();
        assert_eq!(m.next_activity_cycle(), None);
    }

    #[test]
    fn reordered_header_load_still_waits_for_matching_store() {
        for seed in 0..8u64 {
            let mut m = MemorySystem::new(
                2,
                MemConfig {
                    latency: 3,
                    bandwidth: 2,
                    header_fifo_capacity: 16,
                    ..MemConfig::default()
                }
                .with_service_reorder(seed),
            );
            assert!(m.try_issue(0, Port::HeaderStore, 42).issued());
            assert!(m.try_issue(1, Port::HeaderLoad, 42).issued());
            while !m.load_ready(1, Port::HeaderLoad) {
                assert!(
                    !(m.load_ready(1, Port::HeaderLoad) && m.header_store_pending(42)),
                    "seed {seed}: load bypassed the store"
                );
                m.tick();
            }
            assert!(
                !m.header_store_pending(42),
                "seed {seed}: store must retire first"
            );
        }
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;

    fn cached_mem() -> MemorySystem {
        MemorySystem::new(
            2,
            MemConfig {
                header_cache_entries: 16,
                ..MemConfig::default()
            },
        )
    }

    #[test]
    fn first_header_load_misses_second_hits() {
        let mut m = cached_mem();
        assert!(m.try_issue(0, Port::HeaderLoad, 42).issued());
        assert!(!m.load_ready(0, Port::HeaderLoad), "cold miss goes to DRAM");
        for _ in 0..6 {
            m.tick();
        }
        m.consume_load(0, Port::HeaderLoad);
        assert!(m.try_issue(1, Port::HeaderLoad, 42).issued());
        m.tick();
        assert!(
            m.load_ready(1, Port::HeaderLoad),
            "warm hit is ready next cycle"
        );
        m.consume_load(1, Port::HeaderLoad);
        assert_eq!(m.stats().header_cache_hits, 1);
        assert_eq!(m.stats().header_cache_misses, 1);
    }

    #[test]
    fn header_store_fills_the_cache() {
        let mut m = cached_mem();
        assert!(m.try_issue(0, Port::HeaderStore, 7).issued());
        for _ in 0..6 {
            m.tick();
        }
        assert!(m.try_issue(1, Port::HeaderLoad, 7).issued());
        m.tick();
        assert!(m.load_ready(1, Port::HeaderLoad), "write-through fill");
        m.consume_load(1, Port::HeaderLoad);
    }

    #[test]
    fn comparator_still_orders_cached_loads_behind_stores() {
        let mut m = cached_mem();
        // Warm the cache.
        assert!(m.try_issue(0, Port::HeaderStore, 9).issued());
        for _ in 0..6 {
            m.tick();
        }
        // Pending store + load to the same address: the load must wait for
        // the store even though the address is cached.
        assert!(m.try_issue(0, Port::HeaderStore, 9).issued());
        assert!(m.try_issue(1, Port::HeaderLoad, 9).issued());
        m.tick();
        assert!(
            !m.load_ready(1, Port::HeaderLoad),
            "must not bypass the pending store"
        );
        for _ in 0..10 {
            m.tick();
        }
        assert!(m.load_ready(1, Port::HeaderLoad));
        m.consume_load(1, Port::HeaderLoad);
    }

    #[test]
    fn conflicting_tags_evict() {
        let mut m = MemorySystem::new(
            1,
            MemConfig {
                header_cache_entries: 4,
                ..MemConfig::default()
            },
        );
        for addr in [4u32, 8] {
            // both map to set 0
            assert!(m.try_issue(0, Port::HeaderLoad, addr).issued());
            for _ in 0..6 {
                m.tick();
            }
            m.consume_load(0, Port::HeaderLoad);
        }
        // 4 was evicted by 8.
        assert!(m.try_issue(0, Port::HeaderLoad, 4).issued());
        m.tick();
        assert!(!m.load_ready(0, Port::HeaderLoad));
        for _ in 0..6 {
            m.tick();
        }
        m.consume_load(0, Port::HeaderLoad);
        assert_eq!(m.stats().header_cache_hits, 0);
    }

    #[test]
    fn zero_entries_disable_the_cache() {
        let mut m = MemorySystem::new(1, MemConfig::default());
        assert!(m.try_issue(0, Port::HeaderLoad, 5).issued());
        for _ in 0..6 {
            m.tick();
        }
        m.consume_load(0, Port::HeaderLoad);
        assert_eq!(
            m.stats().header_cache_hits + m.stats().header_cache_misses,
            0
        );
    }
}
