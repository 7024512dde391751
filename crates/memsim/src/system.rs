//! The memory access scheduler and DRAM timing model.

use std::collections::VecDeque;

use crate::backend::{backend_from, MemBackendKind};
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
    /// `MemorySystem` itself ignores this field — it *is* the
    /// [`MemBackendKind::Fixed`] implementation.
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

/// What [`MemorySystem::try_issue`] made of a request: refused, or taken
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
pub(crate) enum TxnState {
    /// Header load waiting for a matching header store (comparator array).
    Blocked,
    /// Waiting for DRAM service.
    Queued,
    /// In DRAM; its retirement is on the backend's calendar.
    InService,
    /// Load data sitting in the buffer, not yet consumed by the core.
    Complete,
}

/// A fixed-backend transaction: its address, its service latency —
/// decided at issue, see [`MemorySystem::try_issue`] — and its state.
#[derive(Debug, Clone, Copy)]
struct Txn {
    addr: u32,
    latency: u32,
    state: TxnState,
}

/// One memory-system transition, as recorded by the opt-in event log (see
/// [`MemorySystem::enable_event_log`]). Every variant is a *transition* —
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
/// [`MemorySystem::set_cycle`]).
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
/// front of a bandwidth/latency DRAM model, with the comparator array that
/// orders header loads after matching header stores.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemConfig,
    cycle: u64,
    /// `ports[core][port]`.
    ports: Vec<[Option<Txn>; PORT_COUNT]>,
    /// Issue cycle of the transaction in `(core, port)`, at index
    /// `core * PORT_COUNT + port` — read only by the deadlock diagnostic
    /// [`MemorySystem::oldest_inflight_age`], so kept out of the records
    /// the tick walks.
    issued_at: Vec<u64>,
    /// Service queue: `(core, port)` in arrival order.
    queue: VecDeque<(u16, Port)>,
    /// Pending header-store addresses (comparator array). Tiny: at most one
    /// entry per core.
    pending_header_stores: Vec<u32>,
    /// Address of the previous access per core and body port
    /// (load/store), for the sequential-burst fast path: bodies are
    /// streamed, so an access to `prev + 1` hits the open DRAM row /
    /// continues the burst. Recorded at issue: a port re-issues only
    /// after its previous transaction retired, so this is always the
    /// access the port served last.
    last_body_addr: Vec<[Option<u32>; 2]>,
    /// Shared direct-mapped header cache: tag (header address) per set.
    /// Timing-only — data always comes from the functional heap; the
    /// cache is write-through and therefore coherent by construction.
    header_cache: Vec<Option<u32>>,
    /// xorshift state for out-of-order queue service (`None` = FIFO).
    reorder_state: Option<u64>,
    stats: MemStats,
    // Derived occupancy counters so the per-cycle tick touches no port
    // buffer unless something can actually change. Invariants:
    // `occupied` = number of `Some` port entries, `in_service` / `blocked`
    // / `complete` = entries in the corresponding `TxnState`, and
    // `next_retire` = earliest `done_at` among in-service transactions
    // (`u64::MAX` when none).
    occupied: usize,
    in_service: usize,
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
}

impl MemorySystem {
    /// Memory system serving `n_cores` cores.
    pub fn new(n_cores: usize, cfg: MemConfig) -> MemorySystem {
        assert!(cfg.bandwidth > 0, "bandwidth must be positive");
        assert_core_ids_fit(n_cores);
        // `MemorySystem` *is* the fixed backend, whatever `cfg.backend`
        // says.
        let worst_latency = cfg
            .with_backend(MemBackendKind::Fixed)
            .worst_service_latency();
        MemorySystem {
            cfg,
            cycle: 0,
            ports: vec![[None; PORT_COUNT]; n_cores],
            issued_at: vec![0; n_cores * PORT_COUNT],
            // Preallocate to the architectural maxima so the steady-state
            // simulation loop never allocates: at most one outstanding
            // request per (core, port), at most one pending header store
            // per core (plus the mutator's slot).
            queue: VecDeque::with_capacity(n_cores * PORT_COUNT + PORT_COUNT),
            pending_header_stores: Vec::with_capacity(n_cores + 1),
            last_body_addr: vec![[None; 2]; n_cores],
            header_cache: vec![None; cfg.header_cache_entries],
            reorder_state: cfg.service_reorder_seed.map(|s| s | 1),
            stats: MemStats::default(),
            occupied: 0,
            in_service: 0,
            blocked: 0,
            complete: 0,
            next_retire: u64::MAX,
            retire_cal: RetireWheel::new(n_cores * PORT_COUNT, worst_latency, 0),
            pending_stores_dirty: false,
            wake_feed: false,
            wakes: [0; PORT_COUNT],
            events: None,
        }
    }

    // --- event log -----------------------------------------------------

    /// Turn on the cycle-stamped transition log. Intended for the
    /// observability layer and test harnesses; off by default.
    pub fn enable_event_log(&mut self) {
        self.events = Some(Vec::new());
    }

    /// Is the transition log enabled?
    pub fn event_log_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Take ownership of the recorded events (empty if logging was off).
    pub fn take_event_log(&mut self) -> Vec<MemEventRecord> {
        self.events.take().unwrap_or_default()
    }

    // --- sparse-engine wake feed ---------------------------------------

    /// Turn on the wake feed (see the `wakes` field). Off by default;
    /// the naive loop pays nothing.
    ///
    /// # Panics
    /// Panics with more than 64 cores: a mask holds one bit per core.
    pub fn enable_wake_feed(&mut self) {
        assert!(self.ports.len() <= 64, "wake masks hold at most 64 cores");
        self.wake_feed = true;
    }

    /// Per port, the cores whose transactions on it retired since the
    /// last call (bit `c` of entry `p`: core `c`, `Port::ALL[p]`), and
    /// clear them. All zero while the feed is off.
    #[inline]
    pub fn take_wakes(&mut self) -> [u64; PORT_COUNT] {
        std::mem::take(&mut self.wakes)
    }

    #[inline]
    fn push_wake(&mut self, core: usize, port: Port) {
        if self.wake_feed {
            self.wakes[port as usize] |= 1 << core;
        }
    }

    #[inline]
    fn log(&mut self, event: MemEvent) {
        if let Some(events) = &mut self.events {
            events.push(MemEventRecord {
                cycle: self.cycle,
                event,
            });
        }
    }

    /// Align the memory clock with an external cycle counter (the engine
    /// does this after the sequential root phase, which charges cycles
    /// without ticking the memory system). Only legal while no traffic is
    /// in flight: every `done_at` is derived from the clock at service
    /// start, so jumping with transactions pending would warp them.
    pub fn set_cycle(&mut self, cycle: u64) {
        assert!(cycle >= self.cycle, "memory clock may not go backwards");
        assert!(
            self.occupied == 0 && self.queue.is_empty(),
            "set_cycle with traffic in flight"
        );
        self.cycle = cycle;
    }

    /// Pop the next request to serve: FIFO normally, a seeded random pick
    /// under `service_reorder_seed`.
    #[inline]
    fn pop_service(&mut self) -> Option<(u16, Port)> {
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

    /// Latency of one uncontended random read: `latency`, without the
    /// artificial `extra_latency` (what the sequential root phase charges
    /// per root header fetch).
    pub fn uncontended_read_latency(&self) -> u32 {
        self.cfg.latency
    }

    /// Current cycle number.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advance one cycle: complete finished services, unblock header loads
    /// whose matching stores retired, and start service for up to
    /// `bandwidth` queued requests. Call once per engine cycle, before the
    /// cores tick.
    #[inline]
    pub fn tick(&mut self) {
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
                                self.queue.push_back((core as u16, Port::HeaderLoad));
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

        // 3. DRAM accepts up to `bandwidth` queued requests.
        if !self.queue.is_empty() {
            self.stats.queue_occupancy_sum += self.queue.len() as u64;
            self.stats.queue_busy_cycles += 1;
            for _ in 0..self.cfg.bandwidth {
                let Some((core, port)) = self.pop_service() else {
                    break;
                };
                let core = usize::from(core);
                let entry = &mut self.ports[core][port as usize];
                let txn = entry.as_mut().expect("queued transaction must exist");
                debug_assert_eq!(txn.state, TxnState::Queued);
                let latency = txn.latency;
                if latency > 0 {
                    txn.state = TxnState::InService;
                    self.in_service += 1;
                    let done_at = self.cycle + u64::from(latency);
                    self.retire_cal
                        .insert(self.cycle, done_at, core * PORT_COUNT + port as usize);
                    self.next_retire = self.next_retire.min(done_at);
                    self.log(MemEvent::ServiceStart {
                        core: core as u32,
                        port,
                        latency,
                    });
                    continue;
                }
                // Burst continuation: the open-row access completes
                // within this memory cycle — data is ready when the core
                // ticks.
                if port.is_load() {
                    txn.state = TxnState::Complete;
                    self.complete += 1;
                } else {
                    let addr = txn.addr;
                    *entry = None;
                    self.occupied -= 1;
                    if port == Port::HeaderStore {
                        remove_one(&mut self.pending_header_stores, addr);
                        self.pending_stores_dirty = true;
                    }
                }
                self.log(MemEvent::ServiceStart {
                    core: core as u32,
                    port,
                    latency,
                });
                self.log(MemEvent::Retire {
                    core: core as u32,
                    port,
                });
                self.push_wake(core, port);
            }
        }
    }

    /// `(core, port)`'s in-service transaction leaves DRAM: load data
    /// ready, or the store committed and its buffer freed.
    #[inline]
    fn retire(&mut self, core: usize, port: Port) {
        self.in_service -= 1;
        let entry = &mut self.ports[core][port as usize];
        if port.is_load() {
            entry.as_mut().expect("retiring a missing load").state = TxnState::Complete;
            self.complete += 1;
        } else {
            let txn = entry.take().expect("retiring a missing store");
            self.occupied -= 1;
            if port == Port::HeaderStore {
                remove_one(&mut self.pending_header_stores, txn.addr);
                self.pending_stores_dirty = true;
            }
        }
        self.log(MemEvent::Retire {
            core: core as u32,
            port,
        });
        self.push_wake(core, port);
    }

    /// Issue a request on `(core, port)`. Returns [`Issue::Busy`] (core
    /// stalls) when the buffer is still busy with the previous request.
    ///
    /// Header loads to an address with a pending header store enter the
    /// blocked state and are only queued once the store retires.
    ///
    /// The service latency is decided here, exactly: body accesses that
    /// continue their port's sequential stream complete at burst speed
    /// (0 = within the tick that starts their service), header accesses
    /// and stream starts pay the full random-access latency, and the
    /// Figure 6 artificial latency is added to everything. Nothing can
    /// change the answer before service starts: the burst tracker of a
    /// body port moves only at that port's own issue. So a transaction
    /// can retire within the next tick only if its latency is zero —
    /// [`Issue::Later`] otherwise — and a header-cache hit has already
    /// completed ([`Issue::Soon`]).
    #[inline]
    pub fn try_issue(&mut self, core: usize, port: Port, addr: u32) -> Issue {
        if self.ports[core][port as usize].is_some() {
            return Issue::Busy;
        }
        let mut state = TxnState::Queued;
        let mut latency = self.cfg.latency;
        match port {
            Port::HeaderLoad => {
                if self.pending_header_stores.contains(&addr) {
                    // Comparator array: ordered behind the store
                    // regardless of any cached copy.
                    state = TxnState::Blocked;
                } else if self.cache_lookup(addr) {
                    // Header-cache hit: served on-chip, ready next
                    // cycle, no DRAM bandwidth consumed.
                    state = TxnState::Complete;
                } else {
                    // The returning line fills the cache (tag set at
                    // issue; the model is timing-only).
                    self.cache_fill(addr);
                }
            }
            Port::HeaderStore => {
                self.pending_header_stores.push(addr);
                // Write-through: the stored header is cached.
                self.cache_fill(addr);
            }
            Port::BodyLoad | Port::BodyStore => {
                let last = &mut self.last_body_addr[core][usize::from(port == Port::BodyStore)];
                if *last == Some(addr.wrapping_sub(1)) {
                    latency = 0;
                }
                *last = Some(addr);
            }
        }
        latency += self.cfg.extra_latency;
        self.ports[core][port as usize] = Some(Txn {
            addr,
            latency,
            state,
        });
        self.issued_at[core * PORT_COUNT + port as usize] = self.cycle;
        self.occupied += 1;
        self.log(MemEvent::Issue {
            core: core as u32,
            port,
            addr,
        });
        let issue = if latency == 0 || state == TxnState::Complete {
            Issue::Soon
        } else {
            Issue::Later
        };
        match state {
            TxnState::Queued => self.queue.push_back((core as u16, port)),
            TxnState::Blocked => {
                self.blocked += 1;
                self.log(MemEvent::CompBlocked {
                    core: core as u32,
                    addr,
                });
            }
            TxnState::Complete => {
                self.complete += 1;
                self.log(MemEvent::CacheHit {
                    core: core as u32,
                    addr,
                });
            }
            TxnState::InService => unreachable!("issue never starts service"),
        }
        self.stats.issued[port as usize] += 1;
        issue
    }

    /// Is the buffer `(core, port)` occupied (request in flight or load
    /// data not yet consumed)?
    #[inline]
    pub fn port_busy(&self, core: usize, port: Port) -> bool {
        self.ports[core][port as usize].is_some()
    }

    /// Has the load on `(core, port)` completed (data available)?
    ///
    /// # Panics
    /// Panics when called on a store port.
    #[inline]
    pub fn load_ready(&self, core: usize, port: Port) -> bool {
        assert!(port.is_load());
        matches!(
            self.ports[core][port as usize],
            Some(Txn {
                state: TxnState::Complete,
                ..
            })
        )
    }

    /// Consume the completed load on `(core, port)`, freeing the buffer.
    /// Returns the address the load targeted (the caller samples the heap).
    ///
    /// # Panics
    /// Panics if the load is not complete — the core must check
    /// [`MemorySystem::load_ready`] and stall otherwise.
    #[inline]
    pub fn consume_load(&mut self, core: usize, port: Port) -> u32 {
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

    /// True when every buffer of every core is empty (all stores committed,
    /// all loads consumed) — the end-of-cycle flush condition.
    #[inline]
    pub fn all_idle(&self) -> bool {
        self.occupied == 0
    }

    /// Is a header store to `addr` pending (comparator array view)?
    #[inline]
    pub fn header_store_pending(&self, addr: u32) -> bool {
        self.pending_header_stores.contains(&addr)
    }

    /// The next cycle at which this memory system can change any state a
    /// core reads, assuming no new requests arrive in between: the
    /// earliest in-service completion, or the very next tick while a
    /// request is queued (it starts service then) or a comparator
    /// re-check is pending (a zero-latency header store retired at
    /// service start). `None` means never: nothing queued, nothing in
    /// service, no re-check pending — the memory system is quiet until a
    /// core acts. Every tick before the returned cycle is a pure wait
    /// that [`MemorySystem::fast_forward`] replicates.
    ///
    /// Completed loads are ignored: their owners saw the data arrive, and
    /// a load waiting for its owner changes nothing until the owner's own
    /// tick consumes it. All tracked by counter/flag, O(1).
    #[inline]
    pub fn next_activity_cycle(&self) -> Option<u64> {
        if !self.queue.is_empty() || self.pending_stores_dirty {
            return Some(self.cycle + 1);
        }
        if self.in_service == 0 {
            return None;
        }
        Some(self.next_retire)
    }

    /// Skip `k` cycles in one jump. Only legal while `cycle + k` stays
    /// short of [`MemorySystem::next_activity_cycle`]: the skipped ticks
    /// would each have retired nothing, started no service (the queue is
    /// empty, or the horizon would be the very next tick: zero
    /// occupancy, not busy) and merely re-counted every
    /// comparator-blocked header load.
    #[inline]
    pub fn fast_forward(&mut self, k: u64) {
        debug_assert!(
            self.next_activity_cycle()
                .is_none_or(|at| self.cycle + k < at),
            "fast-forward of {k} cycles from {} over a retirement, service start or re-check",
            self.cycle
        );
        self.cycle += k;
        self.stats.cycles += k;
        self.stats.comparator_blocked_cycles += k * self.blocked as u64;
    }

    /// How many of the coming ticks are *pure stream ticks* for
    /// `streams` — the cores, in tick order, that each consumed a body
    /// word this cycle, stored it and issued the next load. In such a
    /// tick DRAM serves exactly their `(c, BodyStore), (c, BodyLoad)`
    /// pairs, every one a zero-latency burst continuation, and the cores
    /// re-issue the same pair one word further, so `k` of them have the
    /// closed form [`MemorySystem::apply_stream_window`] replays.
    ///
    /// `None` unless that replay is exact: no artificial latency, event
    /// log and wake feed off (each tick would log four transitions and
    /// feed two wakes per stream), FIFO service, no comparator re-check
    /// pending, no completed load waiting for a frozen core, and the
    /// queue holding precisely the stream pairs, within the bandwidth,
    /// both halves continuing their burst. The bound stops one tick
    /// short of the next retirement — with the queue holding only the
    /// stream pairs and no re-check pending, that is the
    /// [`MemorySystem::next_activity_cycle`] the streams leave behind:
    /// until then nothing but the streams moves, and blocked header loads
    /// merely re-count.
    pub fn stream_window(&self, streams: &[usize]) -> Option<u64> {
        if self.cfg.extra_latency != 0
            || self.events.is_some()
            || self.wake_feed
            || self.reorder_state.is_some()
            || self.pending_stores_dirty
            || self.complete > 0
            || self.queue.len() != 2 * streams.len()
            || self.queue.len() > self.cfg.bandwidth as usize
        {
            return None;
        }
        let burst = |c: usize, port: Port| {
            self.ports[c][port as usize]
                .as_ref()
                .is_some_and(|txn| txn.latency == 0)
        };
        let in_pattern = streams.iter().enumerate().all(|(i, &c)| {
            self.queue[2 * i] == (c as u16, Port::BodyStore)
                && self.queue[2 * i + 1] == (c as u16, Port::BodyLoad)
                && burst(c, Port::BodyStore)
                && burst(c, Port::BodyLoad)
        });
        let limit = self.next_retire - 1 - self.cycle;
        (in_pattern && limit > 0).then_some(limit)
    }

    /// Replay `k` pure stream ticks for `streams` in one step. Only
    /// legal with `k` at most what [`MemorySystem::stream_window`] just
    /// returned for the same `streams`. Each skipped tick found the
    /// stream pairs queued, served both halves within the tick and saw
    /// them re-issued one word further: the queued transactions, their
    /// issue stamps and the burst trackers shift by `k`, and the per-tick
    /// counters are replicated in bulk.
    pub fn apply_stream_window(&mut self, streams: &[usize], k: u64) {
        debug_assert!(
            self.stream_window(streams).is_some_and(|limit| k <= limit),
            "stream window of {k} ticks applied beyond its bound"
        );
        self.cycle += k;
        self.stats.cycles += k;
        self.stats.queue_busy_cycles += k;
        self.stats.queue_occupancy_sum += k * self.queue.len() as u64;
        self.stats.comparator_blocked_cycles += k * self.blocked as u64;
        let words = u32::try_from(k).expect("stream window longer than the address space");
        for &c in streams {
            for (port, slot) in [(Port::BodyLoad, 0), (Port::BodyStore, 1)] {
                self.stats.issued[port as usize] += k;
                let txn = self.ports[c][port as usize]
                    .as_mut()
                    .expect("stream transaction must exist");
                txn.addr += words;
                self.last_body_addr[c][slot] = Some(txn.addr);
                self.issued_at[c * PORT_COUNT + port as usize] += k;
            }
        }
    }

    /// Statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Consume the drained memory system, yielding its statistics without
    /// a clone (end-of-collection epilogue).
    pub fn into_stats(self) -> MemStats {
        self.stats
    }

    /// Requests currently waiting for DRAM service (monitoring).
    #[inline]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Age (in cycles) of the oldest in-flight transaction, if any —
    /// diagnostic for deadlock hunting in the engine.
    pub fn oldest_inflight_age(&self) -> Option<u64> {
        (0..self.issued_at.len())
            .filter(|&id| self.ports[id / PORT_COUNT][id % PORT_COUNT].is_some())
            .map(|id| self.cycle.saturating_sub(self.issued_at[id]))
            .max()
    }
}

/// Both backends key their queues by `u16` core ids.
pub(crate) fn assert_core_ids_fit(n_cores: usize) {
    assert!(
        n_cores <= usize::from(u16::MAX) + 1,
        "{n_cores} cores exceed the memory system's 16-bit core ids"
    );
}

#[inline]
pub(crate) fn remove_one(v: &mut Vec<u32>, value: u32) {
    let idx = v
        .iter()
        .position(|&x| x == value)
        .expect("pending store missing");
    v.swap_remove(idx);
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
