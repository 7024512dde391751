//! The pluggable memory-timing boundary.
//!
//! [`MemBackend`] is the `DelaySimulator`-style trait the engine is
//! generic over: it owns request service timing, retirement scheduling,
//! and the calendar/fast-forward contracts that the engine's clock jumps
//! lean on. Two implementations ship:
//!
//! * [`MemorySystem`](crate::MemorySystem) — the fixed latency/bandwidth
//!   model the repo has always had (the paper's regime). The trait impl
//!   is pure delegation to the inherent methods, so routing the engine
//!   through the trait is bit-exact by construction; the differential
//!   wall (`crates/check`, `BENCH_simulator.json` pinning) enforces it.
//! * [`DramMemorySystem`](crate::DramMemorySystem) — a bank/row DRAM
//!   timing model with row-buffer hit/miss/conflict latencies, per-bank
//!   queues and an open/closed-page policy knob (see [`crate::dram`]).
//!
//! # Contract (proof obligations for every implementation)
//!
//! The engine's clock-skipping machinery is only sound if the backend
//! upholds the following; the property tests in
//! `crates/memsim/tests/backend_contracts.rs` exercise each point on
//! both implementations against a shadow-naive run:
//!
//! 1. **Activity lower bound** ([`MemBackend::next_activity_cycle`]):
//!    when it returns `Some(c)`, nothing happens before cycle `c`
//!    (assuming no new requests arrive): no state a core reads changes,
//!    and the backend makes no move of its own either — no retirement,
//!    no service start, no comparator re-check — so every tick before
//!    `c` is a pure wait that [`MemBackend::fast_forward`] replicates
//!    (obligation 2), requests queued or not. A completed load waiting
//!    for its owner is no activity: only the owner's own tick consumes
//!    it. `None` means the memory system is quiet forever absent new
//!    requests. It may be conservative (earlier than the real next move)
//!    but never late — the engine jumps straight to `c` when every core
//!    is parked. It is the one horizon of both park rules: a
//!    global-quiescence horizon and a core-invisible service-start tick
//!    are special cases of it.
//! 2. **Fast-forward replication** ([`MemBackend::fast_forward`]): after
//!    `fast_forward(k)` with `cycle + k` short of the bound of (1), the
//!    statistics and event log must equal a `k`-fold naive
//!    `tick()` sequence bit for bit (dead-wait windows are
//!    transition-free, so the log gains nothing; per-cycle counters —
//!    on the DRAM backend the queue-occupancy ones too, since its banks
//!    can keep requests waiting across such a window — are replicated in
//!    bulk).
//! 3. **Per-port wake exactness** ([`MemBackend::take_wakes`]): with the
//!    feed enabled, the masks a tick leaves behind have bit `c` of entry
//!    `p` set if and only if a transaction of core `c` on port `p`
//!    retired in that tick — the zero-latency retire-at-service-start
//!    path included. A retirement is the only memory event that changes
//!    `load_ready` or frees a store buffer for `try_issue` on that port,
//!    so a core parked on one port is woken by that port's bit or not at
//!    all, and never by traffic on its other ports.
//! 4. **Stream replication** ([`MemBackend::stream_window`] /
//!    [`MemBackend::apply_stream_window`]): when the window is
//!    `Some(limit)`, `apply_stream_window(streams, k)` for any
//!    `k <= limit` must leave the backend — ports, queue, burst
//!    trackers, calendar, statistics — exactly as `k` rounds of `tick()`
//!    followed by each stream core's `consume_load(BodyLoad)`,
//!    `try_issue(BodyStore, next)` and `try_issue(BodyLoad, next)`
//!    would. `None` whenever that is not the case. The DRAM backend
//!    keeps the declining default: `tCAS >= 1` means no body access
//!    completes within the tick that starts its service, so a DRAM
//!    stream never has a tick of this shape.
//! 5. **Issue bound** ([`MemBackend::try_issue`]): a request taken with
//!    [`Issue::Later`] does not retire in the next tick — after it, a
//!    load is still not ready and a store still holds its buffer — so
//!    the core that waits on it parks at issue instead of retrying once.
//!    [`Issue::Soon`] promises nothing beyond "maybe" (a header-cache hit
//!    has already completed). The fixed backend decides each access's
//!    latency at issue and answers `Later` for every nonzero one, so only
//!    a zero-latency burst continuation is `Soon`; the DRAM backend
//!    answers `Later` for everything but a cache hit (service starts a
//!    tick after issue at the earliest and `tCAS >= 1`).

use crate::dram::DramConfig;
use crate::system::{Issue, MemConfig, MemEventRecord, MemStats, MemorySystem, Port, PORT_COUNT};

/// Which memory-timing backend the engine instantiates. Carried inside
/// [`MemConfig`] so every existing config-construction site (struct
/// update syntax on `MemConfig::default()`) picks up the knob for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemBackendKind {
    /// The fixed latency/bandwidth model ([`MemorySystem`]) — the
    /// default, and the paper's configuration.
    Fixed,
    /// The bank/row DRAM timing model
    /// ([`DramMemorySystem`](crate::DramMemorySystem)) with the given
    /// timing parameters.
    Dram(DramConfig),
}

/// Parse the `HWGC_MEM_BACKEND` environment knob (mirrors
/// `hwgc_core::config::engine_from` / `hwgc_jobs`' `jobs_from`).
///
/// Grammar (ASCII case-insensitive, surrounding whitespace ignored):
///
/// * unset / empty / `fixed` — the fixed-latency backend;
/// * `dram` — the DRAM backend with default timings
///   ([`DramConfig::default`]);
/// * `dram:<preset>` — a named timing preset (`150ns`, `120ns`,
///   `100ns`, `80ns`; see [`DramConfig::preset`]);
/// * either DRAM form may append `:open` or `:closed` to pick the
///   page policy, e.g. `dram:100ns:closed`.
///
/// Anything unrecognized falls back to `Fixed` — an experiment sweep
/// with a typo'd knob must still run, and the backend in use is
/// visible in the stats (`MemStats::dram` is `Some` only for DRAM).
pub fn backend_from(var: Option<&str>) -> MemBackendKind {
    let Some(raw) = var else {
        return MemBackendKind::Fixed;
    };
    let text = raw.trim().to_ascii_lowercase();
    if text.is_empty() || text == "fixed" {
        return MemBackendKind::Fixed;
    }
    let mut parts = text.split(':');
    if parts.next() != Some("dram") {
        return MemBackendKind::Fixed;
    }
    let mut cfg = DramConfig::default();
    for part in parts {
        if let Some(preset) = DramConfig::preset(part) {
            cfg = DramConfig {
                page_policy: cfg.page_policy,
                ..preset
            };
        } else if let Some(policy) = crate::dram::PagePolicy::parse(part) {
            cfg.page_policy = policy;
        } else {
            return MemBackendKind::Fixed;
        }
    }
    MemBackendKind::Dram(cfg)
}

/// The memory-timing backend the engine drives (see the module docs for
/// the contract). Method semantics are specified on the fixed-latency
/// reference implementation, [`MemorySystem`]; implementations may only
/// differ in *when* transactions complete, never in the request/consume
/// protocol or the comparator-array ordering guarantee.
pub trait MemBackend {
    /// Construct the backend for `n_cores` cores. The timing parameters
    /// come from `cfg` (including `cfg.backend` for implementations
    /// configured through [`MemBackendKind`]).
    fn new_backend(n_cores: usize, cfg: MemConfig) -> Self
    where
        Self: Sized;

    /// Advance one cycle (retire, re-check the comparator, start
    /// service). See [`MemorySystem::tick`].
    fn tick(&mut self);

    /// Issue a request: [`Issue::Busy`] means the `(core, port)` buffer
    /// is busy; a taken request says whether it can retire within the
    /// next tick (contract obligation 5). See
    /// [`MemorySystem::try_issue`].
    fn try_issue(&mut self, core: usize, port: Port, addr: u32) -> Issue;

    /// Is the `(core, port)` buffer occupied?
    fn port_busy(&self, core: usize, port: Port) -> bool;

    /// Has the load on `(core, port)` completed?
    fn load_ready(&self, core: usize, port: Port) -> bool;

    /// Consume a completed load, freeing the buffer.
    fn consume_load(&mut self, core: usize, port: Port) -> u32;

    /// Are all buffers of all cores empty?
    fn all_idle(&self) -> bool;

    /// Is a header store to `addr` pending (comparator-array view)?
    fn header_store_pending(&self, addr: u32) -> bool;

    /// Conservative lower bound on the next core-visible change
    /// (contract obligation 1). See
    /// [`MemorySystem::next_activity_cycle`].
    fn next_activity_cycle(&self) -> Option<u64>;

    /// Skip `k` dead-wait cycles in one jump (contract obligation 2).
    fn fast_forward(&mut self, k: u64);

    /// How many of the coming ticks are pure body-stream ticks for
    /// `streams` (cores in tick order), replayable in closed form
    /// (contract obligation 4)? See [`MemorySystem::stream_window`]. The
    /// default declines: a backend whose body accesses never complete
    /// within the tick that starts them has no such ticks.
    fn stream_window(&self, streams: &[usize]) -> Option<u64> {
        let _ = streams;
        None
    }

    /// Replay `k` stream ticks in one step (contract obligation 4).
    /// Only called with `k` at most what [`MemBackend::stream_window`]
    /// just returned for the same `streams`.
    fn apply_stream_window(&mut self, streams: &[usize], k: u64) {
        let _ = (streams, k);
        unreachable!("apply_stream_window on a backend without stream windows")
    }

    /// Align the memory clock with the engine clock (only legal with no
    /// traffic in flight).
    fn set_cycle(&mut self, cycle: u64);

    /// Current cycle number.
    fn cycle(&self) -> u64;

    /// Latency, in cycles, of one uncontended random read — what the
    /// sequential root phase charges per root header fetch (the
    /// artificial `extra_latency` knob is *not* included, matching the
    /// engine's historical `cfg.latency`-based charge). The fixed
    /// backend returns exactly `cfg.latency`; the DRAM backend returns
    /// its closed-row access time (`t_rcd + t_cas`).
    fn uncontended_read_latency(&self) -> u32;

    /// Turn on the cycle-stamped transition log.
    fn enable_event_log(&mut self);

    /// Is the transition log enabled?
    fn event_log_enabled(&self) -> bool;

    /// Take ownership of the recorded events.
    fn take_event_log(&mut self) -> Vec<MemEventRecord>;

    /// Turn on the sparse-rule wake feed (contract obligation 3). At most
    /// 64 cores: a mask holds one bit per core.
    fn enable_wake_feed(&mut self);

    /// Per port, the cores with a transaction on it that retired since
    /// the last call — bit `c` of entry `p` is core `c` on
    /// `Port::ALL[p]` — and clear them. See
    /// [`MemorySystem::take_wakes`].
    fn take_wakes(&mut self) -> [u64; PORT_COUNT];

    /// Statistics so far.
    fn stats(&self) -> &MemStats;

    /// Consume the drained backend, yielding its statistics.
    fn into_stats(self) -> MemStats
    where
        Self: Sized;

    /// Requests currently waiting for service (monitoring).
    fn queue_len(&self) -> usize;

    /// Age of the oldest in-flight transaction (deadlock diagnostics).
    fn oldest_inflight_age(&self) -> Option<u64>;
}

/// The fixed latency/bandwidth model *is* the reference backend: pure
/// delegation, so trait-routed runs are bit-exact with direct calls.
impl MemBackend for MemorySystem {
    fn new_backend(n_cores: usize, cfg: MemConfig) -> MemorySystem {
        MemorySystem::new(n_cores, cfg)
    }

    #[inline]
    fn tick(&mut self) {
        MemorySystem::tick(self)
    }

    #[inline]
    fn try_issue(&mut self, core: usize, port: Port, addr: u32) -> Issue {
        MemorySystem::try_issue(self, core, port, addr)
    }

    #[inline]
    fn port_busy(&self, core: usize, port: Port) -> bool {
        MemorySystem::port_busy(self, core, port)
    }

    #[inline]
    fn load_ready(&self, core: usize, port: Port) -> bool {
        MemorySystem::load_ready(self, core, port)
    }

    #[inline]
    fn consume_load(&mut self, core: usize, port: Port) -> u32 {
        MemorySystem::consume_load(self, core, port)
    }

    #[inline]
    fn all_idle(&self) -> bool {
        MemorySystem::all_idle(self)
    }

    #[inline]
    fn header_store_pending(&self, addr: u32) -> bool {
        MemorySystem::header_store_pending(self, addr)
    }

    #[inline]
    fn next_activity_cycle(&self) -> Option<u64> {
        MemorySystem::next_activity_cycle(self)
    }

    #[inline]
    fn fast_forward(&mut self, k: u64) {
        MemorySystem::fast_forward(self, k)
    }

    #[inline]
    fn stream_window(&self, streams: &[usize]) -> Option<u64> {
        MemorySystem::stream_window(self, streams)
    }

    #[inline]
    fn apply_stream_window(&mut self, streams: &[usize], k: u64) {
        MemorySystem::apply_stream_window(self, streams, k)
    }

    #[inline]
    fn set_cycle(&mut self, cycle: u64) {
        MemorySystem::set_cycle(self, cycle)
    }

    #[inline]
    fn cycle(&self) -> u64 {
        MemorySystem::cycle(self)
    }

    #[inline]
    fn uncontended_read_latency(&self) -> u32 {
        MemorySystem::uncontended_read_latency(self)
    }

    fn enable_event_log(&mut self) {
        MemorySystem::enable_event_log(self)
    }

    #[inline]
    fn event_log_enabled(&self) -> bool {
        MemorySystem::event_log_enabled(self)
    }

    fn take_event_log(&mut self) -> Vec<MemEventRecord> {
        MemorySystem::take_event_log(self)
    }

    fn enable_wake_feed(&mut self) {
        MemorySystem::enable_wake_feed(self)
    }

    #[inline]
    fn take_wakes(&mut self) -> [u64; PORT_COUNT] {
        MemorySystem::take_wakes(self)
    }

    #[inline]
    fn stats(&self) -> &MemStats {
        MemorySystem::stats(self)
    }

    fn into_stats(self) -> MemStats {
        MemorySystem::into_stats(self)
    }

    #[inline]
    fn queue_len(&self) -> usize {
        MemorySystem::queue_len(self)
    }

    fn oldest_inflight_age(&self) -> Option<u64> {
        MemorySystem::oldest_inflight_age(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::PagePolicy;

    /// Every input class the parser distinguishes, in one place — the
    /// documentation test for the `HWGC_MEM_BACKEND` grammar (the
    /// `engine_from`/`jobs_from` convention).
    #[test]
    fn backend_from_documents_every_input_class() {
        // Unset, empty, and explicit `fixed` are the fixed backend.
        assert_eq!(backend_from(None), MemBackendKind::Fixed);
        assert_eq!(backend_from(Some("")), MemBackendKind::Fixed);
        assert_eq!(backend_from(Some("  ")), MemBackendKind::Fixed);
        assert_eq!(backend_from(Some("fixed")), MemBackendKind::Fixed);
        assert_eq!(backend_from(Some(" Fixed ")), MemBackendKind::Fixed);

        // Bare `dram` takes the default timing preset.
        assert_eq!(
            backend_from(Some("dram")),
            MemBackendKind::Dram(DramConfig::default())
        );
        assert_eq!(
            backend_from(Some(" DRAM ")),
            MemBackendKind::Dram(DramConfig::default())
        );

        // Named presets.
        for name in ["150ns", "120ns", "100ns", "80ns"] {
            let spelled = format!("dram:{name}");
            assert_eq!(
                backend_from(Some(&spelled)),
                MemBackendKind::Dram(DramConfig::preset(name).unwrap()),
                "{spelled}"
            );
        }

        // Page-policy suffix, with or without a preset.
        let closed = backend_from(Some("dram:closed"));
        assert_eq!(
            closed,
            MemBackendKind::Dram(DramConfig {
                page_policy: PagePolicy::Closed,
                ..DramConfig::default()
            })
        );
        assert_eq!(
            backend_from(Some("dram:80ns:closed")),
            MemBackendKind::Dram(DramConfig {
                page_policy: PagePolicy::Closed,
                ..DramConfig::preset("80ns").unwrap()
            })
        );
        assert_eq!(
            backend_from(Some("dram:open")),
            MemBackendKind::Dram(DramConfig::default())
        );

        // Anything unrecognized falls back to the fixed backend.
        assert_eq!(backend_from(Some("sram")), MemBackendKind::Fixed);
        assert_eq!(backend_from(Some("dram:200ns")), MemBackendKind::Fixed);
        assert_eq!(
            backend_from(Some("dram:100ns:bogus")),
            MemBackendKind::Fixed
        );
        assert_eq!(backend_from(Some("1")), MemBackendKind::Fixed);
    }

    #[test]
    fn fixed_backend_uncontended_read_latency_is_exactly_cfg_latency() {
        // The root phase charges `latency + 1` per root header read and
        // excludes `extra_latency`; the trait must preserve that so the
        // refactor is bit-exact (the BENCH_simulator.json pin).
        let cfg = MemConfig {
            latency: 7,
            ..MemConfig::default()
        }
        .with_extra_latency(20);
        let m = MemorySystem::new(1, cfg);
        assert_eq!(MemBackend::uncontended_read_latency(&m), 7);
    }
}
