//! The pluggable memory-timing boundary.
//!
//! [`MemBackend`] is the trait the engine is generic over: the request
//! protocol, service timing, retirement scheduling, and the
//! calendar/fast-forward contracts that the engine's clock jumps lean
//! on. It has one implementation, the request-protocol front end
//! [`Memory<S>`](crate::Memory), generic over a [`Service`] model — the
//! `DelaySimulator` of the uncore-sim pattern, which answers only how a
//! queued request is served. Two models ship:
//!
//! * [`Fixed`](crate::Fixed) — the fixed latency/bandwidth model the
//!   repo has always had (the paper's regime);
//!   [`MemorySystem`](crate::MemorySystem) is `Memory<Fixed>`.
//! * [`Dram`](crate::Dram) — a bank/row DRAM timing model with
//!   row-buffer hit/miss/conflict latencies, per-bank queues and an
//!   open/closed-page policy knob (see [`crate::dram`]);
//!   [`DramMemorySystem`](crate::DramMemorySystem) is `Memory<Dram>`.
//!
//! # Contract (proof obligations for every implementation)
//!
//! The engine's clock-skipping machinery is only sound if the backend
//! upholds the following; the property tests in
//! `crates/memsim/tests/backend_contracts.rs` exercise each point on
//! both service models against a shadow-naive run:
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
//!    is parked. It is the one horizon of both jumps: a
//!    global-quiescence horizon and a core-invisible service-start tick
//!    are special cases of it.
//! 2. **Fast-forward replication** ([`MemBackend::fast_forward`]): after
//!    `fast_forward(k)` with `cycle + k` short of the bound of (1), the
//!    statistics and event log must equal a `k`-fold naive
//!    `tick()` sequence bit for bit (dead-wait windows are
//!    transition-free, so the log gains nothing; per-cycle counters —
//!    the queue-occupancy ones included, since DRAM banks can keep
//!    requests waiting across such a window — are replicated in bulk).
//! 3. **Per-port wake exactness** ([`MemBackend::take_wakes`]): with the
//!    feed enabled, the masks a tick leaves behind have bit `c` of entry
//!    `p` set if and only if a transaction of core `c` on port `p`
//!    retired in that tick — the zero-latency retire-at-service-start
//!    path included. A retirement is the only memory event that changes
//!    `load_ready` or frees a store buffer for `try_issue` on that port,
//!    so a core parked on one port is woken by that port's bit or not at
//!    all, and never by traffic on its other ports. A stream window
//!    (obligation 4) is such a run of ticks: it leaves the masks as the
//!    ticks it replays would have.
//! 4. **Stream replication** ([`MemBackend::stream_window`] /
//!    [`MemBackend::apply_stream_window`]): when the window is
//!    `Some(limit)`, `apply_stream_window(streams, k)` for any
//!    `k <= limit` must leave the backend — ports, queue, burst
//!    trackers, calendar, statistics, wake masks when the feed is on —
//!    exactly as `k` rounds of `tick()`
//!    followed by each stream core's `consume_load(BodyLoad)`,
//!    `try_issue(BodyStore, next)` and `try_issue(BodyLoad, next)`
//!    would. `None` whenever that is not the case. The DRAM model keeps
//!    the declining default: `tCAS >= 1` means no body access completes
//!    within the tick that starts its service, so a DRAM stream never
//!    has a tick of this shape.
//! 5. **Issue bound** ([`MemBackend::try_issue`]): a request taken with
//!    [`Issue::Later`] does not retire in the next tick — after it, a
//!    load is still not ready and a store still holds its buffer — so
//!    the core that waits on it parks at issue instead of retrying once.
//!    [`Issue::Soon`] promises nothing beyond "maybe" (a header-cache hit
//!    has already completed). The service model answers for a queued
//!    request ([`Service::enqueue`]): the fixed model decides each
//!    access's latency there and answers "maybe" only for a zero one,
//!    the DRAM model never (service starts a tick after issue at the
//!    earliest and `tCAS >= 1`). A comparator-blocked header load is
//!    `Later` on both: its store retires in the next tick at the
//!    earliest, and the load then either starts in that tick with a
//!    nonzero latency, or — the store having retired at its own
//!    zero-latency service start, after that tick's re-check — is
//!    released a tick later (fixed header loads and stores share one
//!    latency).

use crate::dram::{DramConfig, DramStats};
use crate::system::{Issue, MemConfig, MemEventRecord, MemStats, Memory, Port, PORT_COUNT};

/// Which memory-timing backend the engine instantiates. Carried inside
/// [`MemConfig`] so every existing config-construction site (struct
/// update syntax on `MemConfig::default()`) picks up the knob for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemBackendKind {
    /// The fixed latency/bandwidth model
    /// ([`MemorySystem`](crate::MemorySystem)) — the default, and the
    /// paper's configuration.
    Fixed,
    /// The bank/row DRAM timing model
    /// ([`DramMemorySystem`](crate::DramMemorySystem)) with the given
    /// timing parameters.
    Dram(DramConfig),
}

/// Parse the `HWGC_MEM_BACKEND` environment knob (mirrors `hwgc_jobs`'
/// `jobs_from`).
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
/// the contract). Service models may only differ in *when* transactions
/// complete, never in the request/consume protocol or the
/// comparator-array ordering guarantee — which is why the protocol is
/// written once, in [`Memory`].
pub trait MemBackend {
    /// Construct the backend for `n_cores` cores. The timing parameters
    /// come from `cfg` (including `cfg.backend` for models configured
    /// through [`MemBackendKind`]).
    fn new_backend(n_cores: usize, cfg: MemConfig) -> Self
    where
        Self: Sized;

    /// Advance one cycle: retire the transactions that are due, unblock
    /// header loads whose matching stores retired (comparator re-check),
    /// then let the service model start what it can. Call once per
    /// engine cycle, before the cores tick.
    fn tick(&mut self);

    /// Issue a request on `(core, port)`. [`Issue::Busy`] means the
    /// buffer is still busy with the previous request and nothing was
    /// issued (the core stalls); a taken request says whether it can
    /// retire within the next tick (contract obligation 5). A header
    /// load to an address with a pending header store is held blocked
    /// and only queued once the store retires (comparator array); one
    /// that hits the header cache completes at issue.
    fn try_issue(&mut self, core: usize, port: Port, addr: u32) -> Issue;

    /// Is the `(core, port)` buffer occupied (request in flight or load
    /// data not yet consumed)?
    fn port_busy(&self, core: usize, port: Port) -> bool;

    /// Has the load on `(core, port)` completed (data available)?
    ///
    /// # Panics
    /// Panics when called on a store port.
    fn load_ready(&self, core: usize, port: Port) -> bool;

    /// Consume the completed load on `(core, port)`, freeing the buffer.
    /// Returns the address the load targeted (the caller samples the
    /// heap).
    ///
    /// # Panics
    /// Panics if the load is not complete — the core must check
    /// [`MemBackend::load_ready`] and stall otherwise.
    fn consume_load(&mut self, core: usize, port: Port) -> u32;

    /// True when every buffer of every core is empty (all stores
    /// committed, all loads consumed) — the end-of-cycle flush condition.
    fn all_idle(&self) -> bool;

    /// The next cycle at which this memory system can change any state
    /// (contract obligation 1), assuming no new requests arrive in
    /// between: the very next tick while a comparator re-check is
    /// pending (a zero-latency header store retired at its service
    /// start); otherwise the earliest retirement, or, with requests
    /// queued, the earliest service start if that comes first. `None`
    /// means never: nothing queued, nothing in service, no re-check
    /// pending. Completed loads are ignored: a load waiting for its owner
    /// changes nothing until the owner's own tick consumes it.
    fn next_activity_cycle(&self) -> Option<u64>;

    /// Skip `k` cycles in one jump (contract obligation 2). Only legal
    /// while `cycle + k` stays short of
    /// [`MemBackend::next_activity_cycle`]: the skipped ticks would each
    /// have retired nothing, started no service and merely re-counted
    /// every comparator-blocked header load and every queued request.
    fn fast_forward(&mut self, k: u64);

    /// How many of the coming ticks are *pure stream ticks* for
    /// `streams` — the cores, in tick order, that each consumed a body
    /// word this cycle, stored it and issued the next load — replayable
    /// in closed form (contract obligation 4)? `None` unless the replay
    /// is exact.
    fn stream_window(&self, streams: &[usize]) -> Option<u64>;

    /// Replay `k` stream ticks in one step (contract obligation 4).
    /// Only called with `k` at most what [`MemBackend::stream_window`]
    /// just returned for the same `streams`.
    fn apply_stream_window(&mut self, streams: &[usize], k: u64);

    /// Align the memory clock with an external cycle counter (the engine
    /// does this after the sequential root phase, which charges cycles
    /// without ticking the memory system). Only legal while no traffic is
    /// in flight: every retirement is derived from the clock at service
    /// start, so jumping with transactions pending would warp them.
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

    /// Turn on the cycle-stamped transition log. Intended for the
    /// observability layer and test harnesses; off by default.
    fn enable_event_log(&mut self);

    /// Is the transition log enabled?
    fn event_log_enabled(&self) -> bool;

    /// Take ownership of the recorded events (empty if logging was off).
    fn take_event_log(&mut self) -> Vec<MemEventRecord>;

    /// Turn on the engine's wake feed (contract obligation 3). Off by
    /// default; the reference loop pays nothing.
    ///
    /// # Panics
    /// Panics with more than 64 cores: a mask holds one bit per core.
    fn enable_wake_feed(&mut self);

    /// Per port, the cores with a transaction on it that retired since
    /// the last call — bit `c` of entry `p` is core `c` on
    /// `Port::ALL[p]` — and clear them. All zero while the feed is off.
    fn take_wakes(&mut self) -> [u64; PORT_COUNT];

    /// Statistics so far.
    fn stats(&self) -> &MemStats;

    /// Consume the drained backend, yielding its statistics without a
    /// clone (end-of-collection epilogue).
    fn into_stats(self) -> MemStats
    where
        Self: Sized;

    /// Requests currently waiting for service (monitoring).
    fn queue_len(&self) -> usize;

    /// Age (in cycles) of the oldest in-flight transaction, if any —
    /// diagnostic for deadlock hunting in the engine.
    fn oldest_inflight_age(&self) -> Option<u64>;
}

/// How a queued request is served — the one part of a backend that
/// differs between timing models. The request protocol around it (port
/// buffers, comparator array, header cache, retirement calendar,
/// statistics, wake feed, event log) is [`Memory`]'s; a model queues
/// what the front end hands it and starts service by calling back into
/// the front end with the latency it decided.
pub trait Service: Sized {
    /// The model for `n_cores` cores under `cfg`.
    fn new(n_cores: usize, cfg: &MemConfig) -> Self;

    /// The most cycles an access can spend between service start and
    /// retirement, before `extra_latency` (sizes the retirement wheel).
    fn worst_access_latency(&self) -> u64;

    /// The initial [`MemStats::dram`]: `Some` only for a model that
    /// counts bank/row outcomes.
    fn dram_stats(&self) -> Option<DramStats> {
        None
    }

    /// Queue `(core, port)`'s request for `addr` — at issue, or when the
    /// comparator array releases a header load. Returns whether it may
    /// retire within the next tick (contract obligation 5).
    fn enqueue(&mut self, core: usize, port: Port, addr: u32) -> bool;

    /// Requests waiting for service.
    fn queued(&self) -> usize;

    /// Start service, under `bandwidth`, for what can start this tick.
    /// Called every tick, after the retirements and the comparator
    /// re-check.
    fn serve(m: &mut Memory<Self>);

    /// With requests queued, the earliest cycle after `cycle` at which
    /// one can start service.
    fn next_start(&self, cycle: u64) -> u64;

    /// The clock jumps from `from` to `to` without ticking.
    fn advance(&mut self, from: u64, to: u64) {
        let _ = (from, to);
    }

    /// See [`MemBackend::uncontended_read_latency`].
    fn uncontended_read_latency(&self) -> u32;

    /// See [`MemBackend::stream_window`]. The default declines: a model
    /// whose body accesses never complete within the tick that starts
    /// them has no stream ticks.
    fn stream_window(m: &Memory<Self>, streams: &[usize]) -> Option<u64> {
        let _ = (m, streams);
        None
    }

    /// See [`MemBackend::apply_stream_window`].
    fn apply_stream_window(m: &mut Memory<Self>, streams: &[usize], k: u64) {
        let _ = (m, streams, k);
        unreachable!("apply_stream_window on a service model without stream windows")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::PagePolicy;
    use crate::MemorySystem;

    /// Every input class the parser distinguishes, in one place — the
    /// documentation test for the `HWGC_MEM_BACKEND` grammar (the
    /// `jobs_from` convention).
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
