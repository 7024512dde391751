//! The cycle-level simulation engine.
//!
//! The engine owns the synchronization block, the memory system and the N
//! core state machines, and advances them in lock step: each simulated
//! clock cycle, the memory system ticks first (retiring completed
//! transactions and starting new DRAM services), then every core executes
//! one tick **in index order**. Ticking in index order realizes the SB's
//! static prioritization: when several cores contend for a lock in the
//! same cycle, the lowest-indexed requester acquires it; and a lock
//! released by core *i* can be re-acquired by a later-ticking core in the
//! same cycle — both exactly as in the paper's hardware.
//!
//! One loop simulates every configuration. Cycles in which a core's
//! retry provably fails again are not ticked: the core *parks* on its
//! own wake condition — a memory stall on the one port whose retirement
//! can change its retry, a lock stall on the SB resource it waits for,
//! and a core that just issued an access it waits on and that cannot
//! retire by the next tick at once, on that access's port — and the
//! stalls it would have recorded are replayed in bulk when it wakes.
//! When no core is awake the clock jumps to the memory system's next
//! activity, and when the only cores awake are streaming body words
//! through at burst speed the run replays in closed form
//! ([`GcConfig::fast_forward`]). Either way the run is bit-identical to
//! the reference loop (`fast_forward` off), which ticks every core every
//! cycle.
//!
//! A collection cycle has three phases, mirroring Section V-E:
//!
//! 1. **Root phase**: core 1 (index 0 here) stops the main processor,
//!    flips the semispaces, initialises `scan` and `free`, and evacuates
//!    the root set sequentially. Other cores wait at the initialization
//!    barrier (modelled by starting the parallel loop afterwards).
//! 2. **Parallel scan loop**: all cores run the microprogram until a core
//!    observes `scan == free` with all busy bits clear.
//! 3. **Drain**: all store buffers flush before the main processor would
//!    be restarted.
//!
//! The front doors share one loop: [`SimCollector::collect`]
//! (stop-the-world, the paper's configuration),
//! [`SimCollector::collect_concurrent`] (extension 3: the mutator ticks
//! first each cycle, at top SB priority) and
//! [`SimCollector::collect_probed`] (the observability bus —
//! [`SimCollector::collect_traced`] is `collect_probed` with the
//! [`SignalTrace`] adapter). The loop is generic over its
//! [`hwgc_obs::Probe`]; the probe-less doors pass [`NullProbe`], whose
//! `ACTIVE == false` compiles every emission site away, keeping the
//! steady-state loop allocation-free at its current cycle costs.

use hwgc_heap::header::Header;
use hwgc_heap::{Addr, Heap, NULL};
use hwgc_memsim::{
    DramMemorySystem, HeaderFifo, MemBackend, MemBackendKind, MemorySystem, Port, PORT_COUNT,
};
use hwgc_obs::{Event, HostProf, NullHostProf, NullProbe, Probe, SampleRec};
use hwgc_sync::{LockKind, SyncBlock};

use crate::concurrent::{MutatorConfig, MutatorSm, MutatorStats};
use crate::config::{GcConfig, MAX_CORES};
use crate::machine::{CoreSm, Ctx, State, TickOutcome, WorkCounters};
use crate::schedule::{CoreView, RandomOrder, SchedulePolicy, ScheduleView};
use crate::stats::{GcStats, StallReason};
use crate::trace::SignalTrace;

/// Result of a simulated collection cycle.
#[derive(Debug, Clone)]
pub struct GcOutcome {
    /// Final allocation frontier in tospace.
    pub free: Addr,
    /// Cycle-accurate statistics.
    pub stats: GcStats,
}

/// Result of a collection cycle that ran concurrently with the mutator.
#[derive(Debug, Clone)]
pub struct ConcurrentOutcome {
    /// Final allocation frontier (live data + objects allocated mid-GC).
    pub free: Addr,
    /// Collector statistics.
    pub stats: GcStats,
    /// Mutator progress and barrier statistics.
    pub mutator: MutatorStats,
}

/// The parallel collector on the simulated multi-core GC coprocessor.
#[derive(Debug, Clone, Copy)]
pub struct SimCollector {
    cfg: GcConfig,
}

/// The `engine.park.*` hostprof counter key for a park on `reason` —
/// one count per park *event* (the simulated cycles spent parked are in
/// `GcStats`; this is how often the sparse engine transitions a core to
/// sleep, per wake-condition class).
#[inline]
fn park_key(reason: StallReason) -> &'static str {
    match reason {
        StallReason::ScanLock => "engine.park.scan_lock",
        StallReason::FreeLock => "engine.park.free_lock",
        StallReason::HeaderLock => "engine.park.header_lock",
        StallReason::BodyLoad => "engine.park.body_load",
        StallReason::BodyStore => "engine.park.body_store",
        StallReason::HeaderLoad => "engine.park.header_load",
        StallReason::HeaderStore => "engine.park.header_store",
        StallReason::EmptySpin => "engine.park.empty_spin",
        StallReason::Drain => "engine.park.drain",
    }
}

/// Close a core's open stall run on the bus: emit the
/// [`Event::StallSpan`] for the `len` consecutive stalled cycles starting
/// at stamp `since`, stamped with the last stalled cycle. A span mirrors
/// the exact `StallBreakdown::record`/`record_n` calls of the run, so per
/// (core, reason) span lengths reconcile with the engine's stall counters
/// by construction.
#[inline]
fn flush_stall_run<P: Probe>(
    probe: &mut P,
    core: usize,
    run: &mut Option<(StallReason, u64, u64)>,
) {
    if let Some((reason, since, len)) = run.take() {
        probe.record(
            since + len - 1,
            &Event::StallSpan {
                core: core as u32,
                reason: reason.index(),
                name: reason.name(),
                since,
                len,
            },
        );
    }
}

/// The SB lock a stall of class `reason` failed to acquire, if any. Each
/// failed attempt counts, and logs a cycle-stamped event while the SB
/// event log is on.
fn lock_of(reason: StallReason) -> Option<LockKind> {
    match reason {
        StallReason::ScanLock => Some(LockKind::Scan),
        StallReason::FreeLock => Some(LockKind::Free),
        StallReason::HeaderLock => Some(LockKind::Header),
        _ => None,
    }
}

/// Park `core` on the memory ports whose retirement can change its retry
/// after a stall of class `reason` (`waiting[p]` holds the cores parked
/// on `Port::ALL[p]`). A load stall retries `load_ready` and a store
/// stall `try_issue` on one port, which no other retirement changes;
/// `Drain` polls all four.
fn await_ports(waiting: &mut [u64; PORT_COUNT], core: usize, reason: StallReason) {
    let port = match reason {
        StallReason::HeaderLoad => Port::HeaderLoad,
        StallReason::HeaderStore => Port::HeaderStore,
        StallReason::BodyLoad => Port::BodyLoad,
        StallReason::BodyStore => Port::BodyStore,
        StallReason::Drain => {
            for mask in waiting.iter_mut() {
                *mask |= 1 << core;
            }
            return;
        }
        _ => unreachable!("{} is not a memory stall", reason.name()),
    };
    waiting[port as usize] |= 1 << core;
}

/// Whom a scan-lock release by `releaser` wakes among the parked
/// `waiters` (a mask over core indices) under static priority, as
/// `(now, next)` masks: cores re-admitted into the executing cycle, and
/// cores that resume from the next one.
///
/// The hardware holds every loser of the SB arbitration; only the
/// elected core ever proceeds. So a release hands the lock to the cores
/// that can win it and leaves the rest parked: the lowest waiter — first
/// in the next cycle's tick order — and, only while the lock is still
/// `acquirable` in this cycle, the first waiter whose slot is still
/// ahead of the releaser's. `wake_all` is set where a waiter's retry
/// would no longer be a scan-lock failure at all (the release left the
/// work list empty, or `done` is up): then every waiter resumes, split
/// by whether its slot is still ahead.
fn scan_hand_off(waiters: u64, releaser: usize, acquirable: bool, wake_all: bool) -> (u64, u64) {
    let ahead = waiters & ((!1u64) << releaser);
    if wake_all {
        return (ahead, waiters & !ahead);
    }
    let lowest = |mask: u64| mask & mask.wrapping_neg();
    let now = if acquirable { lowest(ahead) } else { 0 };
    (now, lowest(waiters) & !now)
}

/// Fill `views` from the cores and the SB: the cycle-boundary snapshot a
/// schedule policy arranges against.
fn schedule_view<'v>(
    views: &'v mut [CoreView],
    cores: &[CoreSm],
    sb: &SyncBlock,
) -> ScheduleView<'v> {
    for (i, (view, core)) in views.iter_mut().zip(cores).enumerate() {
        *view = CoreView {
            pending_header: core.pending_header(),
            holds_header: sb.header_lock_of(i),
            holds_scan: sb.holds_scan(i),
            holds_free: sb.holds_free(i),
            busy: sb.is_busy(i),
        };
    }
    ScheduleView {
        scan: sb.scan(),
        free: sb.free(),
        cores: views,
    }
}

impl SimCollector {
    /// Collector with the given configuration.
    ///
    /// # Panics
    /// Panics unless `cfg.n_cores` lies in `1..=MAX_CORES`.
    pub fn new(cfg: GcConfig) -> SimCollector {
        assert!(
            (1..=MAX_CORES).contains(&cfg.n_cores),
            "n_cores = {} is outside the supported range 1..={MAX_CORES}",
            cfg.n_cores
        );
        SimCollector { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &GcConfig {
        &self.cfg
    }

    /// Run one stop-the-world collection cycle on `heap` (the paper's
    /// configuration: the main processor is stopped throughout).
    pub fn collect(&self, heap: &mut Heap) -> GcOutcome {
        let (free, stats, _) = self.run(heap, None, None, &mut NullProbe, &mut NullHostProf);
        GcOutcome { free, stats }
    }

    /// Run one collection cycle with `host` collecting *host-time*
    /// self-profiling: wall-clock phase timers and engine loop counters
    /// (parks, wakes, jumps, calendar pops). `GcStats` stay bit-identical
    /// to [`SimCollector::collect`] (the differential tests compare
    /// them): wall-clock quantities never flow back into the simulation.
    pub fn collect_hostprof<H: HostProf>(&self, heap: &mut Heap, host: &mut H) -> GcOutcome {
        let (free, stats, _) = self.run(heap, None, None, &mut NullProbe, host);
        GcOutcome { free, stats }
    }

    /// Run one collection cycle with `probe` subscribed to the event bus:
    /// typed, cycle-stamped events for phase boundaries, core state
    /// transitions, worklist claims, FIFO depth changes, periodic signal
    /// samples, and (bridged at the end, stamps already on the engine
    /// clock) the SB and memory-system operation logs. Observation is
    /// passive: the outcome and `GcStats` are bit-identical to
    /// [`SimCollector::collect`].
    pub fn collect_probed<P: Probe>(&self, heap: &mut Heap, probe: &mut P) -> GcOutcome {
        let (free, stats, _) = self.run(heap, None, None, probe, &mut NullHostProf);
        GcOutcome { free, stats }
    }

    /// Run one collection cycle while sampling internal signals into
    /// `trace` (extension 4, the paper's monitoring framework). A trace
    /// built with [`SignalTrace::with_events`] also receives the SB's
    /// complete cycle-stamped operation log. This is
    /// [`SimCollector::collect_probed`] with [`SignalTrace::as_probe`]:
    /// the classic CSV view rides the same bus as every other exporter.
    pub fn collect_traced(&self, heap: &mut Heap, trace: &mut SignalTrace) -> GcOutcome {
        let mut probe = trace.as_probe();
        let (free, stats, _) = self.run(heap, None, None, &mut probe, &mut NullHostProf);
        GcOutcome { free, stats }
    }

    /// Run one collection cycle with `policy` choosing the per-cycle core
    /// tick order (any legal SB arbiter — see [`crate::schedule`]). The
    /// functional outcome must match [`SimCollector::collect`] for every
    /// policy; only timing and stall attribution may shift.
    pub fn collect_scheduled(&self, heap: &mut Heap, policy: &mut dyn SchedulePolicy) -> GcOutcome {
        let (free, stats, _) =
            self.run(heap, None, Some(policy), &mut NullProbe, &mut NullHostProf);
        GcOutcome { free, stats }
    }

    /// [`SimCollector::collect_scheduled`] with signal/event tracing —
    /// the full harness configuration used by the `hwgc-check` sweeps.
    pub fn collect_scheduled_traced(
        &self,
        heap: &mut Heap,
        policy: &mut dyn SchedulePolicy,
        trace: &mut SignalTrace,
    ) -> GcOutcome {
        let mut probe = trace.as_probe();
        let (free, stats, _) = self.run(heap, None, Some(policy), &mut probe, &mut NullHostProf);
        GcOutcome { free, stats }
    }

    /// Extension 3 (paper Section V-B): run the collection cycle while the
    /// main processor keeps executing behind a hardware read barrier. The
    /// mutator ticks *first* each cycle (the main processor has top
    /// priority at the SB) and owns SB slot `n_cores`. Its registers (and
    /// any objects it allocated) are appended to the root set afterwards
    /// so everything it holds stays live. See [`crate::concurrent`].
    pub fn collect_concurrent(
        &self,
        heap: &mut Heap,
        mutator_cfg: &MutatorConfig,
    ) -> ConcurrentOutcome {
        let (free, stats, mutator) = self.run(
            heap,
            Some(*mutator_cfg),
            None,
            &mut NullProbe,
            &mut NullHostProf,
        );
        ConcurrentOutcome {
            free,
            stats,
            mutator: mutator.expect("mutator ran"),
        }
    }

    /// The shared collection loop, generic over the bus subscriber. With
    /// [`NullProbe`] every `P::ACTIVE` block compiles away; with an
    /// active probe, observation is passive (identical `GcStats`): bus
    /// events are *transitions*, skipped cycles are by construction
    /// transition-free, per-cycle SB lock-failure events keep their
    /// cores ticking, and sampled cycles cap every jump via
    /// [`Probe::next_sample`].
    fn run<P: Probe, H: HostProf>(
        &self,
        heap: &mut Heap,
        mutator_cfg: Option<MutatorConfig>,
        policy: Option<&mut dyn SchedulePolicy>,
        probe: &mut P,
        host: &mut H,
    ) -> (Addr, GcStats, Option<MutatorStats>) {
        // Static dispatch on the memory backend: each instantiation of
        // `run_backend` is monomorphized against its concrete backend.
        match self.cfg.mem.backend {
            MemBackendKind::Fixed => {
                self.run_backend::<P, H, MemorySystem>(heap, mutator_cfg, policy, probe, host)
            }
            MemBackendKind::Dram(_) => {
                self.run_backend::<P, H, DramMemorySystem>(heap, mutator_cfg, policy, probe, host)
            }
        }
    }

    /// [`SimCollector::run`] instantiated for one memory backend. `host`
    /// is the hostprof sink ([`NullHostProf`] on every probe door): like
    /// the probe, each `H::ACTIVE` site compiles away when inactive, so
    /// the quiet hot loop is unchanged.
    fn run_backend<P: Probe, H: HostProf, B: MemBackend>(
        &self,
        heap: &mut Heap,
        mutator_cfg: Option<MutatorConfig>,
        policy: Option<&mut dyn SchedulePolicy>,
        probe: &mut P,
        host: &mut H,
    ) -> (Addr, GcStats, Option<MutatorStats>) {
        let cfg = self.cfg;
        heap.flip();
        // One extra SB slot when the mutator participates (its header/free
        // locking and its busy bit for sound termination detection).
        let sb_slots = cfg.n_cores + usize::from(mutator_cfg.is_some());
        let mut sb = SyncBlock::new(sb_slots);
        sb.set_multiport(cfg.multiport_sb);
        if P::ACTIVE && probe.wants_sb_events() {
            sb.enable_event_log();
        }
        sb.init_pointers(heap.to_base(), heap.to_base());
        let mut mem = B::new_backend(cfg.n_cores, cfg.mem);
        if P::ACTIVE && probe.wants_mem_events() {
            mem.enable_event_log();
        }
        let mut fifo = HeaderFifo::new(cfg.mem.header_fifo_capacity);
        let mut counters = WorkCounters::default();
        let mut stats = GcStats::default();

        // --- Phase 1: sequential root evacuation by core 0 -------------
        if P::ACTIVE {
            probe.record(
                0,
                &Event::Phase {
                    name: "roots",
                    begin: true,
                },
            );
        }
        let host_root_start = host.now();
        self.root_phase(
            heap,
            &mut sb,
            &mut fifo,
            &mut counters,
            &mut stats,
            mem.uncontended_read_latency(),
        );
        if H::ACTIVE {
            let t = host.now();
            host.time("phase.root", t - host_root_start);
            host.span("phase.root", host_root_start, t);
        }
        let host_steady_start = host.now();
        let mut mutator = mutator_cfg.map(|mcfg| MutatorSm::new(mcfg, heap.roots(), cfg.n_cores));

        // --- Phase 2+3: parallel scan loop and drain --------------------
        let mut cores: Vec<CoreSm> = (0..cfg.n_cores).map(CoreSm::new).collect();
        let mut done = false;
        let mut cycles: u64 = stats.root_phase_cycles;
        // Align the SB and memory clocks with the engine's cycle numbering
        // (the root phase advances the SB clock as it charges cycles, but
        // the memory system was just built at cycle 0), so every unit's
        // event stamps equal engine cycles from here on.
        sb.set_cycle(cycles);
        mem.set_cycle(cycles);
        // Mirror of each core's microprogram state as a bus-index buffer:
        // kept current by the transition emissions, borrowed by `Sample`
        // events so sampling never allocates.
        let mut prev_states: Vec<u8> = if P::ACTIVE {
            vec![State::Poll.index(); cfg.n_cores]
        } else {
            Vec::new()
        };
        // Open stall run per core: `(reason, first stalled stamp, length)`.
        // Grown by stalled ticks (+1) and by the replay at a parked core's
        // wake (+k); flushed as one `StallSpan` when the cause resolves —
        // so skipped cycles emit nothing and probe-on streams stay
        // identical to a run that ticks every cycle.
        let mut stall_runs: Vec<Option<(StallReason, u64, u64)>> = if P::ACTIVE {
            vec![None; cfg.n_cores]
        } else {
            Vec::new()
        };
        let mut prev_fifo_len = fifo.len() as u32;
        if P::ACTIVE {
            probe.record(
                cycles,
                &Event::Phase {
                    name: "roots",
                    begin: false,
                },
            );
            probe.record(
                cycles,
                &Event::Phase {
                    name: "scan",
                    begin: true,
                },
            );
            for (i, &state) in prev_states.iter().enumerate() {
                probe.record(
                    cycles,
                    &Event::CoreState {
                        core: i as u32,
                        state,
                        name: State::name_of(state),
                    },
                );
            }
            if prev_fifo_len > 0 {
                probe.record(
                    cycles,
                    &Event::FifoDepth {
                        depth: prev_fifo_len,
                    },
                );
            }
        }
        let mut order: Vec<usize> = (0..cfg.n_cores).collect();
        // Back-compat: the `tick_permutation_seed` knob is the RandomOrder
        // policy (bit-identical shuffles). An explicit policy wins.
        let mut seeded_fallback = cfg.tick_permutation_seed.map(RandomOrder::new);
        let mut policy: Option<&mut dyn SchedulePolicy> = match policy {
            Some(p) => Some(p),
            None => seeded_fallback
                .as_mut()
                .map(|p| p as &mut dyn SchedulePolicy),
        };
        // Preallocated per-cycle scratch: the steady-state loop must not
        // allocate.
        let mut views: Vec<CoreView> = vec![CoreView::default(); cfg.n_cores];

        // ===============================================================
        // The loop. Every core is *awake* (it ticks in every executed
        // cycle) or *parked*: its coming retries provably fail until a
        // wake condition fires, so it does not tick, and the stalls those
        // retries would have recorded are replayed in bulk when it wakes.
        // Contract: bit-identical GcStats, SB event log, probe streams and
        // trace rows to ticking every core every cycle (the reference
        // loop, `fast_forward` off, the reference side of the
        // differential tests).
        //
        // A stalled core parks on the wake condition of its stall class:
        //
        //   ScanLock, holder-held ... SB scan-waiter list, handed off
        //                             at a release (below)
        //   ScanLock, write-port .... stays awake (port re-arms next
        //                             cycle, the retry may succeed)
        //   FreeLock ................ stays awake (the free lock never
        //                             crosses a cycle boundary, so
        //                             every failure is a same-cycle
        //                             conflict)
        //   HeaderLock .............. SB per-address header list
        //   EmptySpin ............... SB empty list (set_free or a
        //                             busy-bit clear re-arms the
        //                             termination test it polls)
        //   memory stalls ........... the awaited port's retirement
        //                             (`await_ports`: a retry reads one
        //                             port of the core's own, which only
        //                             a retirement on it changes, and
        //                             the feed masks report each one
        //                             per port); Drain awaits all four
        //   issued an access that ... parks at issue, on that access's
        //   cannot retire by the      port (`TickOutcome::Awaiting`:
        //   next tick                 every retry until it retires
        //                             stalls). Six sites: the four
        //                             random loads, the copy's next
        //                             body load and the fromspace
        //                             header store an overflowing gray
        //                             header waits behind. The backend
        //                             answers at issue (`Issue::Later`);
        //                             a header-cache hit and a fixed-
        //                             backend zero-latency burst are
        //                             plain progress (parking a burst
        //                             cost more than the tick it saves)
        //
        // Lock-failure retries are impure (each failed attempt counts, and
        // logs an event when the SB log is on): the skipped attempts are
        // replayed in bulk at wake time, and with the event log on the lock
        // classes never park, so every per-cycle fail event is a real tick.
        // All other parked retries are provably side-effect-free
        // self-loops, so a skipped cycle replays as `record_n` alone.
        //
        // Scan-lock waiters are the one class a wake condition does not
        // drain. Static priority elects exactly one of them, so a release
        // wakes only the cores that can win (`scan_hand_off`) and the
        // losers stay parked with `park_since` untouched — every failure
        // they would have ticked through is still replayed, in bulk, at
        // their eventual wake. Everyone wakes where the winner is not
        // computable or the retry changes class: under a schedule policy
        // (the next cycle's order is not known at release time), when the
        // release leaves the work list empty (waiters fall through to the
        // termination test) and once `done` is up.
        //
        // Two jumps move the clock past cycles nobody needs to tick:
        //
        // * all-parked jump: when nobody is awake, the clock jumps to one
        //   short of the memory system's next activity (its retirement or
        //   service-start horizon, the event calendar of this engine; every
        //   SB wake is caused by a core tick, which cannot happen while
        //   every core sleeps), replaying policy `arrange`s against the
        //   frozen view;
        // * stream jump (static order): every tick of the cycle consumed a
        //   pass-through body word, stored it and issued the next load
        //   (`CoreSm::stream_len`), every other core is parked or done, and
        //   memory holds nothing but those zero-latency burst pairs
        //   (`MemBackend::stream_window`): `k` such cycles replay in closed
        //   form. A streaming core touches neither the SB nor the FIFO, so
        //   no SB wake can fire; no parked core's port retires before the
        //   next retirement (which bounds `k`); and the queue pins the
        //   order. A streaming core's burst accesses answer `Issue::Soon`
        //   and keep it awake, which is why this jump is taken at the end
        //   of a cycle and not in the all-parked branch.
        //
        // Both stop at the next cycle the probe wants sampled and one short
        // of `max_cycles`, so the real cycle after them trips the watchdog
        // exactly where the reference loop does. A mutator ticks every
        // cycle and can touch any SB resource: it forces the reference
        // loop, as `fast_forward` off does.
        // ===============================================================
        let static_order = policy.is_none();
        let sparse = cfg.fast_forward && mutator.is_none();
        if sparse {
            sb.enable_wake_tracking();
            mem.enable_wake_feed();
        }
        let n = cfg.n_cores;
        // Cores not parked. Parked ⇒ `park_reason` is `Some`, except for
        // Done cores, which never wake (their ticks would be no-op
        // `Parked` outcomes).
        let mut awake: u64 = u64::MAX >> (64 - n);
        // Slots (below) ticking in the cycle currently executing.
        let mut cur: u64;
        let mut park_reason: Vec<Option<StallReason>> = vec![None; n];
        // Cycle stamp of each core's parking tick (which recorded its own
        // stall, or issued the load it awaits); replay at wake covers the
        // cycles after it.
        let mut park_since: Vec<u64> = vec![0; n];
        // Per port, the cores parked on its next retirement.
        let mut waiting = [0u64; PORT_COUNT];
        // Slot of each core in this cycle's tick order, the inverse of
        // `order`; both stay the identity under static priority.
        let mut pos_of: Vec<usize> = (0..n).collect();
        // Drain buffer for SB wake notifications (the macro below needs
        // `sb` mutably). A core sits on at most one list.
        let mut wake_scratch: Vec<usize> = Vec::with_capacity(sb_slots);
        let mut done_announced = false;
        // O(1) termination: `Done` is permanent, so counting the entries
        // replaces an all-cores scan; with every core `Done` the clock
        // jumps to the retirement that drains the last transaction.
        let mut done_count: usize = 0;
        // Stream-jump candidates: this cycle's stream ticks, in tick order,
        // recorded only while `stream_ok` holds — no other tick yet, and
        // room in the memory bandwidth for one more store/load pair.
        let stream_cap = if sparse && static_order {
            cfg.mem.bandwidth as usize / 2
        } else {
            0
        };
        let mut streams: Vec<usize> = Vec::with_capacity(stream_cap.min(n));
        let mut stream_ok: bool;

        // Wake core `$w` if parked: replay the stalls its skipped retries
        // would have recorded, then re-admit it — into the executing cycle
        // when `$this_cycle` (its slot in the tick order is still ahead, or
        // the wake arrived at cycle start), else from the next cycle.
        // `cycles` is pre-increment here, so the executing cycle is
        // `cycles + 1`: a core ticking this cycle replays
        // `cycles - park_since` skipped stalls, one more if its retry this
        // cycle already failed behind the waker's back. `$wake_key` is the
        // hostprof counter of the wake's cause class (`engine.wake.*`).
        macro_rules! wake_parked {
            ($w:expr, $this_cycle:expr, $wake_key:expr) => {{
                let w: usize = $w;
                if let Some(reason) = park_reason[w] {
                    if H::ACTIVE {
                        host.count($wake_key, 1);
                    }
                    let this_cycle: bool = $this_cycle;
                    let k = if this_cycle {
                        cycles - park_since[w]
                    } else {
                        cycles + 1 - park_since[w]
                    };
                    if k > 0 {
                        cores[w].stalls.record_n(reason, k);
                        // Parked lock waiters fail their acquisition every
                        // skipped cycle (and only park while the SB event
                        // log is off).
                        if let Some(lock) = lock_of(reason) {
                            sb.bulk_fail(lock, k);
                        }
                        if P::ACTIVE {
                            match &mut stall_runs[w] {
                                Some((r, _, len)) if *r == reason => *len += k,
                                run => {
                                    flush_stall_run(probe, w, run);
                                    *run = Some((reason, park_since[w] + 1, k));
                                }
                            }
                        }
                    }
                    park_reason[w] = None;
                    sb.cancel_park(w);
                    for mask in waiting.iter_mut() {
                        *mask &= !(1u64 << w);
                    }
                    awake |= 1u64 << w;
                    if this_cycle {
                        cur |= 1u64 << pos_of[w];
                    }
                }
            }};
        }

        // A `Sample` of the current, frozen or just-ticked, state.
        macro_rules! record_sample {
            () => {
                probe.record(
                    cycles,
                    &Event::Sample(SampleRec {
                        scan: sb.scan(),
                        free: sb.free(),
                        gray_words: sb.free() - sb.scan(),
                        busy_cores: sb.busy_count() as u32,
                        fifo_len: fifo.len() as u32,
                        queue_depth: mem.queue_len() as u32,
                        states: &prev_states,
                        state_name: State::name_of,
                    }),
                )
            };
        }

        loop {
            if awake == 0 && sparse {
                // Every core is parked: jump the clock to the earliest
                // wake. SB wakes need a core tick, so the only future
                // activity is the memory system's.
                let wake_target = mem.next_activity_cycle().unwrap_or(u64::MAX);
                assert!(
                    wake_target != u64::MAX,
                    "deadlock: every core parked with no wake condition; \
                     park reasons {:?}; oldest in-flight txn age {:?}; core states {:?}",
                    park_reason,
                    mem.oldest_inflight_age(),
                    cores.iter().map(|c| c.state()).collect::<Vec<_>>()
                );
                // Cores resume at `wake_target`; the skip covers the hollow
                // cycles before it — unless the probe wants a cycle sampled
                // first, in which case land exactly on it (state is frozen,
                // so the sample replays bit for bit) and keep jumping from
                // there.
                let mut k = wake_target - 1 - cycles;
                let mut sample_landing = false;
                if P::ACTIVE {
                    if let Some(ns) = probe.next_sample(cycles + 1) {
                        if ns < wake_target {
                            k = ns - cycles;
                            sample_landing = true;
                        }
                    }
                }
                let cap = cfg.max_cycles - 1 - cycles;
                if k > cap {
                    k = cap;
                    sample_landing = false;
                }
                if k > 0 {
                    if H::ACTIVE {
                        host.count("engine.jump.all_parked", 1);
                        host.count("engine.jump.all_parked_cycles", k);
                        host.sample("engine.jump.len", k);
                    }
                    if let Some(p) = policy.as_deref_mut() {
                        // Replay the per-cycle arranges against the frozen
                        // state so the policy's RNG stream (and therefore
                        // every later cycle's order) stays aligned.
                        let view = schedule_view(&mut views, &cores, &sb);
                        for x in 1..=k {
                            p.arrange(cycles + x, &view, &mut order);
                        }
                    }
                    cycles += k;
                    sb.fast_forward(k);
                    mem.fast_forward(k);
                    if sb.scan() == sb.free() {
                        stats.empty_worklist_cycles += k;
                    }
                    if P::ACTIVE && sample_landing {
                        record_sample!();
                        continue;
                    }
                }
                // The very next tick has memory work (a retirement, a
                // queued service start or a comparator re-check) or the
                // watchdog bound: run it for real below — with no cores
                // ticking, it is cheap.
                if H::ACTIVE {
                    host.count("engine.calendar.pops", 1);
                }
            }

            if H::ACTIVE {
                host.count("engine.cycles_executed", 1);
                let t0 = host.now();
                mem.tick();
                host.time("mem.tick", host.now() - t0);
            } else {
                mem.tick();
            }
            sb.begin_cycle();
            if let Some(m) = mutator.as_mut() {
                m.tick(heap, &mut sb, &mut fifo);
            }
            if let Some(p) = policy.as_deref_mut() {
                p.arrange(
                    cycles + 1,
                    &schedule_view(&mut views, &cores, &sb),
                    &mut order,
                );
                for (pos, &idx) in order.iter().enumerate() {
                    pos_of[idx] = pos;
                }
                cur = 0;
                let mut rem = awake;
                while rem != 0 {
                    let c = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    cur |= 1u64 << pos_of[c];
                }
            } else {
                cur = awake;
            }
            // Retirements in this memory tick wake the cores parked on
            // their ports into this cycle — exactly the cycle a per-cycle
            // run would first see the retry succeed.
            let retired = mem.take_wakes();
            let mut woken = 0;
            for (r, w) in retired.iter().zip(&waiting) {
                woken |= r & w;
            }
            while woken != 0 {
                let w = woken.trailing_zeros() as usize;
                woken &= woken - 1;
                wake_parked!(w, true, "engine.wake.mem");
            }
            streams.clear();
            stream_ok = stream_cap > 0;
            // Tick the awake cores in this cycle's order: `cur` holds one
            // bit per slot (the core index itself under static priority,
            // the paper's arbiter), so the walk visits only the cores that
            // tick — no O(n_cores) scan. A core woken during the tick in
            // `slot` ticks in this cycle exactly when its own slot lies
            // after it, and the re-OR after each tick folds such additions
            // into the walk (`(!1u64) << slot` is the bits strictly above
            // `slot`).
            let mut rem = cur;
            while rem != 0 {
                let slot = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                let idx = if static_order { slot } else { order[slot] };
                let scan_before = if P::ACTIVE { sb.scan() } else { 0 };
                let before = cores[idx].state();
                let mut ctx = Ctx {
                    heap,
                    sb: &mut sb,
                    mem: &mut mem,
                    fifo: &mut fifo,
                    done: &mut done,
                    counters: &mut counters,
                    test_before_lock: cfg.test_before_lock,
                    line_split: cfg.line_split,
                };
                let outcome = cores[idx].tick(&mut ctx);
                let after = cores[idx].state();
                if P::ACTIVE {
                    // A stalled tick extends the open run (stamped
                    // `cycles + 1`, like every stall this tick records);
                    // progress closes it.
                    let run = &mut stall_runs[idx];
                    if let TickOutcome::Stalled(reason) = outcome {
                        match run {
                            Some((r, _, len)) if *r == reason => *len += 1,
                            _ => {
                                flush_stall_run(probe, idx, run);
                                *run = Some((reason, cycles + 1, 1));
                            }
                        }
                    } else {
                        flush_stall_run(probe, idx, run);
                    }
                    // Transition events are stamped with the cycle the
                    // tick completes.
                    let state = after.index();
                    if prev_states[idx] != state {
                        prev_states[idx] = state;
                        probe.record(
                            cycles + 1,
                            &Event::CoreState {
                                core: idx as u32,
                                state,
                                name: State::name_of(state),
                            },
                        );
                    }
                    let scan_after = sb.scan();
                    if scan_after != scan_before {
                        probe.record(
                            cycles + 1,
                            &Event::WorklistClaim {
                                core: idx as u32,
                                from: scan_before,
                                to: scan_after,
                            },
                        );
                    }
                }
                // The park this tick ends in, if any (catalog).
                let park = match outcome {
                    TickOutcome::Parked => {
                        // Done core: it never ticks again, and the
                        // termination check below fires on the very cycle
                        // the last core arrives — `Parked` ticks record
                        // nothing, so nothing is replayed either.
                        awake &= !(1u64 << idx);
                        None
                    }
                    TickOutcome::Progress => {
                        // `Done` is entered only by a productive tick.
                        if after == State::Done {
                            done_count += 1;
                        }
                        // A stream-jump candidate? The only productive
                        // paths from `CopyWait` or `StoreWord` back to
                        // `CopyWait` are the stream tick and its second
                        // half alone, retried after a busy store port: the
                        // SB and the FIFO untouched.
                        if stream_ok {
                            stream_ok = matches!(before, State::CopyWait | State::StoreWord)
                                && after == State::CopyWait
                                && streams.len() < stream_cap;
                            if stream_ok {
                                streams.push(idx);
                            }
                        }
                        None
                    }
                    TickOutcome::Awaiting(_) | TickOutcome::Stalled(_) if !sparse => None,
                    TickOutcome::Awaiting(reason) => {
                        // Park at issue (catalog): the replay at the
                        // access's retirement records the stalls of every
                        // skipped retry, as it does for a core that
                        // stalled once.
                        stream_ok = false;
                        await_ports(&mut waiting, idx, reason);
                        Some(reason)
                    }
                    TickOutcome::Stalled(reason) => {
                        // Park on the wake condition (catalog). A scan-lock
                        // write-port conflict (owner already gone) clears
                        // next cycle, and with the event log on every lock
                        // failure must be a real tick; the empty-worklist
                        // retry is pure (no lock, no stats, no events).
                        stream_ok = false;
                        let log = sb.event_log_enabled();
                        match reason {
                            StallReason::ScanLock if !log && sb.scan_owner().is_some() => {
                                sb.park_on_scan_release(idx);
                                Some(reason)
                            }
                            StallReason::HeaderLock if !log => {
                                let addr = cores[idx]
                                    .pending_header()
                                    .expect("header-lock stall without a pending header");
                                sb.park_on_header(idx, addr);
                                Some(reason)
                            }
                            StallReason::ScanLock
                            | StallReason::FreeLock
                            | StallReason::HeaderLock => None,
                            StallReason::EmptySpin => {
                                sb.park_on_empty(idx);
                                Some(reason)
                            }
                            StallReason::BodyLoad
                            | StallReason::BodyStore
                            | StallReason::HeaderLoad
                            | StallReason::HeaderStore
                            | StallReason::Drain => {
                                await_ports(&mut waiting, idx, reason);
                                Some(reason)
                            }
                        }
                    }
                };
                if let Some(reason) = park {
                    if H::ACTIVE {
                        host.count(park_key(reason), 1);
                    }
                    park_reason[idx] = Some(reason);
                    park_since[idx] = cycles + 1;
                    awake &= !(1u64 << idx);
                }
                // SB operations in this tick may have woken parked
                // cores. A woken core whose slot is still ahead ticks
                // this cycle (its retry now succeeds, as in a per-cycle
                // run); one whose slot already passed failed once more
                // behind the waker's back and resumes next cycle.
                if !sb.wakes().is_empty() {
                    wake_scratch.clear();
                    wake_scratch.extend_from_slice(sb.wakes());
                    sb.clear_wakes();
                    for &w in &wake_scratch {
                        wake_parked!(w, pos_of[w] > slot, "engine.wake.sb");
                    }
                }
                // Scan-lock hand-off (see the catalog). A candidate
                // admitted from the next cycle has this cycle's failure
                // (behind the releaser's back, or against the spent
                // write port) accounted in bulk.
                let waiters = sb.take_scan_release();
                if waiters != 0 {
                    let (now, next) = if static_order {
                        scan_hand_off(
                            waiters,
                            idx,
                            sb.scan_acquirable(),
                            sb.scan() >= sb.free() || done,
                        )
                    } else {
                        (waiters, 0)
                    };
                    let mut woken = now | next;
                    while woken != 0 {
                        let w = woken.trailing_zeros() as usize;
                        woken &= woken - 1;
                        wake_parked!(
                            w,
                            now & (1u64 << w) != 0 && pos_of[w] > slot,
                            "engine.wake.sb"
                        );
                    }
                }
                if done && !done_announced {
                    // Termination broadcast: every poll retry reads the
                    // done flag, so no park may outlive it. (Every parked
                    // core also has an ordinary wake pending: this is
                    // one-shot insurance.)
                    done_announced = true;
                    for c in 0..n {
                        if park_reason[c].is_some() {
                            wake_parked!(c, pos_of[c] > slot, "engine.wake.done");
                        }
                    }
                }
                rem |= cur & ((!1u64) << slot);
            }
            cycles += 1;
            if sb.scan() == sb.free() {
                stats.empty_worklist_cycles += 1;
            }
            if P::ACTIVE {
                let fifo_len = fifo.len() as u32;
                if fifo_len != prev_fifo_len {
                    prev_fifo_len = fifo_len;
                    probe.record(cycles, &Event::FifoDepth { depth: fifo_len });
                }
                if probe.next_sample(cycles) == Some(cycles) {
                    record_sample!();
                }
            }
            if done_count == n && mem.all_idle() {
                break;
            }
            assert!(
                cycles < cfg.max_cycles,
                "simulation exceeded {} cycles; oldest in-flight txn age {:?}; core states {:?}",
                cfg.max_cycles,
                mem.oldest_inflight_age(),
                cores.iter().map(|c| c.state()).collect::<Vec<_>>()
            );

            if stream_ok && !streams.is_empty() && awake.count_ones() as usize == streams.len() {
                // Every tick of this cycle was a stream tick and every
                // other core is parked or done: replay the streams in
                // closed form. The jump's length is bounded by the shortest
                // remaining run, the watchdog, the next cycle the probe
                // wants sampled, and what the backend can replay. Parked
                // cores replay the skipped cycles at their wake.
                let mut k = cfg.max_cycles - 1 - cycles;
                for &i in &streams {
                    k = cores[i].stream_len(heap, k);
                }
                if P::ACTIVE {
                    if let Some(ns) = probe.next_sample(cycles + 1) {
                        k = k.min(ns.saturating_sub(cycles + 1));
                    }
                }
                if k > 0 {
                    k = k.min(mem.stream_window(&streams).unwrap_or(0));
                }
                if k > 0 {
                    if H::ACTIVE {
                        host.count("engine.ff.stream_jumps", 1);
                        host.count("engine.ff.stream_cycles", k);
                    }
                    for &i in &streams {
                        cores[i].stream_advance(heap, &mut counters, k as u32);
                    }
                    mem.apply_stream_window(&streams, k);
                    sb.fast_forward(k);
                    if sb.scan() == sb.free() {
                        stats.empty_worklist_cycles += k;
                    }
                    cycles += k;
                }
            }
        }
        debug_assert!(cores.iter().all(|c| c.state() == State::Done));

        if H::ACTIVE {
            let t = host.now();
            host.time("phase.steady", t - host_steady_start);
            host.span("phase.steady", host_steady_start, t);
        }

        debug_assert!(
            fifo.is_empty(),
            "gray headers left in the FIFO after termination"
        );
        sb.assert_quiescent();

        if P::ACTIVE {
            // Any run still open at termination (the final tick of a core
            // can stall and then the loop exits on another core's
            // progress) flushes here, so span sums stay exact.
            for (i, run) in stall_runs.iter_mut().enumerate() {
                flush_stall_run(probe, i, run);
            }
            probe.record(
                cycles,
                &Event::Phase {
                    name: "scan",
                    begin: false,
                },
            );
            // Bridge the hardware units' complete operation logs onto the
            // bus. Their stamps are already on the engine clock (both
            // units were aligned after the root phase and tick in lock
            // step), so exporters see one unified timeline.
            if sb.event_log_enabled() {
                for rec in sb.take_event_log() {
                    probe.record(rec.cycle, &Event::Sb(rec));
                }
            }
            if mem.event_log_enabled() {
                for rec in mem.take_event_log() {
                    probe.record(rec.cycle, &Event::Mem(rec));
                }
            }
        }

        let free = sb.free();
        heap.set_alloc_ptr(free);
        if let Some(m) = &mutator {
            // Everything in the register file stays live, as do mid-cycle
            // allocations (which may only be referenced by a register).
            for &r in m.regs.iter().chain(m.allocated.iter()) {
                if r != NULL {
                    heap.add_root(r);
                }
            }
        }

        stats.total_cycles = cycles;
        stats.per_core = cores.iter().map(|c| c.stalls).collect();
        for c in &cores {
            stats.stall.merge(&c.stalls);
        }
        stats.objects_copied = counters.objects_copied;
        stats.words_copied = counters.words_copied;
        stats.pointers_visited = counters.pointers_visited;
        stats.chunks_claimed = counters.chunks_claimed;
        stats.fifo = fifo.stats();
        // The memory system and SB are drained; move their stats out
        // instead of cloning.
        stats.mem = mem.into_stats();
        stats.sync = sb.into_stats();
        (free, stats, mutator.map(|m| m.stats))
    }

    /// Core 1 evacuates every object referenced by the root set and
    /// redirects the roots (paper Section V-E: it reads the main
    /// processor's registers and flushes its caches). The phase is
    /// inherently sequential; its cycle cost is charged before the
    /// parallel loop starts. Per root: one header read (`latency + 1`
    /// cycles — no FIFO or pipelining helps here) plus, for unmarked
    /// targets, the evacuation register/store work.
    fn root_phase(
        &self,
        heap: &mut Heap,
        sb: &mut SyncBlock,
        fifo: &mut HeaderFifo,
        counters: &mut WorkCounters,
        stats: &mut GcStats,
        read_latency: u32,
    ) {
        let mut cycles: u64 = 0;
        let read_cost = read_latency as u64 + 1;
        for i in 0..heap.roots().len() {
            // Each root takes several cycles; the register write ports
            // re-arm accordingly. Keep the SB clock on the *engine*
            // cycle count (each root charges `read_cost`-plus cycles,
            // not one) so root-phase event stamps live on the same
            // timeline as everything after — the trace lint and the
            // exporters rely on one clock.
            sb.set_cycle(cycles);
            sb.begin_cycle();
            let r = heap.roots()[i];
            stats.roots_processed += 1;
            if r == NULL {
                cycles += 1;
                continue;
            }
            debug_assert!(heap.in_fromspace(r), "root {r} not in fromspace");
            cycles += read_cost;
            let h = heap.header(r);
            let fwd = if h.marked {
                h.link
            } else {
                let dst = sb.free();
                let size = h.size_words();
                assert!(dst + size <= heap.to_limit(), "tospace overflow");
                // Advance free through the lock for stats consistency.
                assert!(sb.try_acquire_free(0));
                sb.set_free(0, dst + size);
                sb.release_free(0);
                heap.set_header(dst, Header::gray(h.pi, h.delta, r));
                heap.set_header(r, Header::forwarded(h.pi, h.delta, dst));
                let (w0, w1) = Header::gray(h.pi, h.delta, r).encode();
                if !fifo.push(dst, w0, w1) {
                    // Gray header must go through memory: charge the store.
                    cycles += read_latency as u64;
                }
                counters.objects_copied += 1;
                counters.words_copied += size as u64;
                cycles += 2; // fromspace header store issue + register work
                dst
            };
            heap.set_root(i, fwd);
        }
        stats.root_phase_cycles = cycles;
        // Until the first evacuation the work list is empty; count those
        // cycles for Table I. After the first evacuation scan < free for
        // the rest of the phase.
        if counters.objects_copied == 0 {
            stats.empty_worklist_cycles += cycles;
        } else {
            stats.empty_worklist_cycles += read_cost.min(cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqCheney;
    use hwgc_heap::{verify_collection, GraphBuilder, Snapshot};

    fn diamond(semi: u32) -> Heap {
        let mut heap = Heap::new(semi);
        let mut b = GraphBuilder::new(&mut heap);
        let r = b.add(2, 1).unwrap();
        let l = b.add(1, 2).unwrap();
        let rr = b.add(1, 2).unwrap();
        let bot = b.add(0, 4).unwrap();
        let dead = b.add(1, 8).unwrap();
        b.link(r, 0, l);
        b.link(r, 1, rr);
        b.link(l, 0, bot);
        b.link(rr, 0, bot);
        b.link(dead, 0, bot);
        b.root(r);
        heap
    }

    #[test]
    fn one_core_collects_diamond() {
        let mut heap = diamond(500);
        let snap = Snapshot::capture(&heap);
        let out = SimCollector::new(GcConfig::with_cores(1)).collect(&mut heap);
        assert_eq!(out.stats.objects_copied, 4);
        verify_collection(&heap, out.free, &snap).unwrap();
        assert!(out.stats.total_cycles > 0);
    }

    #[test]
    fn multi_core_collects_diamond() {
        for n in [2, 3, 4, 8, 16] {
            let mut heap = diamond(500);
            let snap = Snapshot::capture(&heap);
            let out = SimCollector::new(GcConfig::with_cores(n)).collect(&mut heap);
            assert_eq!(out.stats.objects_copied, 4, "{n} cores");
            verify_collection(&heap, out.free, &snap).unwrap();
        }
    }

    #[test]
    fn max_cores_fill_the_core_masks_in_either_loop() {
        for fast_forward in [true, false] {
            let mut heap = diamond(500);
            let snap = Snapshot::capture(&heap);
            let cfg = GcConfig {
                fast_forward,
                ..GcConfig::with_cores(MAX_CORES)
            };
            let out = SimCollector::new(cfg).collect(&mut heap);
            verify_collection(&heap, out.free, &snap).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "n_cores = 65 is outside the supported range 1..=64")]
    fn one_core_past_max_cores_is_refused() {
        SimCollector::new(GcConfig::with_cores(MAX_CORES + 1));
    }

    #[test]
    fn matches_sequential_reference() {
        let mut h1 = diamond(500);
        let mut h2 = diamond(500);
        let seq = SeqCheney::new().collect(&mut h1);
        let sim = SimCollector::new(GcConfig::with_cores(4)).collect(&mut h2);
        assert_eq!(seq.objects_copied, sim.stats.objects_copied);
        assert_eq!(seq.words_copied, sim.stats.words_copied);
        assert_eq!(seq.free, sim.free);
    }

    #[test]
    fn deterministic_cycle_counts() {
        let run = || {
            let mut heap = diamond(500);
            SimCollector::new(GcConfig::with_cores(4))
                .collect(&mut heap)
                .stats
                .total_cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_roots_terminate_immediately() {
        let mut heap = Heap::new(100);
        let out = SimCollector::new(GcConfig::with_cores(8)).collect(&mut heap);
        assert_eq!(out.stats.objects_copied, 0);
        assert_eq!(out.free, heap.to_base());
        assert!(out.stats.total_cycles < 100);
    }

    #[test]
    fn test_before_lock_is_functionally_equivalent() {
        let mut h1 = diamond(500);
        let mut h2 = diamond(500);
        let snap = Snapshot::capture(&h1);
        let a = SimCollector::new(GcConfig::with_cores(4)).collect(&mut h1);
        let cfg = GcConfig {
            test_before_lock: true,
            ..GcConfig::with_cores(4)
        };
        let b = SimCollector::new(cfg).collect(&mut h2);
        verify_collection(&h1, a.free, &snap).unwrap();
        verify_collection(&h2, b.free, &snap).unwrap();
        assert_eq!(a.stats.objects_copied, b.stats.objects_copied);
    }

    #[test]
    fn back_to_back_sim_cycles() {
        let mut heap = diamond(500);
        let snap1 = Snapshot::capture(&heap);
        let out1 = SimCollector::new(GcConfig::with_cores(2)).collect(&mut heap);
        verify_collection(&heap, out1.free, &snap1).unwrap();
        let snap2 = Snapshot::capture(&heap);
        let out2 = SimCollector::new(GcConfig::with_cores(2)).collect(&mut heap);
        verify_collection(&heap, out2.free, &snap2).unwrap();
        assert_eq!(out1.stats.words_copied, out2.stats.words_copied);
    }

    #[test]
    fn null_roots_are_preserved() {
        let mut heap = Heap::new(200);
        let mut b = GraphBuilder::new(&mut heap);
        let r = b.add(0, 1).unwrap();
        b.root(r);
        heap.add_root(NULL);
        let snap = Snapshot::capture(&heap);
        let out = SimCollector::new(GcConfig::with_cores(2)).collect(&mut heap);
        verify_collection(&heap, out.free, &snap).unwrap();
        assert_eq!(heap.roots()[1], NULL);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let mut heap = diamond(500);
        let out = SimCollector::new(GcConfig::with_cores(4)).collect(&mut heap);
        let s = &out.stats;
        assert_eq!(s.per_core.len(), 4);
        assert!(s.empty_worklist_cycles <= s.total_cycles);
        // Per-core stalls can never exceed total cycles.
        for pc in &s.per_core {
            assert!(pc.total_stalls() + pc.empty_spin + pc.drain <= s.total_cycles);
        }
    }

    #[test]
    fn scheduled_collection_matches_static_functionally() {
        use crate::schedule::{Adversarial, RandomOrder, SchedulePolicy};
        let mut h0 = diamond(500);
        let snap = Snapshot::capture(&h0);
        let base = SimCollector::new(GcConfig::with_cores(4)).collect(&mut h0);
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let policies: [Box<dyn SchedulePolicy>; 2] = [
                Box::new(RandomOrder::new(seed)),
                Box::new(Adversarial::new(seed)),
            ];
            for mut p in policies {
                let mut heap = diamond(500);
                let out = SimCollector::new(GcConfig::with_cores(4))
                    .collect_scheduled(&mut heap, p.as_mut());
                assert_eq!(
                    out.stats.objects_copied,
                    base.stats.objects_copied,
                    "{}",
                    p.name()
                );
                assert_eq!(
                    out.stats.words_copied,
                    base.stats.words_copied,
                    "{}",
                    p.name()
                );
                assert_eq!(out.free, base.free, "{}", p.name());
                verify_collection(&heap, out.free, &snap).unwrap();
            }
        }
    }

    #[test]
    fn random_policy_matches_tick_permutation_seed() {
        // The legacy knob and the RandomOrder policy are the same arbiter:
        // identical seeds must reproduce identical cycle counts.
        let seed = 7u64;
        let mut h1 = diamond(500);
        let legacy_cfg = GcConfig {
            tick_permutation_seed: Some(seed),
            ..GcConfig::with_cores(4)
        };
        let legacy = SimCollector::new(legacy_cfg).collect(&mut h1);
        let mut h2 = diamond(500);
        let mut policy = crate::schedule::RandomOrder::new(seed);
        let scheduled =
            SimCollector::new(GcConfig::with_cores(4)).collect_scheduled(&mut h2, &mut policy);
        assert_eq!(legacy.stats.total_cycles, scheduled.stats.total_cycles);
        assert_eq!(legacy.free, scheduled.free);
    }

    #[test]
    fn event_trace_captures_full_sb_log() {
        use hwgc_sync::SbEvent;
        let mut heap = diamond(500);
        let mut trace = crate::trace::SignalTrace::with_events(1);
        let out = SimCollector::new(GcConfig::with_cores(4)).collect_traced(&mut heap, &mut trace);
        let events = trace.events();
        assert!(!events.is_empty());
        // Stamps are monotone and never exceed the final cycle count.
        let mut prev = 0;
        for rec in events {
            assert!(rec.cycle >= prev, "stamps must be monotone");
            prev = rec.cycle;
            assert!(rec.cycle <= out.stats.total_cycles);
        }
        // Exactly one core announces termination, and it is the last word.
        let terms: Vec<_> = events
            .iter()
            .filter(|r| matches!(r.event, SbEvent::Termination { .. }))
            .collect();
        assert_eq!(terms.len(), 1);
        assert!(matches!(
            events.last().unwrap().event,
            SbEvent::Termination { .. }
        ));
        // Every evacuated object shows up as exactly one header lock.
        let locks = events
            .iter()
            .filter(|r| matches!(r.event, SbEvent::LockHeader { .. }))
            .count() as u64;
        assert!(locks >= out.stats.objects_copied.saturating_sub(1));
    }

    #[test]
    fn fast_forward_preserves_trace_rows_and_events() {
        use hwgc_memsim::MemConfig;
        let cfg = GcConfig {
            mem: MemConfig::default().with_extra_latency(20),
            ..GcConfig::with_cores(4)
        };
        // `with_events` turns the SB event log on, which forbids parking
        // the lock classes (each per-cycle fail logs an event). Sparse
        // sampling leaves room to skip between samples; the rows
        // and the complete SB event log must still be identical.
        for sample_every in [1u64, 7, 1 << 40] {
            let mut h1 = diamond(500);
            let mut t1 = crate::trace::SignalTrace::with_events(sample_every);
            let fast = SimCollector::new(cfg).collect_traced(&mut h1, &mut t1);
            let mut h2 = diamond(500);
            let mut t2 = crate::trace::SignalTrace::with_events(sample_every);
            let naive = SimCollector::new(GcConfig {
                fast_forward: false,
                ..cfg
            })
            .collect_traced(&mut h2, &mut t2);
            assert_eq!(fast.stats, naive.stats, "sample_every {sample_every}");
            assert_eq!(t1.rows(), t2.rows(), "sample_every {sample_every}");
            assert_eq!(t1.events(), t2.events(), "sample_every {sample_every}");
        }
    }

    #[test]
    fn multiport_sb_is_functionally_identical_and_no_slower() {
        use hwgc_memsim::MemConfig;
        let base = GcConfig {
            mem: MemConfig::default().with_extra_latency(20),
            ..GcConfig::with_cores(8)
        };
        let mut h1 = diamond(500);
        let a = SimCollector::new(base).collect(&mut h1);
        let mut h2 = diamond(500);
        let b = SimCollector::new(GcConfig {
            multiport_sb: true,
            ..base
        })
        .collect(&mut h2);
        // The relaxation removes only write-port conflicts: the heap
        // outcome is identical and the run cannot get slower.
        assert_eq!(a.free, b.free);
        assert_eq!(a.stats.objects_copied, b.stats.objects_copied);
        assert_eq!(a.stats.words_copied, b.stats.words_copied);
        assert!(b.stats.total_cycles <= a.stats.total_cycles);
        assert!(b.stats.stall.scan_lock <= a.stats.stall.scan_lock);
        assert!(b.stats.stall.free_lock <= a.stats.stall.free_lock);
    }

    #[test]
    fn stall_spans_reconcile_with_breakdown_and_survive_fast_forward() {
        use hwgc_memsim::MemConfig;
        use hwgc_obs::{OwnedEvent, Recorder, Recording};
        let cfg = GcConfig {
            mem: MemConfig::default().with_extra_latency(20),
            ..GcConfig::with_cores(4)
        };
        let run = |cfg: GcConfig| {
            let mut heap = diamond(500);
            let mut rec = Recorder::new();
            let out = SimCollector::new(cfg).collect_probed(&mut heap, &mut rec);
            (out.stats, rec.into_recording())
        };
        let spans = |rec: &Recording| -> Vec<(u64, u32, u8, u64, u64)> {
            rec.events
                .iter()
                .filter_map(|&(c, ref e)| match *e {
                    OwnedEvent::StallSpan {
                        core,
                        reason,
                        since,
                        len,
                        ..
                    } => Some((c, core, reason, since, len)),
                    _ => None,
                })
                .collect()
        };
        let (stats, rec_ff) = run(cfg);
        let (stats_naive, rec_naive) = run(GcConfig {
            fast_forward: false,
            ..cfg
        });
        assert_eq!(stats, stats_naive);
        // Fast-forward replicates the exact spans of the reference loop.
        assert_eq!(spans(&rec_ff), spans(&rec_naive));
        // Conservative completeness: per (core, reason) span lengths sum
        // exactly to the per-core stall counters, and each span is
        // stamped with its last stalled cycle.
        let mut sums = vec![[0u64; StallReason::COUNT]; stats.per_core.len()];
        for (stamp, core, reason, since, len) in spans(&rec_ff) {
            assert!(len > 0);
            assert_eq!(stamp, since + len - 1);
            sums[core as usize][reason as usize] += len;
        }
        assert!(sums.iter().flatten().any(|&n| n > 0));
        for (core, breakdown) in stats.per_core.iter().enumerate() {
            for reason in StallReason::ALL {
                assert_eq!(
                    sums[core][reason.index() as usize],
                    breakdown.get(reason),
                    "core {core} {}",
                    reason.name()
                );
            }
        }
    }

    #[test]
    fn sparse_is_bit_exact_across_cores_and_latency() {
        // The event-driven loop must replicate the reference loop's
        // stats exactly in both the contended low-latency regime (parks
        // are mostly lock waits) and the Figure 6 regime (+20 cycles per
        // access, parks are mostly memory waits, and jumps skip the most
        // dead cycles).
        use hwgc_memsim::MemConfig;
        for extra in [0u32, 20] {
            for cores in [1, 2, 4, 16] {
                let cfg = GcConfig {
                    mem: MemConfig::default().with_extra_latency(extra),
                    ..GcConfig::with_cores(cores)
                };
                let mut h1 = diamond(500);
                let sparse = SimCollector::new(cfg).collect(&mut h1);
                let mut h2 = diamond(500);
                let naive = SimCollector::new(GcConfig {
                    fast_forward: false,
                    ..cfg
                })
                .collect(&mut h2);
                assert_eq!(sparse.stats, naive.stats, "{cores} cores +{extra}");
                assert_eq!(sparse.free, naive.free, "{cores} cores +{extra}");
            }
        }
    }

    #[test]
    fn parks_at_issue_are_bit_exact_with_the_probe_and_the_header_cache() {
        // Two park-at-issue paths need a knob: the ablation-C probe load
        // (`test_before_lock`), and a header load that hits the header
        // cache, completes at issue and must not park (no retirement is
        // coming to wake it).
        use hwgc_memsim::MemConfig;
        use hwgc_workloads::{Preset, WorkloadSpec};
        let spec = WorkloadSpec {
            preset: Preset::Javac,
            seed: 1,
            scale: 0.2,
        };
        for (cores, extra) in [(2, 0u32), (16, 0), (16, 20)] {
            let cfg = GcConfig {
                mem: MemConfig {
                    header_cache_entries: 64,
                    ..MemConfig::default().with_extra_latency(extra)
                },
                test_before_lock: true,
                ..GcConfig::with_cores(cores)
            };
            let sparse = SimCollector::new(cfg).collect(&mut spec.build());
            let naive = SimCollector::new(GcConfig {
                fast_forward: false,
                ..cfg
            })
            .collect(&mut spec.build());
            assert!(sparse.stats.mem.header_cache_hits > 0, "{cores} cores");
            assert_eq!(sparse.stats, naive.stats, "{cores} cores +{extra}");
            assert_eq!(sparse.free, naive.free, "{cores} cores +{extra}");
        }
    }

    #[test]
    fn sparse_is_bit_exact_under_schedule_policies() {
        // Parks and jumps compose with `SchedulePolicy`: policies reorder
        // only runnable cores, and the per-cycle `arrange` stream is
        // replayed through jumps, so the whole run — cycle counts and
        // stall attribution included — is identical to the per-cycle
        // reference loop.
        use crate::schedule::{Adversarial, RandomOrder, SchedulePolicy};
        use hwgc_memsim::MemConfig;
        for extra in [0u32, 20] {
            let cfg = GcConfig {
                mem: MemConfig::default().with_extra_latency(extra),
                fast_forward: false,
                ..GcConfig::with_cores(4)
            };
            for seed in [1u64, 42, 0xDEAD_BEEF] {
                let make: [fn(u64) -> Box<dyn SchedulePolicy>; 2] = [
                    |s| Box::new(RandomOrder::new(s)),
                    |s| Box::new(Adversarial::new(s)),
                ];
                for mk in make {
                    let mut p0 = mk(seed);
                    let mut h0 = diamond(500);
                    let reference = SimCollector::new(cfg).collect_scheduled(&mut h0, p0.as_mut());
                    let mut p1 = mk(seed);
                    let mut h1 = diamond(500);
                    let jumping = SimCollector::new(GcConfig {
                        fast_forward: true,
                        ..cfg
                    })
                    .collect_scheduled(&mut h1, p1.as_mut());
                    let what = format!("{} seed {seed} +{extra}", p1.name());
                    assert_eq!(jumping.stats, reference.stats, "{what}");
                    assert_eq!(jumping.free, reference.free, "{what}");
                }
            }
        }
    }

    #[test]
    fn sparse_preserves_probe_streams() {
        // The full probe-bus recording — stall spans, core-state edges,
        // worklist claims, FIFO depths, samples, SB events — must be
        // bit-identical, with both a sampling recorder (forces jump
        // landings on sample cycles) and a transition-only one.
        use hwgc_memsim::MemConfig;
        use hwgc_obs::Recorder;
        let cfg = GcConfig {
            mem: MemConfig::default().with_extra_latency(20),
            ..GcConfig::with_cores(4)
        };
        for sample in [Some(8u64), None] {
            let mk = || match sample {
                Some(n) => Recorder::sampling(n),
                None => Recorder::new(),
            };
            let mut r1 = mk();
            let mut h1 = diamond(500);
            let sparse = SimCollector::new(cfg).collect_probed(&mut h1, &mut r1);
            let mut r2 = mk();
            let mut h2 = diamond(500);
            let naive = SimCollector::new(GcConfig {
                fast_forward: false,
                ..cfg
            })
            .collect_probed(&mut h2, &mut r2);
            assert_eq!(sparse.stats, naive.stats, "sample {sample:?}");
            assert_eq!(
                r1.recording().events,
                r2.recording().events,
                "sample {sample:?}"
            );
        }
    }

    #[test]
    fn probe_on_and_probe_off_report_identical_stats() {
        use hwgc_memsim::MemConfig;
        use hwgc_obs::Recorder;
        for (cores, extra) in [(1, 0), (4, 0), (4, 20), (16, 20)] {
            let cfg = GcConfig {
                mem: MemConfig::default().with_extra_latency(extra),
                ..GcConfig::with_cores(cores)
            };
            let mut h1 = diamond(500);
            let plain = SimCollector::new(cfg).collect(&mut h1);
            // A sampling recorder (caps fast-forward at sample cycles)
            // and a transition-only one (fast-forward runs free) must
            // both observe without perturbing.
            let mut sampled = Recorder::sampling(8);
            let mut h2 = diamond(500);
            let a = SimCollector::new(cfg).collect_probed(&mut h2, &mut sampled);
            let mut unsampled = Recorder::new();
            let mut h3 = diamond(500);
            let b = SimCollector::new(cfg).collect_probed(&mut h3, &mut unsampled);
            assert_eq!(plain.stats, a.stats, "{cores} cores +{extra} (sampled)");
            assert_eq!(plain.stats, b.stats, "{cores} cores +{extra} (unsampled)");
            assert_eq!(plain.free, a.free);
            assert_eq!(plain.free, b.free);
            assert!(!sampled.recording().is_empty());
            assert!(!unsampled.recording().is_empty());
        }
    }

    #[test]
    fn recorder_sb_stream_matches_signal_trace_events() {
        // The bus bridges the same SB log `collect_traced` captures: one
        // instrumentation path, two views.
        let mut h1 = diamond(500);
        let mut trace = crate::trace::SignalTrace::with_events(1);
        SimCollector::new(GcConfig::with_cores(4)).collect_traced(&mut h1, &mut trace);
        let mut h2 = diamond(500);
        let mut rec = hwgc_obs::Recorder::new();
        SimCollector::new(GcConfig::with_cores(4)).collect_probed(&mut h2, &mut rec);
        let bus: Vec<_> = rec.recording().sb_events().cloned().collect();
        assert!(!bus.is_empty());
        assert_eq!(bus, trace.events());
    }

    #[test]
    fn root_phase_sb_stamps_follow_the_engine_clock() {
        use hwgc_memsim::MemConfig;
        use hwgc_sync::SbEvent;
        // The Figure 6 regime (+20 cycles per access) stretches each
        // root's cost to `latency + 1`-plus engine cycles. The SB events
        // of consecutive roots must be stamped at least that far apart:
        // the SB clock follows the engine clock through the root phase,
        // not the root index.
        let cfg = GcConfig {
            mem: MemConfig::default().with_extra_latency(20),
            ..GcConfig::with_cores(4)
        };
        let read_cost = cfg.mem.latency as u64 + 1;
        let mut heap = Heap::new(4096);
        let mut b = GraphBuilder::new(&mut heap);
        for _ in 0..5 {
            let r = b.add(0, 4).unwrap();
            b.root(r);
        }
        let mut trace = crate::trace::SignalTrace::with_events(1);
        let out = SimCollector::new(cfg).collect_traced(&mut heap, &mut trace);
        // Leaf roots evacuate in the root phase and nowhere else, so the
        // SetFree stamps are exactly the per-root event times.
        let set_free: Vec<u64> = trace
            .events()
            .iter()
            .filter(|r| matches!(r.event, SbEvent::SetFree { .. }))
            .map(|r| r.cycle)
            .collect();
        assert_eq!(set_free.len(), 5);
        for w in set_free.windows(2) {
            assert!(
                w[1] >= w[0] + read_cost,
                "root stamps {} -> {} closer than the {read_cost}-cycle header read",
                w[0],
                w[1]
            );
        }
        assert!(*set_free.last().unwrap() <= out.stats.root_phase_cycles);
    }

    #[test]
    fn figure6_preset_run_keeps_one_clock_with_probes() {
        use hwgc_memsim::MemConfig;
        use hwgc_obs::Recorder;
        use hwgc_workloads::{Preset, WorkloadSpec};
        // A reduced Figure 6 javac point: probes on must not perturb the
        // run, and both bridged unit logs must live on the engine clock —
        // memory events start after the root phase (the memory system is
        // aligned to the engine's cycle count, not its own tick count).
        let spec = WorkloadSpec {
            preset: Preset::Javac,
            seed: 1,
            scale: 0.2,
        };
        let cfg = GcConfig {
            mem: MemConfig::default().with_extra_latency(20),
            ..GcConfig::with_cores(4)
        };
        let mut h1 = spec.build();
        let plain = SimCollector::new(cfg).collect(&mut h1);
        let mut h2 = spec.build();
        let mut rec = Recorder::new();
        let probed = SimCollector::new(cfg).collect_probed(&mut h2, &mut rec);
        assert_eq!(plain.stats, probed.stats);
        assert_eq!(plain.free, probed.free);
        let rec = rec.into_recording();
        let mem_stamps: Vec<u64> = rec.mem_events().map(|r| r.cycle).collect();
        assert!(!mem_stamps.is_empty());
        assert!(
            *mem_stamps.first().unwrap() > probed.stats.root_phase_cycles,
            "memory events must be stamped on the engine clock, after the root phase"
        );
        for (stamps, unit) in [
            (&mem_stamps, "mem"),
            (&rec.sb_events().map(|r| r.cycle).collect(), "sb"),
        ] {
            let mut prev = 0;
            for &c in stamps.iter() {
                assert!(c >= prev, "{unit} stamps must be monotone");
                prev = c;
                assert!(c <= probed.stats.total_cycles, "{unit} stamp past the end");
            }
        }
    }

    #[test]
    fn probed_run_emits_phases_transitions_and_claims() {
        use hwgc_obs::{OwnedEvent, Recorder};
        let mut heap = diamond(500);
        let mut rec = Recorder::new();
        let out = SimCollector::new(GcConfig::with_cores(2)).collect_probed(&mut heap, &mut rec);
        let rec = rec.into_recording();
        // Exactly two balanced phases, back to back on the engine clock.
        let phases: Vec<(u64, &str, bool)> = rec
            .events
            .iter()
            .filter_map(|(c, e)| match e {
                OwnedEvent::Phase { name, begin } => Some((*c, *name, *begin)),
                _ => None,
            })
            .collect();
        assert_eq!(
            phases,
            vec![
                (0, "roots", true),
                (out.stats.root_phase_cycles, "roots", false),
                (out.stats.root_phase_cycles, "scan", true),
                (out.stats.total_cycles, "scan", false),
            ]
        );
        // Every core's transition stream starts at Poll and ends at Done.
        for core in 0..2u32 {
            let states: Vec<u8> = rec
                .events
                .iter()
                .filter_map(|(_, e)| match e {
                    OwnedEvent::CoreState { core: c, state, .. } if *c == core => Some(*state),
                    _ => None,
                })
                .collect();
            assert_eq!(states.first(), Some(&State::Poll.index()), "core {core}");
            assert_eq!(states.last(), Some(&State::Done.index()), "core {core}");
        }
        // Worklist claims are disjoint, contiguous, and cover the whole
        // evacuated span.
        let claims: Vec<(u32, u32)> = rec
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                OwnedEvent::WorklistClaim { from, to, .. } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        assert!(!claims.is_empty());
        for &(f, t) in &claims {
            assert!(f < t);
        }
        for w in claims.windows(2) {
            assert_eq!(w[1].0, w[0].1, "claims must tile the worklist");
        }
        assert_eq!(claims.last().unwrap().1, out.free);
    }

    #[test]
    fn traced_collection_matches_untraced() {
        let mut h1 = diamond(500);
        let plain = SimCollector::new(GcConfig::with_cores(4)).collect(&mut h1);
        let mut h2 = diamond(500);
        let mut trace = crate::trace::SignalTrace::new(1);
        let traced = SimCollector::new(GcConfig::with_cores(4)).collect_traced(&mut h2, &mut trace);
        assert_eq!(plain.stats.total_cycles, traced.stats.total_cycles);
        assert_eq!(plain.free, traced.free);
        // One sample per post-root-phase cycle.
        assert_eq!(
            trace.rows().len() as u64,
            traced.stats.total_cycles - traced.stats.root_phase_cycles
        );
        // scan is monotone and gray_words consistent.
        let mut prev = 0;
        for row in trace.rows() {
            assert!(row.scan >= prev);
            prev = row.scan;
            assert_eq!(row.gray_words, row.free - row.scan);
        }
    }

    #[test]
    fn scan_hand_off_elects_the_cores_that_can_win() {
        // Waiters 1, 2, 9, 12; core 5 releases.
        let waiters = 0b1_0010_0000_0110u64;
        // Two candidates: with the lock still acquirable this cycle the
        // first waiter ahead of the releaser ticks now, and the lowest
        // waiter — whose slot already passed — leads the next cycle.
        assert_eq!(scan_hand_off(waiters, 5, true, false), (1 << 9, 1 << 1));
        // The write port is spent: nobody can retake the lock in this
        // cycle, so only the next cycle's first ticker wakes.
        assert_eq!(scan_hand_off(waiters, 5, false, false), (0, 1 << 1));
        // One core is both candidates when every waiter is still ahead:
        // it ticks now — or, behind a spent port, only from next cycle.
        assert_eq!(scan_hand_off(waiters, 0, true, false), (1 << 1, 0));
        assert_eq!(scan_hand_off(waiters, 0, false, false), (0, 1 << 1));
        // No waiter ahead: just the next-cycle winner.
        assert_eq!(scan_hand_off(waiters, 13, true, false), (0, 1 << 1));
        assert_eq!(scan_hand_off(1 << 63, 63, true, false), (0, 1 << 63));
        // Class change (work list emptied, or `done`): everyone resumes,
        // split by slot, whatever the port says.
        for acquirable in [false, true] {
            assert_eq!(
                scan_hand_off(waiters, 5, acquirable, true),
                ((1 << 9) | (1 << 12), 0b110)
            );
        }
        assert_eq!(scan_hand_off(0, 5, true, false), (0, 0));
    }

    /// `n` rooted one-word leaves: the root phase fills the work list,
    /// claims are tiny, and with the header FIFO off (every claim holds
    /// the scan lock across a header load) the cores queue up on the
    /// scan lock.
    fn leaves(n: u32) -> Heap {
        let mut heap = Heap::new(8 * n + 64);
        let mut b = GraphBuilder::new(&mut heap);
        for _ in 0..n {
            let leaf = b.add(0, 1).unwrap();
            b.root(leaf);
        }
        heap
    }

    fn herd_config(cores: usize) -> GcConfig {
        GcConfig {
            mem: hwgc_memsim::MemConfig {
                header_fifo_capacity: 0,
                ..Default::default()
            },
            ..GcConfig::with_cores(cores)
        }
    }

    #[test]
    fn a_schedule_policy_keeps_wake_all_for_scan_waiters() {
        // Under a policy the next cycle's order is unknown at release
        // time, so every waiter must wake — even under the identity
        // policy, which the engine cannot tell from any other. Same
        // simulation either way; only the herd differs.
        use crate::schedule::StaticPriority;
        use hwgc_obs::HostProfiler;
        let collector = SimCollector::new(herd_config(8));
        let run = |policy: Option<&mut dyn SchedulePolicy>| {
            let mut heap = leaves(64);
            let mut prof = HostProfiler::new();
            let (free, stats, _) =
                collector.run(&mut heap, None, policy, &mut NullProbe, &mut prof);
            (free, stats, prof.counter("engine.park.scan_lock"))
        };
        let (free, stats, handed_off) = run(None);
        let (policy_free, policy_stats, woke_all) = run(Some(&mut StaticPriority));
        assert_eq!(policy_stats, stats);
        assert_eq!(policy_free, free);
        let acquired = stats.sync.acquired(LockKind::Scan);
        assert!(
            handed_off <= 2 * acquired,
            "hand-off parked {handed_off} times for {acquired} acquisitions"
        );
        assert!(
            woke_all > 4 * acquired,
            "wake-all parked {woke_all} times for {acquired} acquisitions"
        );
    }

    #[test]
    fn scan_waiters_all_wake_when_a_release_empties_the_work_list() {
        // One gray object (the root, whose only child is still white):
        // core 0 holds the scan lock across the header load, cores 1–3
        // park behind it, and its claim leaves `scan == free`. Their
        // retries are now empty-work-list spins, not scan-lock failures,
        // so all of them must resume — a loser left parked would keep
        // accruing the wrong stall class.
        let chain = || {
            let mut heap = Heap::new(128);
            let mut b = GraphBuilder::new(&mut heap);
            let root = b.add(1, 1).unwrap();
            let leaf = b.add(0, 1).unwrap();
            b.link(root, 0, leaf);
            b.root(root);
            heap
        };
        let cfg = herd_config(4);
        let mut prof = hwgc_obs::HostProfiler::new();
        let mut heap = chain();
        let sparse = SimCollector::new(cfg).collect_hostprof(&mut heap, &mut prof);
        let naive = SimCollector::new(GcConfig {
            fast_forward: false,
            ..cfg
        })
        .collect(&mut chain());
        assert_eq!(sparse.stats, naive.stats);
        assert!(prof.counter("engine.park.scan_lock") >= 3);
        for core in 1..4 {
            let stalls = &sparse.stats.per_core[core];
            assert!(stalls.get(StallReason::ScanLock) > 0, "core {core}");
            assert!(stalls.get(StallReason::EmptySpin) > 0, "core {core}");
        }
    }
}
