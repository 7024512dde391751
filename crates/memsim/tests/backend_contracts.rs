//! Property tests for the `MemBackend` timing contracts, run against
//! BOTH backends (the fixed-latency model and the bank/row DRAM model).
//!
//! The engine's fast-forward machinery (event-horizon jumps, the sparse
//! active-set loop) is only sound if every backend honors three
//! contracts, tested here:
//!
//! 1. **Activity lower bound** — `next_activity_cycle` never overshoots:
//!    no core-visible change (a load completing, a store freeing its
//!    port) happens strictly before the returned cycle; `None` means no
//!    change ever happens without new issues. On the DRAM backend the
//!    bound covers the backend's own moves too: `fast_forward` up to it
//!    equals that many ticks with requests queued, and it is tight.
//! 2. **Bank timing order** — (DRAM) replaying the event log, each
//!    retirement lands exactly `latency` after its service start, and
//!    within a bank consecutive service starts are separated by the
//!    earlier access's full occupancy (one access in flight per bank,
//!    plus the closed-page precharge re-arm).
//! 3. **Per-port wake exactness** — with the wake feed on, the masks
//!    `take_wakes()` returns after a tick have bit `c` of entry `p` set
//!    exactly when core `c`'s load on port `p` became ready or its store
//!    on port `p` freed the buffer in that tick (shadow comparison
//!    against polling, the reference loop's view), and nothing outside a
//!    tick sets a bit.
//! 4. **Tie order** — transactions retiring in the same cycle reach the
//!    event log in `(core, port)` order, whatever order they were issued
//!    or served in (every committed event-stream fingerprint is pinned
//!    to it), and every one of them reaches the wake masks.
//! 5. **Bank scheduling** — (DRAM) the division-free address map equals
//!    `(addr / row_words) % n_banks`, free banks start in index order
//!    under the bandwidth cap, a busy bank starts exactly at `ready_at`,
//!    and a bank whose `ready_at` a clock jump crossed is free.
//! 6. **Stream replication** — (fixed) `apply_stream_window` equals the
//!    explicit rounds it stands for, the wake masks included when the
//!    feed is on.
//! 7. **Issue bound** — a request `try_issue` takes with `Issue::Later`
//!    has not retired after the next tick (shadow check after every
//!    tick), and on the fixed backend a zero-latency burst continuation,
//!    which is `Issue::Soon`, does retire in it. A comparator-blocked
//!    header load is `Issue::Later` on both backends, zero latency
//!    included.

use hwgc_memsim::{
    DramConfig, DramMemorySystem, Issue, MemBackend, MemBackendKind, MemConfig, MemEvent,
    MemorySystem, PagePolicy, Port, RowOutcome, MAX_BANKS, PORT_COUNT,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Issue { core: usize, port: usize, addr: u32 },
    Tick,
    Consume { core: usize, port: usize },
}

fn ops(cores: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..cores), (0..PORT_COUNT), (0u32..256)).prop_map(|(core, port, addr)| Op::Issue {
                core,
                port,
                addr
            }),
            Just(Op::Tick),
            ((0..cores), prop_oneof![Just(0usize), Just(2)])
                .prop_map(|(core, port)| Op::Consume { core, port }),
        ],
        1..160,
    )
}

fn dram_configs() -> impl Strategy<Value = DramConfig> {
    (
        (1u32..3, 1u32..3, 1u32..4, 2u32..8),
        (
            // Non-powers of two for the reciprocal address map; 65 banks
            // (with one-word rows, addresses 0..256 reach them all) for
            // the second word of the scheduler's bit sets.
            prop_oneof![Just(1u32), Just(2), Just(3), Just(4), Just(7), Just(65)],
            prop_oneof![Just(1u32), Just(3), Just(4), Just(16), Just(64), Just(100)],
            prop_oneof![Just(PagePolicy::Open), Just(PagePolicy::Closed)],
        ),
    )
        .prop_map(
            |((t_rcd, t_cas, t_rp, t_ras), (n_banks, row_words, page_policy))| DramConfig {
                t_rcd,
                t_cas,
                t_rp,
                t_ras,
                n_banks,
                row_words,
                page_policy,
            },
        )
}

const CORES: usize = 3;

/// Apply one op, tolerating busy ports / unready loads (the strategies
/// generate blind sequences; the protocol checks are elsewhere).
fn apply<B: MemBackend>(m: &mut B, op: Op) {
    match op {
        Op::Issue { core, port, addr } => {
            let p = Port::ALL[port];
            if !m.port_busy(core, p) {
                assert!(m.try_issue(core, p, addr).issued());
            }
        }
        Op::Tick => m.tick(),
        Op::Consume { core, port } => {
            let p = Port::ALL[port];
            if m.load_ready(core, p) {
                m.consume_load(core, p);
            }
        }
    }
}

/// The reference loop's view of a backend: which `(core, port)` pairs a
/// core could act on right now (a completed load, or a free buffer).
fn visible_state<B: MemBackend>(m: &B) -> Vec<(bool, bool)> {
    (0..CORES)
        .flat_map(|c| {
            Port::ALL
                .iter()
                .map(move |&p| (p.is_load() && m.load_ready(c, p), m.port_busy(c, p)))
        })
        .collect()
}

/// Contract 1: between `cycle + 1` and `next_activity_cycle() - 1`
/// inclusive, ticking changes nothing a core can see.
fn check_activity_lower_bound<B: MemBackend + Clone>(m: &B) {
    let mut shadow = m.clone();
    match m.next_activity_cycle() {
        None => {
            // No future activity at all: a long run of hollow ticks must
            // leave the visible state untouched.
            let before = visible_state(&shadow);
            for _ in 0..64 {
                shadow.tick();
                prop_assert_eq!(
                    &visible_state(&shadow),
                    &before,
                    "activity after next_activity_cycle() == None"
                );
            }
        }
        Some(target) => {
            let before = visible_state(&shadow);
            // Strictly before the bound nothing may change. (The bound
            // may be conservative: activity at `target` is allowed but
            // not required.)
            while shadow.cycle() + 1 < target {
                shadow.tick();
                prop_assert_eq!(
                    &visible_state(&shadow),
                    &before,
                    "activity at cycle {} before the {} bound",
                    shadow.cycle(),
                    target
                );
            }
        }
    }
}

/// Whole-state equality through the `Debug` image. The image of a
/// 65-bank backend runs to tens of kilobytes, so a mismatch reports the
/// neighbourhood of the first difference only.
fn assert_same_state(jumped: &DramMemorySystem, ticked: &DramMemorySystem, when: &str) {
    let (a, b) = (format!("{jumped:?}"), format!("{ticked:?}"));
    if a != b {
        let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
        let window = |s: &str| s[at.saturating_sub(160)..(at + 80).min(s.len())].to_string();
        panic!(
            "fast-forward and ticks diverge {when}:\n jumped: ..{}..\n ticked: ..{}..",
            window(&a),
            window(&b)
        );
    }
}

/// Drain helper: upper-bounds how long any access chain can take.
fn drain_bound(n_ops: usize, worst_latency: u32) -> usize {
    n_ops * (worst_latency as usize + 2) + 64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Contract 1 on the fixed backend, probed after every op.
    #[test]
    fn fixed_next_activity_is_a_lower_bound(
        ops in ops(CORES),
        lat in 0u32..6,
        bw in 1u32..4,
        extra in prop_oneof![Just(0u32), Just(3)],
    ) {
        let cfg = MemConfig { latency: lat, bandwidth: bw, ..MemConfig::default() }
            .with_extra_latency(extra);
        let mut m = MemorySystem::new(CORES, cfg);
        for &op in &ops {
            apply(&mut m, op);
            check_activity_lower_bound(&m);
        }
    }

    /// Contract 1 on the DRAM backend, probed after every op.
    #[test]
    fn dram_next_activity_is_a_lower_bound(
        ops in ops(CORES),
        dram in dram_configs(),
        bw in 1u32..4,
        extra in prop_oneof![Just(0u32), Just(3)],
    ) {
        let cfg = MemConfig { bandwidth: bw, ..MemConfig::default() }
            .with_backend(MemBackendKind::Dram(dram))
            .with_extra_latency(extra);
        let mut m = DramMemorySystem::new(CORES, cfg);
        for &op in &ops {
            apply(&mut m, op);
            check_activity_lower_bound(&m);
        }
    }

    /// Contract 1, the backend's own side: after every op of a random
    /// sequence, `fast_forward` up to the activity horizon leaves a
    /// clone exactly where that many `tick()`s leave another — the
    /// `Debug` image is the whole state: statistics (queue occupancy and
    /// the bank counters included), ports, bank queues, bank row /
    /// `ready_at` / `active_since`, scheduler sets, wheel, event log —
    /// and the two then behave alike under the remaining ops. A
    /// comparator-blocked header load is in flight from the start.
    #[test]
    fn dram_fast_forward_to_the_horizon_equals_ticking(
        ops in ops(CORES),
        dram in dram_configs(),
        bw in 1u32..4,
        extra in prop_oneof![Just(0u32), Just(3)],
    ) {
        let cfg = MemConfig { bandwidth: bw, ..MemConfig::default() }
            .with_backend(MemBackendKind::Dram(dram))
            .with_extra_latency(extra);
        // Two spare cores carry the header store and the load it blocks.
        let mut m = DramMemorySystem::new(CORES + 2, cfg);
        m.enable_event_log();
        m.enable_wake_feed();
        assert!(m.try_issue(CORES, Port::HeaderStore, 77).issued());
        m.tick();
        assert!(m.try_issue(CORES + 1, Port::HeaderLoad, 77).issued());
        prop_assert!(m.stats().comparator_blocked_cycles == 0 && m.header_store_pending(77));
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut m, op);
            let Some(horizon) = m.next_activity_cycle() else { continue };
            let k = horizon - 1 - m.cycle();
            let mut jumped = m.clone();
            jumped.fast_forward(k);
            let mut ticked = m.clone();
            for _ in 0..k {
                ticked.tick();
            }
            assert_same_state(&jumped, &ticked, &format!("{k} cycles after op {i}"));
            prop_assert_eq!(jumped.next_activity_cycle(), Some(horizon));
            if k == 0 {
                continue;
            }
            for &op in &ops[i + 1..] {
                apply(&mut jumped, op);
                apply(&mut ticked, op);
            }
            assert_same_state(&jumped, &ticked, &format!("the ops after op {i}"));
        }
    }

    /// Contract 2: replay the DRAM event log. Retirements land exactly
    /// `latency` after service start, and per bank the next service
    /// start waits for the previous access's full occupancy.
    #[test]
    fn dram_retirement_respects_bank_timing(
        ops in ops(CORES),
        dram in dram_configs(),
        bw in 1u32..4,
    ) {
        let cfg = MemConfig { bandwidth: bw, ..MemConfig::default() }
            .with_backend(MemBackendKind::Dram(dram));
        let mut m = DramMemorySystem::new(CORES, cfg);
        m.enable_event_log();
        for &op in &ops {
            apply(&mut m, op);
        }
        for _ in 0..drain_bound(ops.len(), dram.t_ras + dram.t_rp + dram.t_rcd + dram.t_cas) {
            m.tick();
        }
        for c in 0..CORES {
            for &p in &[Port::HeaderLoad, Port::BodyLoad] {
                if m.load_ready(c, p) {
                    m.consume_load(c, p);
                }
            }
        }
        prop_assert!(m.all_idle(), "traffic failed to drain");

        let log = m.take_event_log();
        // (a) Each ServiceStart's retirement is exactly `latency` later.
        let mut in_service: Vec<Option<(u64, u32)>> = vec![None; CORES * PORT_COUNT];
        // (b) Per-bank: cycle the bank frees up after its last access.
        let mut bank_free_at: Vec<u64> = vec![0; dram.n_banks as usize];
        let mut pending_bank: Option<u32> = None;
        for rec in &log {
            match rec.event {
                MemEvent::DramAccess { bank, .. } => {
                    prop_assert!(pending_bank.is_none(), "DramAccess without ServiceStart");
                    pending_bank = Some(bank);
                    prop_assert!(
                        rec.cycle >= bank_free_at[bank as usize],
                        "bank {} started a new access at {} while busy until {}",
                        bank, rec.cycle, bank_free_at[bank as usize]
                    );
                }
                MemEvent::ServiceStart { core, port, latency } => {
                    let bank = pending_bank.take().expect("ServiceStart without DramAccess");
                    let rearm = match dram.page_policy {
                        PagePolicy::Open => 0,
                        PagePolicy::Closed => dram.t_rp as u64,
                    };
                    bank_free_at[bank as usize] = rec.cycle + latency as u64 + rearm;
                    let slot = core as usize * PORT_COUNT + port as usize;
                    prop_assert!(in_service[slot].is_none(), "double service start");
                    in_service[slot] = Some((rec.cycle, latency));
                }
                MemEvent::Retire { core, port } => {
                    let slot = core as usize * PORT_COUNT + port as usize;
                    let (started, latency) =
                        in_service[slot].take().expect("retire without service");
                    prop_assert_eq!(
                        rec.cycle,
                        started + latency as u64,
                        "retirement not exactly latency after service start"
                    );
                }
                _ => {}
            }
        }
        prop_assert!(in_service.iter().all(Option::is_none), "unretired service");
    }

    /// Contract 3 on the fixed backend: the wake masks report exactly
    /// the `(core, port)` pairs that retired in a tick.
    #[test]
    fn fixed_wake_feed_is_exact_per_port(
        ops in ops(CORES),
        lat in 0u32..6,
        bw in 1u32..4,
    ) {
        let cfg = MemConfig { latency: lat, bandwidth: bw, ..MemConfig::default() };
        let m = MemorySystem::new(CORES, cfg);
        check_wake_feed(m, ops, lat);
    }

    /// Contract 3 on the DRAM backend.
    #[test]
    fn dram_wake_feed_is_exact_per_port(
        ops in ops(CORES),
        dram in dram_configs(),
        bw in 1u32..4,
    ) {
        let cfg = MemConfig { bandwidth: bw, ..MemConfig::default() }
            .with_backend(MemBackendKind::Dram(dram));
        let m = DramMemorySystem::new(CORES, cfg);
        check_wake_feed(m, ops, dram.t_ras + dram.t_rp + dram.t_rcd + dram.t_cas);
    }
}

/// Shadow-naive comparison: before each tick poll the full visible
/// state (as the reference loop would); after it, the retirements it
/// shows — a load turning ready, a store freeing its buffer — must be
/// exactly the bits of `take_wakes()`, port by port. A core parked on
/// one port relies on the completeness to resume, and on the exactness
/// not to be woken by its other ports.
fn check_wake_feed<B: MemBackend>(mut m: B, ops: Vec<Op>, worst_latency: u32) {
    m.enable_wake_feed();
    let mut script = ops.clone();
    // Append draining ticks so late-issued traffic also exercises the feed.
    script.extend(std::iter::repeat_n(
        Op::Tick,
        drain_bound(ops.len(), worst_latency),
    ));
    for op in script {
        if !matches!(op, Op::Tick) {
            apply(&mut m, op);
            continue;
        }
        let before = visible_state(&m);
        prop_assert_eq!(m.take_wakes(), [0; PORT_COUNT], "a wake outside a tick");
        m.tick();
        let mut retired = [0u64; PORT_COUNT];
        for (slot, &(was_ready, was_busy)) in before.iter().enumerate() {
            let (c, p) = (slot / PORT_COUNT, Port::ALL[slot % PORT_COUNT]);
            let now = if p.is_load() {
                !was_ready && m.load_ready(c, p)
            } else {
                was_busy && !m.port_busy(c, p)
            };
            if now {
                retired[p as usize] |= 1 << c;
            }
        }
        prop_assert_eq!(
            m.take_wakes(),
            retired,
            "wake masks against the retirements"
        );
    }
}

/// Contract 4: all twelve `(core, port)` buffers of three cores retire
/// in one cycle. They are issued in descending order and `addr_of`
/// spreads them so that every one starts service in the same tick with
/// the same latency; the retirement calendar alone decides the order in
/// which they come back. The wake masks carry no order: they must hold
/// all twelve.
fn check_same_cycle_retire_order<B: MemBackend>(mut m: B, addr_of: impl Fn(usize) -> u32) {
    m.enable_wake_feed();
    m.enable_event_log();
    for id in (0..CORES * PORT_COUNT).rev() {
        assert!(m
            .try_issue(id / PORT_COUNT, Port::ALL[id % PORT_COUNT], addr_of(id))
            .issued());
    }
    let wakes = loop {
        m.tick();
        assert!(m.cycle() < 64, "nothing retired");
        let wakes = m.take_wakes();
        if wakes != [0; PORT_COUNT] {
            break wakes;
        }
    };
    assert_eq!(
        wakes,
        [(1 << CORES) - 1; PORT_COUNT],
        "a retirement missing from the masks"
    );
    let in_order: Vec<(usize, Port)> = (0..CORES * PORT_COUNT)
        .map(|id| (id / PORT_COUNT, Port::ALL[id % PORT_COUNT]))
        .collect();
    let retire_cycle = m.cycle();
    let retired: Vec<(usize, Port)> = m
        .take_event_log()
        .iter()
        .filter_map(|rec| match rec.event {
            MemEvent::Retire { core, port } => {
                assert_eq!(rec.cycle, retire_cycle, "a retirement in another cycle");
                Some((core as usize, port))
            }
            _ => None,
        })
        .collect();
    assert_eq!(retired, in_order, "event log out of (core, port) order");
}

#[test]
fn fixed_same_cycle_retirements_come_back_in_core_port_order() {
    // Bandwidth covers all twelve starts in one tick; addresses are far
    // apart, so no body access continues a burst and no header load
    // meets a pending header store.
    let cfg = MemConfig {
        bandwidth: 16,
        ..MemConfig::default()
    }
    .with_backend(MemBackendKind::Fixed);
    check_same_cycle_retire_order(MemorySystem::new(CORES, cfg), |id| 1000 * (id as u32 + 1));
}

#[test]
fn dram_same_cycle_retirements_come_back_in_core_port_order() {
    // One request per bank, every bank precharged: all twelve start in
    // the first tick as row empties. Banks serve in index order, so
    // mapping the ids to descending banks also decouples the service
    // order from `(core, port)`.
    let dram = DramConfig {
        n_banks: 16,
        row_words: 16,
        ..DramConfig::default()
    };
    let cfg = MemConfig {
        bandwidth: 16,
        ..MemConfig::default()
    }
    .with_backend(MemBackendKind::Dram(dram));
    check_same_cycle_retire_order(DramMemorySystem::new(CORES, cfg), |id| {
        (15 - id as u32) * dram.row_words
    });
}

/// A closed-page, one-bank backend with all three cores' body loads
/// issued at cycle 0: the first is in service after one tick, two wait.
fn closed_single_bank() -> (DramMemorySystem, DramConfig) {
    let dram = DramConfig {
        n_banks: 1,
        page_policy: PagePolicy::Closed,
        ..DramConfig::default()
    };
    let cfg = MemConfig::default().with_backend(MemBackendKind::Dram(dram));
    let mut m = DramMemorySystem::new(CORES, cfg);
    for core in 0..CORES {
        assert!(m
            .try_issue(core, Port::BodyLoad, 1000 * core as u32)
            .issued());
    }
    m.tick();
    (m, dram)
}

fn bank_accesses(m: &DramMemorySystem) -> u64 {
    m.stats()
        .dram
        .as_ref()
        .expect("dram stats")
        .total_accesses()
}

/// The bound is tight where it can be. Closed page, one bank, two
/// requests queued behind an access that has retired: the bank re-arms
/// `tRP` and the horizon is its `ready_at` — not `cycle + 1` (the old
/// answer whenever anything was queued) and not `next_retire` (nothing
/// is in service).
#[test]
fn dram_horizon_is_the_bank_ready_cycle_when_only_precharge_is_pending() {
    let (mut m, dram) = closed_single_bank();
    let done_at = 1 + u64::from(dram.t_rcd + dram.t_cas);
    let ready_at = done_at + u64::from(dram.t_rp);
    assert!(dram.t_rp >= 2, "the window must be worth skipping");
    assert_eq!(m.next_activity_cycle(), Some(done_at), "the retirement");
    m.fast_forward(done_at - 1 - m.cycle());
    m.tick();
    assert!(m.load_ready(0, Port::BodyLoad));
    assert_eq!(m.queue_len(), 2);
    assert_eq!(
        m.next_activity_cycle(),
        Some(ready_at),
        "the precharge: neither the queue nor the completed load blocks the jump"
    );
    m.fast_forward(ready_at - 1 - m.cycle());
    assert_eq!((bank_accesses(&m), m.queue_len()), (1, 2));
    m.tick();
    assert_eq!(
        (bank_accesses(&m), m.queue_len()),
        (2, 1),
        "starts at ready_at"
    );
    let queue_ticks = ready_at; // requests waited in every tick so far
    assert_eq!(m.stats().queue_busy_cycles, queue_ticks);
    assert_eq!(m.stats().queue_occupancy_sum, 3 + 2 * (queue_ticks - 1));
}

/// Every service start of the run so far: `(cycle, bank)`.
fn service_starts(m: &mut DramMemorySystem) -> Vec<(u64, u32)> {
    m.take_event_log()
        .iter()
        .filter_map(|rec| match rec.event {
            MemEvent::DramAccess { bank, .. } => Some((rec.cycle, bank)),
            _ => None,
        })
        .collect()
}

/// Scan order: with `bandwidth` 1 and two free banks holding a request
/// each, the lower bank index starts first and the other the tick after
/// — whatever order they were issued in, and in either word of the bit
/// sets.
#[test]
fn dram_free_banks_start_in_index_order_under_the_bandwidth_cap() {
    for (lo, hi) in [(1u32, 5u32), (3, 64), (64, 69)] {
        let dram = DramConfig {
            n_banks: 70,
            row_words: 16,
            ..DramConfig::default()
        };
        let cfg = MemConfig {
            bandwidth: 1,
            ..MemConfig::default()
        }
        .with_backend(MemBackendKind::Dram(dram));
        let mut m = DramMemorySystem::new(2, cfg);
        m.enable_event_log();
        assert!(m.try_issue(0, Port::BodyLoad, hi * dram.row_words).issued());
        assert!(m.try_issue(1, Port::BodyLoad, lo * dram.row_words).issued());
        assert_eq!(m.next_activity_cycle(), Some(1));
        m.tick();
        assert_eq!(m.next_activity_cycle(), Some(2), "a free bank still waits");
        m.tick();
        assert_eq!(service_starts(&mut m), [(1, lo), (2, hi)]);
    }
}

/// A bank whose queue empties and refills while it is busy starts the
/// new request exactly at `ready_at` — the stale-queue and stale-busy
/// bits both resolve on that tick, open and closed page.
#[test]
fn dram_refilled_busy_bank_starts_exactly_at_ready_at() {
    for page_policy in [PagePolicy::Open, PagePolicy::Closed] {
        let dram = DramConfig {
            page_policy,
            ..DramConfig::default()
        };
        let cfg = MemConfig::default().with_backend(MemBackendKind::Dram(dram));
        let mut m = DramMemorySystem::new(2, cfg);
        m.enable_event_log();
        assert!(m.try_issue(0, Port::BodyLoad, 0).issued());
        m.tick(); // queue empties: the access is in service
        let done_at = 1 + u64::from(dram.t_rcd + dram.t_cas);
        let ready_at = match page_policy {
            PagePolicy::Open => done_at,
            PagePolicy::Closed => done_at + u64::from(dram.t_rp),
        };
        m.tick();
        assert!(m.try_issue(1, Port::BodyLoad, 1).issued()); // same bank, refilled
        assert_eq!(m.next_activity_cycle(), Some(done_at));
        while m.cycle() < ready_at {
            let horizon = m.next_activity_cycle().expect("work pending");
            m.fast_forward(horizon - 1 - m.cycle());
            m.tick();
        }
        assert_eq!(service_starts(&mut m), [(1, 0), (ready_at, 0)]);
    }
}

/// A closed-page bank whose queue emptied re-arms `tRP` after its data
/// retired, and nothing is then pending: a clock jump may cross that
/// `ready_at`. The bank must come out of it free — startable by the
/// very next tick after a request joins its queue — whether the jump was
/// a `fast_forward` or a `set_cycle`.
#[test]
fn dram_a_jump_across_an_idle_banks_ready_at_leaves_it_startable() {
    for set_cycle in [false, true] {
        let (mut m, dram) = closed_single_bank();
        m.enable_event_log();
        // Serve all three loads, consuming each as it retires: the
        // bank's queue is empty, its last access retired this cycle, and
        // it precharges for `tRP` more.
        for core in 0..CORES {
            while !m.load_ready(core, Port::BodyLoad) {
                m.tick();
            }
            m.consume_load(core, Port::BodyLoad);
        }
        assert!(m.all_idle());
        assert!(dram.t_rp >= 2, "the bank must still be busy");
        assert_eq!(m.next_activity_cycle(), None, "nothing pending");
        let target = m.cycle() + u64::from(dram.t_rp) + 5;
        if set_cycle {
            m.set_cycle(target);
        } else {
            m.fast_forward(target - m.cycle());
        }
        assert!(m.try_issue(0, Port::BodyLoad, 7).issued());
        assert_eq!(
            m.next_activity_cycle(),
            Some(target + 1),
            "the bank is free: the request starts next tick"
        );
        m.tick();
        let starts = service_starts(&mut m);
        assert_eq!(
            starts.last(),
            Some(&(target + 1, 0)),
            "set_cycle {set_cycle}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// The address map, observed from outside: two loads in a row land
    /// in bank `(addr / row_words) % n_banks`, and the second is a row
    /// hit exactly when it shares the first's bank and row — for
    /// divisors of every magnitude (`>> shift`) and the corners.
    #[test]
    fn dram_address_map_matches_divide_and_modulo(
        addrs in (addr_corners(), addr_corners()),
        row_words in prop_oneof![
            Just(1u32), Just(2), Just(3), Just(u32::MAX),
            ((1u32..=u32::MAX), (0u32..32)).prop_map(|(d, shift)| (d >> shift).max(1)),
        ],
        n_banks in prop_oneof![
            Just(1u32), Just(2), Just(3), Just(MAX_BANKS),
            ((1u32..=MAX_BANKS), (0u32..13)).prop_map(|(d, shift)| (d >> shift).max(1)),
        ],
    ) {
        let dram = DramConfig { n_banks, row_words, ..DramConfig::default() };
        let cfg = MemConfig::default().with_backend(MemBackendKind::Dram(dram));
        let mut m = DramMemorySystem::new(1, cfg);
        m.enable_event_log();
        for addr in [addrs.0, addrs.1] {
            assert!(m.try_issue(0, Port::BodyLoad, addr).issued());
            while !m.load_ready(0, Port::BodyLoad) {
                m.tick();
            }
            m.consume_load(0, Port::BodyLoad);
        }
        let seen: Vec<(u32, RowOutcome)> = m
            .take_event_log()
            .iter()
            .filter_map(|rec| match rec.event {
                MemEvent::DramAccess { bank, outcome, .. } => Some((bank, outcome)),
                _ => None,
            })
            .collect();
        let (row0, row1) = (addrs.0 / row_words, addrs.1 / row_words);
        let second = if row0 == row1 {
            RowOutcome::Hit
        } else if row0 % n_banks == row1 % n_banks {
            RowOutcome::Conflict
        } else {
            RowOutcome::Empty
        };
        prop_assert_eq!(
            seen,
            [(row0 % n_banks, RowOutcome::Empty), (row1 % n_banks, second)]
        );
    }
}

fn addr_corners() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1),
        Just(u32::MAX),
        0u32..=u32::MAX,
        0u32..4096,
    ]
}

// --- Contract 6: stream replication --------------------------------------

/// One streaming core as the engine sees it: its id and the fromspace /
/// tospace addresses of the body word its next round loads / stores.
#[derive(Debug, Clone, Copy)]
struct Stream {
    core: usize,
    load: u32,
    store: u32,
}

fn streams_of(n: usize) -> Vec<Stream> {
    (0..n)
        .map(|core| Stream {
            core,
            load: 10_000 * (core as u32 + 1),
            store: 500_000 + 10_000 * core as u32,
        })
        .collect()
}

fn tick_until(m: &mut MemorySystem, what: &str, done: impl Fn(&MemorySystem) -> bool) {
    for _ in 0..256 {
        if done(m) {
            return;
        }
        m.tick();
    }
    panic!("{what} never happened");
}

/// Drive `m` the way copying cores would until every stream has stored
/// its first body word and consumed its second: body ports empty, burst
/// trackers primed. Returns the streams advanced to the pair they issue
/// next.
fn prime_streams(m: &mut MemorySystem, streams: &[Stream]) -> Vec<Stream> {
    for s in streams {
        assert!(m.try_issue(s.core, Port::BodyLoad, s.load).issued());
    }
    tick_until(m, "first loads", |m| {
        streams.iter().all(|s| m.load_ready(s.core, Port::BodyLoad))
    });
    for s in streams {
        m.consume_load(s.core, Port::BodyLoad);
        assert!(m.try_issue(s.core, Port::BodyStore, s.store).issued());
        assert!(m.try_issue(s.core, Port::BodyLoad, s.load + 1).issued());
    }
    m.tick();
    tick_until(m, "first stores", |m| {
        streams
            .iter()
            .all(|s| m.load_ready(s.core, Port::BodyLoad) && !m.port_busy(s.core, Port::BodyStore))
    });
    streams
        .iter()
        .map(|s| {
            m.consume_load(s.core, Port::BodyLoad);
            Stream {
                core: s.core,
                load: s.load + 2,
                store: s.store + 1,
            }
        })
        .collect()
}

/// What a streaming core's tick does to the memory system, minus the
/// consume: store the word in hand, load the next.
fn issue_pairs(m: &mut MemorySystem, streams: &[Stream]) {
    for s in streams {
        assert!(m.try_issue(s.core, Port::BodyStore, s.store).issued());
        assert!(m.try_issue(s.core, Port::BodyLoad, s.load).issued());
    }
}

/// `k` explicit stream rounds: the memory tick, then every stream
/// core's tick in order.
fn explicit_rounds(m: &mut MemorySystem, streams: &[Stream], k: u64) {
    for j in 1..=k as u32 {
        m.tick();
        for s in streams {
            assert!(m.load_ready(s.core, Port::BodyLoad), "not a stream tick");
            m.consume_load(s.core, Port::BodyLoad);
            assert!(m.try_issue(s.core, Port::BodyStore, s.store + j).issued());
            assert!(m.try_issue(s.core, Port::BodyLoad, s.load + j).issued());
        }
    }
}

fn stream_cfg(latency: u32, bandwidth: u32) -> MemConfig {
    MemConfig {
        latency,
        bandwidth,
        ..MemConfig::default()
    }
    .with_backend(MemBackendKind::Fixed)
}

/// A memory system with `n` streams mid-copy — `stream_window` must
/// accept it — after `before_pairs` had its say between the priming and
/// the pair issue. Two spare cores (`n`, `n + 1`) stand in for the
/// frozen rest of the machine.
fn streaming_system(
    n: usize,
    cfg: MemConfig,
    before_pairs: impl FnOnce(&mut MemorySystem),
) -> (MemorySystem, Vec<Stream>, Vec<usize>) {
    let mut m = MemorySystem::new(n + 2, cfg);
    let streams = prime_streams(&mut m, &streams_of(n));
    before_pairs(&mut m);
    issue_pairs(&mut m, &streams);
    let ids = streams.iter().map(|s| s.core).collect();
    (m, streams, ids)
}

/// An in-service header store on spare core `n` and, behind it, a
/// comparator-blocked header load on spare core `n + 1`.
fn park_header_traffic(m: &mut MemorySystem, n: usize) {
    assert!(m.try_issue(n, Port::HeaderStore, 77).issued());
    m.tick();
    assert!(m.try_issue(n + 1, Port::HeaderLoad, 77).issued());
    assert!(m.header_store_pending(77));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Contract 6: `apply_stream_window(S, k)` equals `k` explicit
    /// rounds — statistics, every port, the queue, the burst trackers,
    /// the calendar and, with the feed on, the wake masks (the `Debug`
    /// image is the whole state) and the activity horizon.
    #[test]
    fn stream_window_replays_explicit_rounds(
        n in 1usize..=5,
        runs in prop::collection::vec(2u64..=64, 5),
        header_traffic in prop_oneof![Just(false), Just(true)],
        wake_feed in prop_oneof![Just(false), Just(true)],
        latency in 2u32..9,
        slack in 0u32..3,
        pick in 0u64..1 << 32,
    ) {
        let cfg = stream_cfg(latency, 2 * n as u32 + slack);
        let (mut m, streams, ids) = streaming_system(n, cfg, |m| {
            if wake_feed {
                m.enable_wake_feed();
            }
            if header_traffic {
                park_header_traffic(m, n);
            }
        });
        // The engine takes the masks at the start of every cycle, so a
        // jump begins from empty ones.
        m.take_wakes();
        let limit = m.stream_window(&ids).expect("a pure stream state");
        if header_traffic {
            // The header store entered service one tick ago.
            prop_assert_eq!(limit, u64::from(latency) - 1);
        }
        let shortest = runs[..n].iter().copied().min().expect("n >= 1");
        let k = 1 + pick % limit.min(shortest);

        let mut jumped = m.clone();
        jumped.apply_stream_window(&ids, k);
        let mut ticked = m;
        explicit_rounds(&mut ticked, &streams, k);

        prop_assert_eq!(jumped.stats(), ticked.stats());
        prop_assert_eq!(format!("{jumped:?}"), format!("{ticked:?}"));
        prop_assert_eq!(jumped.next_activity_cycle(), ticked.next_activity_cycle());
        let (jumped_wakes, ticked_wakes) = (jumped.take_wakes(), ticked.take_wakes());
        prop_assert_eq!(jumped_wakes, ticked_wakes);
        // Both body ports of every stream retired in every round.
        let body = if wake_feed { (1u64 << n) - 1 } else { 0 };
        prop_assert_eq!(jumped_wakes[Port::BodyLoad as usize], body);
        prop_assert_eq!(jumped_wakes[Port::BodyStore as usize], body);
    }

    /// The DRAM backend never offers a stream window, whatever state
    /// it is in.
    #[test]
    fn dram_never_offers_a_stream_window(
        ops in ops(CORES),
        dram in dram_configs(),
    ) {
        let cfg = MemConfig::default().with_backend(MemBackendKind::Dram(dram));
        let mut m = DramMemorySystem::new(CORES, cfg);
        for &op in &ops {
            apply(&mut m, op);
            for ids in [&[0usize][..], &[0, 1], &[0, 1, 2]] {
                prop_assert_eq!(m.stream_window(ids), None);
            }
        }
    }
}

#[test]
fn stream_window_refuses_whatever_it_cannot_replay() {
    const N: usize = 2;
    let good = stream_cfg(5, 4);
    let accepted = |cfg: MemConfig, before: &dyn Fn(&mut MemorySystem)| {
        let (m, _, ids) = streaming_system(N, cfg, before);
        m.stream_window(&ids)
    };
    assert!(
        accepted(good, &|_| {}).is_some(),
        "the baseline must stream"
    );

    // Configuration and observers.
    assert_eq!(accepted(stream_cfg(5, 3), &|_| {}), None, "bandwidth");
    assert_eq!(
        accepted(good.with_extra_latency(1), &|_| {}),
        None,
        "artificial latency"
    );
    assert_eq!(
        accepted(good.with_service_reorder(7), &|_| {}),
        None,
        "reordered service"
    );
    assert_eq!(accepted(good, &|m| m.enable_event_log()), None, "event log");
    // The wake feed is no obstacle: the replay sets the masks the
    // replayed ticks would have (contract 6).
    assert!(
        accepted(good, &|m| m.enable_wake_feed()).is_some(),
        "wake feed"
    );

    // Traffic that is not the stream's.
    assert_eq!(
        accepted(stream_cfg(5, 8), &|m| {
            assert!(m.try_issue(N, Port::HeaderStore, 77).issued());
        }),
        None,
        "a foreign queue entry"
    );
    assert_eq!(
        accepted(good, &|m| {
            assert!(m.try_issue(N, Port::BodyLoad, 77).issued());
            tick_until(m, "spare load", |m| m.load_ready(N, Port::BodyLoad));
        }),
        None,
        "a completed load waiting"
    );
    assert_eq!(
        accepted(good, &|m| {
            assert!(m.try_issue(N, Port::HeaderStore, 77).issued());
            for _ in 0..5 {
                m.tick();
            }
            assert_eq!(m.next_activity_cycle(), Some(m.cycle() + 1));
        }),
        None,
        "a retirement due next tick"
    );
    // A zero-latency header store retires at its service start and
    // leaves the comparator re-check for the next tick.
    assert!(accepted(stream_cfg(0, 4), &|_| {}).is_some());
    assert_eq!(
        accepted(stream_cfg(0, 4), &|m| {
            assert!(m.try_issue(N, Port::HeaderStore, 77).issued());
            m.tick();
            assert!(!m.header_store_pending(77));
        }),
        None,
        "a comparator re-check pending"
    );

    // A stream set that is not what the queue holds.
    let (m, _, ids) = streaming_system(N, good, |_| {});
    assert_eq!(m.stream_window(&[ids[1], ids[0]]), None, "tick order");
    assert_eq!(m.stream_window(&ids[..1]), None, "a stream left out");
    // A store that does not continue its burst.
    let mut m = MemorySystem::new(N + 2, good);
    let mut skewed = prime_streams(&mut m, &streams_of(N));
    skewed[1].store += 1;
    issue_pairs(&mut m, &skewed);
    assert_eq!(m.stream_window(&ids), None, "a non-burst first word");
}

// --- Contract 7: the issue bound ------------------------------------------

/// `ops` with every other body access turned into its port's next
/// sequential word, so that burst continuations are common rather than a
/// 1-in-256 accident.
fn with_bursts(mut ops: Vec<Op>) -> Vec<Op> {
    let mut last = [[0u32; PORT_COUNT]; CORES];
    for op in &mut ops {
        if let Op::Issue { core, port, addr } = op {
            let body = matches!(Port::ALL[*port], Port::BodyLoad | Port::BodyStore);
            if body && *addr % 2 == 0 {
                *addr = last[*core][*port] + 1;
            }
            last[*core][*port] = *addr;
        }
    }
    ops
}

/// Shadow check of `Issue::Later`: every request taken with it must
/// still be in flight after the next tick — its load not ready, its
/// store still holding the buffer — whatever else happens in between. A
/// busy buffer must answer `Issue::Busy`. With `only_hits_are_soon`,
/// every `Issue::Soon` must be a header load that completed at issue.
fn check_issue_bound<B: MemBackend>(
    mut m: B,
    ops: Vec<Op>,
    worst_latency: u32,
    only_hits_are_soon: bool,
) {
    let mut script = ops.clone();
    script.extend(std::iter::repeat_n(
        Op::Tick,
        drain_bound(ops.len(), worst_latency),
    ));
    let mut later = Vec::new();
    for op in script {
        match op {
            Op::Issue { core, port, addr } => {
                let p = Port::ALL[port];
                let busy = m.port_busy(core, p);
                match m.try_issue(core, p, addr) {
                    Issue::Busy => prop_assert!(busy, "a free buffer refused a request"),
                    Issue::Later => {
                        prop_assert!(!busy);
                        later.push((core, p));
                    }
                    Issue::Soon => {
                        prop_assert!(!busy);
                        prop_assert!(
                            !only_hits_are_soon || (p == Port::HeaderLoad && m.load_ready(core, p)),
                            "core {core} {p:?}: Soon without completing at issue"
                        );
                    }
                }
            }
            Op::Tick => {
                m.tick();
                for (c, p) in later.drain(..) {
                    let retired = if p.is_load() {
                        m.load_ready(c, p)
                    } else {
                        !m.port_busy(c, p)
                    };
                    prop_assert!(
                        !retired,
                        "core {c} {p:?}: issued Later, retired in the next tick (cycle {})",
                        m.cycle()
                    );
                }
            }
            Op::Consume { .. } => apply(&mut m, op),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Contract 7 on the fixed backend: zero latencies, bursts (the
    /// strategy's addresses are dense, so body ports continue their
    /// streams), the header cache and the comparator array all in play.
    #[test]
    fn fixed_later_never_retires_in_the_next_tick(
        ops in ops(CORES),
        lat in 0u32..6,
        bw in 1u32..4,
        extra in prop_oneof![Just(0u32), Just(3)],
        cache in prop_oneof![Just(0usize), Just(16)],
    ) {
        let cfg = MemConfig {
            latency: lat,
            bandwidth: bw,
            header_cache_entries: cache,
            ..MemConfig::default()
        }
        .with_extra_latency(extra);
        check_issue_bound(MemorySystem::new(CORES, cfg), with_bursts(ops), lat + extra, false);
    }

    /// Contract 7 on the DRAM backend: everything but a header-cache hit
    /// is `Later`.
    #[test]
    fn dram_later_never_retires_in_the_next_tick(
        ops in ops(CORES),
        dram in dram_configs(),
        bw in 1u32..4,
        extra in prop_oneof![Just(0u32), Just(3)],
        cache in prop_oneof![Just(0usize), Just(16)],
    ) {
        let cfg = MemConfig { bandwidth: bw, header_cache_entries: cache, ..MemConfig::default() }
            .with_backend(MemBackendKind::Dram(dram))
            .with_extra_latency(extra);
        check_issue_bound(
            DramMemorySystem::new(CORES, cfg),
            with_bursts(ops),
            dram.t_ras + dram.t_rp + dram.t_rcd + dram.t_cas + extra,
            true,
        );
    }
}

/// The bound is not vacuous: on the fixed backend a body access that
/// continues its port's burst is `Soon` and, with the bandwidth to serve
/// it, retires in the very next tick; the same continuation under
/// artificial latency, and any stream start, is `Later`.
#[test]
fn fixed_zero_latency_bursts_are_soon_and_retire_in_the_next_tick() {
    for extra in [0, 1] {
        let cfg = stream_cfg(5, 2).with_extra_latency(extra);
        let mut m = MemorySystem::new(1, cfg);
        assert_eq!(m.try_issue(0, Port::BodyLoad, 100), Issue::Later);
        assert_eq!(m.try_issue(0, Port::BodyStore, 500), Issue::Later);
        tick_until(&mut m, "stream starts", |m| {
            m.load_ready(0, Port::BodyLoad) && !m.port_busy(0, Port::BodyStore)
        });
        m.consume_load(0, Port::BodyLoad);
        let continuation = if extra == 0 {
            Issue::Soon
        } else {
            Issue::Later
        };
        assert_eq!(m.try_issue(0, Port::BodyLoad, 101), continuation);
        assert_eq!(m.try_issue(0, Port::BodyStore, 501), continuation);
        assert_eq!(m.try_issue(0, Port::BodyStore, 502), Issue::Busy);
        m.tick();
        let retired = m.load_ready(0, Port::BodyLoad) && !m.port_busy(0, Port::BodyStore);
        assert_eq!(retired, extra == 0, "+{extra}");
    }
}

/// A comparator-blocked header load is `Later` on both backends, at any
/// latency: not ready after the next tick, ready once its store has
/// retired and it has been served. Core 1 issues the load in the store's
/// issue cycle, and again, on a fresh copy, in the cycle just before the
/// store retires — where, at a nonzero latency, the next tick retires
/// the store, releases the load and starts its service in one go, so the
/// load must not be served faster than the store it waited on.
fn check_blocked_header_load_is_later<B: MemBackend + Clone>(fresh: B, what: &str) {
    const ADDR: u32 = 42;
    let mut probe = fresh.clone();
    assert!(probe.try_issue(0, Port::HeaderStore, ADDR).issued());
    let mut store_ticks = 0;
    while probe.port_busy(0, Port::HeaderStore) {
        probe.tick();
        store_ticks += 1;
        assert!(store_ticks < 64, "{what}: the store never retired");
    }
    for wait in [0, store_ticks - 1] {
        let mut m = fresh.clone();
        m.enable_event_log();
        assert!(m.try_issue(0, Port::HeaderStore, ADDR).issued());
        for _ in 0..wait {
            m.tick();
        }
        let when = format!("{what}, load issued {wait} ticks after the store");
        assert_eq!(
            m.try_issue(1, Port::HeaderLoad, ADDR),
            Issue::Later,
            "{when}"
        );
        m.tick();
        assert!(
            !m.load_ready(1, Port::HeaderLoad),
            "{when}: ready next tick"
        );
        if wait > 0 {
            // The variant this case exists for did happen.
            let cycle = m.cycle();
            assert!(!m.port_busy(0, Port::HeaderStore), "{when}: store retired");
            assert!(
                m.take_event_log().iter().any(|r| r.cycle == cycle
                    && r.event
                        == MemEvent::CompUnblocked {
                            core: 1,
                            addr: ADDR
                        }),
                "{when}: released in the store's retirement tick"
            );
        }
        while !m.load_ready(1, Port::HeaderLoad) {
            m.tick();
            assert!(m.cycle() < 64, "{when}: the load never completed");
        }
        assert!(
            !m.port_busy(0, Port::HeaderStore),
            "{when}: bypassed the store"
        );
    }
}

#[test]
fn blocked_header_loads_are_later_on_both_backends() {
    let fixed = |latency| {
        MemConfig {
            latency,
            extra_latency: 0,
            ..MemConfig::default()
        }
        .with_backend(MemBackendKind::Fixed)
    };
    check_blocked_header_load_is_later(MemorySystem::new(2, fixed(0)), "fixed, latency 0");
    let default_latency = MemConfig::default().latency;
    check_blocked_header_load_is_later(MemorySystem::new(2, fixed(default_latency)), "fixed");
    let dram = MemConfig::default().with_backend(MemBackendKind::Dram(DramConfig::default()));
    check_blocked_header_load_is_later(DramMemorySystem::new(2, dram), "dram");
}

/// A header-cache hit completes at issue: `Soon` on both backends, and
/// the data is there before any tick.
#[test]
fn header_cache_hits_are_soon_on_both_backends() {
    fn check<B: MemBackend>(mut m: B) {
        assert!(m.try_issue(0, Port::HeaderStore, 42).issued());
        while m.port_busy(0, Port::HeaderStore) {
            m.tick();
        }
        assert_eq!(m.try_issue(1, Port::HeaderLoad, 42), Issue::Soon);
        assert!(m.load_ready(1, Port::HeaderLoad));
        assert_eq!(m.try_issue(1, Port::HeaderStore, 43), Issue::Later);
    }
    let cfg = MemConfig {
        header_cache_entries: 16,
        ..MemConfig::default()
    };
    check(MemorySystem::new(
        2,
        cfg.with_backend(MemBackendKind::Fixed),
    ));
    let dram = cfg.with_backend(MemBackendKind::Dram(DramConfig::default()));
    check(DramMemorySystem::new(2, dram));
}
