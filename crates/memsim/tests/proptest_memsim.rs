//! Model-based property tests of the split-transaction memory system.
//! The protocol properties run on both service models: the fixed one at
//! the drawn latency, and DRAM with random timings.

use hwgc_memsim::{
    Dram, DramConfig, Fixed, MemBackend, MemBackendKind, MemConfig, Memory, MemorySystem,
    PagePolicy, Port, Service, PORT_COUNT,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Issue { core: usize, port: usize, addr: u32 },
    Tick,
    Consume { core: usize, port: usize },
}

fn ops(cores: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..cores), (0..PORT_COUNT), (0u32..64)).prop_map(|(core, port, addr)| Op::Issue {
                core,
                port,
                addr
            }),
            Just(Op::Tick),
            ((0..cores), prop_oneof![Just(0usize), Just(2)])
                .prop_map(|(core, port)| Op::Consume { core, port }),
        ],
        1..200,
    )
}

/// The fixed model, or DRAM timings drawn like `backend_contracts.rs`
/// draws them: both page policies, and bank counts and row sizes that
/// are not powers of two.
fn backends() -> impl Strategy<Value = MemBackendKind> {
    let dram = (
        (1u32..3, 1u32..3, 1u32..4, 2u32..8),
        (
            prop_oneof![Just(1u32), Just(3), Just(8)],
            prop_oneof![Just(1u32), Just(4), Just(16)],
            prop_oneof![Just(PagePolicy::Open), Just(PagePolicy::Closed)],
        ),
    )
        .prop_map(
            |((t_rcd, t_cas, t_rp, t_ras), (n_banks, row_words, page_policy))| {
                MemBackendKind::Dram(DramConfig {
                    t_rcd,
                    t_cas,
                    t_rp,
                    t_ras,
                    n_banks,
                    row_words,
                    page_policy,
                })
            },
        );
    prop_oneof![Just(MemBackendKind::Fixed), dram]
}

fn port_of(i: usize) -> Port {
    Port::ALL[i]
}

/// Whatever the program does, draining ticks retire every store and
/// complete every load; consuming everything leaves the system idle.
fn check_all_traffic_drains<S: Service>(cfg: MemConfig, ops: &[Op]) {
    let mut m = Memory::<S>::new(3, cfg);
    let mut outstanding_loads: Vec<(usize, usize)> = Vec::new();
    for op in ops {
        match *op {
            Op::Issue { core, port, addr } => {
                let p = port_of(port);
                if !m.port_busy(core, p) {
                    prop_assert!(m.try_issue(core, p, addr).issued());
                    if p.is_load() {
                        outstanding_loads.push((core, port));
                    }
                } else {
                    prop_assert!(!m.try_issue(core, p, addr).issued());
                }
            }
            Op::Tick => m.tick(),
            Op::Consume { core, port } => {
                let p = port_of(port);
                if m.load_ready(core, p) {
                    m.consume_load(core, p);
                    outstanding_loads.retain(|&(c, q)| (c, q) != (core, port));
                }
            }
        }
    }
    // Drain: generous bound covers queueing behind limited bandwidth and
    // busy banks.
    for _ in 0..(ops.len() as u64 * (cfg.worst_service_latency() + 2) + 64) {
        m.tick();
    }
    for (core, port) in outstanding_loads {
        let p = port_of(port);
        prop_assert!(
            m.load_ready(core, p),
            "load on {core}/{port} never completed"
        );
        m.consume_load(core, p);
    }
    prop_assert!(m.all_idle());
}

/// A header load issued while a header store to the same address is
/// pending never completes before that store retires.
fn check_comparator_orders_header_traffic<S: Service>(cfg: MemConfig, delay: u32) {
    let mut m = Memory::<S>::new(2, cfg);
    prop_assert!(m.try_issue(0, Port::HeaderStore, 7).issued());
    for _ in 0..delay {
        m.tick();
        if m.header_store_pending(7) {
            // While the store is pending, a racing load must not be
            // servable in the same or an earlier cycle.
            break;
        }
    }
    if m.header_store_pending(7) {
        prop_assert!(m.try_issue(1, Port::HeaderLoad, 7).issued());
        while m.header_store_pending(7) {
            prop_assert!(!m.load_ready(1, Port::HeaderLoad));
            m.tick();
        }
        for _ in 0..(2 * cfg.worst_service_latency() + 8) {
            m.tick();
        }
        prop_assert!(m.load_ready(1, Port::HeaderLoad));
        m.consume_load(1, Port::HeaderLoad);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn all_traffic_drains(
        ops in ops(3),
        lat in 0u32..6,
        bw in 1u32..5,
        backend in backends(),
    ) {
        let cfg = MemConfig { latency: lat, bandwidth: bw, backend, ..MemConfig::default() };
        match backend {
            MemBackendKind::Fixed => check_all_traffic_drains::<Fixed>(cfg, &ops),
            MemBackendKind::Dram(_) => check_all_traffic_drains::<Dram>(cfg, &ops),
        }
    }

    #[test]
    fn comparator_array_orders_header_traffic(
        delay in 0u32..8,
        lat in 1u32..6,
        backend in backends(),
    ) {
        let cfg = MemConfig { latency: lat, bandwidth: 1, backend, ..MemConfig::default() };
        match backend {
            MemBackendKind::Fixed => check_comparator_orders_header_traffic::<Fixed>(cfg, delay),
            MemBackendKind::Dram(_) => check_comparator_orders_header_traffic::<Dram>(cfg, delay),
        }
    }

    /// Bandwidth never lets more requests start per cycle than configured:
    /// with bandwidth 1 and N simultaneous random-access loads, completion
    /// times are strictly staggered. Fixed model only: DRAM latencies
    /// differ per row outcome, so completion order is not issue order.
    #[test]
    fn bandwidth_staggers_service(n in 2usize..4) {
        let cfg = MemConfig { latency: 3, bandwidth: 1, ..MemConfig::default() }
            .with_backend(MemBackendKind::Fixed);
        let mut m = MemorySystem::new(n, cfg);
        for c in 0..n {
            // Distinct non-sequential addresses: no burst shortcut.
            prop_assert!(m.try_issue(c, Port::HeaderLoad, (c as u32) * 100).issued());
        }
        let mut completion = vec![None; n];
        for cycle in 0..100u64 {
            m.tick();
            for (c, slot) in completion.iter_mut().enumerate() {
                if slot.is_none() && m.load_ready(c, Port::HeaderLoad) {
                    *slot = Some(cycle);
                }
            }
        }
        let times: Vec<u64> = completion.into_iter().map(|c| c.unwrap()).collect();
        for w in times.windows(2) {
            prop_assert!(w[1] > w[0], "service must be staggered: {times:?}");
        }
    }
}
