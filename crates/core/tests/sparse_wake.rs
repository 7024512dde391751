//! Wake-completeness property tests for the sparse active-set engine.
//!
//! The classic hazard of a parked-core rewrite is the missed wakeup: a
//! core sleeps past a cycle in which its retry would have succeeded. The
//! oracle here is the reference loop, which ticks every core every
//! cycle and therefore *cannot* oversleep. If the sparse engine ever
//! lets a core sleep through a productive cycle, that core's progress is
//! delayed, `total_cycles` grows, and its stall breakdown diverges — so
//! full `GcStats` equality (which includes the per-core, per-reason
//! stall counters) on the same graph is exactly the "no core sleeps past
//! a cycle in which it could have progressed" assertion. Conversely a
//! premature wake replays too few skipped stalls and diverges the same
//! counters from the other side.
//!
//! Graphs, core counts, memory latencies, and schedule policies are all
//! drawn by proptest so the differential explores interleavings no
//! hand-written graph pins down. So are the three knobs that decide
//! what a scan-lock release means for the cores parked behind it:
//! `multiport_sb` and `line_split` (the released lock can be retaken in
//! the same cycle) and a tiny header FIFO (the lock is held across a
//! header load, so waiters actually pile up). And so is the memory
//! backend: on DRAM no access retires in the tick after its issue, so
//! every body word of a copy parks at issue.

use hwgc_core::schedule::{Adversarial, RandomOrder, SchedulePolicy};
use hwgc_core::{GcConfig, SimCollector};
use hwgc_heap::{verify_collection, GraphBuilder, Heap, Snapshot};
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig, PagePolicy};
use proptest::prelude::*;

/// One object: `pi` pointer slots, `delta` data words.
type Node = (u32, u32);
/// One edge: (parent index, slot index, child index), all later reduced
/// modulo the actual node/slot counts.
type Edge = (usize, u32, usize);

#[derive(Debug, Clone)]
struct Shape {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    roots: Vec<usize>,
}

fn shapes() -> impl Strategy<Value = Shape> {
    (
        prop::collection::vec((0u32..4, 1u32..5), 1..32),
        prop::collection::vec((0usize..32, 0u32..4, 0usize..32), 0..64),
        prop::collection::vec(0usize..32, 1..6),
    )
        .prop_map(|(nodes, edges, roots)| Shape {
            nodes,
            edges,
            roots,
        })
}

/// Materialize a shape in a fresh heap. Out-of-range indices wrap; edges
/// into objects without pointer slots are dropped. Unrooted subgraphs
/// stay behind as garbage, which is the interesting case for the
/// termination protocol (`done` broadcast racing parked cores).
fn build(shape: &Shape) -> Heap {
    let mut heap = Heap::new(4096);
    let mut b = GraphBuilder::new(&mut heap);
    let mut ids = Vec::with_capacity(shape.nodes.len());
    for &(pi, delta) in &shape.nodes {
        ids.push(b.add(pi, delta).expect("graph exceeds fromspace"));
    }
    for &(parent, slot, child) in &shape.edges {
        let p = parent % ids.len();
        let pi = shape.nodes[p].0;
        if pi > 0 {
            b.link(ids[p], slot % pi, ids[child % ids.len()]);
        }
    }
    for &root in &shape.roots {
        b.root(ids[root % ids.len()]);
    }
    heap
}

/// The fixed backend, or DRAM with random timings in the shape of
/// `backend_contracts`' `dram_configs()`: `tCAS >= 1`, 1–16 banks, rows
/// of one word to 128, open or closed page.
fn backends() -> impl Strategy<Value = MemBackendKind> {
    prop_oneof![
        Just(MemBackendKind::Fixed),
        (
            (1u32..3, 1u32..3, 1u32..4, 2u32..8),
            (
                1u32..=16,
                prop_oneof![Just(1u32), Just(3), Just(16), Just(128)],
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
                }
            ),
    ]
}

fn policy_for(choice: u8, seed: u64) -> Option<Box<dyn SchedulePolicy>> {
    match choice % 3 {
        0 => None,
        1 => Some(Box::new(RandomOrder::new(seed))),
        _ => Some(Box::new(Adversarial::new(seed))),
    }
}

fn run(
    cfg: GcConfig,
    shape: &Shape,
    policy_choice: u8,
    seed: u64,
) -> (hwgc_core::GcStats, u32, Heap, Snapshot) {
    let mut heap = build(shape);
    let snap = Snapshot::capture(&heap);
    let out = match policy_for(policy_choice, seed) {
        Some(mut p) => SimCollector::new(cfg).collect_scheduled(&mut heap, p.as_mut()),
        None => SimCollector::new(cfg).collect(&mut heap),
    };
    (out.stats, out.free, heap, snap)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// No missed and no spurious wakeups, across graphs × cores ×
    /// latency × schedule policy × SB ports × claim granularity × FIFO
    /// depth × memory backend: the sparse engine's stats are
    /// bit-identical to the always-awake shadow engine's.
    #[test]
    fn sparse_never_oversleeps(
        shape in shapes(),
        cores in 1usize..=16,
        extra in proptest::strategy::Union::new(vec![
            proptest::strategy::boxed(Just(0u32)),
            proptest::strategy::boxed(1u32..24),
        ]),
        policy_choice in 0u8..3,
        seed in 0u64..u64::MAX,
        multiport in 0u8..2,
        split_choice in 0usize..3,
        fifo_choice in 0usize..3,
        backend in backends(),
    ) {
        let sparse_cfg = GcConfig {
            mem: MemConfig {
                header_fifo_capacity: [0, 2, 4096][fifo_choice],
                ..MemConfig::default().with_extra_latency(extra).with_backend(backend)
            },
            multiport_sb: multiport == 1,
            line_split: [None, Some(2), Some(5)][split_choice],
            ..GcConfig::with_cores(cores)
        };
        let naive_cfg = GcConfig {
            fast_forward: false,
            ..sparse_cfg
        };
        let (s_stats, s_free, s_heap, s_snap) = run(sparse_cfg, &shape, policy_choice, seed);
        let (n_stats, n_free, _, _) = run(naive_cfg, &shape, policy_choice, seed);
        prop_assert_eq!(
            &s_stats, &n_stats,
            "sparse diverged from the reference loop ({cores} cores, +{extra} latency, \
             policy {policy_choice}, multiport {multiport}, split {split_choice}, \
             fifo {fifo_choice}, {backend:?})"
        );
        prop_assert_eq!(s_free, n_free);
        // The collection itself must also be correct, not just consistent.
        verify_collection(&s_heap, s_free, &s_snap).unwrap();
    }

    /// The event log flips the park rule for lock classes (they must
    /// stay awake so each per-cycle fail logs). Exercise that mode too.
    #[test]
    fn sparse_never_oversleeps_with_event_log(
        shape in shapes(),
        cores in 1usize..=16,
        extra in 0u32..12,
    ) {
        let sparse_cfg = GcConfig {
            mem: MemConfig::default().with_extra_latency(extra),
            ..GcConfig::with_cores(cores)
        };
        let mut h1 = build(&shape);
        let mut t1 = hwgc_core::trace::SignalTrace::with_events(1 << 40);
        let sparse = SimCollector::new(sparse_cfg).collect_traced(&mut h1, &mut t1);
        let mut h2 = build(&shape);
        let mut t2 = hwgc_core::trace::SignalTrace::with_events(1 << 40);
        let naive = SimCollector::new(GcConfig {
            fast_forward: false,
            ..sparse_cfg
        })
        .collect_traced(&mut h2, &mut t2);
        prop_assert_eq!(&sparse.stats, &naive.stats);
        prop_assert_eq!(t1.events(), t2.events());
    }
}
