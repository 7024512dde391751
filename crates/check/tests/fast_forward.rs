//! Differential check of the engine's jumps — the all-parked jump and
//! the body-stream jump: on every workload preset and every adversarial
//! graph in the catalog, on both memory backends and under every
//! schedule policy, the engine with `fast_forward` on must report
//! *exactly* what the per-cycle reference loop (`fast_forward` off)
//! reports — the same `GcStats` (total cycles, stall
//! attribution, memory and SB counters), the same allocation frontier,
//! and, where the SB event log is captured, the same cycle-stamped event
//! stream.
//!
//! The workload matrix rides the `HWGC_JOBS` worker pool; every pair is
//! an independent simulation.

use hwgc_check::graphs;
use hwgc_core::{Adversarial, GcConfig, RandomOrder, SignalTrace, SimCollector, StaticPriority};
use hwgc_heap::{GraphBuilder, Heap};
use hwgc_jobs::par_map;
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig, PagePolicy};
use hwgc_obs::{HostProfiler, Recorder};
use hwgc_workloads::{Preset, WorkloadSpec};

fn ff_config(cores: usize) -> GcConfig {
    let cfg = GcConfig::with_cores(cores);
    assert!(cfg.fast_forward, "fast-forward must be the default");
    cfg
}

fn naive_config(cores: usize) -> GcConfig {
    GcConfig {
        fast_forward: false,
        ..ff_config(cores)
    }
}

#[test]
fn every_preset_is_bit_exact_under_fast_forward() {
    let mut pairs: Vec<(Preset, usize)> = Vec::new();
    for preset in Preset::ALL {
        for cores in [1usize, 4, 16] {
            pairs.push((preset, cores));
        }
    }
    par_map(&pairs, |_, &(preset, cores)| {
        let base = WorkloadSpec::new(preset, 42).build();
        let mut fast_heap = base.clone();
        let mut naive_heap = base;
        let fast = SimCollector::new(ff_config(cores)).collect(&mut fast_heap);
        let naive = SimCollector::new(naive_config(cores)).collect(&mut naive_heap);
        assert_eq!(
            fast.stats,
            naive.stats,
            "{}/{cores}c: stats diverged under fast-forward",
            preset.name()
        );
        assert_eq!(
            fast.free,
            naive.free,
            "{}/{cores}c: allocation frontier diverged",
            preset.name()
        );
    });
}

#[test]
fn every_catalog_graph_preserves_the_sb_event_stream() {
    let catalog: Vec<(&'static str, Heap)> = graphs::catalog();
    par_map(&catalog, |_, (name, heap)| {
        for cores in [1usize, 4, 16] {
            let mut fast_heap = heap.clone();
            let mut naive_heap = heap.clone();
            // Event capture forces k = 0 whenever a skipped window would
            // drop per-cycle lock-failure events, so the streams must
            // match record for record.
            let mut fast_trace = SignalTrace::with_events(1 << 40);
            let mut naive_trace = SignalTrace::with_events(1 << 40);
            let fast =
                SimCollector::new(ff_config(cores)).collect_traced(&mut fast_heap, &mut fast_trace);
            let naive = SimCollector::new(naive_config(cores))
                .collect_traced(&mut naive_heap, &mut naive_trace);
            assert_eq!(
                fast.stats, naive.stats,
                "{name}/{cores}c: stats diverged under fast-forward"
            );
            assert_eq!(
                fast.free, naive.free,
                "{name}/{cores}c: allocation frontier diverged"
            );
            assert_eq!(
                fast_trace.events(),
                naive_trace.events(),
                "{name}/{cores}c: SB event streams diverged"
            );
            assert_eq!(
                fast_trace.rows(),
                naive_trace.rows(),
                "{name}/{cores}c: sampled trace rows diverged"
            );
        }
    });
}

/// Run `heap` under `cfg` with jumps on and off, traced with the SB event
/// log and sampled every 7 cycles, under the named arbiter (`None`: static
/// priority without a policy object), and require identical stats,
/// frontier, SB event streams and trace rows.
fn assert_traced_parity(label: &str, heap: &Heap, cfg: GcConfig, arbiter: Option<&str>) {
    let run = |fast_forward: bool| {
        let (mut heap, mut trace) = (heap.clone(), SignalTrace::with_events(7));
        let collector = SimCollector::new(GcConfig {
            fast_forward,
            ..cfg
        });
        // Built fresh per run: the RNG streams must start aligned.
        let out = match arbiter {
            Some("static") => {
                collector.collect_scheduled_traced(&mut heap, &mut StaticPriority, &mut trace)
            }
            Some("random") => {
                collector.collect_scheduled_traced(&mut heap, &mut RandomOrder::new(7), &mut trace)
            }
            Some(_) => {
                collector.collect_scheduled_traced(&mut heap, &mut Adversarial::new(7), &mut trace)
            }
            None => collector.collect_traced(&mut heap, &mut trace),
        };
        (out, trace)
    };
    let ((fast, fast_trace), (naive, naive_trace)) = (run(true), run(false));
    assert_eq!(fast.stats, naive.stats, "{label}: stats diverged");
    assert_eq!(fast.free, naive.free, "{label}: frontier diverged");
    assert_eq!(
        fast_trace.events(),
        naive_trace.events(),
        "{label}: SB events"
    );
    assert_eq!(fast_trace.rows(), naive_trace.rows(), "{label}: trace rows");
}

/// The all-parked jump on the DRAM backend goes to the exact
/// bank horizon: requests queue behind busy banks through the skipped
/// cycles, and closed-page banks re-arm after their data retired.
#[test]
fn dram_jumps_are_bit_exact() {
    let mut combos: Vec<(PagePolicy, usize, u32)> = Vec::new();
    for page_policy in [PagePolicy::Open, PagePolicy::Closed] {
        for cores in [1usize, 2, 16] {
            for extra in [0u32, 3] {
                combos.push((page_policy, cores, extra));
            }
        }
    }
    par_map(&combos, |_, &(page_policy, cores, extra)| {
        let dram = DramConfig {
            page_policy,
            ..DramConfig::default()
        };
        let cfg = GcConfig {
            mem: MemConfig::default()
                .with_backend(MemBackendKind::Dram(dram))
                .with_extra_latency(extra),
            ..ff_config(cores)
        };
        for preset in [Preset::Compress, Preset::Javac, Preset::Db] {
            let label = format!("{}/{cores}c {page_policy:?} +{extra}", preset.name());
            assert_traced_parity(&label, &WorkloadSpec::new(preset, 42).build(), cfg, None);
        }
    });
}

/// Jumps compose with schedule policies: a jump replays the skipped
/// cycles' `arrange`s against the frozen view, so every later cycle's
/// order — and therefore the whole run — matches the per-cycle loop.
#[test]
fn jumps_are_bit_exact_under_schedule_policies() {
    let mut heaps: Vec<(&'static str, Heap)> = graphs::catalog();
    heaps.push(("javac", WorkloadSpec::new(Preset::Javac, 42).build()));
    heaps.push(("compress", WorkloadSpec::new(Preset::Compress, 42).build()));
    par_map(&heaps, |_, (name, heap)| {
        for cores in [2usize, 4] {
            for arbiter in ["static", "random", "adversarial"] {
                let label = format!("{name}/{cores}c {arbiter}");
                assert_traced_parity(&label, heap, ff_config(cores), Some(arbiter));
            }
        }
    });
}

/// The policy matrix above is only a test of jumps under a policy if
/// they fire there (`tick_permutation_seed` is the `RandomOrder` arbiter).
#[test]
fn jumps_fire_under_a_random_order() {
    let cfg = GcConfig {
        tick_permutation_seed: Some(7),
        ..ff_config(4)
    };
    let mut heap = WorkloadSpec::new(Preset::Javac, 42).build();
    let mut prof = HostProfiler::new();
    SimCollector::new(cfg).collect_hostprof(&mut heap, &mut prof);
    assert!(prof.counter("engine.jump.all_parked") > 0);
}

// --- the stream jump ------------------------------------------------------
//
// The presets and the adversarial catalog above are pointer-dense small
// objects; the closed-form body-stream jump bites on long pass-through
// runs, so it gets a catalog of its own.

/// A chain of `n` objects of `(pi, delta)` body shape whose only live
/// edge sits in pointer slot `live` (every other slot stays `NULL`).
fn chain_of(n: usize, pi: u32, delta: u32, live: u32) -> Heap {
    let mut heap = Heap::new(n as u32 * (pi + delta + 2) + 64);
    let mut b = GraphBuilder::new(&mut heap);
    let ids: Vec<_> = (0..n).map(|_| b.add(pi, delta).unwrap()).collect();
    for w in ids.windows(2) {
        b.link(w[0], live, w[1]);
    }
    b.root(ids[0]);
    heap
}

/// A root whose pointer slots each lead to one leaf of the given body
/// shape: the leaves are scanned side by side at two and three cores.
fn fan_of(leaves: &[(u32, u32)]) -> Heap {
    let words: u32 = leaves.iter().map(|&(pi, delta)| pi + delta + 2).sum();
    let mut heap = Heap::new(words + leaves.len() as u32 + 64);
    let mut b = GraphBuilder::new(&mut heap);
    let root = b.add(leaves.len() as u32, 1).unwrap();
    for (slot, &(pi, delta)) in leaves.iter().enumerate() {
        let leaf = b.add(pi, delta).unwrap();
        b.link(root, slot as u32, leaf);
    }
    b.root(root);
    heap
}

/// A long data leaf beside `spokes` small objects that all point at one
/// hub: while one core streams the leaf, the others race for the hub's
/// header lock, so a stream jump has lock stalls to replay (or, with
/// the SB event log on, to refuse).
fn hub_beside_stream(spokes: u32) -> Heap {
    let mut heap = Heap::new(5 * spokes + 600);
    let mut b = GraphBuilder::new(&mut heap);
    let root = b.add(spokes + 1, 1).unwrap();
    let leaf = b.add(0, 400).unwrap();
    let hub = b.add(0, 2).unwrap();
    b.link(root, 0, leaf);
    for slot in 1..=spokes {
        let spoke = b.add(1, 1).unwrap();
        b.link(spoke, 0, hub);
        b.link(root, slot, spoke);
    }
    b.root(root);
    heap
}

fn stream_catalog() -> Vec<(&'static str, Heap)> {
    vec![
        ("hub-beside-stream", hub_beside_stream(16)),
        ("long-data", chain_of(5, 1, 40, 0)),
        ("null-padded/first", chain_of(5, 12, 3, 0)),
        ("null-padded/middle", chain_of(5, 12, 3, 6)),
        ("null-padded/last", chain_of(5, 12, 3, 11)),
        (
            "long-data-fan",
            fan_of(&[(0, 40), (0, 33), (0, 40), (0, 17)]),
        ),
        // Claims of exactly two and three words never reach a stream
        // tick (their last word is always a real one); four is the
        // shortest claim that does.
        (
            "short-claims",
            fan_of(&[
                (0, 2),
                (0, 3),
                (1, 1),
                (2, 1),
                (0, 4),
                (3, 1),
                (0, 5),
                (2, 2),
            ]),
        ),
    ]
}

fn stream_config(cores: usize, mem: MemConfig, line_split: Option<u32>, ff: bool) -> GcConfig {
    GcConfig {
        mem,
        line_split,
        fast_forward: ff,
        ..GcConfig::with_cores(cores)
    }
}

#[test]
fn stream_jumps_are_bit_exact() {
    let mut combos: Vec<(usize, MemConfig, Option<u32>, u64)> = Vec::new();
    for cores in [1usize, 2, 3] {
        for bandwidth in [1u32, 2, 3, 10] {
            for extra in [0u32, 3] {
                for line_split in [None, Some(4)] {
                    for header_cache_entries in [0usize, 64] {
                        for period in [1u64, 7] {
                            let mem = MemConfig {
                                bandwidth,
                                header_cache_entries,
                                ..MemConfig::default()
                            }
                            .with_backend(MemBackendKind::Fixed)
                            .with_extra_latency(extra);
                            combos.push((cores, mem, line_split, period));
                        }
                    }
                }
            }
        }
    }
    let catalog = stream_catalog();
    par_map(&combos, |_, &(cores, mem, line_split, period)| {
        let fast_cfg = stream_config(cores, mem, line_split, true);
        let naive_cfg = stream_config(cores, mem, line_split, false);
        for (name, heap) in &catalog {
            let label = format!(
                "{name}/{cores}c bw {} +{} split {line_split:?} cache {} period {period}",
                mem.bandwidth, mem.extra_latency, mem.header_cache_entries
            );

            // Quiet runs: statistics, frontier and the heap image.
            let (mut fast_heap, mut naive_heap) = (heap.clone(), heap.clone());
            let fast = SimCollector::new(fast_cfg).collect(&mut fast_heap);
            let naive = SimCollector::new(naive_cfg).collect(&mut naive_heap);
            assert_eq!(fast.stats, naive.stats, "{label}: stats diverged");
            assert_eq!(fast.free, naive.free, "{label}: frontier diverged");
            assert_eq!(
                fast_heap.words(),
                naive_heap.words(),
                "{label}: heap image diverged"
            );

            // The full bus: stall spans, state edges, claims, samples
            // and the bridged SB and memory event streams.
            let (mut fast_heap, mut naive_heap) = (heap.clone(), heap.clone());
            let mut fast_rec = Recorder::sampling(period);
            let mut naive_rec = Recorder::sampling(period);
            let fast = SimCollector::new(fast_cfg).collect_probed(&mut fast_heap, &mut fast_rec);
            let naive =
                SimCollector::new(naive_cfg).collect_probed(&mut naive_heap, &mut naive_rec);
            assert_eq!(fast.stats, naive.stats, "{label}: probed stats diverged");
            assert_eq!(
                fast_rec.recording().events,
                naive_rec.recording().events,
                "{label}: probe recordings diverged"
            );

            // Sampled rows without any event log (the configuration in
            // which the jump fires under a probe, capped at each wanted
            // sample) and with the SB log on.
            for with_events in [false, true] {
                let mk = || match with_events {
                    true => SignalTrace::with_events(period),
                    false => SignalTrace::new(period),
                };
                let (mut fast_heap, mut naive_heap) = (heap.clone(), heap.clone());
                let (mut fast_trace, mut naive_trace) = (mk(), mk());
                let fast =
                    SimCollector::new(fast_cfg).collect_traced(&mut fast_heap, &mut fast_trace);
                let naive =
                    SimCollector::new(naive_cfg).collect_traced(&mut naive_heap, &mut naive_trace);
                assert_eq!(fast.stats, naive.stats, "{label}: traced stats diverged");
                assert_eq!(
                    fast_trace.rows(),
                    naive_trace.rows(),
                    "{label}: trace rows diverged"
                );
                assert_eq!(
                    fast_trace.events(),
                    naive_trace.events(),
                    "{label}: SB event streams diverged"
                );
            }
        }
    });
}

/// The matrix above is only a test of the stream jump if the jump fires
/// on it — and not only at one core.
#[test]
fn the_stream_catalog_streams() {
    for (name, heap) in stream_catalog() {
        for cores in [1usize, 3] {
            let cfg = stream_config(
                cores,
                MemConfig::default().with_backend(MemBackendKind::Fixed),
                None,
                true,
            );
            let mut prof = HostProfiler::new();
            let out = SimCollector::new(cfg).collect_hostprof(&mut heap.clone(), &mut prof);
            let jumps = prof.counter("engine.ff.stream_jumps");
            let skipped = prof.counter("engine.ff.stream_cycles");
            assert!(jumps > 0, "{name}/{cores}c: the stream jump never fired");
            assert!(skipped >= jumps && skipped < out.stats.total_cycles);
        }
    }
}

/// The stream jump beyond one core, on the presets whose long bodies
/// stream: every other core must be parked or done for it to fire, so
/// this is where the park rule and the jump meet. Every cell matches the
/// reference loop in `GcStats`, frontier and SB event stream, and the
/// jump must fire in at least one multi-core `compress` cell.
#[test]
fn stream_jumps_beyond_one_core_are_bit_exact() {
    let mut combos: Vec<(Preset, usize, u32, usize, Option<u32>)> = Vec::new();
    for preset in [Preset::Compress, Preset::Search] {
        for cores in [2usize, 4, 8, 16] {
            for extra in [0u32, 5, 25] {
                for header_cache_entries in [0usize, 64] {
                    for line_split in [None, Some(4)] {
                        combos.push((preset, cores, extra, header_cache_entries, line_split));
                    }
                }
            }
        }
    }
    let heaps = [Preset::Compress, Preset::Search].map(|p| WorkloadSpec::new(p, 42).build());
    let jumps = par_map(
        &combos,
        |_, &(preset, cores, extra, entries, line_split)| {
            let heap = &heaps[usize::from(preset == Preset::Search)];
            let mem = MemConfig {
                header_cache_entries: entries,
                ..MemConfig::default()
            }
            .with_backend(MemBackendKind::Fixed)
            .with_extra_latency(extra);
            let label = format!(
                "{}/{cores}c +{extra} cache {entries} split {line_split:?}",
                preset.name()
            );
            let run_traced = |ff: bool| {
                let mut trace = SignalTrace::with_events(1 << 40);
                let cfg = stream_config(cores, mem, line_split, ff);
                let out = SimCollector::new(cfg).collect_traced(&mut heap.clone(), &mut trace);
                (out, trace)
            };
            // One reference run, traced: tracing is passive (the probe
            // differentials pin that), so its stats and frontier are the
            // quiet run's too.
            let (reference, reference_trace) = run_traced(false);
            let mut prof = HostProfiler::new();
            let fast = SimCollector::new(stream_config(cores, mem, line_split, true))
                .collect_hostprof(&mut heap.clone(), &mut prof);
            assert_eq!(fast.stats, reference.stats, "{label}: stats diverged");
            assert_eq!(fast.free, reference.free, "{label}: frontier diverged");
            let (traced, trace) = run_traced(true);
            assert_eq!(traced.stats, reference.stats, "{label}: traced stats");
            assert_eq!(
                trace.events(),
                reference_trace.events(),
                "{label}: SB event streams diverged"
            );
            (preset, prof.counter("engine.ff.stream_jumps"))
        },
    );
    assert!(
        jumps
            .iter()
            .any(|&(preset, n)| preset == Preset::Compress && n > 0),
        "the stream jump never fired beyond one core: {jumps:?}"
    );
}

/// A watchdog bound that lands inside a stream trips at the same cycle,
/// with the same diagnostics, as in the reference loop: the jump stops one
/// cycle short of the bound and the real tick after it panics.
#[test]
fn the_watchdog_fires_at_the_same_cycle_inside_a_stream() {
    let heap = chain_of(3, 1, 40, 0);
    let mem = MemConfig::default().with_backend(MemBackendKind::Fixed);
    let total = SimCollector::new(stream_config(1, mem, None, true))
        .collect(&mut heap.clone())
        .stats
        .total_cycles;
    let panic_of = |max_cycles: u64, ff: bool| {
        let cfg = GcConfig {
            max_cycles,
            ..stream_config(1, mem, None, ff)
        };
        let mut heap = heap.clone();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SimCollector::new(cfg).collect(&mut heap);
        }))
        .expect_err("the watchdog must fire");
        (
            payload
                .downcast_ref::<String>()
                .expect("formatted panic")
                .clone(),
            heap.into_words(),
        )
    };
    // One whole object's worth of bounds: most land inside its stream.
    for max_cycles in total / 2..total / 2 + 60 {
        let (fast_msg, fast_words) = panic_of(max_cycles, true);
        let (naive_msg, naive_words) = panic_of(max_cycles, false);
        assert!(fast_msg.contains(&format!("exceeded {max_cycles} cycles")));
        assert_eq!(fast_msg, naive_msg, "bound {max_cycles}");
        assert_eq!(fast_words, naive_words, "bound {max_cycles}: heap image");
    }
}
