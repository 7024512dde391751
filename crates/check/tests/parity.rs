//! Engine parity: the event-driven engine — parks, the all-parked jump
//! and the closed-form body-stream jump, all behind the default
//! `fast_forward: true` — against the per-cycle reference loop
//! (`fast_forward: false`), on every workload preset, every adversarial
//! graph in the catalog and a catalog of streaming shapes, on both memory
//! backends and under every schedule policy. Each cell must report
//! *exactly* what the reference reports: the same `GcStats` (total
//! cycles, per-core stall attribution, memory and SB counters), the same
//! allocation frontier, the same heap image, and whatever its watch
//! records — trace rows, the cycle-stamped SB event stream, the probe-bus
//! recording.
//!
//! Every grid rides the `HWGC_JOBS` worker pool; every cell is an
//! independent simulation.

use hwgc_check::graphs;
use hwgc_core::schedule::SchedulePolicy;
use hwgc_core::{
    Adversarial, GcConfig, GcOutcome, RandomOrder, SignalTrace, SimCollector, StaticPriority,
};
use hwgc_heap::{GraphBuilder, Heap, Snapshot, Word};
use hwgc_jobs::par_map;
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig, PagePolicy};
use hwgc_obs::{HostProfiler, Recorder, Recording};
use hwgc_workloads::{Preset, WorkloadSpec};

/// The event-driven engine on `cores` cores with `extra` cycles on every
/// access. The backend is pinned, so `HWGC_MEM_BACKEND` moves no cell.
fn config(cores: usize, extra: u32, backend: MemBackendKind) -> GcConfig {
    let cfg = GcConfig {
        mem: MemConfig::default()
            .with_backend(backend)
            .with_extra_latency(extra),
        ..GcConfig::with_cores(cores)
    };
    assert!(
        cfg.fast_forward,
        "the event-driven engine must be the default"
    );
    cfg
}

/// The per-cycle reference loop in `cfg`'s configuration.
fn reference(cfg: GcConfig) -> GcConfig {
    GcConfig {
        fast_forward: false,
        ..cfg
    }
}

/// The DRAM leg of every backend axis: the default (`100ns`) timings
/// under both page policies — a different latency shape per access — and
/// the fastest preset under closed page, which exercises the
/// conflict/precharge paths of the horizon contracts hardest.
fn dram_backends() -> [(&'static str, MemBackendKind); 3] {
    let closed = |dram: DramConfig| {
        MemBackendKind::Dram(DramConfig {
            page_policy: PagePolicy::Closed,
            ..dram
        })
    };
    [
        ("dram-open", MemBackendKind::Dram(DramConfig::default())),
        ("dram-closed", closed(DramConfig::default())),
        (
            "dram-closed-80ns",
            closed(DramConfig::preset("80ns").expect("preset exists")),
        ),
    ]
}

/// Everything a run records besides its outcome and heap image. A watch
/// that takes the SB log may not park on lock stalls (each failed
/// attempt logs an event), and a sampled one caps every jump at its next
/// sample, so each watch is a regime of its own, not only a view.
#[derive(Clone, Copy, Debug)]
enum Watch {
    /// Nothing attached: the full park rule.
    Quiet,
    /// `SignalTrace` rows every `every` cycles, with or without the SB
    /// event log.
    Trace { every: u64, events: bool },
    /// A probe-bus `Recorder` (stall spans, state edges, claims, the SB
    /// and memory logs), sampling every n cycles or (`None`) on
    /// transitions only.
    Probe(Option<u64>),
}

/// The tick-order arbiters, with their seeds.
#[derive(Clone, Copy, Debug)]
enum Arbiter {
    Static,
    Random(u64),
    Adversarial(u64),
}

/// What one run produced.
struct Run {
    out: GcOutcome,
    heap: Heap,
    trace: Option<SignalTrace>,
    recording: Option<Recording>,
}

fn run(heap: &Heap, cfg: GcConfig, arbiter: Option<Arbiter>, watch: Watch) -> Run {
    let mut heap = heap.clone();
    let collector = SimCollector::new(cfg);
    // Built fresh per run: the RNG streams must start aligned.
    let mut policy: Option<Box<dyn SchedulePolicy>> = arbiter.map(|a| match a {
        Arbiter::Static => Box::new(StaticPriority) as Box<dyn SchedulePolicy>,
        Arbiter::Random(seed) => Box::new(RandomOrder::new(seed)),
        Arbiter::Adversarial(seed) => Box::new(Adversarial::new(seed)),
    });
    let (mut trace, mut recording) = (None, None);
    let out = match (watch, policy.as_deref_mut()) {
        (Watch::Quiet, None) => collector.collect(&mut heap),
        (Watch::Quiet, Some(p)) => collector.collect_scheduled(&mut heap, p),
        (Watch::Trace { every, events }, p) => {
            let t = trace.insert(match events {
                true => SignalTrace::with_events(every),
                false => SignalTrace::new(every),
            });
            match p {
                None => collector.collect_traced(&mut heap, t),
                Some(p) => collector.collect_scheduled_traced(&mut heap, p, t),
            }
        }
        (Watch::Probe(every), None) => {
            let mut rec = every.map_or_else(Recorder::new, Recorder::sampling);
            let out = collector.collect_probed(&mut heap, &mut rec);
            recording = Some(rec.into_recording());
            out
        }
        (Watch::Probe(_), Some(_)) => panic!("the engine has no scheduled probe door"),
    };
    Run {
        out,
        heap,
        trace,
        recording,
    }
}

/// Run `heap` under `cfg` and under its reference loop, with the same
/// arbiter and watch, and require the same stats, frontier, heap image
/// and watched record. Returns the event-driven run.
fn assert_parity(
    label: &str,
    heap: &Heap,
    cfg: GcConfig,
    arbiter: Option<Arbiter>,
    watch: Watch,
) -> Run {
    let fast = run(heap, cfg, arbiter, watch);
    let slow = run(heap, reference(cfg), arbiter, watch);
    let label = format!("{label} {arbiter:?} {watch:?}");
    assert_eq!(fast.out.stats, slow.out.stats, "{label}: stats diverged");
    assert_eq!(fast.out.free, slow.out.free, "{label}: frontier diverged");
    assert!(
        fast.heap.words() == slow.heap.words(),
        "{label}: heap images diverged"
    );
    if let (Some(a), Some(b)) = (&fast.trace, &slow.trace) {
        assert!(
            a.events() == b.events(),
            "{label}: SB event streams diverged"
        );
        assert!(a.rows() == b.rows(), "{label}: trace rows diverged");
    }
    if let (Some(a), Some(b)) = (&fast.recording, &slow.recording) {
        assert!(a.events == b.events, "{label}: probe recordings diverged");
    }
    fast
}

/// `SignalTrace` with the SB event log and (practically) no sampled rows.
const EVENTS: Watch = Watch::Trace {
    every: 1 << 40,
    events: true,
};

/// `SignalTrace` with the SB event log and a row every 7 cycles.
const EVENTS_EVERY_7: Watch = Watch::Trace {
    every: 7,
    events: true,
};

/// Every preset × {1, 4, 16} cores × {fixed +0, fixed +20 (the Figure 6
/// regime: memory-bound parks), each DRAM backend}, quiet, and the
/// event-driven heap verified against its pre-GC snapshot.
#[test]
fn every_preset_is_bit_exact() {
    let mut mems = vec![
        ("fixed", MemBackendKind::Fixed, 0u32),
        ("fixed", MemBackendKind::Fixed, 20),
    ];
    mems.extend(dram_backends().map(|(name, backend)| (name, backend, 0)));
    let mut combos = Vec::new();
    for preset in Preset::ALL {
        for cores in [1usize, 4, 16] {
            for &(name, backend, extra) in &mems {
                combos.push((preset, config(cores, extra, backend), name));
            }
        }
    }
    par_map(&combos, |_, &(preset, cfg, name)| {
        let base = WorkloadSpec::new(preset, 42).build();
        let snap = Snapshot::capture(&base);
        let label = format!(
            "{}/{}c/{name} +{}",
            preset.name(),
            cfg.n_cores,
            cfg.mem.extra_latency
        );
        let fast = assert_parity(&label, &base, cfg, None, Watch::Quiet);
        hwgc_heap::verify_collection(&fast.heap, fast.out.free, &snap)
            .unwrap_or_else(|e| panic!("{label}: event-driven run failed verification: {e}"));
    });
}

/// The catalog's lock convoys with the SB event log on (which restricts
/// the park catalog), on every backend: streams match record for record.
#[test]
fn every_catalog_graph_preserves_the_sb_event_stream() {
    let catalog = graphs::catalog();
    par_map(&catalog, |_, (name, heap)| {
        for cores in [1usize, 4, 16] {
            for (backend_name, backend) in [("fixed", MemBackendKind::Fixed)]
                .into_iter()
                .chain(dram_backends())
            {
                let label = format!("{name}/{cores}c/{backend_name}");
                assert_parity(&label, heap, config(cores, 0, backend), None, EVENTS);
            }
        }
    });
}

/// Probe-bus parity on `javac`: a sampling recorder, which forces every
/// jump to land on a sample cycle, and a transition-only one.
#[test]
fn probe_recordings_are_identical() {
    let base = WorkloadSpec::new(Preset::Javac, 42).build();
    let mut combos = Vec::new();
    for cores in [1usize, 4, 16] {
        for extra in [0u32, 20] {
            for sample in [Some(64u64), None] {
                combos.push((cores, extra, sample));
            }
        }
    }
    par_map(&combos, |_, &(cores, extra, sample)| {
        let cfg = config(cores, extra, MemBackendKind::Fixed);
        let label = format!("javac/{cores}c +{extra}");
        assert_parity(&label, &base, cfg, None, Watch::Probe(sample));
    });
}

/// The configurations in which a scan-lock release is more than "wake
/// the next cycle's winner": a multiport SB or a line-split chunk claim
/// lets the lock be retaken in the releasing cycle, and a small (or
/// absent) header FIFO holds it across a header load, so waiters pile up
/// behind it. None of these is a default, so the preset grid never
/// draws them; this sweep crosses all three with core counts that put
/// waiters on both sides of a releaser, on the scan-lock-bound (`cup`),
/// small-record (`db`), header-lock-bound (`javac`) and splittable
/// (`compress`) presets — at a scale small enough for a debug build.
#[test]
fn scan_hand_off_axes_are_bit_exact() {
    let mut combos: Vec<(Preset, GcConfig)> = Vec::new();
    for preset in [Preset::Compress, Preset::Cup, Preset::Db, Preset::Javac] {
        for cores in [2usize, 3, 5, 16] {
            for multiport_sb in [false, true] {
                for line_split in [None, Some(2), Some(5)] {
                    for header_fifo_capacity in [0usize, 2, 4096] {
                        for extra in [0u32, 7] {
                            let mut cfg = config(cores, extra, MemBackendKind::Fixed);
                            cfg.multiport_sb = multiport_sb;
                            cfg.line_split = line_split;
                            cfg.mem.header_fifo_capacity = header_fifo_capacity;
                            combos.push((preset, cfg));
                        }
                    }
                }
            }
        }
    }
    par_map(&combos, |_, &(preset, cfg)| {
        let base = WorkloadSpec {
            scale: 0.05,
            ..WorkloadSpec::new(preset, 42)
        }
        .build();
        let label = format!(
            "{}/{}c +{} multiport {} split {:?} fifo {}",
            preset.name(),
            cfg.n_cores,
            cfg.mem.extra_latency,
            cfg.multiport_sb,
            cfg.line_split,
            cfg.mem.header_fifo_capacity
        );
        assert_parity(&label, &base, cfg, None, Watch::Quiet);
    });
}

/// A `db` heap small enough for a debug-build matrix.
fn small_db() -> Heap {
    WorkloadSpec {
        scale: 0.05,
        ..WorkloadSpec::new(Preset::Db, 42)
    }
    .build()
}

/// The all-parked jump on the DRAM backend goes to the exact bank
/// horizon: requests queue behind busy banks through the skipped cycles,
/// and closed-page banks re-arm after their data retired. Two kinds of
/// cell:
///
/// * full-scale `compress`, `javac` and `db` at {1, 2, 4, 16} cores,
///   +0 and +3, traced with the SB log and rows every 7 cycles;
/// * a small `db` with every core parked on memory while requests wait
///   behind busy banks — few banks' worth of bandwidth (1, 2) keeps the
///   queues deep, 10 drains them — quiet, probed with a sample every
///   cycle or every 7th (jumps land mid-window), and sampling rows
///   across the jumps.
#[test]
fn dram_jumps_are_bit_exact() {
    const FULL: &[Watch] = &[EVENTS_EVERY_7];
    const BANK_BUSY: &[Watch] = &[
        Watch::Quiet,
        Watch::Probe(Some(1)),
        Watch::Probe(Some(7)),
        Watch::Trace {
            every: 7,
            events: false,
        },
    ];
    let presets = [Preset::Compress, Preset::Javac, Preset::Db];
    let full = presets.map(|p| WorkloadSpec::new(p, 42).build());
    let small = small_db();
    let mut combos: Vec<(String, &Heap, GcConfig, &[Watch])> = Vec::new();
    for (name, backend) in dram_backends() {
        for extra in [0u32, 3] {
            for cores in [1usize, 2, 4, 16] {
                for (preset, heap) in presets.iter().zip(&full) {
                    let label = format!("{}/{cores}c/{name} +{extra}", preset.name());
                    combos.push((label, heap, config(cores, extra, backend), FULL));
                }
            }
            for cores in [2usize, 5, 16] {
                for bandwidth in [1u32, 2, 10] {
                    let mut cfg = config(cores, extra, backend);
                    cfg.mem.bandwidth = bandwidth;
                    let label = format!("small db/{cores}c/{name} bw{bandwidth} +{extra}");
                    combos.push((label, &small, cfg, BANK_BUSY));
                }
            }
        }
    }
    par_map(&combos, |_, (label, heap, cfg, watches)| {
        for &watch in *watches {
            let fast = assert_parity(label, heap, *cfg, None, watch);
            assert!(fast.out.stats.mem.dram.is_some(), "{label}: not a DRAM run");
            if let Some(rec) = &fast.recording {
                assert!(
                    rec.mem_events().next().is_some(),
                    "{label}: no memory events"
                );
            }
            if let Some(trace) = &fast.trace {
                assert!(!trace.rows().is_empty(), "{label}: no trace rows sampled");
            }
        }
    });
}

/// Collect under `cfg`, which must trip the `max_cycles` watchdog, and
/// return the panic message and the heap image the collection left.
fn watchdog(heap: &Heap, cfg: GcConfig) -> (String, Vec<Word>) {
    let mut heap = heap.clone();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        SimCollector::new(cfg).collect(&mut heap);
    }))
    .expect_err("the watchdog must fire");
    let msg = payload.downcast_ref::<String>().expect("formatted panic");
    (msg.clone(), heap.into_words())
}

/// A watchdog bound that lands inside a DRAM jump (requests queued,
/// every core parked) trips at the same cycle, with the same
/// diagnostics and the same heap image, as in the reference loop: the jump
/// stops one cycle short of the bound and the real tick after it panics.
#[test]
fn the_watchdog_fires_at_the_same_cycle_inside_a_dram_jump() {
    let base = small_db();
    for (name, backend) in dram_backends() {
        let mut cfg = config(16, 0, backend);
        cfg.mem.bandwidth = 1;
        let total = SimCollector::new(cfg)
            .collect(&mut base.clone())
            .stats
            .total_cycles;
        // At one start per cycle for 16 cores, most cycles lie inside a
        // jump; forty consecutive bounds cannot all miss one.
        let bounds: Vec<u64> = (total / 2..total / 2 + 40).collect();
        par_map(&bounds, |_, &max_cycles| {
            let cfg = GcConfig { max_cycles, ..cfg };
            let (fast_msg, fast_words) = watchdog(&base, cfg);
            let (slow_msg, slow_words) = watchdog(&base, reference(cfg));
            assert!(fast_msg.contains(&format!("exceeded {max_cycles} cycles")));
            assert_eq!(fast_msg, slow_msg, "{name}: bound {max_cycles}");
            assert!(
                fast_words == slow_words,
                "{name}: bound {max_cycles}: heap image"
            );
        });
    }
}

/// Jumps compose with schedule policies: a jump replays the skipped
/// cycles' `arrange`s against the frozen view, so every later cycle's
/// order — and therefore the whole run — matches the per-cycle loop.
/// Two kinds of cell:
///
/// * the catalog, `javac` and `compress` at {2, 4} cores under each
///   arbiter (seed 7), traced with the SB log and rows every 7 cycles;
/// * the sweep-smoke shape: `javac` under both seeded arbiters × three
///   seeds × {2, 4, 16} cores × {+0, +20}, quiet.
#[test]
fn jumps_are_bit_exact_under_schedule_policies() {
    let mut heaps = graphs::catalog();
    heaps.push(("javac", WorkloadSpec::new(Preset::Javac, 42).build()));
    heaps.push(("compress", WorkloadSpec::new(Preset::Compress, 42).build()));
    let javac = &heaps[heaps.len() - 2].1;
    let mut combos: Vec<(String, &Heap, GcConfig, Arbiter, Watch)> = Vec::new();
    for (name, heap) in &heaps {
        for cores in [2usize, 4] {
            for arbiter in [Arbiter::Static, Arbiter::Random(7), Arbiter::Adversarial(7)] {
                let cfg = config(cores, 0, MemBackendKind::Fixed);
                combos.push((
                    format!("{name}/{cores}c"),
                    heap,
                    cfg,
                    arbiter,
                    EVENTS_EVERY_7,
                ));
            }
        }
    }
    for seed in [0x5EEDu64, 0xFACE, 42] {
        for arbiter in [Arbiter::Random(seed), Arbiter::Adversarial(seed)] {
            for cores in [2usize, 4, 16] {
                for extra in [0u32, 20] {
                    let cfg = config(cores, extra, MemBackendKind::Fixed);
                    let label = format!("javac/{cores}c +{extra}");
                    combos.push((label, javac, cfg, arbiter, Watch::Quiet));
                }
            }
        }
    }
    par_map(&combos, |_, (label, heap, cfg, arbiter, watch)| {
        assert_parity(label, heap, *cfg, Some(*arbiter), *watch);
    });
}

/// The policy grid above is only a test of jumps under a policy if
/// they fire there (`tick_permutation_seed` is the `RandomOrder` arbiter).
#[test]
fn jumps_fire_under_a_random_order() {
    let cfg = GcConfig {
        tick_permutation_seed: Some(7),
        ..config(4, 0, MemBackendKind::Fixed)
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

/// Every stream shape at {1, 2, 3} cores across bandwidth, latency,
/// line split, the header cache and the sampling period: quiet, on the
/// full probe bus, and traced without any event log (the configuration
/// in which the jump fires under a probe, capped at each wanted sample)
/// and with the SB log on.
#[test]
fn stream_jumps_are_bit_exact() {
    let mut combos: Vec<(GcConfig, u64)> = Vec::new();
    for cores in [1usize, 2, 3] {
        for bandwidth in [1u32, 2, 3, 10] {
            for extra in [0u32, 3] {
                for line_split in [None, Some(4)] {
                    for header_cache_entries in [0usize, 64] {
                        for period in [1u64, 7] {
                            let mut cfg = config(cores, extra, MemBackendKind::Fixed);
                            cfg.mem.bandwidth = bandwidth;
                            cfg.mem.header_cache_entries = header_cache_entries;
                            cfg.line_split = line_split;
                            combos.push((cfg, period));
                        }
                    }
                }
            }
        }
    }
    let catalog = stream_catalog();
    par_map(&combos, |_, &(cfg, every)| {
        for (name, heap) in &catalog {
            let label = format!(
                "{name}/{}c bw {} +{} split {:?} cache {}",
                cfg.n_cores,
                cfg.mem.bandwidth,
                cfg.mem.extra_latency,
                cfg.line_split,
                cfg.mem.header_cache_entries
            );
            for watch in [
                Watch::Quiet,
                Watch::Probe(Some(every)),
                Watch::Trace {
                    every,
                    events: false,
                },
                Watch::Trace {
                    every,
                    events: true,
                },
            ] {
                assert_parity(&label, heap, cfg, None, watch);
            }
        }
    });
}

/// The grid above is only a test of the stream jump if the jump fires
/// on it — and not only at one core.
#[test]
fn the_stream_catalog_streams() {
    for (name, heap) in stream_catalog() {
        for cores in [1usize, 3] {
            let cfg = config(cores, 0, MemBackendKind::Fixed);
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
/// reference loop traced with the SB log, the quiet event-driven run
/// matches the traced one, and the jump must fire in at least one
/// multi-core `compress` cell.
#[test]
fn stream_jumps_beyond_one_core_are_bit_exact() {
    let mut combos: Vec<(Preset, GcConfig)> = Vec::new();
    for preset in [Preset::Compress, Preset::Search] {
        for cores in [2usize, 4, 8, 16] {
            for extra in [0u32, 5, 25] {
                for header_cache_entries in [0usize, 64] {
                    for line_split in [None, Some(4)] {
                        let mut cfg = config(cores, extra, MemBackendKind::Fixed);
                        cfg.mem.header_cache_entries = header_cache_entries;
                        cfg.line_split = line_split;
                        combos.push((preset, cfg));
                    }
                }
            }
        }
    }
    let heaps = [Preset::Compress, Preset::Search].map(|p| WorkloadSpec::new(p, 42).build());
    let jumps = par_map(&combos, |_, &(preset, cfg)| {
        let heap = &heaps[usize::from(preset == Preset::Search)];
        let label = format!(
            "{}/{}c +{} cache {} split {:?}",
            preset.name(),
            cfg.n_cores,
            cfg.mem.extra_latency,
            cfg.mem.header_cache_entries,
            cfg.line_split
        );
        let traced = assert_parity(&label, heap, cfg, None, EVENTS);
        // Tracing is passive (the probe differentials pin that), so the
        // quiet run — the one that streams — must match the traced one.
        let mut prof = HostProfiler::new();
        let quiet = SimCollector::new(cfg).collect_hostprof(&mut heap.clone(), &mut prof);
        assert_eq!(
            quiet.stats, traced.out.stats,
            "{label}: quiet stats diverged"
        );
        assert_eq!(
            quiet.free, traced.out.free,
            "{label}: quiet frontier diverged"
        );
        (preset, prof.counter("engine.ff.stream_jumps"))
    });
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
    let cfg = config(1, 0, MemBackendKind::Fixed);
    let total = SimCollector::new(cfg)
        .collect(&mut heap.clone())
        .stats
        .total_cycles;
    // One whole object's worth of bounds: most land inside its stream.
    for max_cycles in total / 2..total / 2 + 60 {
        let cfg = GcConfig { max_cycles, ..cfg };
        let (fast_msg, fast_words) = watchdog(&heap, cfg);
        let (slow_msg, slow_words) = watchdog(&heap, reference(cfg));
        assert!(fast_msg.contains(&format!("exceeded {max_cycles} cycles")));
        assert_eq!(fast_msg, slow_msg, "bound {max_cycles}");
        assert_eq!(fast_words, slow_words, "bound {max_cycles}: heap image");
    }
}
