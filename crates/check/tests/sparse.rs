//! Differential matrix for the event-driven engine — the sparse park
//! rule and its jumps: on every workload preset × {1, 4, 16} cores, and
//! on every adversarial graph in the catalog, it must report *exactly*
//! what the per-cycle reference loop (`fast_forward` off) reports — the
//! same
//! `GcStats` (total cycles, per-core stall attribution, memory and SB
//! counters), the same allocation frontier, the same cycle-stamped SB
//! event stream and trace rows, and the same probe-bus recording —
//! including under schedule policies, which the parks and the
//! all-parked jump compose with.
//!
//! The matrix rides the `HWGC_JOBS` worker pool; every pair is an
//! independent simulation.

use hwgc_check::graphs;
use hwgc_core::schedule::{Adversarial, RandomOrder, SchedulePolicy};
use hwgc_core::{GcConfig, SignalTrace, SimCollector};
use hwgc_heap::Heap;
use hwgc_jobs::par_map;
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig, PagePolicy};
use hwgc_obs::Recorder;
use hwgc_workloads::{Preset, WorkloadSpec};

fn sparse_config(cores: usize, extra: u32) -> GcConfig {
    GcConfig {
        mem: MemConfig::default().with_extra_latency(extra),
        ..GcConfig::with_cores(cores)
    }
}

fn reference_config(cores: usize, extra: u32) -> GcConfig {
    GcConfig {
        fast_forward: false,
        ..sparse_config(cores, extra)
    }
}

fn with_backend(mut cfg: GcConfig, backend: MemBackendKind) -> GcConfig {
    cfg.mem = cfg.mem.with_backend(backend);
    cfg
}

/// The DRAM leg of the backend axis: the default open-page model and the
/// fastest preset under closed-page (different latency shape per access,
/// exercising the conflict/precharge paths of the horizon contracts).
fn dram_backends() -> [(&'static str, MemBackendKind); 2] {
    [
        ("dram-open", MemBackendKind::Dram(DramConfig::default())),
        (
            "dram-closed",
            MemBackendKind::Dram(DramConfig {
                page_policy: PagePolicy::Closed,
                ..DramConfig::preset("80ns").expect("preset exists")
            }),
        ),
    ]
}

#[test]
fn every_preset_is_bit_exact_under_sparse() {
    let mut combos: Vec<(Preset, usize, u32)> = Vec::new();
    for preset in Preset::ALL {
        for cores in [1usize, 4, 16] {
            // Default latency (lock-bound parks) and the Figure 6 regime
            // (+20 per access, memory-bound parks).
            for extra in [0u32, 20] {
                combos.push((preset, cores, extra));
            }
        }
    }
    par_map(&combos, |_, &(preset, cores, extra)| {
        let base = WorkloadSpec::new(preset, 42).build();
        let mut sparse_heap = base.clone();
        let mut naive_heap = base;
        let sparse = SimCollector::new(sparse_config(cores, extra)).collect(&mut sparse_heap);
        let naive = SimCollector::new(reference_config(cores, extra)).collect(&mut naive_heap);
        assert_eq!(
            sparse.stats,
            naive.stats,
            "{}/{cores}c +{extra}: stats diverged under sparse",
            preset.name()
        );
        assert_eq!(
            sparse.free,
            naive.free,
            "{}/{cores}c +{extra}: allocation frontier diverged",
            preset.name()
        );
    });
}

/// The configurations in which a scan-lock release is more than "wake
/// the next cycle's winner": a multiport SB or a line-split chunk claim
/// lets the lock be retaken in the releasing cycle, and a small (or
/// absent) header FIFO holds it across a header load, so waiters pile up
/// behind it. None of these is a default, so the matrix above never
/// draws them; this sweep crosses all three with core counts that put
/// waiters on both sides of a releaser, on the scan-lock-bound (`cup`),
/// small-record (`db`), header-lock-bound (`javac`) and splittable
/// (`compress`) presets — at a scale small enough for a debug build.
#[test]
fn scan_hand_off_axes_are_bit_exact_under_sparse() {
    let mut combos: Vec<(Preset, GcConfig)> = Vec::new();
    for preset in [Preset::Compress, Preset::Cup, Preset::Db, Preset::Javac] {
        for cores in [2usize, 3, 5, 16] {
            for multiport_sb in [false, true] {
                for line_split in [None, Some(2), Some(5)] {
                    for header_fifo_capacity in [0usize, 2, 4096] {
                        for extra in [0u32, 7] {
                            let mut cfg = sparse_config(cores, extra);
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
        let mut sparse_heap = base.clone();
        let mut naive_heap = base;
        let sparse = SimCollector::new(cfg).collect(&mut sparse_heap);
        let naive = SimCollector::new(GcConfig {
            fast_forward: false,
            ..cfg
        })
        .collect(&mut naive_heap);
        let label = format!(
            "{}/{}c +{} multiport {} split {:?} fifo {}",
            preset.name(),
            cfg.n_cores,
            cfg.mem.extra_latency,
            cfg.multiport_sb,
            cfg.line_split,
            cfg.mem.header_fifo_capacity
        );
        assert_eq!(sparse.stats, naive.stats, "{label}: stats diverged");
        assert_eq!(sparse.free, naive.free, "{label}: frontier diverged");
    });
}

/// Backend axis of the parity matrix: the sparse engine must stay
/// bit-exact when per-access latency is bank/row dependent. DRAM retire
/// calendars are sparser and more irregular than the fixed model's, so
/// this is the hardest regime for the horizon contracts.
#[test]
fn every_preset_is_bit_exact_under_sparse_with_dram_backend() {
    let mut combos: Vec<(Preset, usize, MemBackendKind, &'static str)> = Vec::new();
    for preset in Preset::ALL {
        for cores in [1usize, 4, 16] {
            for (name, backend) in dram_backends() {
                combos.push((preset, cores, backend, name));
            }
        }
    }
    par_map(&combos, |_, &(preset, cores, backend, name)| {
        let base = WorkloadSpec::new(preset, 42).build();
        let mut sparse_heap = base.clone();
        let mut naive_heap = base;
        let sparse = SimCollector::new(with_backend(sparse_config(cores, 0), backend))
            .collect(&mut sparse_heap);
        let naive = SimCollector::new(with_backend(reference_config(cores, 0), backend))
            .collect(&mut naive_heap);
        assert_eq!(
            sparse.stats,
            naive.stats,
            "{}/{cores}c/{name}: stats diverged under sparse",
            preset.name()
        );
        assert_eq!(
            sparse.free,
            naive.free,
            "{}/{cores}c/{name}: allocation frontier diverged",
            preset.name()
        );
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

/// The regime the DRAM activity horizon opens up: every core parked on
/// memory while requests wait behind busy banks, and the clock jumping
/// over the wait. Few banks' worth of bandwidth (1, 2) keep the bank
/// queues deep, 10 drains them; closed page adds the precharge re-arm to
/// the horizon; a probe sampling every cycle or every 7th makes the jumps
/// land mid-window, and trace rows sample across them. Everything a run
/// produces must match the reference loop: the full `GcStats` (with
/// `mem.dram` and the queue-occupancy counters the jumps replicate in
/// bulk), the frontier, the heap image, the recorded SB + memory event
/// streams and samples, and the trace rows.
#[test]
fn dram_jumps_over_bank_busy_windows_are_bit_exact() {
    let mut combos: Vec<(GcConfig, GcConfig, String)> = Vec::new();
    for (name, backend) in dram_backends() {
        for cores in [2usize, 5, 16] {
            for bandwidth in [1u32, 2, 10] {
                for extra in [0u32, 3] {
                    let pin = |mut cfg: GcConfig| {
                        cfg.mem.bandwidth = bandwidth;
                        with_backend(cfg, backend)
                    };
                    combos.push((
                        pin(sparse_config(cores, extra)),
                        pin(reference_config(cores, extra)),
                        format!("{name}/{cores}c bw{bandwidth} +{extra}"),
                    ));
                }
            }
        }
    }
    let base = small_db();
    par_map(&combos, |_, (sparse_cfg, naive_cfg, label)| {
        let (sparse_sim, naive_sim) = (
            SimCollector::new(*sparse_cfg),
            SimCollector::new(*naive_cfg),
        );

        let (mut sparse_heap, mut naive_heap) = (base.clone(), base.clone());
        let sparse = sparse_sim.collect(&mut sparse_heap);
        let naive = naive_sim.collect(&mut naive_heap);
        assert!(naive.stats.mem.dram.is_some(), "{label}: not a DRAM run");
        assert_eq!(sparse.stats, naive.stats, "{label}: stats diverged");
        assert_eq!(sparse.free, naive.free, "{label}: frontier diverged");
        assert!(
            sparse_heap.words() == naive_heap.words(),
            "{label}: heap images diverged"
        );

        for period in [1u64, 7] {
            let (mut r1, mut r2) = (Recorder::sampling(period), Recorder::sampling(period));
            let sparse = sparse_sim.collect_probed(&mut base.clone(), &mut r1);
            let naive = naive_sim.collect_probed(&mut base.clone(), &mut r2);
            assert_eq!(sparse.stats, naive.stats, "{label} probe/{period}: stats");
            assert!(
                r1.recording().mem_events().next().is_some(),
                "{label}: no memory events recorded"
            );
            assert!(
                r1.recording().events == r2.recording().events,
                "{label} probe/{period}: recordings diverged"
            );
        }

        let (mut t1, mut t2) = (SignalTrace::new(7), SignalTrace::new(7));
        let sparse = sparse_sim.collect_traced(&mut base.clone(), &mut t1);
        let naive = naive_sim.collect_traced(&mut base.clone(), &mut t2);
        assert_eq!(sparse.stats, naive.stats, "{label} traced: stats");
        assert!(!t1.rows().is_empty(), "{label}: no trace rows sampled");
        assert!(t1.rows() == t2.rows(), "{label}: trace rows diverged");
    });
}

/// A watchdog bound that lands inside a DRAM jump (requests queued,
/// every core parked) trips at the same cycle, with the same
/// diagnostics and the same heap image, as in the reference loop: the jump
/// stops one cycle short of the bound and the real tick after it panics.
#[test]
fn the_watchdog_fires_at_the_same_cycle_inside_a_dram_jump() {
    let base = small_db();
    for (name, backend) in dram_backends() {
        let pin = |mut cfg: GcConfig, max_cycles: u64| {
            cfg.mem.bandwidth = 1;
            cfg.max_cycles = max_cycles;
            with_backend(cfg, backend)
        };
        let total = SimCollector::new(pin(sparse_config(16, 0), u64::MAX))
            .collect(&mut base.clone())
            .stats
            .total_cycles;
        let panic_of = |cfg: GcConfig| {
            let mut heap = base.clone();
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
        // At one start per cycle for 16 cores, most cycles lie inside a
        // jump; forty consecutive bounds cannot all miss one.
        let bounds: Vec<u64> = (total / 2..total / 2 + 40).collect();
        par_map(&bounds, |_, &max_cycles| {
            let (sparse_msg, sparse_words) = panic_of(pin(sparse_config(16, 0), max_cycles));
            let (naive_msg, naive_words) = panic_of(pin(reference_config(16, 0), max_cycles));
            assert!(sparse_msg.contains(&format!("exceeded {max_cycles} cycles")));
            assert_eq!(sparse_msg, naive_msg, "{name}: bound {max_cycles}");
            assert!(
                sparse_words == naive_words,
                "{name}: bound {max_cycles}: heap image"
            );
        });
    }
}

/// SB event-stream and trace-row parity under the DRAM backend, on the
/// adversarial graph catalog (lock convoys + bank conflicts together).
#[test]
fn catalog_graphs_preserve_the_sb_event_stream_under_sparse_with_dram() {
    let catalog: Vec<(&'static str, Heap)> = graphs::catalog();
    par_map(&catalog, |_, (name, heap)| {
        for cores in [1usize, 4, 16] {
            for (backend_name, backend) in dram_backends() {
                let mut sparse_heap = heap.clone();
                let mut naive_heap = heap.clone();
                let mut sparse_trace = SignalTrace::with_events(1 << 40);
                let mut naive_trace = SignalTrace::with_events(1 << 40);
                let sparse = SimCollector::new(with_backend(sparse_config(cores, 0), backend))
                    .collect_traced(&mut sparse_heap, &mut sparse_trace);
                let naive = SimCollector::new(with_backend(reference_config(cores, 0), backend))
                    .collect_traced(&mut naive_heap, &mut naive_trace);
                assert_eq!(
                    sparse.stats, naive.stats,
                    "{name}/{cores}c/{backend_name}: stats diverged under sparse"
                );
                assert_eq!(
                    sparse.free, naive.free,
                    "{name}/{cores}c/{backend_name}: allocation frontier diverged"
                );
                assert_eq!(
                    sparse_trace.events(),
                    naive_trace.events(),
                    "{name}/{cores}c/{backend_name}: SB event streams diverged"
                );
                assert_eq!(
                    sparse_trace.rows(),
                    naive_trace.rows(),
                    "{name}/{cores}c/{backend_name}: sampled trace rows diverged"
                );
            }
        }
    });
}

#[test]
fn every_catalog_graph_preserves_the_sb_event_stream_under_sparse() {
    let catalog: Vec<(&'static str, Heap)> = graphs::catalog();
    par_map(&catalog, |_, (name, heap)| {
        for cores in [1usize, 4, 16] {
            let mut sparse_heap = heap.clone();
            let mut naive_heap = heap.clone();
            // Event capture forbids parking the lock classes (each
            // per-cycle failure logs an event), so this exercises the
            // restricted park catalog; streams must match record for
            // record.
            let mut sparse_trace = SignalTrace::with_events(1 << 40);
            let mut naive_trace = SignalTrace::with_events(1 << 40);
            let sparse = SimCollector::new(sparse_config(cores, 0))
                .collect_traced(&mut sparse_heap, &mut sparse_trace);
            let naive = SimCollector::new(reference_config(cores, 0))
                .collect_traced(&mut naive_heap, &mut naive_trace);
            assert_eq!(
                sparse.stats, naive.stats,
                "{name}/{cores}c: stats diverged under sparse"
            );
            assert_eq!(
                sparse.free, naive.free,
                "{name}/{cores}c: allocation frontier diverged"
            );
            assert_eq!(
                sparse_trace.events(),
                naive_trace.events(),
                "{name}/{cores}c: SB event streams diverged"
            );
            assert_eq!(
                sparse_trace.rows(),
                naive_trace.rows(),
                "{name}/{cores}c: sampled trace rows diverged"
            );
        }
    });
}

/// The sweep-smoke differential: schedule-policy runs are *unchanged* by
/// the sparse engine. Policies reorder only runnable cores and their
/// per-cycle `arrange` stream is replayed through clock jumps, so every
/// (policy, seed, cores) combination times out identically.
#[test]
fn schedule_policy_sweeps_are_unchanged_under_sparse() {
    let mut combos: Vec<(u8, u64, usize, u32)> = Vec::new();
    for kind in [0u8, 1] {
        for seed in [0x5EEDu64, 0xFACE, 42] {
            for cores in [2usize, 4, 16] {
                for extra in [0u32, 20] {
                    combos.push((kind, seed, cores, extra));
                }
            }
        }
    }
    par_map(&combos, |_, &(kind, seed, cores, extra)| {
        let mk = |s: u64| -> Box<dyn SchedulePolicy> {
            match kind {
                0 => Box::new(RandomOrder::new(s)),
                _ => Box::new(Adversarial::new(s)),
            }
        };
        let base = WorkloadSpec::new(Preset::Javac, 42).build();
        let mut sparse_heap = base.clone();
        let mut naive_heap = base;
        let mut p1 = mk(seed);
        let mut p2 = mk(seed);
        let sparse = SimCollector::new(sparse_config(cores, extra))
            .collect_scheduled(&mut sparse_heap, p1.as_mut());
        let naive = SimCollector::new(reference_config(cores, extra))
            .collect_scheduled(&mut naive_heap, p2.as_mut());
        assert_eq!(
            sparse.stats,
            naive.stats,
            "{}/{seed:#x}/{cores}c +{extra}: scheduled stats diverged under sparse",
            p1.name()
        );
        assert_eq!(sparse.free, naive.free);
    });
}

/// Probe-bus parity: the full recording (stall spans, state edges,
/// worklist claims, samples, SB events) is bit-identical, with both a
/// sampling recorder — which forces the sparse jump to land on sample
/// cycles — and a transition-only one.
#[test]
fn probe_recordings_are_identical_under_sparse() {
    let mut combos: Vec<(usize, u32, Option<u64>)> = Vec::new();
    for cores in [1usize, 4, 16] {
        for extra in [0u32, 20] {
            for sample in [Some(64u64), None] {
                combos.push((cores, extra, sample));
            }
        }
    }
    par_map(&combos, |_, &(cores, extra, sample)| {
        let mk = || match sample {
            Some(n) => Recorder::sampling(n),
            None => Recorder::new(),
        };
        let base = WorkloadSpec::new(Preset::Javac, 42).build();
        let mut sparse_heap = base.clone();
        let mut naive_heap = base;
        let mut r1 = mk();
        let mut r2 = mk();
        let sparse = SimCollector::new(sparse_config(cores, extra))
            .collect_probed(&mut sparse_heap, &mut r1);
        let naive = SimCollector::new(reference_config(cores, extra))
            .collect_probed(&mut naive_heap, &mut r2);
        assert_eq!(sparse.stats, naive.stats, "{cores}c +{extra} {sample:?}");
        assert_eq!(
            r1.recording().events,
            r2.recording().events,
            "{cores}c +{extra} {sample:?}: probe recordings diverged"
        );
    });
}
