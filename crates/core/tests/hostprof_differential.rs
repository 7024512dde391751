//! Self-observation must not perturb the simulation: a run with the
//! [`hwgc_obs::HostProfiler`] attached must produce bit-identical
//! `GcStats` and allocation frontier to a hostprof-off run of the same
//! heap, in either loop. This is the property that lets wall-clock
//! profiling stay on in CI legs and experiment binaries without
//! invalidating a single deterministic number — and what keeps the
//! profiler's *deterministic* counters (park/wake/jump statistics)
//! honest: they describe exactly the run the plain door would have
//! executed.

use hwgc_core::{GcConfig, GcStats, SimCollector};
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig};
use hwgc_obs::HostProfiler;
use hwgc_sync::LockKind;
use hwgc_workloads::{Preset, WorkloadSpec};

fn config(cores: usize, extra: u32) -> GcConfig {
    GcConfig {
        n_cores: cores,
        mem: MemConfig::default().with_extra_latency(extra),
        ..GcConfig::default()
    }
}

/// Every simulated cycle is the root phase's, executed, or skipped by
/// exactly one jump: nothing skipped twice, nothing skipped unaccounted.
fn assert_every_cycle_accounted_for(stats: &GcStats, prof: &HostProfiler) {
    assert_eq!(
        stats.root_phase_cycles
            + prof.counter("engine.cycles_executed")
            + prof.counter("engine.jump.all_parked_cycles")
            + prof.counter("engine.ff.stream_cycles"),
        stats.total_cycles
    );
}

#[test]
fn hostprof_on_equals_hostprof_off_in_either_loop() {
    let presets = [Preset::Compress, Preset::Javac];
    for fast_forward in [true, false] {
        for preset in presets {
            for (cores, extra) in [(4usize, 0u32), (16, 20)] {
                let cfg = GcConfig {
                    fast_forward,
                    ..config(cores, extra)
                };
                let base = WorkloadSpec::new(preset, 42).build();

                let mut plain_heap = base.clone();
                let plain = SimCollector::new(cfg).collect(&mut plain_heap);

                let mut prof = HostProfiler::new();
                let mut prof_heap = base;
                let profiled = SimCollector::new(cfg).collect_hostprof(&mut prof_heap, &mut prof);

                assert_eq!(
                    profiled.stats,
                    plain.stats,
                    "ff {fast_forward}/{}/{cores}c +{extra}: hostprof-on GcStats diverged",
                    preset.name()
                );
                assert_eq!(
                    profiled.free,
                    plain.free,
                    "ff {fast_forward}/{}/{cores}c +{extra}: hostprof-on free diverged",
                    preset.name()
                );
                assert_eq!(
                    prof_heap.words(),
                    plain_heap.words(),
                    "ff {fast_forward}/{}/{cores}c +{extra}: hostprof-on heap image diverged",
                    preset.name()
                );

                // The profiler actually observed the run: the cycle
                // counter is a full-loop count, so it can never exceed
                // the simulated total.
                let executed = prof.counter("engine.cycles_executed");
                assert!(
                    executed > 0,
                    "ff {fast_forward}/{}: no cycles observed",
                    preset.name()
                );
                assert!(
                    executed <= plain.stats.total_cycles,
                    "ff {fast_forward}/{}: observed {executed} executed cycles > {} simulated",
                    preset.name(),
                    plain.stats.total_cycles
                );
            }
        }
    }
}

#[test]
fn fast_forward_off_executes_every_cycle() {
    // `fast_forward` off is the reference loop: not one cycle is skipped,
    // not one core parks — and not one simulated number moves.
    let run = |fast_forward: bool| {
        let cfg = GcConfig {
            fast_forward,
            ..config(4, 20)
        };
        let mut heap = WorkloadSpec::new(Preset::Javac, 42).build();
        let mut prof = HostProfiler::new();
        let out = SimCollector::new(cfg).collect_hostprof(&mut heap, &mut prof);
        (out, prof)
    };
    let (jumping, jumping_prof) = run(true);
    let (every, every_prof) = run(false);
    assert!(jumping_prof.counter("engine.jump.all_parked") > 0);
    assert!(jumping_prof.counter_prefix_sum("engine.park.") > 0);
    assert_eq!(every_prof.counter("engine.jump.all_parked"), 0);
    assert_eq!(every_prof.counter_prefix_sum("engine.park."), 0);
    assert_eq!(
        every.stats.root_phase_cycles + every_prof.counter("engine.cycles_executed"),
        every.stats.total_cycles,
        "a cycle skipped with fast_forward off"
    );
    assert_eq!(every.stats, jumping.stats);
    assert_eq!(every.free, jumping.free);
}

#[test]
fn deterministic_counters_are_stable_across_reruns() {
    // Two profiled runs of the same configuration must agree on every
    // deterministic counter and histogram — this is what makes them
    // golden-testable. (Timers are explicitly exempt.)
    let cfg = config(16, 20);
    let run = || {
        let mut heap = WorkloadSpec::new(Preset::Compress, 42).build();
        let mut prof = HostProfiler::new();
        SimCollector::new(cfg).collect_hostprof(&mut heap, &mut prof);
        prof
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.deterministic_json().to_string_compact(),
        b.deterministic_json().to_string_compact(),
        "deterministic counters diverged between identical runs"
    );
}

#[test]
fn scan_lock_releases_wake_no_thundering_herd() {
    // A scan-lock release hands the lock to the waiters that can win it
    // and leaves the losers parked, so scan-lock parks stay within a
    // small multiple of the acquisitions they queue for (0.77 here; no
    // memory retirement wakes an SB-parked core, so a waiter re-parks
    // only after a hand-off it did not win). Waking every waiter at every
    // release — static priority lets exactly one win, the others tick,
    // fail and re-park — put this run at 5.1 parks per acquisition.
    // Scale 4 is the smallest javac graph on which 16 cores queue up
    // behind the scan lock at all.
    let spec = WorkloadSpec {
        scale: 4.0,
        ..WorkloadSpec::new(Preset::Javac, 42)
    };
    let mut heap = spec.build();
    let mut prof = HostProfiler::new();
    let out = SimCollector::new(config(16, 0)).collect_hostprof(&mut heap, &mut prof);
    let parks = prof.counter("engine.park.scan_lock");
    let acquired = out.stats.sync.acquired(LockKind::Scan);
    assert!(
        parks > acquired / 2,
        "{parks} scan-lock parks for {acquired} acquisitions: no contention to guard"
    );
    assert!(
        parks <= 2 * acquired,
        "{parks} scan-lock parks for {acquired} acquisitions: the herd is back"
    );
    assert_every_cycle_accounted_for(&out.stats, &prof);
}

#[test]
fn memory_wakes_never_outnumber_memory_parks() {
    // A core parked on a memory stall, or at the issue of a random load,
    // awaits one port (`Drain`: all four) and is woken by that port's
    // retirement, never by traffic on its other ports: each memory park
    // ends in at most one memory wake. Waking a parked core on every
    // retirement of any of its buffers broke this on all three hostprof
    // golden regimes (compress16 192 498 wakes for 172 500 parks, javac16
    // 79 385 for 76 289, db16 on DRAM 334 809 for 334 525).
    let dram = MemBackendKind::Dram(DramConfig::default());
    for (preset, extra, backend) in [
        (Preset::Compress, 20, MemBackendKind::Fixed),
        (Preset::Javac, 0, MemBackendKind::Fixed),
        (Preset::Db, 0, dram),
    ] {
        let mut cfg = config(16, extra);
        cfg.mem = cfg.mem.with_backend(backend);
        let mut heap = WorkloadSpec::new(preset, 42).build();
        let mut prof = HostProfiler::new();
        SimCollector::new(cfg).collect_hostprof(&mut heap, &mut prof);
        let parks: u64 = [
            "header_load",
            "header_store",
            "body_load",
            "body_store",
            "drain",
        ]
        .iter()
        .map(|class| prof.counter(&format!("engine.park.{class}")))
        .sum();
        let wakes = prof.counter("engine.wake.mem");
        assert!(
            wakes <= parks,
            "{}: {wakes} memory wakes for {parks} memory parks",
            preset.name()
        );
    }
}

#[test]
fn one_core_compress_streams_and_every_cycle_is_accounted_for() {
    // One core with jumps on, on the fixed-latency backend (pinned here
    // against `HWGC_MEM_BACKEND`). On compress (long data bodies behind
    // a null-padded spine) the stream jump must carry a real share of
    // the run — this is the vacuity guard of
    // `check/tests/parity.rs`'s stream grid — and the all-parked
    // jumps, the stream jumps and the executed cycles must add up to the
    // simulated total.
    let mut cfg = config(1, 0);
    cfg.mem = cfg.mem.with_backend(MemBackendKind::Fixed);
    let mut heap = WorkloadSpec::new(Preset::Compress, 42).build();
    let mut prof = HostProfiler::new();
    let out = SimCollector::new(cfg).collect_hostprof(&mut heap, &mut prof);
    let total = out.stats.total_cycles;
    let stream_cycles = prof.counter("engine.ff.stream_cycles");
    assert!(prof.counter("engine.ff.stream_jumps") > 0);
    assert!(
        4 * stream_cycles >= total,
        "stream jumps cover {stream_cycles} of {total} cycles: under a quarter"
    );
    assert!(prof.counter("engine.jump.all_parked") > 0);
    assert_every_cycle_accounted_for(&out.stats, &prof);
}

#[test]
fn sixteen_core_db_on_dram_jumps_over_bank_busy_windows() {
    // The vacuity guard of `check/tests/parity.rs`'s DRAM jump grid.
    // `db` keeps 16 cores parked on body loads and stores while requests
    // queue behind 8 banks; with the exact activity horizon the loop
    // (the backend pinned here against `HWGC_MEM_BACKEND`) jumps those
    // windows instead of ticking through
    // them: 76 432 jumps in 415 305 cycles (18.4 %), 284 653 cycles
    // (68.5 % of the total) executed. Under the old `cycle + 1` horizon a
    // jump needed every bank queue empty: 7 jumps, and every cycle
    // outside them executed.
    let mut cfg = config(16, 0);
    cfg.mem = cfg
        .mem
        .with_backend(MemBackendKind::Dram(DramConfig::default()));
    let mut heap = WorkloadSpec::new(Preset::Db, 42).build();
    let mut prof = HostProfiler::new();
    let out = SimCollector::new(cfg).collect_hostprof(&mut heap, &mut prof);
    let total = out.stats.total_cycles;
    let steady = total - out.stats.root_phase_cycles;
    let jumps = prof.counter("engine.jump.all_parked");
    let executed = prof.counter("engine.cycles_executed");
    assert!(
        20 * jumps >= total,
        "{jumps} all-parked jumps in {total} cycles: under 5 %"
    );
    assert!(
        100 * executed <= 85 * steady,
        "{executed} of {steady} steady-state cycles executed: over 85 %"
    );
    assert_eq!(
        prof.counter("engine.ff.stream_cycles"),
        0,
        "the DRAM model declines stream windows"
    );
    assert_every_cycle_accounted_for(&out.stats, &prof);
}
