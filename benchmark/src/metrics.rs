//! The benchmark's metric vocabulary. `BENCHMARK.json` at the repo root
//! lists the same names, units, directions and bounds; a self-test keeps
//! the two in step.
//!
//! *host* metrics are simulator wall time and memory on this machine;
//! *sim* metrics are modelled hardware and repeat exactly for a fixed
//! seed.

use hwgc_core::{GcStats, StallReason};
use hwgc_obs::HostProfiler;
use hwgc_sync::LockKind;

use crate::env::peak_rss_mib;
use crate::spans::{Tracer, OP};
use crate::stats::{median, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the reproduction sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Printed by every workload when tracing is off.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_wall_s", "s", Better::Lower, 0.25),
    e2e("sim_cycles_per_s", "cycles/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
    e2e("sim_cycles", "cycles", Better::Lower, 0.02),
    e2e("speedup_vs_1c", "x", Better::Higher, 0.02),
    e2e("paper_abs_err_pp", "pp", Better::Lower, 0.25),
];

/// Printed by every workload in the traced run, `layer.metric` with its
/// unit and the direction that is better; a metric that has no meaning on
/// a workload reads 0 there. Per-layer metrics have no bound.
pub const PER_LAYER: [(&str, &str, Better); 79] = [
    ("workloads.build_s", "s", Better::Lower),
    ("workloads.live_objects", "count", Better::Higher),
    ("workloads.live_words", "count", Better::Higher),
    ("workloads.heap_words", "count", Better::Higher),
    ("heap.clone_s", "s", Better::Lower),
    ("heap.snapshot_s", "s", Better::Lower),
    ("heap.verify_s", "s", Better::Lower),
    ("heap.verify_words_per_s", "words/s", Better::Higher),
    ("core.collect_s", "s", Better::Lower),
    ("core.collect_s_min", "s", Better::Lower),
    ("core.collect_s_p25", "s", Better::Lower),
    ("core.collect_s_p75", "s", Better::Lower),
    ("core.ns_per_core_cycle", "ns", Better::Lower),
    ("core.seq_cheney_s", "s", Better::Lower),
    ("core.root_s", "s", Better::Lower),
    ("core.steady_s", "s", Better::Lower),
    ("core.cycles_executed", "count", Better::Lower),
    ("core.executed_cycle_ratio", "ratio", Better::Lower),
    ("core.jump_all_parked", "count", Better::Higher),
    ("core.parks", "count", Better::Lower),
    ("core.wakes", "count", Better::Lower),
    ("core.calendar_pops", "count", Better::Lower),
    ("core.ff_horizon_jumps", "count", Better::Higher),
    ("core.stall.scan_lock_pct", "%", Better::Lower),
    ("core.stall.free_lock_pct", "%", Better::Lower),
    ("core.stall.header_lock_pct", "%", Better::Lower),
    ("core.stall.body_load_pct", "%", Better::Lower),
    ("core.stall.body_store_pct", "%", Better::Lower),
    ("core.stall.header_load_pct", "%", Better::Lower),
    ("core.stall.header_store_pct", "%", Better::Lower),
    ("core.empty_worklist_pct", "%", Better::Lower),
    ("core.objects_copied", "count", Better::Higher),
    ("core.words_copied", "count", Better::Higher),
    ("core.fig5_best16_rel_err_pct", "%", Better::Lower),
    ("sync.scan_acquired", "count", Better::Higher),
    ("sync.scan_failed", "count", Better::Lower),
    ("sync.free_acquired", "count", Better::Higher),
    ("sync.free_failed", "count", Better::Lower),
    ("sync.header_acquired", "count", Better::Higher),
    ("sync.header_failed", "count", Better::Lower),
    ("sync.lock_success_ratio", "ratio", Better::Higher),
    ("sync.sb_op_ns", "ns", Better::Lower),
    ("memsim.issued", "count", Better::Lower),
    ("memsim.mean_queue_depth", "count", Better::Lower),
    ("memsim.comparator_blocked_cycles", "cycles", Better::Lower),
    ("memsim.fifo_hits", "count", Better::Higher),
    ("memsim.fifo_misses", "count", Better::Lower),
    ("memsim.fifo_overflows", "count", Better::Lower),
    ("memsim.dram.row_hits", "count", Better::Higher),
    ("memsim.dram.row_conflicts", "count", Better::Lower),
    ("memsim.tick_s", "s", Better::Lower),
    ("memsim.tick_share", "ratio", Better::Lower),
    ("memsim.fixed_tick_ns", "ns", Better::Lower),
    ("memsim.dram_tick_ns", "ns", Better::Lower),
    ("obs.hostprof_overhead_ratio", "ratio", Better::Lower),
    ("obs.probe_overhead_ratio", "ratio", Better::Lower),
    ("obs.events_recorded", "count", Better::Lower),
    ("obs.derive_metrics_s", "s", Better::Lower),
    ("obs.ledger_load_s", "s", Better::Lower),
    ("obs.json_parse_mb_per_s", "MB/s", Better::Higher),
    ("jobs.lower_s", "s", Better::Lower),
    ("jobs.jobs", "count", Better::Higher),
    ("jobs.duplicates", "count", Better::Lower),
    ("jobs.cache_open_s", "s", Better::Lower),
    ("jobs.cache_lookup_s", "s", Better::Lower),
    ("jobs.cache_complete_s", "s", Better::Lower),
    ("jobs.cache_hits", "count", Better::Higher),
    ("jobs.cache_misses", "count", Better::Lower),
    ("jobs.hit_ratio", "ratio", Better::Higher),
    ("jobs.cache_file_bytes", "count", Better::Lower),
    ("jobs.journal_append_s", "s", Better::Lower),
    ("jobs.codec_roundtrip_us", "us", Better::Lower),
    ("jobs.run_jobset_s", "s", Better::Lower),
    ("jobs.fleet2_over_inproc_ratio", "ratio", Better::Lower),
    ("bench.samples", "count", Better::Higher),
    ("bench.op_wall_s_hi", "s", Better::Lower),
    ("bench.op_wall_s_hi_pct", "%", Better::Higher),
    ("bench.trace_overhead_ratio", "ratio", Better::Lower),
    ("bench.unattributed_share", "ratio", Better::Lower),
];

/// Values measured in one run, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(n, _)| *n)
    }
}

/// The exact, simulated per-layer counts of a collection — or of a job
/// set, where shares are weighted by each job's cycles (stall shares by
/// its core-cycles).
pub fn sim_layers(l: &mut Values, stats: &[&GcStats]) {
    let sum =
        |f: &dyn Fn(&GcStats) -> u64| -> f64 { stats.iter().map(|s| f(s)).sum::<u64>() as f64 };
    let cycles = sum(&|s| s.total_cycles);
    let core_cycles = sum(&|s| s.total_cycles * s.per_core.len().max(1) as u64);
    for (name, reason) in [
        ("core.stall.scan_lock_pct", StallReason::ScanLock),
        ("core.stall.free_lock_pct", StallReason::FreeLock),
        ("core.stall.header_lock_pct", StallReason::HeaderLock),
        ("core.stall.body_load_pct", StallReason::BodyLoad),
        ("core.stall.body_store_pct", StallReason::BodyStore),
        ("core.stall.header_load_pct", StallReason::HeaderLoad),
        ("core.stall.header_store_pct", StallReason::HeaderStore),
    ] {
        l.set(name, 100.0 * sum(&|s| s.stall.get(reason)) / core_cycles);
    }
    l.set(
        "core.empty_worklist_pct",
        100.0 * sum(&|s| s.empty_worklist_cycles) / cycles,
    );
    l.set("core.objects_copied", sum(&|s| s.objects_copied));
    l.set("core.words_copied", sum(&|s| s.words_copied));

    let mut attempts = 0.0;
    let mut acquired = 0.0;
    for (ok_name, fail_name, kind) in [
        ("sync.scan_acquired", "sync.scan_failed", LockKind::Scan),
        ("sync.free_acquired", "sync.free_failed", LockKind::Free),
        (
            "sync.header_acquired",
            "sync.header_failed",
            LockKind::Header,
        ),
    ] {
        let ok = sum(&|s| s.sync.acquired(kind));
        let failed = sum(&|s| s.sync.failed(kind));
        l.set(ok_name, ok);
        l.set(fail_name, failed);
        acquired += ok;
        attempts += ok + failed;
    }
    l.set("sync.lock_success_ratio", acquired / attempts.max(1.0));

    l.set("memsim.issued", sum(&|s| s.mem.total_issued()));
    l.set(
        "memsim.mean_queue_depth",
        sum(&|s| s.mem.queue_occupancy_sum) / sum(&|s| s.mem.cycles).max(1.0),
    );
    l.set(
        "memsim.comparator_blocked_cycles",
        sum(&|s| s.mem.comparator_blocked_cycles),
    );
    l.set("memsim.fifo_hits", sum(&|s| s.fifo.hits));
    l.set("memsim.fifo_misses", sum(&|s| s.fifo.misses));
    l.set("memsim.fifo_overflows", sum(&|s| s.fifo.overflows));
    let dram =
        |f: &dyn Fn(&hwgc_memsim::DramStats) -> u64| sum(&|s| s.mem.dram.as_ref().map_or(0, f));
    l.set("memsim.dram.row_hits", dram(&|d| d.row_hits));
    l.set("memsim.dram.row_conflicts", dram(&|d| d.row_conflicts));
}

/// Within-run quartiles `(name, p25, p75)` of a timed end-to-end metric.
pub type Quartiles = Vec<(&'static str, f64, f64)>;

/// Every end-to-end metric of an untraced run. `rate_time` is the wall
/// time `sim_cycles_per_s` divides the cycles by: the collect call alone
/// on a single-config workload, the whole op on a sweep.
pub fn end_to_end(
    setup_s: &[f64],
    op_wall: &Summary,
    rate_time: &Summary,
    cycles: f64,
    speedup_vs_1c: f64,
    paper_abs_err_pp: f64,
) -> (Values, Quartiles) {
    let setup = Summary::of(setup_s);
    let mut v = Values::default();
    v.set("setup_s", setup.median);
    v.set("op_wall_s", op_wall.median);
    v.set("sim_cycles_per_s", cycles / rate_time.median);
    v.set("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
    v.set("sim_cycles", cycles);
    v.set("speedup_vs_1c", speedup_vs_1c);
    v.set("paper_abs_err_pp", paper_abs_err_pp);
    let quartiles = vec![
        ("setup_s", setup.p25, setup.p75),
        ("op_wall_s", op_wall.p25, op_wall.p75),
        // A slow call is a low rate: the quartiles swap ends.
        (
            "sim_cycles_per_s",
            cycles / rate_time.p75,
            cycles / rate_time.p25,
        ),
    ];
    (v, quartiles)
}

/// Host time of the `collect` call; `core_cycles` is cycles × cores,
/// summed over the jobs of a set.
pub fn collect_layers(l: &mut Values, collect: &Summary, core_cycles: f64) {
    l.set("core.collect_s", collect.median);
    l.set("core.collect_s_min", collect.min);
    l.set("core.collect_s_p25", collect.p25);
    l.set("core.collect_s_p75", collect.p75);
    l.set("core.ns_per_core_cycle", collect.median * 1e9 / core_cycles);
}

/// What `collect_hostprof` saw, one profiler per traced op: timers as
/// medians over the ops, counters (deterministic) from the last. Sets
/// nothing when no collection ran under the profilers.
pub fn hostprof_layers(l: &mut Values, profiles: &[&HostProfiler], cycles: f64) {
    let Some(prof) = profiles.last() else { return };
    let executed = prof.counter("engine.cycles_executed") as f64;
    if executed == 0.0 {
        return;
    }
    let timer = |key: &str| -> f64 {
        let per_op: Vec<f64> = profiles
            .iter()
            .map(|p| p.timer(key).map_or(0.0, |t| t.total_ns as f64 * 1e-9))
            .collect();
        median(&per_op)
    };
    let counter = |key: &str| prof.counter(key) as f64;
    l.set("core.root_s", timer("phase.root"));
    l.set("core.steady_s", timer("phase.steady"));
    l.set("core.cycles_executed", executed);
    l.set("core.executed_cycle_ratio", executed / cycles);
    l.set("core.jump_all_parked", counter("engine.jump.all_parked"));
    l.set("core.parks", prof.counter_prefix_sum("engine.park.") as f64);
    l.set("core.wakes", prof.counter_prefix_sum("engine.wake.") as f64);
    l.set("core.calendar_pops", counter("engine.calendar.pops"));
    l.set("core.ff_horizon_jumps", counter("engine.ff.horizon_jumps"));
    l.set("memsim.tick_s", timer("mem.tick"));
    l.set(
        "memsim.tick_share",
        timer("mem.tick") / timer("phase.steady"),
    );
}

/// The harness's own numbers for a traced run.
pub fn bench_layers(l: &mut Values, op_wall: &Summary, tracer: &Tracer) {
    l.set("bench.samples", op_wall.n as f64);
    if let Some((pct, value)) = op_wall.hi {
        l.set("bench.op_wall_s_hi", value);
        l.set("bench.op_wall_s_hi_pct", pct);
    }
    l.set(
        "bench.trace_overhead_ratio",
        tracer.median_seconds(OP) / op_wall.median,
    );
    l.set("bench.unattributed_share", tracer.unattributed_share());
}
