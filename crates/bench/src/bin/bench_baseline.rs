//! Simulator throughput baseline: how many simulated cycles per wall
//! second, and how many heap allocations per simulated cycle.
//!
//! Runs the preset × core-count matrix through one verified collection
//! each (serially — concurrent combos would contend for the machine and
//! corrupt the wall-clock numbers), then writes a machine-parseable JSON
//! report. The committed `BENCH_simulator.json` at the repo root is the
//! reference; CI re-runs the reduced matrix and fails when aggregate
//! throughput regresses below [`CHECK_RATIO`] of the reference.
//!
//! ```text
//! bench_baseline [--smoke] [--out <path>] [--check <baseline.json>]
//!                [--trace-out <path>] [--metrics-out <path>]
//!                [--trajectory <path> --pr <N>]
//!                [--check-trajectory <path> --pr <N>]
//! ```
//!
//! * `--smoke` — reduced matrix (3 presets × {1, 4, 16} cores) for CI;
//!   16-core combos stay in so the check below gates the regime the
//!   sparse engine exists for,
//! * `--out` — where to write the report (default `BENCH_simulator.json`
//!   in the current directory),
//! * `--check` — compare against a previously written report: for every
//!   core count present in *both* reports, the aggregate cycles/second
//!   must be ≥ `CHECK_RATIO` × the reference (per-core-count gating, so
//!   a 16-core regression cannot hide behind fast 1-core combos), and
//!   the per-core-count wall-clock speedup vs the reference is printed;
//!   any floor violation exits 1,
//! * `--trace-out` / `--metrics-out` — after the timed matrix, run the
//!   Figure 6 configuration (javac, 1 core, +20 latency) once more with
//!   the event bus attached and export the Chrome/Perfetto trace and the
//!   metrics snapshot. The probed run is *not* timed; every measured
//!   combo keeps the zero-overhead `NullProbe` path,
//! * `--trajectory` / `--pr` — measure every trajectory series (the
//!   fig6 1-core baseline and the fig6 16-core sweep point since PR 5)
//!   once more and append
//!   `{pr, cycles, wall_s}` to each series in the per-PR trajectory
//!   file (the committed `BENCH_trajectory.json`). Idempotent per PR:
//!   an existing entry for the same PR number is replaced, so
//!   re-running before merge never duplicates rows. `cycles` is
//!   deterministic; the wall clock is the recording host's and is kept
//!   for order-of-magnitude context only,
//! * `--check-trajectory` / `--pr` — staleness gate for CI: every
//!   series in the committed trajectory file must already carry an
//!   entry for the current PR (the one `--trajectory` would have
//!   appended); any missing series exits 1. This is what makes
//!   "forgot to re-run `--trajectory` before merging" a red build
//!   instead of a silently flat line.
//!
//! The report also carries `engine_speedup_1c` / `engine_speedup_16c`:
//! the wall-clock ratio of the per-cycle reference loop (`fast_forward`
//! off: no parks, no jumps) to the default engine on the Figure 6
//! configuration (+20 cycles memory latency, javac) at 1 and 16 cores,
//! asserted bit-exact (identical `GcStats`) before the ratio is taken.
//! The 16-core number is the one the sparse active-set engine exists
//! for: at high core counts global quiescence almost never holds, so
//! the PR 2 fast-forward alone degenerates to the naive loop there.
//!
//! Since PR 8 the binary also writes two companions next to `--out`:
//! `BENCH_hostprof.json` — the `hwgc-hostprof-v1` self-profile of an
//! extra untimed compress/16c sparse-engine run (the timed matrix always
//! keeps the zero-overhead `NullHostProf` path) — and
//! `BENCH_ledger.jsonl` — one `hwgc-ledger-v1` provenance record per
//! profiled run, deterministic efficacy counters split from the
//! quarantined `host_*` wall-clock fields.
//!
//! Since PR 9 the ledger companion is maintained through
//! [`hwgc_obs::LedgerStore`] rather than blind append: this run's fresh
//! records are merged with whatever the file already holds (fresh
//! records win a digest conflict — the file is being *regenerated* — but
//! the drift is reported), and the result is written canonically: one
//! record per `config_hash`, sorted by hash, so the committed file
//! byte-stabilizes and diffs stay reviewable. The report also carries a
//! `cache_sweep` section: the same reduced sweep timed uncached and
//! against a warm content-addressed result cache, the wall-clock saving
//! the PR 9 observatory buys a repeat `reproduce_all`.
//!
//! Since PR 10 the probes run through the unified job layer
//! (`crates/jobs`), and the report gains a `sweep_scaling` section with
//! three measurements of that layer on the reduced default-config sweep:
//!
//! * **cross_binary** — the sweep run read-only against the shared
//!   workspace cache that `reproduce_all` (via `fig5_scaling`) populates.
//!   Because the cache key excludes the binary name, every overlapping
//!   configuration is a hit here: `reproduce_all` followed by
//!   `bench_baseline` simulates strictly fewer jobs than the two run
//!   cold. On a cold workspace the section honestly records zero hits.
//! * **workers** — the same sweep executed uncached in-process
//!   (`workers = 0`) and across 1, 2 and 4 `sweep_worker` processes,
//!   wall clocks and steal counts recorded as measured. This container
//!   has one host core, so the committed numbers show process overhead,
//!   not scaling — recorded honestly rather than simulated.
//! * **resume** — a one-worker run of the sweep with a private journal
//!   and cache, killed after two jobs by an injected worker abort
//!   (`HWGC_WORKER_ABORT_AFTER`); the 2-worker rerun resumes from the
//!   journal ∪ cache and executes only the remainder, which the section
//!   records as `killed_after_done` / `resumed_skipped` /
//!   `resumed_executed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hwgc_bench::spec;
use hwgc_core::{GcConfig, GcOutcome, SimCollector};
use hwgc_heap::{verify_collection, Snapshot};
use hwgc_jobs::{
    run_jobset, CacheMode, ConfigMatrix, ExecError, ExecOptions, ExecReport, JobSet, Journal,
    ResultCache,
};
use hwgc_memsim::MemConfig;
use hwgc_obs::{LedgerStore, StoreError};
use hwgc_workloads::Preset;

/// Minimum acceptable measured/reference aggregate-throughput ratio: a
/// regression worse than 30% fails `--check`. Generous because CI runners
/// are noisy; real slowdowns from lost fast-forwarding or re-introduced
/// per-cycle allocation are integer factors, not percentages.
const CHECK_RATIO: f64 = 0.7;

/// Wall-time measurements per combo; the fastest is reported, which is
/// the standard way to suppress one-off scheduling noise.
const REPS: u32 = 3;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct ComboResult {
    preset: &'static str,
    cores: usize,
    cycles: u64,
    wall_s: f64,
    allocs: u64,
}

/// One timed, verified collection. Heap construction, snapshot capture
/// and verification stay *outside* the timed and allocation-counted
/// window — the report measures the simulator, not the test fixture.
fn timed_collect(preset: Preset, cfg: GcConfig) -> (GcOutcome, f64, u64) {
    let mut heap = spec(preset).build();
    let snap = Snapshot::capture(&heap);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let t = Instant::now();
    let out = SimCollector::new(cfg).collect(&mut heap);
    let wall_s = t.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    verify_collection(&heap, out.free, &snap)
        .unwrap_or_else(|e| panic!("{} failed verification: {e}", preset.name()));
    (out, wall_s, allocs)
}

fn measure_combo(preset: Preset, cores: usize) -> ComboResult {
    let cfg = GcConfig::with_cores(cores);
    let mut best: Option<ComboResult> = None;
    for _ in 0..REPS {
        let (out, wall_s, allocs) = timed_collect(preset, cfg);
        if best.as_ref().is_none_or(|b| wall_s < b.wall_s) {
            best = Some(ComboResult {
                preset: preset.name(),
                cores,
                cycles: out.stats.total_cycles,
                wall_s,
                allocs,
            });
        }
    }
    best.expect("REPS >= 1")
}

/// Wall-clock ratio of the per-cycle reference loop (`fast_forward` off)
/// to the default engine on the Figure 6 configuration, with
/// bit-exactness asserted first.
fn measure_engine_speedup(preset: Preset, cores: usize) -> f64 {
    let base = GcConfig {
        n_cores: cores,
        mem: MemConfig::default().with_extra_latency(20),
        ..GcConfig::default()
    };
    let naive_cfg = GcConfig {
        fast_forward: false,
        ..base
    };
    // Warm up and check bit-exactness once.
    let (fast, _, _) = timed_collect(preset, base);
    let (naive, _, _) = timed_collect(preset, naive_cfg);
    assert_eq!(
        fast.stats,
        naive.stats,
        "the default engine diverged from the reference loop on {}/{}c",
        preset.name(),
        cores
    );
    let fast_s = (0..REPS)
        .map(|_| timed_collect(preset, base).1)
        .fold(f64::INFINITY, f64::min);
    let naive_s = (0..REPS)
        .map(|_| timed_collect(preset, naive_cfg).1)
        .fold(f64::INFINITY, f64::min);
    naive_s / fast_s.max(1e-9)
}

/// The profiled companion runs (`BENCH_hostprof.json`, `BENCH_ledger.jsonl`):
/// the two 16-core regimes under the Figure 6 memory model — javac, the
/// paper's headline workload (lock-bound), and compress (long copy
/// streams, memory-bound) — as `(ledger workload, preset, cores)`.
const PROFILED_RUNS: &[(&str, Preset, usize)] = &[
    ("fig6-16c", Preset::Javac, 16),
    ("compress-16c", Preset::Compress, 16),
];

/// The reduced sweep every job-layer probe replays: the default-config
/// `{compress, javac, jlisp} × {1, 4}` sub-matrix. Small enough to keep
/// bench_baseline quick, large enough that simulation wall clock
/// dominates cache/protocol bookkeeping — and deliberately a subset of
/// what `fig5_scaling` sweeps, so the cross-binary probe measures real
/// overlap with a `reproduce_all` run, not a synthetic one.
fn scaling_set() -> JobSet {
    ConfigMatrix::new(GcConfig::default())
        .presets([Preset::Compress, Preset::Javac, Preset::Jlisp])
        .cores([1usize, 4])
        .lower()
}

/// Run `set` through [`run_jobset`] against the given cache, with no
/// telemetry/journal and the given worker-process count. Panics on any
/// execution failure — the probes expect clean runs.
fn probe_run(set: &JobSet, cache: &ResultCache, workers: usize) -> ExecReport {
    run_jobset(
        set,
        &ExecOptions {
            binary: hwgc_bench::binary_name(),
            cache,
            progress: None,
            workers,
            journal: None,
        },
    )
    .unwrap_or_else(|e| panic!("job-layer probe failed: {e}"))
}

struct CacheSweep {
    jobs: usize,
    uncached_wall_s: f64,
    cached_wall_s: f64,
}

impl CacheSweep {
    fn speedup(&self) -> f64 {
        self.uncached_wall_s / self.cached_wall_s.max(1e-9)
    }
}

/// Time the [`scaling_set`] jobs uncached and then against a warm
/// content-addressed result cache (a private `rw` file under
/// `target/experiments/`, rebuilt each run so the warm leg replays this
/// binary's own records). Every payload hit re-verifies the recorded
/// digest before being returned, so the cached leg is an integrity pass,
/// not a free ride; hit outcomes are asserted bit-exact against the
/// uncached leg's.
fn measure_cache_sweep(set: &JobSet) -> CacheSweep {
    let off = ResultCache::open(CacheMode::Off, &[], None)
        .unwrap_or_else(|e| panic!("cache probe open: {e}"));
    let t = Instant::now();
    let uncached = probe_run(set, &off, 0);
    let uncached_wall_s = t.elapsed().as_secs_f64();

    let path = hwgc_bench::experiments_dir().join("bench_cache_probe.jsonl");
    let _ = std::fs::remove_file(&path);
    let cold = ResultCache::open(CacheMode::Rw, &[], Some(&path))
        .unwrap_or_else(|e| panic!("cache probe open: {e}"));
    probe_run(set, &cold, 0);
    assert_eq!(
        cold.counters().misses,
        set.len(),
        "the cold pass must simulate every job"
    );

    let warm = ResultCache::open(CacheMode::Rw, &[], Some(&path))
        .unwrap_or_else(|e| panic!("cache probe reopen: {e}"));
    let t = Instant::now();
    let cached = probe_run(set, &warm, 0);
    let cached_wall_s = t.elapsed().as_secs_f64();
    assert_eq!(
        warm.counters().hits,
        set.len(),
        "the warm pass must hit every job"
    );
    for (i, job) in set.jobs().iter().enumerate() {
        assert_eq!(
            cached.outcomes[i].0.stats,
            uncached.outcomes[i].0.stats,
            "cached outcome diverged on {}",
            job.label()
        );
    }

    CacheSweep {
        jobs: set.len(),
        uncached_wall_s,
        cached_wall_s,
    }
}

/// One worker-count leg of the process-scaling probe.
struct WorkersLeg {
    workers: usize,
    wall_s: f64,
    steals: u64,
    per_worker: Vec<usize>,
}

struct SweepScaling {
    jobs: usize,
    cross_hits: usize,
    cross_misses: usize,
    legs: Vec<WorkersLeg>,
    killed_after_done: usize,
    resumed_skipped: usize,
    resumed_executed: usize,
}

/// The PR 10 job-layer measurements on [`scaling_set`]; see the module
/// docs for what each sub-probe demonstrates.
fn measure_sweep_scaling(set: &JobSet) -> SweepScaling {
    // Cross-binary dedupe: read-only against the shared workspace cache
    // (plus the committed digest-only ledger). Any configuration a prior
    // binary — fig5_scaling under reproduce_all — already simulated
    // comes back as a hit without executing.
    let shared = hwgc_jobs::cache_path_from_env();
    let committed = hwgc_bench::committed_ledger_path();
    let cross_cache = ResultCache::open(CacheMode::Ro, &[&committed, &shared], None)
        .unwrap_or_else(|e| panic!("cross-binary probe open: {e}"));
    let cross = probe_run(set, &cross_cache, 0);
    let (cross_hits, cross_misses) = (cross.skipped, set.len() - cross.skipped);

    // Process-level scaling: the sweep uncached at each worker count,
    // bit-exactness across engines asserted against the in-process leg.
    let mut legs = Vec::new();
    let mut reference: Option<ExecReport> = None;
    for workers in [0usize, 1, 2, 4] {
        let off = ResultCache::open(CacheMode::Off, &[], None)
            .unwrap_or_else(|e| panic!("scaling probe open: {e}"));
        let t = Instant::now();
        let report = probe_run(set, &off, workers);
        let wall_s = t.elapsed().as_secs_f64();
        if let Some(reference) = &reference {
            for (i, job) in set.jobs().iter().enumerate() {
                assert_eq!(
                    report.outcomes[i].0.stats,
                    reference.outcomes[i].0.stats,
                    "{} diverged between in-process and {workers}-worker runs",
                    job.label()
                );
            }
        }
        legs.push(WorkersLeg {
            workers,
            wall_s,
            steals: report.steals,
            per_worker: report.per_worker.clone(),
        });
        reference.get_or_insert(report);
    }

    // Kill-and-resume: run the sweep with a private journal and rw
    // cache, worker 0 told to die after 2 completed jobs. The killed leg
    // runs on that one worker: it dies when its third job arrives, and
    // with a second worker around to steal the rest of a small set first
    // the abort would never fire. The run fails; the journal then holds
    // exactly the two completed jobs. The rerun resumes (journal ∪ cache)
    // on two workers and executes only the rest.
    let journal_path = hwgc_bench::experiments_dir().join("bench_resume_journal.jsonl");
    let cache_path = hwgc_bench::experiments_dir().join("bench_resume_cache.jsonl");
    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_file(&cache_path);
    let open_rw = || {
        ResultCache::open(CacheMode::Rw, &[], Some(&cache_path))
            .unwrap_or_else(|e| panic!("resume probe cache: {e}"))
    };
    std::env::set_var("HWGC_WORKER_ABORT_AFTER", "2");
    let killed = {
        let cache = open_rw();
        let journal = Journal::open(&journal_path, "sweep_scaling_resume", set)
            .unwrap_or_else(|e| panic!("resume probe journal: {e}"));
        run_jobset(
            set,
            &ExecOptions {
                binary: hwgc_bench::binary_name(),
                cache: &cache,
                progress: None,
                workers: 1,
                journal: Some(&journal),
            },
        )
    };
    std::env::remove_var("HWGC_WORKER_ABORT_AFTER");
    assert!(
        matches!(killed, Err(ExecError::Worker { .. })),
        "the aborted leg must fail with a worker error"
    );

    let cache = open_rw();
    let journal = Journal::open(&journal_path, "sweep_scaling_resume", set)
        .unwrap_or_else(|e| panic!("resume probe journal reopen: {e}"));
    let killed_after_done = journal.resumed();
    assert_eq!(
        killed_after_done, 2,
        "the injected abort must leave exactly the two completed jobs journaled"
    );
    let resumed = run_jobset(
        set,
        &ExecOptions {
            binary: hwgc_bench::binary_name(),
            cache: &cache,
            progress: None,
            workers: 2,
            journal: Some(&journal),
        },
    )
    .unwrap_or_else(|e| panic!("resumed sweep failed: {e}"));
    assert_eq!(
        resumed.skipped, killed_after_done,
        "every journaled job must replay from the cache"
    );
    let reference = reference.expect("workers legs ran");
    for (i, job) in set.jobs().iter().enumerate() {
        assert_eq!(
            resumed.outcomes[i].0.stats,
            reference.outcomes[i].0.stats,
            "{} diverged after resumption",
            job.label()
        );
    }

    SweepScaling {
        jobs: set.len(),
        cross_hits,
        cross_misses,
        legs,
        killed_after_done,
        resumed_skipped: resumed.skipped,
        resumed_executed: set.len() - resumed.skipped,
    }
}

fn render_report(
    mode: &str,
    combos: &[ComboResult],
    speedup_1c: f64,
    speedup_16c: f64,
    cache_sweep: &CacheSweep,
    sweep_scaling: &SweepScaling,
) -> String {
    let total_cycles: u64 = combos.iter().map(|c| c.cycles).sum();
    let total_wall: f64 = combos.iter().map(|c| c.wall_s).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"hwgc-bench-baseline-v1\",\n");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    out.push_str("  \"combos\": [\n");
    for (i, c) in combos.iter().enumerate() {
        let sep = if i + 1 == combos.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"preset\": \"{}\", \"cores\": {}, \"cycles\": {}, \"wall_s\": {:.6}, \
             \"cycles_per_sec\": {:.0}, \"allocs_per_cycle\": {:.4}}}{sep}",
            c.preset,
            c.cores,
            c.cycles,
            c.wall_s,
            c.cycles as f64 / c.wall_s.max(1e-9),
            c.allocs as f64 / c.cycles.max(1) as f64,
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"cache_sweep\": {{\"jobs\": {}, \"uncached_wall_s\": {:.6}, \
         \"cached_wall_s\": {:.6}, \"speedup\": {:.2}}},",
        cache_sweep.jobs,
        cache_sweep.uncached_wall_s,
        cache_sweep.cached_wall_s,
        cache_sweep.speedup(),
    );
    // No `preset` key anywhere in this section: the --check parser keys
    // on it, and these rows must not join its gate.
    out.push_str("  \"sweep_scaling\": {\n");
    let _ = writeln!(out, "    \"jobs\": {},", sweep_scaling.jobs);
    let _ = writeln!(
        out,
        "    \"cross_binary\": {{\"hits\": {}, \"misses\": {}}},",
        sweep_scaling.cross_hits, sweep_scaling.cross_misses,
    );
    out.push_str("    \"workers\": [\n");
    for (i, leg) in sweep_scaling.legs.iter().enumerate() {
        let sep = if i + 1 == sweep_scaling.legs.len() {
            ""
        } else {
            ","
        };
        let per_worker: Vec<String> = leg.per_worker.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(
            out,
            "      {{\"workers\": {}, \"wall_s\": {:.6}, \"steals\": {}, \
             \"per_worker\": [{}]}}{sep}",
            leg.workers,
            leg.wall_s,
            leg.steals,
            per_worker.join(", "),
        );
    }
    out.push_str("    ],\n");
    let _ = writeln!(
        out,
        "    \"resume\": {{\"killed_after_done\": {}, \"resumed_skipped\": {}, \
         \"resumed_executed\": {}}}",
        sweep_scaling.killed_after_done,
        sweep_scaling.resumed_skipped,
        sweep_scaling.resumed_executed,
    );
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"total_cycles\": {total_cycles},");
    let _ = writeln!(out, "  \"total_wall_s\": {total_wall:.6},");
    let _ = writeln!(
        out,
        "  \"cycles_per_sec\": {:.0},",
        total_cycles as f64 / total_wall.max(1e-9)
    );
    let _ = writeln!(out, "  \"engine_speedup_1c\": {speedup_1c:.2},");
    let _ = writeln!(out, "  \"engine_speedup_16c\": {speedup_16c:.2}");
    out.push_str("}\n");
    out
}

/// Extract `"key": "value"` from one JSON line (the report is written one
/// combo per line precisely so this suffices — no JSON crate needed).
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extract `"key": <number>` from one JSON line.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse the combo lines of a report into (preset, cores, cycles, wall_s).
fn parse_combos(report: &str) -> Vec<(String, usize, f64, f64)> {
    report
        .lines()
        .filter_map(|line| {
            let preset = json_str(line, "preset")?;
            Some((
                preset.to_string(),
                json_num(line, "cores")? as usize,
                json_num(line, "cycles")?,
                json_num(line, "wall_s")?,
            ))
        })
        .collect()
}

/// Aggregate throughput per core count over the combos present in both
/// reports. Returns `(cores, reference c/s, measured c/s)` rows sorted by
/// core count; empty when the reports share no combos.
fn per_core_intersection(reference: &str, measured: &str) -> Vec<(usize, f64, f64)> {
    let ref_combos = parse_combos(reference);
    let mea_combos = parse_combos(measured);
    // (cores, ref cycles, ref wall, measured cycles, measured wall)
    let mut rows: Vec<(usize, f64, f64, f64, f64)> = Vec::new();
    for (preset, cores, cycles, wall) in &mea_combos {
        if let Some((_, _, ref_cycles, ref_wall)) = ref_combos
            .iter()
            .find(|(p, n, _, _)| p == preset && n == cores)
        {
            let row = match rows.iter_mut().find(|r| r.0 == *cores) {
                Some(row) => row,
                None => {
                    rows.push((*cores, 0.0, 0.0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += ref_cycles;
            row.2 += ref_wall;
            row.3 += cycles;
            row.4 += wall;
        }
    }
    rows.sort_by_key(|r| r.0);
    rows.into_iter()
        .filter(|&(_, _, rw, _, mw)| rw > 0.0 && mw > 0.0)
        .map(|(cores, rc, rw, mc, mw)| (cores, rc / rw, mc / mw))
        .collect()
}

/// The per-PR trajectory series: `(name, config description, cores)`.
/// Both run javac under the Figure 6 memory model (+20 cycles per
/// access) on the default engine. The 1-core series is the figure's
/// normalization baseline and goes back to PR 4 — it records engine
/// wins as wall-clock drops on an unchanged cycle count; the 16-core series (added in PR 5 with the sparse engine)
/// tracks the regime the paper's headline numbers live in.
const TRAJECTORY_SERIES: &[(&str, &str, usize)] = &[
    (
        "fig6-1c",
        "javac, 1 core, +20 cycles memory latency (fig6 baseline)",
        1,
    ),
    (
        "fig6-16c",
        "javac, 16 cores, +20 cycles memory latency (fig6 sweep point)",
        16,
    ),
];

struct TrajectorySeries {
    name: String,
    config: String,
    entries: Vec<(u64, u64, f64)>,
}

/// Parse a trajectory file. Understands both the v2 multi-series layout
/// and the original v1 single-series one (whose entries become the
/// `fig6-1c` series, which is what they always measured).
fn parse_trajectory(text: &str) -> Vec<TrajectorySeries> {
    let mut series: Vec<TrajectorySeries> = Vec::new();
    for line in text.lines() {
        if let Some(name) = json_str(line, "name") {
            series.push(TrajectorySeries {
                name: name.to_string(),
                config: json_str(line, "config").unwrap_or_default().to_string(),
                entries: Vec::new(),
            });
        } else if let (Some(pr), Some(cycles), Some(wall_s)) = (
            json_num(line, "pr"),
            json_num(line, "cycles"),
            json_num(line, "wall_s"),
        ) {
            if series.is_empty() {
                // v1 file: entries precede any series header.
                series.push(TrajectorySeries {
                    name: TRAJECTORY_SERIES[0].0.to_string(),
                    config: TRAJECTORY_SERIES[0].1.to_string(),
                    entries: Vec::new(),
                });
            }
            series
                .last_mut()
                .expect("series pushed above")
                .entries
                .push((pr as u64, cycles as u64, wall_s));
        }
    }
    series
}

fn render_trajectory(series: &[TrajectorySeries]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"hwgc-bench-trajectory-v2\",\n");
    out.push_str("  \"series\": [\n");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"config\": \"{}\", \"entries\": [",
            s.name, s.config
        );
        for (i, (pr, cycles, wall_s)) in s.entries.iter().enumerate() {
            let sep = if i + 1 == s.entries.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "      {{\"pr\": {pr}, \"cycles\": {cycles}, \"wall_s\": {wall_s:.6}}}{sep}"
            );
        }
        let sep = if si + 1 == series.len() { "" } else { "," };
        let _ = writeln!(out, "    ]}}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Measure every trajectory series and append (or replace) this PR's
/// entry in each, preserving series the file has that this binary no
/// longer measures.
fn append_trajectory(path: &str, pr: u64) {
    let mut series = std::fs::read_to_string(path)
        .map(|t| parse_trajectory(&t))
        .unwrap_or_default();
    for &(name, config, cores) in TRAJECTORY_SERIES {
        let cfg = GcConfig {
            n_cores: cores,
            mem: MemConfig::default().with_extra_latency(20),
            ..GcConfig::default()
        };
        let (mut cycles, mut wall_s) = (0, f64::INFINITY);
        for _ in 0..REPS {
            let (out, w, _) = timed_collect(Preset::Javac, cfg);
            cycles = out.stats.total_cycles;
            wall_s = wall_s.min(w);
        }
        let slot = match series.iter_mut().find(|s| s.name == name) {
            Some(slot) => slot,
            None => {
                series.push(TrajectorySeries {
                    name: name.to_string(),
                    config: config.to_string(),
                    entries: Vec::new(),
                });
                series.last_mut().expect("just pushed")
            }
        };
        slot.entries.retain(|(p, _, _)| *p != pr);
        slot.entries.push((pr, cycles, wall_s));
        slot.entries.sort_by_key(|(p, _, _)| *p);
        println!(
            "[trajectory] {path}: {name} pr {pr}, {cycles} cycles, {:.3} ms",
            wall_s * 1e3
        );
    }
    std::fs::write(path, render_trajectory(&series))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Staleness gate for `--check-trajectory`: every series this binary
/// measures must already carry an entry for the current PR, i.e. someone
/// ran `--trajectory <path> --pr <N>` and committed the result. Exits 1
/// listing the stale series otherwise. Series the file carries beyond
/// [`TRAJECTORY_SERIES`] are historical and not gated.
fn check_trajectory(path: &str, pr: u64) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let series = parse_trajectory(&text);
    let mut stale = Vec::new();
    for &(name, _, _) in TRAJECTORY_SERIES {
        match series
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| s.entries.iter().find(|(p, _, _)| *p == pr))
        {
            Some((_, cycles, _)) => {
                println!("[trajectory-check] {name}: pr {pr} present ({cycles} cycles)");
            }
            None => stale.push(name),
        }
    }
    if !stale.is_empty() {
        eprintln!(
            "{path} is stale for PR {pr}: series {} carry no entry — run \
             `bench_baseline --trajectory {path} --pr {pr}` and commit the result",
            stale.join(", ")
        );
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a path"))
                .clone()
        })
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_simulator.json".to_string());
    let check_path = flag_value("--check");
    let trace_out = flag_value("--trace-out");
    let metrics_out = flag_value("--metrics-out");
    let trajectory = flag_value("--trajectory");
    let trajectory_check = flag_value("--check-trajectory");
    let pr = flag_value("--pr").map(|s| {
        s.parse::<u64>()
            .unwrap_or_else(|e| panic!("--pr needs a PR number: {e}"))
    });

    if let Some(path) = &trajectory_check {
        // Pure gate, checked before the (slow) matrix for fast feedback.
        let pr = pr.unwrap_or_else(|| panic!("--check-trajectory needs --pr <N>"));
        check_trajectory(path, pr);
    }

    let presets: &[Preset] = if smoke {
        // 16-core combos stay in the smoke matrix: the sparse engine's
        // whole point is that regime, so CI must gate it.
        &[Preset::Compress, Preset::Javac, Preset::Jlisp]
    } else {
        &Preset::ALL
    };
    // The timed matrix is declared like every other sweep but runs
    // serially and uncached on purpose: concurrent combos would contend
    // for the machine and a cache replay has no wall clock to measure.
    let timed_set = ConfigMatrix::new(GcConfig::default())
        .presets(presets.iter().copied())
        .cores([1usize, 4, 16])
        .lower();
    let mode = if smoke { "smoke" } else { "full" };

    println!("bench_baseline: {mode} matrix, {REPS} reps per combo\n");
    println!(
        "{:>10}  {:>5}  {:>12}  {:>9}  {:>14}  {:>15}",
        "preset", "cores", "cycles", "wall ms", "cycles/sec", "allocs/cycle"
    );
    let mut combos = Vec::new();
    for job in timed_set.jobs() {
        let r = measure_combo(job.spec.preset, job.cfg.n_cores);
        println!(
            "{:>10}  {:>5}  {:>12}  {:>9.3}  {:>14.0}  {:>15.4}",
            r.preset,
            r.cores,
            r.cycles,
            r.wall_s * 1e3,
            r.cycles as f64 / r.wall_s.max(1e-9),
            r.allocs as f64 / r.cycles.max(1) as f64,
        );
        combos.push(r);
    }

    let speedup_1c = measure_engine_speedup(Preset::Javac, 1);
    let speedup_16c = measure_engine_speedup(Preset::Javac, 16);
    println!("\nengine speedup vs reference loop (fig6 config, javac): 1c {speedup_1c:.2}x, 16c {speedup_16c:.2}x");

    let probe_set = scaling_set();
    let cache_sweep = measure_cache_sweep(&probe_set);
    println!(
        "\ncache effect ({} jobs, reduced sweep): uncached {:.3} ms, warm cache {:.3} ms \
         — {:.1}x",
        cache_sweep.jobs,
        cache_sweep.uncached_wall_s * 1e3,
        cache_sweep.cached_wall_s * 1e3,
        cache_sweep.speedup(),
    );

    let sweep_scaling = measure_sweep_scaling(&probe_set);
    println!(
        "\nsweep job layer ({} jobs): cross-binary dedupe {} hit / {} miss vs the \
         shared workspace cache",
        sweep_scaling.jobs, sweep_scaling.cross_hits, sweep_scaling.cross_misses,
    );
    for leg in &sweep_scaling.legs {
        println!(
            "  workers {:>1}: {:>8.3} ms, {} steal(s){}",
            leg.workers,
            leg.wall_s * 1e3,
            leg.steals,
            if leg.workers == 0 {
                " (in-process reference)"
            } else {
                ""
            },
        );
    }
    println!(
        "  kill-resume: aborted at {} of {} done; rerun skipped {} and executed {}",
        sweep_scaling.killed_after_done,
        sweep_scaling.jobs,
        sweep_scaling.resumed_skipped,
        sweep_scaling.resumed_executed,
    );

    if trace_out.is_some() || metrics_out.is_some() {
        // One extra, untimed probed run of the fig6 configuration for the
        // observability exports. Bit-exactness of probe-on vs. probe-off
        // stats is asserted (the differential the trace-smoke CI job also
        // checks on its reduced config).
        let cfg = GcConfig {
            n_cores: 1,
            mem: MemConfig::default().with_extra_latency(20),
            ..GcConfig::default()
        };
        let (reference, _, _) = timed_collect(Preset::Javac, cfg);
        let mut heap = spec(Preset::Javac).build();
        let (out, _trace, recording) =
            hwgc_bench::run_probed_heap(&mut heap, cfg, "javac-fig6", 64);
        assert_eq!(out.stats, reference.stats, "probe perturbed the fig6 run");
        if let Some(path) = &trace_out {
            let text = hwgc_bench::chrome_trace("javac-fig6", 1, &out, &recording);
            std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("[chrome] {path}");
        }
        if let Some(path) = &metrics_out {
            let reg = hwgc_bench::metrics_for_run("javac-fig6", 1, &out, &recording);
            std::fs::write(path, reg.to_json_string())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("[metrics] {path}");
        }
    }

    if let Some(path) = &trajectory {
        let pr = pr.unwrap_or_else(|| panic!("--trajectory needs --pr <N>"));
        append_trajectory(path, pr);
    }

    let report = render_report(
        mode,
        &combos,
        speedup_1c,
        speedup_16c,
        &cache_sweep,
        &sweep_scaling,
    );
    std::fs::write(&out_path, &report).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("[json] {out_path}");

    // Host-profile and run-ledger companions next to the report: one
    // extra untimed run per [`PROFILED_RUNS`] config with the HostProfiler
    // attached (never the timed matrix — profiling the profiler would
    // poison the throughput numbers). The hostprof dump records the
    // compress/16c run. The ledger is maintained through the
    // store, not blind append: this run's fresh records are merged with
    // the file's existing ones (fresh wins a digest conflict, with the
    // drift reported — the file is being regenerated) and the result is
    // written canonically, one hash-sorted record per config.
    let out_dir = std::path::Path::new(&out_path)
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_default();
    let hostprof_path = out_dir.join("BENCH_hostprof.json");
    let ledger_path = out_dir.join("BENCH_ledger.jsonl");
    let mut store = LedgerStore::new();
    for &(config, preset, cores) in PROFILED_RUNS {
        let cfg = GcConfig {
            n_cores: cores,
            mem: MemConfig::default().with_extra_latency(20),
            ..GcConfig::default()
        };
        let (run, prof) = hwgc_bench::run_hostprof(&spec(preset), cfg);
        store
            .insert(hwgc_bench::ledger_record(
                "bench_baseline",
                config,
                &cfg,
                &run.stats,
                None,
                Some(&prof),
            ))
            .unwrap_or_else(|e| panic!("fresh ledger records conflict: {e}"));
        if preset == Preset::Compress {
            std::fs::write(&hostprof_path, prof.to_json_string())
                .unwrap_or_else(|e| panic!("write {}: {e}", hostprof_path.display()));
            println!("[hostprof] {}", hostprof_path.display());
        }
    }
    match LedgerStore::load_tolerant(&ledger_path) {
        Ok((old, load_report)) => {
            for line in &load_report.quarantined {
                eprintln!("[ledger] quarantined: {line}");
            }
            for rec in old.records() {
                if let Err(StoreError::Conflict {
                    config_hash,
                    field,
                    have,
                    incoming,
                }) = store.insert(rec.clone())
                {
                    println!(
                        "[ledger] {config_hash:016x} {field} drifted: {incoming} -> {have} \
                         (fresh run wins)"
                    );
                }
            }
        }
        Err(e) => eprintln!(
            "[ledger] existing {} not merged: {e}",
            ledger_path.display()
        ),
    }
    store
        .write_canonical(&ledger_path)
        .unwrap_or_else(|e| panic!("write {}: {e}", ledger_path.display()));
    println!(
        "[ledger] {} ({} records, canonical)",
        ledger_path.display(),
        store.len()
    );

    if let Some(check_path) = check_path {
        let reference = std::fs::read_to_string(&check_path)
            .unwrap_or_else(|e| panic!("read {check_path}: {e}"));
        let rows = per_core_intersection(&reference, &report);
        if rows.is_empty() {
            panic!("{check_path} shares no (preset, cores) combos with this run");
        }
        println!("check vs {check_path} (floor {CHECK_RATIO} per core count):");
        let mut failed = false;
        for (cores, ref_cps, mea_cps) in &rows {
            let ratio = mea_cps / ref_cps;
            println!(
                "  {cores:>2} cores: reference {ref_cps:>12.0} c/s, measured {mea_cps:>12.0} c/s \
                 — {ratio:.2}x vs committed baseline"
            );
            if ratio < CHECK_RATIO {
                eprintln!(
                    "  throughput regression at {cores} cores: ratio {ratio:.2} < {CHECK_RATIO}"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
