//! Shared harness for the experiment binaries.
//!
//! `experiments` regenerates the paper's tables and figures as one
//! declared sweep; the other binaries in `src/bin/` cover the
//! extensions, traces and reports (see DESIGN.md's experiment index).
//! This library provides the common plumbing: the sweep session,
//! verified runs of hand-built heaps, formatting the paper-style tables,
//! and writing CSV files under `target/experiments/`.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use hwgc_core::{GcConfig, GcOutcome, GcStats, SignalTrace, SimCollector, StallReason};
use hwgc_heap::{verify_collection, Heap, Snapshot};
use hwgc_jobs::{
    backend_label, cache_path_from_env, engine_label, ledger_config_pairs, ledger_env_pairs,
    ArtifactStore, ResultCache,
};
use hwgc_obs::{
    chrome_trace_json, derive_metrics, Fanout, FoldedStacks, HostProfiler, Json, LedgerRecord,
    MetricsRegistry, Recorder, Recording, RunMeta, RunReport, SweepProgress, SweepSummary,
};
use hwgc_workloads::{Preset, WorkloadSpec};

/// The core counts evaluated in the paper (Figures 5/6, Table I).
pub const CORE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Run one verified collection of a pre-built heap (the caller keeps
/// ownership of workload construction). Uncached: a display label does
/// not identify heap *contents*, so this path never consults the result
/// cache; spec-built workloads go through [`sweep_jobset`] instead.
///
/// # Panics
/// Panics if the collected heap fails verification — experiment numbers
/// from an incorrect collection would be meaningless.
pub fn run_verified_heap(heap: &mut Heap, cfg: GcConfig, label: &str) -> GcOutcome {
    let snap = Snapshot::capture(heap);
    let out = SimCollector::new(cfg).collect(heap);
    verify_collection(heap, out.free, &snap)
        .unwrap_or_else(|e| panic!("{label} failed verification: {e}"));
    out
}

/// Default workload spec for a preset (seed fixed for reproducibility).
pub fn spec(preset: Preset) -> WorkloadSpec {
    WorkloadSpec::new(preset, 42)
}

// ---------------------------------------------------------------------------
// Sweep session: result cache + stderr progress
// ---------------------------------------------------------------------------

/// One sweep's shared state: the content-addressed result cache and the
/// stderr progress reporter.
pub struct SweepSession {
    /// The `HWGC_CACHE`-configured result cache.
    pub cache: ResultCache,
    /// The live stderr progress reporter.
    pub progress: SweepProgress,
}

static SWEEP: OnceLock<SweepSession> = OnceLock::new();

/// The committed digest-only ledger every sweep's cache checks fresh
/// digests against: `HWGC_CACHE_LEDGER` when set, else
/// `BENCH_ledger.jsonl` in the working directory, else relative to the
/// workspace root (so `cargo run` works from anywhere in the tree).
pub fn committed_ledger_path() -> PathBuf {
    if let Some(p) = std::env::var_os("HWGC_CACHE_LEDGER") {
        return PathBuf::from(p);
    }
    let cwd = PathBuf::from("BENCH_ledger.jsonl");
    if cwd.exists() {
        return cwd;
    }
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("../../BENCH_ledger.jsonl"),
        None => cwd,
    }
}

/// The running experiment binary's name (ledger provenance; never part
/// of the config hash).
pub fn binary_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(Path::new)
        .and_then(Path::file_stem)
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "hwgc".to_string())
}

/// Begin (or join) the process-wide sweep session. The first caller
/// names the sweep and announces its job total; later calls return the
/// existing session unchanged. Opens the result cache per `HWGC_CACHE`
/// (committed ledger read-only; workspace cache file from
/// `HWGC_CACHE_PATH` in writable modes).
///
/// # Panics
/// Panics when a cache source is corrupt or holds conflicting digests —
/// a sweep must not start over a cache it cannot trust.
pub fn sweep_begin(name: &str, total: usize) -> &'static SweepSession {
    SWEEP.get_or_init(|| {
        // Sweeps default to `rw` (not `ro`): resumption and cross-run
        // dedupe both need payload records on disk.
        let mode = hwgc_jobs::sweep_cache_mode();
        let committed = committed_ledger_path();
        let rw = cache_path_from_env();
        let cache = ResultCache::open(mode, &[&committed], Some(&rw))
            .unwrap_or_else(|e| panic!("result cache failed to open: {e}"));
        let progress = SweepProgress::new(name, total);
        SweepSession { cache, progress }
    })
}

/// Print the sweep's summary line and return the final counters.
/// No-op `None` when no job ever ran through the session.
pub fn sweep_finish() -> Option<SweepSummary> {
    SWEEP.get().map(|s| s.progress.finish())
}

/// Run a declared [`hwgc_jobs::JobSet`] through the sweep session:
/// the shared result cache, stderr progress, `HWGC_WORKERS` process
/// fleet sizing and the `HWGC_JOURNAL` resumption journal. Outcomes come
/// back in job-set order regardless of execution engine, so callers can
/// rebuild their tables deterministically.
///
/// # Panics
/// Panics on cache/journal integrity violations and on worker-fleet
/// failures (the journal then holds exactly the completed jobs — rerun
/// the binary to resume).
pub fn sweep_jobset(name: &str, set: &hwgc_jobs::JobSet) -> hwgc_jobs::ExecReport {
    let session = sweep_begin(name, set.len());
    let journal = hwgc_jobs::journal_path_from_env().map(|p| {
        let j = hwgc_jobs::Journal::open(&p, name, set)
            .unwrap_or_else(|e| panic!("resumption journal: {e}"));
        if j.resumed() > 0 {
            eprintln!(
                "[journal] {}: resuming, {} of {} jobs already done",
                j.path().display(),
                j.resumed(),
                set.len()
            );
        }
        j
    });
    hwgc_jobs::run_jobset(
        set,
        &hwgc_jobs::ExecOptions {
            binary: binary_name(),
            cache: &session.cache,
            progress: Some(&session.progress),
            workers: hwgc_jobs::workers(),
            journal: journal.as_ref(),
        },
    )
    .unwrap_or_else(|e| panic!("{name} sweep failed: {e}"))
}

/// The typed artifact store every experiment binary writes into
/// (`HWGC_ARTIFACTS`, default `target/experiments/`).
pub fn artifacts() -> ArtifactStore {
    ArtifactStore::open_default()
}

/// Directory that experiment CSV files are written to.
pub fn experiments_dir() -> PathBuf {
    artifacts().root().to_path_buf()
}

/// Write `rows` (already comma-joined) to `target/experiments/<name>.csv`
/// with the given header, and tell the user where it went.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = artifacts().csv(name, header, rows);
    println!("\n[csv] {}", path.display());
}

/// Format a fraction as the paper prints it: `12.34 %`.
pub fn pct(fraction: f64) -> String {
    format!("{:.2} %", fraction * 100.0)
}

/// The paper's seven Table II stall columns, in column order, with the
/// snake_case names the CSV and metrics JSON use.
pub const STALL_COLUMNS: [(&str, StallReason); 7] = [
    ("scan_lock", StallReason::ScanLock),
    ("free_lock", StallReason::FreeLock),
    ("header_lock", StallReason::HeaderLock),
    ("body_load", StallReason::BodyLoad),
    ("body_store", StallReason::BodyStore),
    ("header_load", StallReason::HeaderLoad),
    ("header_store", StallReason::HeaderStore),
];

/// One verified collection with the full event bus attached: the classic
/// [`SignalTrace`] (rows + SB event log for the CSV view) and an
/// [`hwgc_obs::Recorder`] (the complete typed stream for the Chrome
/// exporter and the metrics deriver) fan out from a *single* probed run,
/// so every export of the run describes the same collection.
pub fn run_probed_heap(
    heap: &mut Heap,
    cfg: GcConfig,
    label: &str,
    sample_every: u64,
) -> (GcOutcome, SignalTrace, Recording) {
    let snap = Snapshot::capture(heap);
    let mut trace = SignalTrace::with_events(sample_every);
    let mut recorder = Recorder::new();
    let out = {
        let mut trace_probe = trace.as_probe();
        let mut fan = Fanout(&mut trace_probe, &mut recorder);
        SimCollector::new(cfg).collect_probed(heap, &mut fan)
    };
    verify_collection(heap, out.free, &snap)
        .unwrap_or_else(|e| panic!("{label} failed verification: {e}"));
    (out, trace, recorder.into_recording())
}

/// [`run_probed_heap`] on a preset workload.
pub fn run_probed(
    spec: &WorkloadSpec,
    cfg: GcConfig,
    sample_every: u64,
) -> (GcOutcome, SignalTrace, Recording) {
    let mut heap = spec.build();
    run_probed_heap(&mut heap, cfg, &spec.preset.to_string(), sample_every)
}

/// Exporter context for a run.
pub fn run_meta(name: &str, n_cores: usize, out: &GcOutcome) -> RunMeta {
    RunMeta {
        name: name.to_string(),
        n_cores,
        total_cycles: out.stats.total_cycles,
    }
}

/// The classic `trace_dump` text report: headline numbers plus a coarse
/// 40-bucket timeline of the gray population (`#`) and busy cores (`*`),
/// and latency percentiles (p50/p95/p99) of the run's wait and
/// stall-span histograms from `metrics`.
pub fn render_trace_summary(
    label: &str,
    cores: usize,
    out: &GcOutcome,
    trace: &SignalTrace,
    metrics: &MetricsRegistry,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "total cycles: {}", out.stats.total_cycles);
    let _ = writeln!(s, "peak gray population: {} words", trace.peak_gray_words());
    let _ = writeln!(
        s,
        "mean busy cores: {:.2} / {cores}",
        trace.mean_busy_cores()
    );
    let percentiled: Vec<&str> = metrics
        .histogram_names()
        .filter(|n| n.ends_with(".wait_cycles") || n.ends_with(".span_cycles"))
        .filter(|n| metrics.histogram_ref(n).is_some_and(|h| h.count() > 0))
        .collect();
    if !percentiled.is_empty() {
        let _ = writeln!(s, "\n  latency percentiles (cycles)");
        let _ = writeln!(
            s,
            "  {:<28} {:>8} {:>6} {:>6} {:>6}",
            "histogram", "count", "p50", "p95", "p99"
        );
        for name in percentiled {
            let h = metrics.histogram_ref(name).unwrap();
            let _ = writeln!(
                s,
                "  {:<28} {:>8} {:>6} {:>6} {:>6}",
                name,
                h.count(),
                h.p50().unwrap(),
                h.p95().unwrap(),
                h.p99().unwrap()
            );
        }
    }
    let rows = trace.rows();
    let buckets = 40.min(rows.len());
    if buckets > 0 {
        let peak = trace.peak_gray_words().max(1);
        let _ = writeln!(s, "\n  t%   gray-words (#) and busy cores (*)");
        for b in 0..buckets {
            let idx = b * rows.len() / buckets;
            let r = &rows[idx];
            let gbar = (r.gray_words as usize * 30 / peak as usize).min(30);
            let bbar = r.busy_cores as usize * 30 / cores;
            let _ = writeln!(
                s,
                "{:4} {:<31} {:<31}",
                b * 100 / buckets,
                "#".repeat(gbar.max(usize::from(r.gray_words > 0))),
                "*".repeat(bbar)
            );
        }
    }
    let _ = label;
    s
}

/// The signal-trace CSV as a string (one row per sample).
pub fn trace_csv(trace: &SignalTrace) -> String {
    let mut buf = Vec::new();
    trace.write_csv(&mut buf).expect("csv into memory");
    String::from_utf8(buf).expect("csv is utf-8")
}

/// Chrome trace-event / Perfetto JSON for a probed run.
pub fn chrome_trace(name: &str, cores: usize, out: &GcOutcome, recording: &Recording) -> String {
    chrome_trace_json(recording, &run_meta(name, cores, out))
}

/// Per-core stall cycles as flamegraph-ready folded stacks
/// (`core3;HeaderLock 1845`), one frame per Table II stall cause plus the
/// idle causes (`EmptySpin`, `Drain`).
pub fn stall_folded(stats: &GcStats) -> FoldedStacks {
    let mut folded = FoldedStacks::new();
    for (i, core) in stats.per_core.iter().enumerate() {
        let frame = format!("core{i}");
        for (name, cycles) in [
            ("ScanLock", core.scan_lock),
            ("FreeLock", core.free_lock),
            ("HeaderLock", core.header_lock),
            ("BodyLoad", core.body_load),
            ("BodyStore", core.body_store),
            ("HeaderLoad", core.header_load),
            ("HeaderStore", core.header_store),
            ("EmptySpin", core.empty_spin),
            ("Drain", core.drain),
        ] {
            folded.add(&[&frame, name], cycles);
        }
    }
    folded
}

/// Fold the engine's [`GcStats`] counters into `reg` under `prefix`:
/// total/stall-cycle counters plus the per-cause stall *fractions* as
/// gauges. This is the bridge for
/// consumers that have statistics but no recorded event stream.
pub fn record_stats(reg: &mut MetricsRegistry, prefix: &str, stats: &GcStats) {
    reg.counter_add(&format!("{prefix}.total_cycles"), stats.total_cycles);
    reg.gauge_set(&format!("{prefix}.n_cores"), stats.per_core.len() as f64);
    for (name, reason) in STALL_COLUMNS {
        reg.counter_add(
            &format!("{prefix}.stall.{name}"),
            match reason {
                StallReason::ScanLock => stats.stall.scan_lock,
                StallReason::FreeLock => stats.stall.free_lock,
                StallReason::HeaderLock => stats.stall.header_lock,
                StallReason::BodyLoad => stats.stall.body_load,
                StallReason::BodyStore => stats.stall.body_store,
                StallReason::HeaderLoad => stats.stall.header_load,
                StallReason::HeaderStore => stats.stall.header_store,
                StallReason::EmptySpin | StallReason::Drain => unreachable!(),
            },
        );
        reg.gauge_set(
            &format!("{prefix}.stall_frac.{name}"),
            stats.stall_fraction(reason),
        );
    }
}

/// The full metrics registry for a probed run: everything
/// [`derive_metrics`] reconstructs from the event stream (lock wait/hold
/// histograms per kind, contention pairs, port counters, …) plus the
/// engine's own statistics under `stats.`.
pub fn metrics_for_run(
    name: &str,
    cores: usize,
    out: &GcOutcome,
    recording: &Recording,
) -> MetricsRegistry {
    let mut reg = derive_metrics(recording, &run_meta(name, cores, out));
    record_stats(&mut reg, "stats", &out.stats);
    reg
}

/// The full bottleneck report (blame matrix, critical path, what-if
/// predictions) of a probed run. `dram_bandwidth` must be the run's
/// `MemConfig.bandwidth` — the what-if predictor's queue model needs it.
pub fn report_for_run(
    name: &str,
    cores: usize,
    out: &GcOutcome,
    recording: &Recording,
    dram_bandwidth: u32,
) -> RunReport {
    RunReport::analyze(recording, &run_meta(name, cores, out), dram_bandwidth)
}

/// Assert the blame matrix is *conservative-complete* against the
/// engine's own stall counters: for every stall class, the attributed
/// cycles (the blame row total, and its per-core slices) equal the
/// corresponding `GcStats` counter exactly — every stall cycle is
/// attributed once, none invented. Also re-checks the report's internal
/// invariants (rows sum to class totals; the critical path partitions
/// the run).
///
/// # Panics
/// Panics with a per-class diagnostic on any mismatch.
pub fn assert_blame_reconciles(report: &RunReport, stats: &GcStats) {
    report.validate().unwrap_or_else(|e| panic!("{e}"));
    for reason in StallReason::ALL {
        let name = reason.name();
        let attributed = report.blame.class_total(name);
        let counted = stats.stall.get(reason);
        assert_eq!(
            attributed, counted,
            "blame row `{name}` has {attributed} cycles, engine counted {counted}"
        );
        for (i, core) in stats.per_core.iter().enumerate() {
            let attributed = report.blame.per_core_matching(i, |class, _| class == name);
            let counted = core.get(reason);
            assert_eq!(
                attributed, counted,
                "core{i} blame `{name}` has {attributed} cycles, engine counted {counted}"
            );
        }
    }
}

/// Print a fixed-width table row.
pub fn row<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>w$}", c.as_ref(), w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

// ---------------------------------------------------------------------------
// Host self-profiling + run ledger (PR 8)
// ---------------------------------------------------------------------------

/// One verified collection with the host profiler attached. The profiler
/// never influences the simulation — `collect_hostprof` produces
/// bit-identical [`GcStats`] to `collect` (enforced by the
/// `hostprof_differential` test) — so callers may substitute this for
/// [`run_verified_heap`] freely.
pub fn run_hostprof_heap(heap: &mut Heap, cfg: GcConfig, label: &str) -> (GcOutcome, HostProfiler) {
    let snap = Snapshot::capture(heap);
    let mut prof = HostProfiler::new();
    let out = SimCollector::new(cfg).collect_hostprof(heap, &mut prof);
    verify_collection(heap, out.free, &snap)
        .unwrap_or_else(|e| panic!("{label} failed verification: {e}"));
    (out, prof)
}

/// [`run_hostprof_heap`] on a preset workload.
pub fn run_hostprof(spec: &WorkloadSpec, cfg: GcConfig) -> (GcOutcome, HostProfiler) {
    let mut heap = spec.build();
    run_hostprof_heap(&mut heap, cfg, &spec.preset.to_string())
}

/// Build one [`LedgerRecord`] for a finished run. Deterministic efficacy
/// counters come from the profiler's counter map; wall-clock timers are
/// quarantined into the record's `host` fields (serialized with a `host_`
/// prefix so downstream tooling can strip them before diffing records
/// across machines).
pub fn ledger_record(
    binary: &str,
    workload: &str,
    cfg: &GcConfig,
    stats: &GcStats,
    sb_fingerprint: Option<u64>,
    prof: Option<&HostProfiler>,
) -> LedgerRecord {
    let mut rec = LedgerRecord {
        binary: binary.to_string(),
        workload: workload.to_string(),
        engine: engine_label(cfg).to_string(),
        backend: backend_label(cfg).to_string(),
        config: ledger_config_pairs(cfg),
        env: ledger_env_pairs(),
        stats_digest: stats.digest(),
        total_cycles: Some(stats.total_cycles),
        sb_fingerprint,
        efficacy: Vec::new(),
        result: None,
        host: Vec::new(),
    };
    if let Some(p) = prof {
        rec.efficacy = p.counters().map(|(k, v)| (k.to_string(), v)).collect();
        for (k, t) in p.timers() {
            rec.host
                .push((format!("time.{k}.total_ns"), Json::Int(t.total_ns as i128)));
            rec.host
                .push((format!("time.{k}.count"), Json::Int(t.count as i128)));
        }
    }
    rec
}

/// Append `rec` to the JSONL ledger at `path`.
///
/// # Panics
/// Panics on I/O failure — a silently dropped ledger line defeats the
/// point of provenance.
pub fn append_ledger_to(rec: &LedgerRecord, path: &std::path::Path) {
    rec.append_jsonl(path)
        .unwrap_or_else(|e| panic!("ledger append to {} failed: {e}", path.display()));
}
