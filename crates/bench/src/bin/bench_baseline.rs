//! Simulator baseline: the deterministic outputs of one verified
//! collection per preset × core count.
//!
//! ```text
//! bench_baseline [--out <path>]
//! ```
//!
//! Runs every preset (seed 42, default config) at 1, 4 and 16 cores,
//! verifies each collection against its pre-GC snapshot, and writes one
//! JSON line per combo to `--out` (default `BENCH_simulator.json` in the
//! current directory):
//!
//! ```text
//! {"preset": "javac", "cores": 4, "cycles": 106237, "stats_digest": "b02e8cc181711a8e", "allocs": 22}
//! ```
//!
//! * `cycles` — simulated `total_cycles`,
//! * `stats_digest` — [`GcStats::digest`](hwgc_core::GcStats::digest),
//!   which covers every stall and lock counter,
//! * `allocs` — the exact number of heap allocations (and reallocations)
//!   made by the `collect` call, counted by this binary's global
//!   allocator; heap construction, snapshot and verification stay
//!   outside the count.
//!
//! Nothing in the file depends on the host, so two runs write identical
//! bytes: CI regenerates it and compares it with the committed copy at
//! the repo root byte for byte, and `crates/check/tests/backend_pin.rs`
//! reproduces every `cycles` and `stats_digest`. Host timing is
//! `benchmark/run.sh`'s job, not this binary's.
//!
//! The binary also writes the `BENCH_ledger.jsonl` companion next to
//! `--out`: one `hwgc-ledger-v1` provenance record per
//! [`PROFILED_RUNS`] entry, each from a host-profiled run. The file is
//! maintained through [`LedgerStore`]: fresh records are merged with
//! whatever the file already holds (a fresh record wins a digest
//! conflict, with the drift reported — the file is being regenerated)
//! and the result is written canonically, one record per `config_hash`,
//! sorted by hash. Its `host_*` fields are the recording host's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use hwgc_bench::spec;
use hwgc_core::{GcConfig, SimCollector};
use hwgc_heap::{verify_collection, Snapshot};
use hwgc_memsim::MemConfig;
use hwgc_obs::{LedgerStore, StoreError};
use hwgc_workloads::Preset;

const USAGE: &str = "usage: bench_baseline [--out <path>]";

/// The core counts of the matrix: the paper's 1-core baseline, a
/// mid-size machine and the full 16-core coprocessor.
const CORES: [usize; 3] = [1, 4, 16];

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

/// The profiled ledger runs: the two 16-core regimes under the Figure 6
/// memory model (+20 cycles per access) — javac, the paper's headline
/// workload (lock-bound), and compress (long copy streams, memory-bound)
/// — as `(ledger workload, preset, cores)`.
const PROFILED_RUNS: &[(&str, Preset, usize)] = &[
    ("fig6-16c", Preset::Javac, 16),
    ("compress-16c", Preset::Compress, 16),
];

/// The report line for one verified collection of `preset` at `cores`.
fn combo_line(preset: Preset, cores: usize) -> String {
    let mut heap = spec(preset).build();
    let snap = Snapshot::capture(&heap);
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = SimCollector::new(GcConfig::with_cores(cores)).collect(&mut heap);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    verify_collection(&heap, out.free, &snap)
        .unwrap_or_else(|e| panic!("{}/{cores}c failed verification: {e}", preset.name()));
    format!(
        "{{\"preset\": \"{}\", \"cores\": {cores}, \"cycles\": {}, \
         \"stats_digest\": \"{:016x}\", \"allocs\": {allocs}}}",
        preset.name(),
        out.stats.total_cycles,
        out.stats.digest(),
    )
}

/// Regenerate the ledger companion at `path` from [`PROFILED_RUNS`],
/// merged with the file's existing records and written canonically.
fn write_ledger(path: &Path) {
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
    }
    match LedgerStore::load_tolerant(path) {
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
        Err(e) => eprintln!("[ledger] existing {} not merged: {e}", path.display()),
    }
    store
        .write_canonical(path)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!(
        "[ledger] {} ({} records, canonical)",
        path.display(),
        store.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = match args.as_slice() {
        [] => "BENCH_simulator.json",
        [flag, path] if flag == "--out" => path.as_str(),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let mut lines = Vec::new();
    for preset in Preset::ALL {
        for cores in CORES {
            let line = combo_line(preset, cores);
            println!("{line}");
            lines.push(line);
        }
    }
    let report = format!(
        "{{\n  \"schema\": \"hwgc-bench-baseline-v2\",\n  \"combos\": [\n    {}\n  ]\n}}\n",
        lines.join(",\n    ")
    );

    let out_dir = Path::new(out_path).parent().unwrap_or(Path::new(""));
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| panic!("create {}: {e}", out_dir.display()));
    std::fs::write(out_path, &report).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("[json] {out_path}");

    write_ledger(&out_dir.join("BENCH_ledger.jsonl"));
}
