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
//! `--out`: one digest-only `hwgc-ledger-v1` record per
//! [`LEDGER_PRESETS`] entry, each from a host-profiled run of the
//! `experiments fig6_latency` job of that preset at 16 cores, keyed by
//! the job's own [`SimJob::cache_key`]. A sweep's result cache loads the
//! committed file, so a sweep that declares one of these jobs checks its
//! fresh digest against the record. Each record carries the run's
//! digest, cycles and deterministic efficacy counters and no `host_*`
//! field, and the file is written fresh and canonically (one record per
//! `config_hash`, sorted by hash), so it too is the same bytes on every
//! run; CI compares it with the committed copy as well.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use hwgc_bench::spec;
use hwgc_core::{GcConfig, SimCollector};
use hwgc_heap::{verify_collection, Snapshot};
use hwgc_jobs::SimJob;
use hwgc_memsim::MemConfig;
use hwgc_obs::LedgerStore;
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

/// The ledger's runs: the two 16-core regimes under the Figure 6
/// memory model (+20 cycles per access) — javac, the paper's headline
/// workload (lock-bound), and compress (long copy streams,
/// memory-bound).
const LEDGER_PRESETS: [Preset; 2] = [Preset::Javac, Preset::Compress];

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

/// Write the ledger companion at `path` from [`LEDGER_PRESETS`].
fn write_ledger(path: &Path) {
    let mut store = LedgerStore::new();
    for preset in LEDGER_PRESETS {
        let job = SimJob {
            spec: spec(preset),
            cfg: GcConfig {
                n_cores: 16,
                mem: MemConfig::default().with_extra_latency(20),
                ..GcConfig::default()
            },
        };
        let (run, prof) = hwgc_bench::run_hostprof(&job.spec, job.cfg);
        let mut rec = job.cache_key("bench_baseline");
        rec.stats_digest = run.stats.digest();
        rec.total_cycles = Some(run.stats.total_cycles);
        rec.efficacy = prof.counters().map(|(k, v)| (k.to_string(), v)).collect();
        store
            .insert(rec)
            .unwrap_or_else(|e| panic!("ledger records conflict: {e}"));
    }
    store
        .write_canonical(path)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[ledger] {} ({} records)", path.display(), store.len());
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
