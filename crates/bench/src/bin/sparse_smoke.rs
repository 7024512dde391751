//! CI parity smoke for the event-driven engine: runs a preset ×
//! core-count × memory-latency matrix twice — the default engine (parks
//! and jumps) and the per-cycle reference loop (`fast_forward` off) —
//! and requires bit-identical `GcStats` and allocation frontier on every
//! combo, plus identical cycle-stamped SB event streams on a traced
//! sub-matrix. A machine-parseable parity report (one JSON line per
//! combo, with its simulated cycle count) is written for upload. Host
//! timing is not measured here; `benchmark/run.sh` owns it.
//!
//! ```text
//! sparse_smoke [--out <path>] [--expect-backend <fixed|dram>]
//! ```
//!
//! * `--out` — report path (default `target/sparse_smoke.json`),
//! * `--expect-backend` — assert the `HWGC_MEM_BACKEND` escape hatch:
//!   the process-default `MemConfig` must resolve to this memory
//!   backend. CI runs one leg with the variable unset and one with
//!   `HWGC_MEM_BACKEND=dram`, so the hatch is exercised end to end.
//!
//! The parity matrix itself carries a backend axis: every preset × cores
//! combo runs under the fixed-latency backend (both `extra_latency`
//! regimes) and under two bank/row DRAM backends (open- and closed-page),
//! each pinned explicitly on every side, so parity coverage is identical
//! in both CI legs; only the default is asserted. Any divergence prints
//! the combo and exits nonzero.

use std::fmt::Write as _;
use std::time::Instant;

use hwgc_core::{GcConfig, SignalTrace, SimCollector};
use hwgc_heap::Snapshot;
use hwgc_jobs::ConfigMatrix;
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig, PagePolicy};
use hwgc_workloads::{Preset, WorkloadSpec};

fn fail(msg: &str) -> ! {
    eprintln!("sparse_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn sparse_config(cores: usize, extra: u32, backend: MemBackendKind) -> GcConfig {
    GcConfig {
        n_cores: cores,
        mem: MemConfig::default()
            .with_extra_latency(extra)
            .with_backend(backend),
        ..GcConfig::default()
    }
}

fn reference_config(cores: usize, extra: u32, backend: MemBackendKind) -> GcConfig {
    GcConfig {
        fast_forward: false,
        ..sparse_config(cores, extra, backend)
    }
}

/// The backend axis of the parity matrix: the fixed model in both
/// latency regimes, and the DRAM model under both page policies (the
/// closed-page leg uses the fastest preset so CI wall clock stays flat).
fn backend_axis() -> Vec<(MemBackendKind, Vec<u32>)> {
    let closed = DramConfig {
        page_policy: PagePolicy::Closed,
        ..DramConfig::preset("80ns").expect("preset exists")
    };
    vec![
        (MemBackendKind::Fixed, vec![0, 20]),
        (MemBackendKind::Dram(DramConfig::default()), vec![0]),
        (MemBackendKind::Dram(closed), vec![0]),
    ]
}

/// Display label of a combo's memory backend (page policy included —
/// the two DRAM legs differ only there).
fn backend_name(backend: MemBackendKind) -> &'static str {
    match backend {
        MemBackendKind::Fixed => "fixed",
        MemBackendKind::Dram(d) => match d.page_policy {
            PagePolicy::Open => "dram-open",
            PagePolicy::Closed => "dram-closed",
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        })
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "target/sparse_smoke.json".to_string());

    if let Some(expect) = flag_value("--expect-backend") {
        let got = MemConfig::default().backend;
        let matches = match expect.as_str() {
            "fixed" => got == MemBackendKind::Fixed,
            "dram" => matches!(got, MemBackendKind::Dram(_)),
            other => fail(&format!("--expect-backend takes fixed|dram, got {other:?}")),
        };
        if !matches {
            fail(&format!(
                "HWGC_MEM_BACKEND hatch broken: default backend is {got:?}, expected \
                 {expect} (HWGC_MEM_BACKEND={:?})",
                std::env::var("HWGC_MEM_BACKEND").ok()
            ));
        }
        println!("sparse_smoke: default backend = {got:?} (as expected)");
    }

    let core_counts = [1usize, 4, 16];

    // The parity grid is one declared matrix over the event-driven
    // config; the reference side of every combo is derived from the job. Combos are
    // never cached — replaying a recorded result would defeat the
    // engine-parity differential — but they do report to the fleet
    // telemetry stream, so a batch run sees this binary's progress.
    let set = ConfigMatrix::new(sparse_config(1, 0, MemBackendKind::Fixed))
        .presets([Preset::Compress, Preset::Javac, Preset::Jlisp])
        .cores(core_counts)
        .backends(backend_axis())
        .lower();
    assert_eq!(set.duplicates(), 0, "parity combos must all be distinct");
    let session = hwgc_bench::sweep_begin("sparse_smoke", set.len());

    let mut report = String::new();
    report.push_str("{\n  \"schema\": \"hwgc-sparse-smoke-v3\",\n  \"combos\": [\n");
    let mut first = true;
    println!("    preset  cores      backend   extra        cycles");
    for job in set.jobs() {
        let (preset, cores) = (job.spec.preset, job.cfg.n_cores);
        let (extra, backend_name) = (job.cfg.mem.extra_latency, backend_name(job.cfg.mem.backend));
        let base = job.spec.build();
        let snap = Snapshot::capture(&base);
        // Host time feeds the fleet telemetry stream only; the report
        // carries none.
        let started = Instant::now();
        let run = |cfg: GcConfig| {
            let mut heap = base.clone();
            let out = SimCollector::new(cfg).collect(&mut heap);
            (out, heap)
        };

        let (sparse, sparse_heap) = run(job.cfg);
        hwgc_heap::verify_collection(&sparse_heap, sparse.free, &snap).unwrap_or_else(|e| {
            fail(&format!(
                "{}/{cores}c/{backend_name} +{extra}: sparse run failed \
                 verification: {e}",
                preset.name()
            ))
        });

        let (reference, _) = run(GcConfig {
            fast_forward: false,
            ..job.cfg
        });
        if sparse.stats != reference.stats || sparse.free != reference.free {
            fail(&format!(
                "{}/{cores}c/{backend_name} +{extra}: sparse diverged from the reference \
                 ({} vs {} total cycles)",
                preset.name(),
                sparse.stats.total_cycles,
                reference.stats.total_cycles
            ));
        }
        hwgc_bench::append_ledger(&hwgc_bench::ledger_record(
            "sparse_smoke",
            preset.name(),
            &job.cfg,
            &sparse.stats,
            None,
            None,
        ));

        session.progress.job(
            &format!("{}@{cores}c/{backend_name}+{extra}", preset.name()),
            hwgc_obs::JobOutcome::Miss,
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );

        println!(
            "{:>10}  {cores:>5}  {backend_name:>11}  {extra:>6}  {:>12}",
            preset.name(),
            sparse.stats.total_cycles,
        );
        let sep = if first { "" } else { ",\n" };
        first = false;
        let _ = write!(
            report,
            "{sep}    {{\"preset\": \"{}\", \"cores\": {cores}, \
             \"backend\": \"{backend_name}\", \"extra_latency\": {extra}, \
             \"cycles\": {}, \"parity\": true}}",
            preset.name(),
            sparse.stats.total_cycles,
        );
    }
    report.push_str("\n  ],\n");

    // Traced sub-matrix: the SB event log flips the park rule
    // for lock classes, and the event stream pins cycle stamps one by
    // one — the strictest parity surface.
    let mut traced = 0usize;
    let traced_backends = [
        ("fixed", MemBackendKind::Fixed, 20u32),
        ("dram-open", MemBackendKind::Dram(DramConfig::default()), 0),
    ];
    for cores in core_counts {
        for (backend_name, backend, extra) in traced_backends {
            let base = WorkloadSpec::new(Preset::Javac, 42).build();
            let traced_run = |cfg: GcConfig| {
                let mut trace = SignalTrace::with_events(1 << 40);
                let out = SimCollector::new(cfg).collect_traced(&mut base.clone(), &mut trace);
                (out.stats, trace)
            };
            let (reference, reference_trace) = traced_run(reference_config(cores, extra, backend));
            let (stats, trace) = traced_run(sparse_config(cores, extra, backend));
            let combo = format!("javac/{cores}c/{backend_name}");
            if stats != reference {
                fail(&format!("{combo} (traced): stats diverged"));
            }
            if trace.events() != reference_trace.events() {
                fail(&format!("{combo}: SB event streams diverged"));
            }
            if trace.rows() != reference_trace.rows() {
                fail(&format!("{combo}: trace rows diverged"));
            }
            traced += 1;
        }
    }
    println!(
        "traced parity: javac at {core_counts:?} cores x {{fixed +20, dram-open}}, \
         event streams identical"
    );
    let _ = writeln!(report, "  \"traced_combos\": {traced}");
    report.push_str("}\n");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out_path, report).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("[json] {out_path}");
    hwgc_bench::sweep_finish();
    println!("sparse_smoke: PASS");
}
