//! Per-run bottleneck report: one probed collection analyzed end to end —
//! blame attribution of every stall cycle, critical-path extraction, and
//! what-if resource-relaxation predictions — rendered as markdown (for
//! humans) and JSON (`hwgc-report-v1`, for tooling and CI).
//!
//! ```text
//! gc_report [preset] [--cores N] [--scale F] [--extra-latency N]
//!           [--fifo N] [--out-dir DIR] [--hostprof-out FILE]
//!           [--ledger FILE] [--check]
//! ```
//!
//! Defaults: `cup`, 8 cores, scale 1.0, no extra latency, the default
//! FIFO, artifacts under `target/experiments/` as
//! `report_<preset>.{md,json}` plus a host-profile dump
//! (`hwgc-hostprof-v1`) as `report_<preset>_hostprof.json`.
//!
//! The report's **host performance** section comes from a second run of
//! the same heap and configuration with the [`HostProfiler`] attached
//! (the probe and the profiler ride separate doors): its deterministic
//! `engine.*` counters say how the loop spent the run — parks and wakes
//! by class, all-parked jumps, calendar pops.
//!
//! `--ledger FILE` appends one `hwgc-ledger-v1` JSONL
//! record of the simulation — config hash, stats digest and the profiled
//! run's efficacy counters.
//!
//! `--check` (what the CI `report-smoke` job runs) additionally asserts:
//!
//! 1. **probe parity** — a probe-off run of the identical heap produces
//!    identical `GcStats` (observation must not perturb the simulation);
//! 2. **conservative completeness** — every blame row (and its per-core
//!    slices) sums exactly to the engine's corresponding stall counter:
//!    every stall cycle attributed once, none invented;
//! 3. the critical path partitions the run's wall-clock cycles exactly;
//! 4. **hostprof parity** — the same probe-off run produces identical
//!    `GcStats` to the profiled run (self-observation must not perturb
//!    the simulation either), and the emitted hostprof JSON passes
//!    schema validation.

use hwgc_bench::{
    append_ledger_to, assert_blame_reconciles, experiments_dir, ledger_record, report_for_run,
    run_hostprof_heap, run_probed_heap, run_verified_heap,
};
use hwgc_core::{GcConfig, MAX_CORES};
use hwgc_memsim::MemConfig;
use hwgc_obs::{
    render_report_json, render_report_markdown, validate_hostprof_json, HostSection, LedgerStore,
};
use hwgc_workloads::{Preset, WorkloadSpec};

fn main() {
    let mut preset = Preset::Cup;
    let mut cores = 8usize;
    let mut scale = 1.0f64;
    let mut extra_latency = 0u32;
    let mut fifo: Option<usize> = None;
    let mut out_dir: Option<String> = None;
    let mut hostprof_out: Option<String> = None;
    let mut ledger: Option<String> = None;
    let mut check = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
                .clone()
        };
        match args[i].as_str() {
            "--cores" => {
                cores = value(i).parse().expect("--cores must be a number");
                assert!(
                    (1..=MAX_CORES).contains(&cores),
                    "--cores must lie in 1..={MAX_CORES}"
                );
                i += 2;
            }
            "--scale" => {
                scale = value(i).parse().expect("--scale must be a number");
                i += 2;
            }
            "--extra-latency" => {
                extra_latency = value(i).parse().expect("--extra-latency must be a number");
                i += 2;
            }
            "--fifo" => {
                fifo = Some(value(i).parse().expect("--fifo must be a number"));
                i += 2;
            }
            "--out-dir" => {
                out_dir = Some(value(i));
                i += 2;
            }
            "--hostprof-out" => {
                hostprof_out = Some(value(i));
                i += 2;
            }
            "--ledger" => {
                ledger = Some(value(i));
                i += 2;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            name => {
                preset = Preset::by_name(name).unwrap_or_else(|| panic!("unknown preset {name}"));
                i += 1;
            }
        }
    }

    let spec = WorkloadSpec {
        preset,
        seed: 42,
        scale,
    };
    let mem = MemConfig {
        header_fifo_capacity: fifo.unwrap_or(MemConfig::default().header_fifo_capacity),
        ..MemConfig::default().with_extra_latency(extra_latency)
    };
    let cfg = GcConfig {
        n_cores: cores,
        mem,
        ..GcConfig::default()
    };
    let label = preset.to_string();
    println!(
        "gc_report: {label} (scale {scale}), {cores} cores, +{extra_latency} latency, \
         FIFO {}\n",
        mem.header_fifo_capacity
    );

    let mut heap = spec.build();
    let (out, _trace, recording) = run_probed_heap(&mut heap, cfg, &label, 64);
    let report = report_for_run(&label, cores, &out, &recording, mem.bandwidth);

    // Second run of the same heap and configuration with the host
    // profiler attached: the report's host section (park/wake and jump
    // statistics, host time) describes *this* run.
    let mut prof_heap = spec.build();
    let (prof_out, prof) = run_hostprof_heap(&mut prof_heap, cfg, &label);
    let hostprof_json = prof.to_json_string();
    let report = report.with_host(HostSection::from_profiler(&prof));

    if check {
        let mut reference_heap = spec.build();
        let reference = run_verified_heap(&mut reference_heap, cfg, &label);
        assert_eq!(
            out.stats, reference.stats,
            "probe-on GcStats diverged from probe-off"
        );
        assert_eq!(out.free, reference.free, "probe-on free diverged");
        println!("[check] probe-on GcStats identical to probe-off");
        assert_blame_reconciles(&report, &out.stats);
        println!(
            "[check] blame matrix reconciles: every stall cycle of all {} classes attributed",
            hwgc_core::StallReason::COUNT
        );
        assert_eq!(
            prof_out.stats, reference.stats,
            "hostprof-on GcStats diverged from hostprof-off"
        );
        assert_eq!(prof_out.free, reference.free, "hostprof-on free diverged");
        println!("[check] hostprof-on GcStats identical to hostprof-off");
        validate_hostprof_json(&hostprof_json)
            .unwrap_or_else(|e| panic!("hostprof JSON failed validation: {e}"));
        println!(
            "[check] hostprof JSON validates against {}",
            hwgc_obs::HOSTPROF_SCHEMA
        );
    }

    let dir = out_dir
        .map(std::path::PathBuf::from)
        .unwrap_or_else(experiments_dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
    let write = |tag: &str, name: String, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("[{tag}] {}", path.display());
    };

    let md = render_report_markdown(&report);
    print!("{md}");
    write("markdown", format!("report_{label}.md"), &md);
    write(
        "json",
        format!("report_{label}.json"),
        &render_report_json(&report),
    );
    match hostprof_out {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            std::fs::write(&path, &hostprof_json)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("[hostprof] {}", path.display());
        }
        None => write(
            "hostprof",
            format!("report_{label}_hostprof.json"),
            &hostprof_json,
        ),
    }

    // Run ledger: one JSONL record for the simulation performed above,
    // carrying the probed run's stats and the profiled run's efficacy
    // counters (the same configuration, so the same config hash).
    // Before appending, cross-check the rendered stats against whatever
    // record the ledger already holds for that hash: a digest mismatch
    // means this binary and a previous run disagree about the same
    // configuration — fatal under `--check`.
    if let Some(path) = ledger.map(std::path::PathBuf::from) {
        let rec = ledger_record("gc_report", &label, &cfg, &out.stats, None, Some(&prof));
        let store = match LedgerStore::load_tolerant(&path) {
            Ok((store, _report)) => store,
            Err(e) if check => panic!("ledger {} failed to load: {e}", path.display()),
            Err(e) => {
                eprintln!("warning: ledger {} not cross-checked: {e}", path.display());
                LedgerStore::new()
            }
        };
        let hash = rec.config_hash();
        if let Some(prev) = store.get(hash) {
            if prev.stats_digest != rec.stats_digest {
                let msg = format!(
                    "ledger cross-check failed for config {hash:016x} ({label}): \
                     ledger has digest {:016x}, this run produced {:016x}",
                    prev.stats_digest, rec.stats_digest
                );
                if check {
                    panic!("{msg}");
                }
                eprintln!("warning: {msg}");
            } else {
                println!("[ledger] record cross-checked against {}", path.display());
                if check {
                    println!("[check] rendered stats match the ledger's recorded digest");
                }
            }
        }
        append_ledger_to(&rec, &path);
        println!("[ledger] {} (+1 record)", path.display());
    }
}
