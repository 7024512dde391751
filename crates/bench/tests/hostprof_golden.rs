//! Golden-file tests for the host profiler's *deterministic* efficacy
//! counters on the two reference regimes of the par-window engine and
//! on the sparse engine's DRAM regime:
//!
//! * **compress/16c, +20 latency** — the window-rich configuration (the
//!   one `par_smoke`'s traced leg fingerprints): the funnel fires, the
//!   window-length and copy-words histograms fill, and the park/wake
//!   counters show the copy streams the windows are carved from;
//! * **javac/16c, +0 latency** — the zero-window configuration: the
//!   committed golden *is* the quantitative answer to "why does javac
//!   fire no windows at 16 cores" — every attempt shows up under a
//!   `win.veto.*` reason instead of `win.fired`;
//! * **db/16c on the default DRAM backend, sparse engine** — sixteen
//!   cores parked on body traffic queued behind eight banks: the golden
//!   pins how much of that the all-parked jump skips
//!   (`engine.jump.all_parked{,_cycles}`, `engine.cycles_executed`,
//!   `engine.calendar.pops`) and the park/wake mix that gets it there.
//!
//! Only [`hwgc_obs::HostProfiler::deterministic_json`] is goldened —
//! counters and histograms, never timers, notes or spans. If a
//! wall-clock-dependent value ever leaks into that subset, these tests
//! go flaky on the spot, which is exactly the alarm they exist to raise
//! (alongside the cross-run stability check in the core crate's
//! `hostprof_differential` suite).
//!
//! To regenerate after an intentional counter change:
//! `HWGC_UPDATE_GOLDENS=1 cargo test -p hwgc-bench --test hostprof_golden`.

use std::path::PathBuf;

use hwgc_bench::run_hostprof;
use hwgc_core::{EngineKind, GcConfig};
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig};
use hwgc_obs::{validate_hostprof_json, Json};
use hwgc_workloads::{Preset, WorkloadSpec};

fn par_config(extra: u32) -> GcConfig {
    GcConfig {
        n_cores: 16,
        mem: MemConfig::default().with_extra_latency(extra),
        sparse: true,
        engine: Some(EngineKind::Par),
        // One host thread and threshold 1 so the dispatch/inline split is
        // machine-independent and every fired window reaches the pool.
        host_threads: 1,
        par_copy_threshold: 1,
        ..GcConfig::default()
    }
}

/// Render the deterministic subset one key per line so golden diffs read
/// like a counter changelog, not a JSON blob.
fn render(det: &Json) -> String {
    let mut out = String::new();
    for section in ["counters", "histograms"] {
        out.push_str(section);
        out.push('\n');
        if let Some(Json::Obj(pairs)) = det.get(section) {
            for (k, v) in pairs {
                out.push_str(&format!("  {k} {}\n", v.to_string_compact()));
            }
        }
    }
    out
}

fn golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join(name);
    if std::env::var_os("HWGC_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}; regenerate with HWGC_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if the change is intentional, \
         regenerate with HWGC_UPDATE_GOLDENS=1"
    );
}

#[test]
fn window_rich_compress_counters_match_golden() {
    let spec = WorkloadSpec::new(Preset::Compress, 42);
    let (_, prof) = run_hostprof(&spec, par_config(20));
    assert!(
        prof.counter("win.fired") > 0,
        "compress/16c +20 must fire windows — the golden would be vacuous"
    );
    validate_hostprof_json(&prof.to_json_string()).expect("hostprof JSON validates");
    golden(
        "hostprof_golden_compress16.txt",
        &render(&prof.deterministic_json()),
    );
}

#[test]
fn zero_window_javac_counters_match_golden() {
    let spec = WorkloadSpec::new(Preset::Javac, 42);
    let (_, prof) = run_hostprof(&spec, par_config(0));
    assert_eq!(
        prof.counter("win.fired"),
        0,
        "javac/16c +0 is the zero-window reference regime"
    );
    assert!(
        prof.counter_prefix_sum("win.veto.") > 0 || prof.counter("win.attempted") == 0,
        "zero fired windows must be explained by veto counters (or zero attempts)"
    );
    golden(
        "hostprof_golden_javac16.txt",
        &render(&prof.deterministic_json()),
    );
}

#[test]
fn dram_db_counters_match_golden() {
    let spec = WorkloadSpec::new(Preset::Db, 42);
    let cfg = GcConfig {
        mem: MemConfig::default().with_backend(MemBackendKind::Dram(DramConfig::default())),
        engine: Some(EngineKind::Sparse),
        ..par_config(0)
    };
    let (_, prof) = run_hostprof(&spec, cfg);
    assert!(
        prof.counter("engine.jump.all_parked_cycles") > 0,
        "db/16c on DRAM must jump bank-busy windows — the golden would be vacuous"
    );
    golden(
        "hostprof_golden_db16_dram.txt",
        &render(&prof.deterministic_json()),
    );
}
