//! Golden-file tests for the host profiler's *deterministic* efficacy
//! counters on the sparse engine's three reference regimes at 16 cores:
//!
//! * **compress/16c, +20 latency** — memory-bound copy streams: almost
//!   every cycle is an all-parked jump or a calendar pop, and the
//!   park/wake counters show the body-load/empty-spin mix behind it;
//! * **javac/16c, +0 latency** — lock-bound: header-lock and scan-lock
//!   parks dominate and the all-parked jump almost never fires;
//! * **db/16c on the default DRAM backend** — sixteen cores parked on
//!   body traffic queued behind eight banks: the golden pins how much of
//!   that the all-parked jump skips
//!   (`engine.jump.all_parked{,_cycles}`, `engine.cycles_executed`,
//!   `engine.calendar.pops`) and the park/wake mix that gets it there.
//!
//! Only [`hwgc_obs::HostProfiler::deterministic_json`] is goldened —
//! counters and histograms, never timers or spans. If a
//! wall-clock-dependent value ever leaks into that subset, these tests
//! go flaky on the spot, which is exactly the alarm they exist to raise
//! (alongside the cross-run stability check in the core crate's
//! `hostprof_differential` suite).
//!
//! To regenerate after an intentional counter change:
//! `HWGC_UPDATE_GOLDENS=1 cargo test -p hwgc-bench --test hostprof_golden`.

use std::path::PathBuf;

use hwgc_bench::run_hostprof;
use hwgc_core::GcConfig;
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig};
use hwgc_obs::{validate_hostprof_json, Json};
use hwgc_workloads::{Preset, WorkloadSpec};

fn config(extra: u32) -> GcConfig {
    GcConfig {
        n_cores: 16,
        mem: MemConfig::default().with_extra_latency(extra),
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
fn compress_counters_match_golden() {
    let spec = WorkloadSpec::new(Preset::Compress, 42);
    let (_, prof) = run_hostprof(&spec, config(20));
    assert!(
        prof.counter("engine.jump.all_parked") > 0,
        "compress/16c +20 must jump memory waits — the golden would be vacuous"
    );
    validate_hostprof_json(&prof.to_json_string()).expect("hostprof JSON validates");
    golden(
        "hostprof_golden_compress16.txt",
        &render(&prof.deterministic_json()),
    );
}

#[test]
fn javac_counters_match_golden() {
    let spec = WorkloadSpec::new(Preset::Javac, 42);
    let (_, prof) = run_hostprof(&spec, config(0));
    assert!(
        prof.counter("engine.park.header_lock") > 0,
        "javac/16c +0 must contend on header locks — the golden would be vacuous"
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
        ..config(0)
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
