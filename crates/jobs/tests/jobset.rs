//! Job-set canonical-form properties and the cross-engine determinism
//! contract: lowering dedupes order-insensitively with a stable digest,
//! the job codec round-trips every drawn configuration, and a set run
//! in-process is byte-identical — outcome vector, cache records, and
//! any artifact derived from them — to the same set run across a
//! `sweep_worker` process fleet.

use std::path::PathBuf;

use hwgc_core::GcConfig;
use hwgc_jobs::{
    job_from_json, job_to_json, run_jobset, CacheMode, ConfigMatrix, ExecOptions, JobSet,
    ResultCache, SimJob,
};
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig, PagePolicy};
use hwgc_obs::json::Json;
use hwgc_workloads::{Preset, WorkloadSpec};
use proptest::prelude::*;

fn temp_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hwgc_jobset_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

/// A drawn combo: preset index, core count, extra latency, DRAM flag
/// (the vendored proptest has no bool strategy, so 0/1 stands in).
type Combo = (usize, usize, u32, u32);

fn job_of(combo: Combo) -> SimJob {
    let (pi, cores, extra, dram) = combo;
    let presets = [Preset::Compress, Preset::Javac, Preset::Jlisp];
    let backend = if dram == 1 {
        MemBackendKind::Dram(DramConfig::default())
    } else {
        MemBackendKind::Fixed
    };
    SimJob {
        spec: WorkloadSpec::new(presets[pi % presets.len()], 42),
        cfg: GcConfig {
            n_cores: 1 + cores % 16,
            mem: MemConfig::default()
                .with_extra_latency(extra % 32)
                .with_backend(backend),
            ..GcConfig::default()
        },
    }
}

proptest! {
    /// Dedupe is content-based and order-insensitive: however the same
    /// combos are ordered (or repeated), the resulting set has the same
    /// digest and the same canonical hash list.
    #[test]
    fn dedupe_is_order_insensitive_and_digest_stable(
        combos in prop::collection::vec((0usize..3, 0usize..16, 0u32..32, 0u32..2), 1..24),
        rot in 0usize..24,
    ) {
        let fwd: Vec<SimJob> = combos.iter().copied().map(job_of).collect();
        let mut rotated = fwd.clone();
        let pivot = rot % rotated.len().max(1);
        rotated.rotate_left(pivot);
        let mut doubled = fwd.clone();
        doubled.extend(fwd.iter().copied());

        let a = JobSet::from_jobs(fwd);
        let b = JobSet::from_jobs(rotated);
        let c = JobSet::from_jobs(doubled);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.digest(), c.digest());
        prop_assert_eq!(a.canonical_hashes(), b.canonical_hashes());
        // Doubling the input changes only the duplicate count: the
        // second copy is dropped wholesale on top of the first's dups.
        prop_assert_eq!(a.len(), c.len());
        prop_assert_eq!(c.duplicates(), a.len() + 2 * a.duplicates());
        // First occurrence wins: every kept hash is the combo's first.
        let mut seen = std::collections::HashSet::new();
        for (job, &hash) in a.jobs().iter().zip(a.hashes()) {
            prop_assert_eq!(job.config_hash(), hash);
            prop_assert!(seen.insert(hash));
        }
    }

    /// The wire codec round-trips every drawn job, hash included.
    #[test]
    fn job_codec_round_trips(
        combo in (0usize..3, 0usize..16, 0u32..32, 0u32..2),
        closed_page in 0u32..2,
    ) {
        let mut job = job_of(combo);
        if closed_page == 1 {
            if let MemBackendKind::Dram(d) = &mut job.cfg.mem.backend {
                d.page_policy = PagePolicy::Closed;
            }
        }
        let wire = job_to_json(&job).to_string_compact();
        let back = job_from_json(&Json::parse(&wire).unwrap()).unwrap();
        prop_assert_eq!(back, job);
        prop_assert_eq!(back.config_hash(), job.config_hash());
    }
}

#[test]
fn matrix_lowering_is_deterministic_and_deduped() {
    let lower = || {
        ConfigMatrix::new(GcConfig::default())
            .presets([Preset::Compress, Preset::Jlisp])
            .cores([1usize, 1, 4])
            .lower()
    };
    let a = lower();
    let b = lower();
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.len(), 4); // duplicate core count deduped
    assert_eq!(a.duplicates(), 2);
    let labels: Vec<String> = a.jobs().iter().map(SimJob::label).collect();
    assert_eq!(
        labels,
        b.jobs().iter().map(SimJob::label).collect::<Vec<_>>()
    );
}

/// Run `set` with a fresh private rw cache; return the report plus the
/// cache file's lines sorted (append order is scheduling-dependent, the
/// record *set* is not).
fn run_with_cache(set: &JobSet, tag: &str, workers: usize) -> (hwgc_jobs::ExecReport, Vec<String>) {
    let path = temp_file(tag);
    let cache = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    let report = run_jobset(
        set,
        &ExecOptions {
            binary: "jobset_test".to_string(),
            cache: &cache,
            progress: None,
            workers,
            journal: None,
        },
    )
    .unwrap_or_else(|e| panic!("{tag}: {e}"));
    let mut lines: Vec<String> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    lines.sort();
    (report, lines)
}

/// The cross-engine determinism contract: outcome vectors in index
/// order, the cache record sets, and an artifact rendered from the
/// outcomes are all identical between the in-process pool and a
/// two-worker process fleet.
#[test]
fn in_process_and_fleet_runs_are_byte_identical() {
    std::env::set_var("HWGC_WORKER_BIN", env!("CARGO_BIN_EXE_sweep_worker"));
    let set = ConfigMatrix::new(GcConfig::default())
        .presets([Preset::Jlisp, Preset::Compress])
        .cores([1usize, 2])
        .lower();

    let (inproc, inproc_records) = run_with_cache(&set, "engine_inproc", 0);
    let (fleet, fleet_records) = run_with_cache(&set, "engine_fleet", 2);

    assert_eq!(inproc.skipped, 0);
    assert_eq!(fleet.skipped, 0);
    assert_eq!(fleet.per_worker.iter().sum::<usize>(), set.len());
    let render = |report: &hwgc_jobs::ExecReport| -> String {
        set.jobs()
            .iter()
            .zip(&report.outcomes)
            .map(|(job, (out, how))| {
                format!(
                    "{},{},{},{}\n",
                    job.label(),
                    out.stats.total_cycles,
                    out.stats.digest(),
                    how.label()
                )
            })
            .collect()
    };
    assert_eq!(render(&inproc), render(&fleet));
    assert_eq!(inproc_records, fleet_records);
}

/// A warm cache satisfies the whole set without any engine running; the
/// replayed outcomes match the executed ones bit for bit, and the cache
/// file keeps its bytes (a hit appends nothing).
#[test]
fn warm_cache_replay_matches_any_engine() {
    std::env::set_var("HWGC_WORKER_BIN", env!("CARGO_BIN_EXE_sweep_worker"));
    let set = ConfigMatrix::new(GcConfig::default())
        .presets([Preset::Jlisp])
        .cores([1usize, 2])
        .lower();
    let path = temp_file("warm_replay");
    let cache = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    let opts = |cache| ExecOptions {
        binary: "jobset_test".to_string(),
        cache,
        progress: None,
        workers: 2,
        journal: None,
    };
    let cold = run_jobset(&set, &opts(&cache)).unwrap();
    assert_eq!(cold.skipped, 0);

    let cold_bytes = std::fs::read(&path).unwrap();
    let warm_cache = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    let warm = run_jobset(&set, &opts(&warm_cache)).unwrap();
    assert_eq!(warm.skipped, set.len());
    assert_eq!(warm.per_worker, vec![0, 0]);
    assert_eq!(std::fs::read(&path).unwrap(), cold_bytes);
    for (i, (out, _)) in warm.outcomes.iter().enumerate() {
        assert_eq!(out.stats, cold.outcomes[i].0.stats);
        assert_eq!(out.free, cold.outcomes[i].0.free);
    }
}
