//! Differential contract of the content-addressed result cache (the PR 9
//! acceptance gate): with `HWGC_CACHE=off` vs `rw`, every job produces a
//! digest-identical `GcOutcome`; a warm cache serves hits without
//! simulating; `verify` mode catches an injected stale record; and the
//! payload codec round-trips `GcStats` digest-exactly — including the
//! DRAM sub-stats the fixed backend omits.
//!
//! Tests never mutate the process environment (it is shared mutable
//! state across the test harness's threads): caches are opened with
//! explicit modes and paths, and the parallel legs ride `par_map`'s
//! default worker pool.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use hwgc_core::{GcConfig, GcOutcome, SimCollector};
use hwgc_jobs::{outcome_from_json, outcome_to_json, par_map, CacheError, CacheMode, ResultCache};
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig};
use hwgc_obs::json::{Json, RawJson};
use hwgc_obs::{JobOutcome, LedgerRecord, LedgerStore};
use hwgc_workloads::{Preset, WorkloadSpec};

/// The job matrix: small but engine/backend/core diverse.
fn matrix() -> Vec<(Preset, usize, bool)> {
    vec![
        (Preset::Compress, 1, false),
        (Preset::Compress, 4, false),
        (Preset::Javac, 4, false),
        (Preset::Javac, 4, true),
        (Preset::Jlisp, 16, false),
    ]
}

fn config(cores: usize, dram: bool) -> GcConfig {
    let mem = if dram {
        MemConfig::default().with_backend(MemBackendKind::Dram(DramConfig::default()))
    } else {
        MemConfig::default().with_extra_latency(20)
    };
    GcConfig {
        mem,
        ..GcConfig::with_cores(cores)
    }
}

fn simulate(preset: Preset, cores: usize, dram: bool) -> GcOutcome {
    let mut heap = WorkloadSpec::new(preset, 42).build();
    SimCollector::new(config(cores, dram)).collect(&mut heap)
}

/// The ledger identity of one matrix job (outputs left empty — the cache
/// fills them).
fn key(preset: Preset, cores: usize, dram: bool) -> LedgerRecord {
    LedgerRecord {
        binary: "cache_test".to_string(),
        workload: format!("{preset:?}/seed42"),
        engine: "sparse".to_string(),
        backend: if dram { "dram" } else { "fixed" }.to_string(),
        config: vec![
            ("n_cores".to_string(), cores.to_string()),
            ("dram".to_string(), dram.to_string()),
        ],
        env: Vec::new(),
        ..LedgerRecord::default()
    }
}

fn temp_cache_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hwgc_cache_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn payload_codec_round_trips_digest_exactly() {
    // Fixed and DRAM backends: the latter populates `mem.dram`, the
    // codec's only optional substructure.
    for (preset, cores, dram) in matrix() {
        let outcome = simulate(preset, cores, dram);
        let encoded = outcome_to_json(&outcome).to_string_compact();
        let decoded = outcome_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded.free, outcome.free);
        assert_eq!(decoded.stats, outcome.stats);
        assert_eq!(decoded.stats.digest(), outcome.stats.digest());
        assert_eq!(decoded.stats.mem.dram.is_some(), dram);
    }
}

#[test]
fn off_vs_rw_is_bit_exact_and_warm_cache_hits() {
    let path = temp_cache_file("off_vs_rw");
    let jobs = matrix();

    // Leg 1: cache off — the reference digests.
    let off = ResultCache::disabled();
    let reference: Vec<GcOutcome> = par_map(&jobs, |_, &(p, c, d)| {
        let (out, how) = off.run_cached(&key(p, c, d), || simulate(p, c, d)).unwrap();
        assert_eq!(how, JobOutcome::Miss);
        out
    });
    assert_eq!(off.counters().misses, jobs.len());

    // Leg 2: cold rw cache — all misses, digest-identical, payloads
    // appended.
    let cold = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    let cold_results: Vec<GcOutcome> = par_map(&jobs, |_, &(p, c, d)| {
        let (out, how) = cold
            .run_cached(&key(p, c, d), || simulate(p, c, d))
            .unwrap();
        assert_eq!(how, JobOutcome::Miss);
        out
    });
    assert_eq!(cold.counters().misses, jobs.len());

    // Leg 3: warm rw cache — all hits, nothing simulated, still
    // digest-identical.
    let warm = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    assert_eq!(warm.records_loaded(), jobs.len());
    let simulated = AtomicUsize::new(0);
    let warm_results: Vec<GcOutcome> = par_map(&jobs, |_, &(p, c, d)| {
        let (out, how) = warm
            .run_cached(&key(p, c, d), || {
                simulated.fetch_add(1, Ordering::Relaxed);
                simulate(p, c, d)
            })
            .unwrap();
        assert_eq!(how, JobOutcome::Hit);
        out
    });
    assert_eq!(
        simulated.load(Ordering::Relaxed),
        0,
        "hits must not simulate"
    );
    assert_eq!(warm.counters().hits, jobs.len());

    for ((a, b), c) in reference.iter().zip(&cold_results).zip(&warm_results) {
        assert_eq!(a.stats.digest(), b.stats.digest());
        assert_eq!(a.stats.digest(), c.stats.digest());
        assert_eq!(a.free, c.free);
        assert_eq!(a.stats, c.stats);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn verify_mode_catches_an_injected_stale_record() {
    let path = temp_cache_file("stale");
    let (p, c, d) = (Preset::Compress, 4, false);

    // Inject a *plausible* stale record: internally consistent (payload
    // digest matches the record's stats_digest) but recording a different
    // configuration's result under this configuration's key — exactly
    // what a cache poisoned by a simulator change looks like.
    let other = simulate(Preset::Javac, 4, false);
    let mut stale = key(p, c, d);
    stale.stats_digest = other.stats.digest();
    stale.total_cycles = Some(other.stats.total_cycles);
    stale.result = Some(RawJson::new(&outcome_to_json(&other)));
    stale.append_jsonl(&path).unwrap();

    // Plain rw mode trusts the internally-consistent record (that is the
    // point of verify mode existing).
    let trusting = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    let (out, how) = trusting
        .run_cached(&key(p, c, d), || simulate(p, c, d))
        .unwrap();
    assert_eq!(how, JobOutcome::Hit);
    assert_eq!(out.stats.digest(), other.stats.digest());

    // Verify mode with 100% sampling re-simulates and must refuse.
    let paranoid = ResultCache::open(CacheMode::Verify, &[], Some(&path))
        .unwrap()
        .with_verify_sampling(100, 0);
    let err = paranoid
        .run_cached(&key(p, c, d), || simulate(p, c, d))
        .unwrap_err();
    match err {
        CacheError::StaleRecord {
            verified,
            recorded,
            fresh,
            ..
        } => {
            assert!(verified);
            assert_eq!(recorded, other.stats.digest());
            assert_eq!(fresh, simulate(p, c, d).stats.digest());
        }
        other => panic!("expected StaleRecord, got {other:?}"),
    }

    // 0% sampling means verify degrades to rw (the sampling knob works).
    let sampled_out = ResultCache::open(CacheMode::Verify, &[], Some(&path))
        .unwrap()
        .with_verify_sampling(0, 0);
    let (_, how) = sampled_out
        .run_cached(&key(p, c, d), || simulate(p, c, d))
        .unwrap();
    assert_eq!(how, JobOutcome::Hit);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_payload_is_rejected_even_on_a_plain_hit() {
    let path = temp_cache_file("corrupt");
    let (p, c, d) = (Preset::Compress, 1, false);
    let real = simulate(p, c, d);
    let mut rec = key(p, c, d);
    rec.stats_digest = real.stats.digest();
    // Payload tampered after the digest was recorded.
    let mut tampered = real.clone();
    tampered.stats.total_cycles += 1;
    rec.result = Some(RawJson::new(&outcome_to_json(&tampered)));
    rec.append_jsonl(&path).unwrap();

    let cache = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    let err = cache
        .run_cached(&key(p, c, d), || simulate(p, c, d))
        .unwrap_err();
    assert!(matches!(err, CacheError::CorruptPayload { .. }), "{err:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn digest_only_records_become_regression_assertions() {
    // The committed BENCH_ledger.jsonl shape: digest, no payload. The
    // default ro mode must still simulate, then cross-check.
    let path = temp_cache_file("digest_only");
    let (p, c, d) = (Preset::Jlisp, 4, false);
    let real = simulate(p, c, d);
    let mut rec = key(p, c, d);
    rec.stats_digest = real.stats.digest();
    rec.total_cycles = Some(real.stats.total_cycles);
    rec.append_jsonl(&path).unwrap();

    let cache = ResultCache::open(CacheMode::Ro, &[&path], None).unwrap();
    let simulated = AtomicUsize::new(0);
    let (out, how) = cache
        .run_cached(&key(p, c, d), || {
            simulated.fetch_add(1, Ordering::Relaxed);
            simulate(p, c, d)
        })
        .unwrap();
    assert_eq!(how, JobOutcome::DigestCheck);
    assert_eq!(simulated.load(Ordering::Relaxed), 1);
    assert_eq!(out.stats.digest(), real.stats.digest());
    assert_eq!(cache.counters().digest_checks, 1);

    // A drifted digest-only record must hard-fail the run.
    let mut drifted = rec.clone();
    drifted.stats_digest ^= 1;
    let drifted_path = temp_cache_file("digest_only_drifted");
    drifted.append_jsonl(&drifted_path).unwrap();
    let cache = ResultCache::open(CacheMode::Ro, &[&drifted_path], None).unwrap();
    let err = cache
        .run_cached(&key(p, c, d), || simulate(p, c, d))
        .unwrap_err();
    match err {
        CacheError::StaleRecord { verified, .. } => assert!(!verified),
        other => panic!("expected StaleRecord, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&drifted_path);
}

#[test]
fn conflicting_cache_sources_hard_fail_at_open() {
    let path = temp_cache_file("conflict");
    let mut a = key(Preset::Compress, 4, false);
    a.stats_digest = 7;
    a.append_jsonl(&path).unwrap();
    let mut b = key(Preset::Compress, 4, false);
    b.stats_digest = 8;
    b.append_jsonl(&path).unwrap();
    let err = match ResultCache::open(CacheMode::Ro, &[&path], None) {
        Err(e) => e,
        Ok(_) => panic!("conflicting sources must fail open"),
    };
    assert!(matches!(err, CacheError::Load(_)), "{err:?}");
    assert!(err.to_string().contains("stats_digest"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn parallel_workers_count_and_replay_deterministically() {
    // Hit/miss/verify determinism with par_map's full worker pool
    // (HWGC_JOBS semantics: the pool defaults to available parallelism).
    let path = temp_cache_file("parallel");
    // Duplicate each matrix job 4x: within one cold pass, the first
    // worker to finish a config appends it, but same-process lookups hit
    // the preloaded store only — so every duplicate still simulates
    // (misses), and the appended file holds mergeable duplicates.
    let mut jobs = Vec::new();
    for _ in 0..4 {
        jobs.extend(matrix());
    }
    let cold = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    let cold_digests: Vec<u64> = par_map(&jobs, |_, &(p, c, d)| {
        let (out, how) = cold
            .run_cached(&key(p, c, d), || simulate(p, c, d))
            .unwrap();
        assert_eq!(how, JobOutcome::Miss);
        out.stats.digest()
    });
    assert_eq!(cold.counters().misses, jobs.len());

    // Identical duplicates merge cleanly; the file loads into one record
    // per distinct config.
    let store = LedgerStore::load(&path).unwrap();
    assert_eq!(store.len(), matrix().len());

    // Warm parallel pass: all hits, digests replayed in deterministic
    // input order.
    let warm = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    let warm_digests: Vec<u64> = par_map(&jobs, |_, &(p, c, d)| {
        let (out, how) = warm
            .run_cached(&key(p, c, d), || simulate(p, c, d))
            .unwrap();
        assert_eq!(how, JobOutcome::Hit);
        out.stats.digest()
    });
    assert_eq!(warm.counters().hits, jobs.len());
    assert_eq!(cold_digests, warm_digests);
    let _ = std::fs::remove_file(&path);
}
