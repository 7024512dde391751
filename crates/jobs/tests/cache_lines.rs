//! The identities the warm-cache path rests on, and the payload decoder
//! under hostile input:
//!
//! * `run_jobset` finds hits by `JobSet::hashes` and appends misses under
//!   `SimJob::cache_key`: both must name the same configuration;
//! * a cache file a cold sweep wrote loads and re-appends, record by
//!   record, to its own bytes, and each of its lines is the compact text
//!   of its own JSON tree;
//! * the payload decoder never panics on truncated, bit-flipped or
//!   spliced payloads, and reads a payload's text and its tree alike.

use std::path::PathBuf;
use std::sync::OnceLock;

use hwgc_core::GcConfig;
use hwgc_jobs::{
    outcome_from_json, outcome_from_text, outcome_to_json, run_jobset, simulate, CacheMode,
    ConfigMatrix, ExecOptions, JobSet, ResultCache, SimJob,
};
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig};
use hwgc_obs::json::Json;
use hwgc_obs::LedgerStore;
use hwgc_workloads::{Preset, WorkloadSpec};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn temp_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hwgc_cache_lines_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

fn small_set() -> JobSet {
    ConfigMatrix::new(GcConfig::default())
        .presets([Preset::Jlisp, Preset::Compress])
        .cores([1usize, 2])
        .backends([
            (MemBackendKind::Fixed, vec![0, 20]),
            (MemBackendKind::Dram(DramConfig::default()), vec![0]),
        ])
        .lower()
}

#[test]
fn set_hashes_are_cache_key_hashes() {
    let set = small_set();
    for (job, &hash) in set.jobs().iter().zip(set.hashes()) {
        assert_eq!(job.cache_key("any binary").config_hash(), hash);
        assert_eq!(job.config_hash(), hash);
    }
}

#[test]
fn a_cold_cache_file_holds_the_set_hashes_and_reappends_to_its_own_bytes() {
    let set = small_set();
    let path = temp_file("cold");
    let cache = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    let report = run_jobset(
        &set,
        &ExecOptions {
            binary: "cache_lines_test".to_string(),
            cache: &cache,
            progress: None,
            workers: 0,
            journal: None,
        },
    )
    .unwrap();
    assert_eq!(report.skipped, 0);

    // Every appended record carries the hash its lookup used.
    let (store, load) = LedgerStore::load_tolerant(&path).unwrap();
    assert!(load.quarantined.is_empty(), "{:?}", load.quarantined);
    assert_eq!(store.hashes(), set.canonical_hashes());

    let copy = temp_file("cold_copy");
    for rec in store.records() {
        rec.append_jsonl(&copy).unwrap();
    }
    let bytes = std::fs::read_to_string(&path).unwrap();
    assert_eq!(std::fs::read_to_string(&copy).unwrap(), bytes);
    for line in bytes.lines() {
        assert_eq!(Json::parse(line).unwrap().to_string_compact(), line);
    }

    // And the warm run finds every job by those hashes.
    let warm = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
    for &hash in set.hashes() {
        assert!(matches!(
            warm.lookup_hash(hash),
            Ok(hwgc_jobs::CacheLookup::Hit(_))
        ));
    }
}

/// A real payload: a 2-core DRAM `jlisp` collection, encoded.
fn payload() -> &'static str {
    static PAYLOAD: OnceLock<String> = OnceLock::new();
    PAYLOAD.get_or_init(|| {
        let job = SimJob {
            spec: WorkloadSpec::new(Preset::Jlisp, 42),
            cfg: GcConfig {
                n_cores: 2,
                mem: MemConfig::default().with_backend(MemBackendKind::Dram(DramConfig::default())),
                ..GcConfig::default()
            },
        };
        outcome_to_json(&simulate(&job)).to_string_compact()
    })
}

/// Truncate, flip a bit, delete a byte or splice in a token, up to four
/// times.
struct Mutated;

impl Strategy for Mutated {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const SPLICE: &[&str] = &["[", "]", "{", "}", ",", "-1", "0", "1e3", "null", "\"x\""];
        let mut bytes = payload().as_bytes().to_vec();
        for _ in 0..=rng.next_u64() % 4 {
            let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
            match rng.next_u64() % 4 {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= 1 << (rng.next_u64() % 8),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {
                    let token = SPLICE[(rng.next_u64() % SPLICE.len() as u64) as usize];
                    bytes.splice(at..at, token.bytes());
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn the_payload_decoder_never_panics(text in Mutated) {
        let from_text = outcome_from_text(&text);
        prop_assert!(from_text.is_err() || Json::parse(&text).is_ok(), "{}", text);
        if let Ok(doc) = Json::parse(&text) {
            let from_tree = outcome_from_json(&doc);
            prop_assert_eq!(from_text.is_ok(), from_tree.is_ok(), "{}", text);
            if let (Ok(a), Ok(b)) = (&from_text, &from_tree) {
                prop_assert_eq!(a.free, b.free);
                prop_assert_eq!(&a.stats, &b.stats);
            }
            if let Ok(outcome) = from_tree {
                // Whatever decodes is a whole outcome: it re-encodes and
                // decodes to the same digest.
                let again = outcome_from_json(&outcome_to_json(&outcome)).unwrap();
                prop_assert_eq!(again.stats.digest(), outcome.stats.digest());
            }
        }
    }
}
