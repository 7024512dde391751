//! The resumption journal under hostile bytes: a real journal file
//! truncated, bit-flipped, shortened or spliced, and then opened.
//!
//! * `Journal::open` returns a journal or a typed `JournalError`; it
//!   never panics;
//! * a journal it accepts resumes exactly the `done` hashes its lines
//!   hold, and stays appendable: a completion recorded after the open is
//!   there at the next open;
//! * a journal cut anywhere — what a writer killed mid-append leaves —
//!   always opens, and resumes the completions wholly before the cut.
//!
//! `PROPTEST_CASES` raises the case count (CI runs this in release with
//! 20000).

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use hwgc_core::GcConfig;
use hwgc_jobs::{JobSet, Journal, JournalError, SimJob};
use hwgc_obs::json::Json;
use hwgc_obs::JobOutcome;
use hwgc_workloads::{Preset, WorkloadSpec};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Five jobs; the journal records the first four done.
fn set() -> &'static JobSet {
    static SET: OnceLock<JobSet> = OnceLock::new();
    SET.get_or_init(|| {
        JobSet::from_jobs([1, 2, 3, 4, 5].map(|n| SimJob {
            spec: WorkloadSpec::new(Preset::Jlisp, 42),
            cfg: GcConfig::with_cores(n),
        }))
    })
}

fn temp_file() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("hwgc_journal_props");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{}-{}.jsonl",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// The bytes of a journal holding a plan line and four completions.
fn journal() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = temp_file();
        let j = Journal::open(&path, "props", set()).unwrap();
        for (i, job) in set().jobs()[..4].iter().enumerate() {
            j.record_done(i, job, JobOutcome::Miss, i % 2).unwrap();
        }
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

/// The `done` hashes of `bytes`, read line by line as the journal
/// defines them: every line that parses, except an unterminated last
/// line that does not.
fn done_hashes(bytes: &[u8]) -> HashSet<u64> {
    bytes
        .split(|&b| b == b'\n')
        .filter_map(|line| Json::parse(std::str::from_utf8(line).ok()?.trim()).ok())
        .filter(|j| j.get("kind").and_then(Json::as_str) == Some("done"))
        .filter_map(|j| u64::from_str_radix(j.get("config_hash")?.as_str()?, 16).ok())
        .collect()
}

const SPLICE: &[&[u8]] = &[
    b"\n",
    b"\r\n",
    b"\"",
    b"{",
    b"}",
    b",",
    b":",
    b"\xff",
    b"\xc3",
    b"0",
    b"f",
    b"null",
    b"\"done\"",
    b"\"plan\"",
    b"\"kind\":\"done\"",
];

/// The journal truncated, bit-flipped, shortened by a byte or spliced
/// with a token, up to four times.
struct Mutated;

impl Strategy for Mutated {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let mut bytes = journal().to_vec();
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
                    bytes.splice(at..at, token.iter().copied());
                }
            }
        }
        bytes
    }
}

/// A cut anywhere in the journal.
struct Cut;

impl Strategy for Cut {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        (rng.next_u64() % (journal().len() as u64 + 1)) as usize
    }
}

/// Open `bytes` as a journal. When it opens, check that it resumed
/// exactly `done_hashes(bytes)` and that a fifth completion survives a
/// reopen.
fn open_and_check(bytes: &[u8]) -> Result<(), JournalError> {
    let path = temp_file();
    std::fs::write(&path, bytes).unwrap();
    let result = Journal::open(&path, "props", set()).map(|j| {
        let want = done_hashes(bytes);
        assert_eq!(
            j.resumed(),
            want.len(),
            "{:?}",
            String::from_utf8_lossy(bytes)
        );
        assert_eq!(j.done_count(), want.len());
        for &h in &want {
            assert!(j.completed(h));
        }
        j.record_done(4, &set().jobs()[4], JobOutcome::Miss, 0)
            .unwrap();
        drop(j);
        let again = Journal::open(&path, "props", set()).expect("a journal it wrote reopens");
        assert!(again.completed(set().hashes()[4]));
        assert_eq!(
            again.done_count(),
            want.len() + usize::from(!want.contains(&set().hashes()[4]))
        );
    });
    let _ = std::fs::remove_file(&path);
    result
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn mutated_journals_open_or_fail_typed(bytes in Mutated) {
        match open_and_check(&bytes) {
            Ok(()) | Err(JournalError::Corrupt(_)) | Err(JournalError::PlanMismatch { .. }) => {}
            Err(JournalError::Io(e)) => prop_assert!(false, "I/O error on a readable file: {e}"),
        }
    }

    #[test]
    fn a_journal_cut_anywhere_resumes(cut in Cut) {
        let bytes = &journal()[..cut];
        prop_assert!(open_and_check(bytes).is_ok(), "cut at {cut}");
        // The completions wholly before the cut.
        let whole = journal()[..cut]
            .split(|&b| b == b'\n')
            .filter(|l| l.starts_with(b"{") && l.ends_with(b"}") && l.windows(6).any(|w| w == b"\"done\""))
            .count();
        prop_assert_eq!(done_hashes(bytes).len(), whole);
    }
}
