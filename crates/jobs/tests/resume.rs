//! Kill-and-resume drill for the multi-process engine: a worker abort is
//! injected mid-sweep (`HWGC_WORKER_ABORT_AFTER`), the run fails, and
//! the journal is checked to hold exactly the jobs that completed; the
//! resumed run replays those from the cache and executes only the
//! remainder, ending with outcomes identical to an uninterrupted run.
//!
//! Serialized into one `#[test]` because the abort injection is a
//! process-wide environment variable — parallel tests would leak it
//! into each other's fleets.

use std::path::{Path, PathBuf};

use hwgc_core::GcConfig;
use hwgc_jobs::{
    run_jobset, CacheMode, ConfigMatrix, ExecError, ExecOptions, JobSet, Journal, ResultCache,
};
use hwgc_workloads::Preset;

fn temp_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hwgc_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

/// The killed leg of the drill: run `set` with worker 0 told to die
/// after two completed jobs, and return the journal it leaves behind.
/// One worker, so the abort is deterministic: the worker dies when its
/// third job arrives, and on a fleet of two the other worker can steal
/// the rest of a small set first, in which case nothing ever fails.
fn killed_leg(set: &JobSet, cache_path: &Path, journal_path: &Path) -> String {
    std::env::set_var("HWGC_WORKER_ABORT_AFTER", "2");
    let killed = {
        let cache = ResultCache::open(CacheMode::Rw, &[], Some(cache_path)).unwrap();
        let journal = Journal::open(journal_path, "resume_drill", set).unwrap();
        assert_eq!(journal.resumed(), 0);
        run_jobset(
            set,
            &ExecOptions {
                binary: "resume_test".to_string(),
                cache: &cache,
                progress: None,
                workers: 1,
                journal: Some(&journal),
            },
        )
    };
    std::env::remove_var("HWGC_WORKER_ABORT_AFTER");
    match killed {
        Err(ExecError::Worker { .. }) => {}
        Err(other) => panic!("expected a worker failure, got: {other}"),
        Ok(_) => panic!("the aborted sweep must not report success"),
    }
    std::fs::read_to_string(journal_path).unwrap()
}

fn done_lines_of(journal_text: &str) -> Vec<&str> {
    journal_text
        .lines()
        .filter(|l| l.contains("\"kind\":\"done\""))
        .collect()
}

#[test]
fn aborted_sweep_journals_completions_and_resumes_with_only_the_remainder() {
    std::env::set_var("HWGC_WORKER_BIN", env!("CARGO_BIN_EXE_sweep_worker"));
    let set = ConfigMatrix::new(GcConfig::default())
        .presets([Preset::Jlisp, Preset::Compress, Preset::Javac])
        .cores([1usize, 2])
        .lower();
    assert_eq!(set.len(), 6);

    // Reference: the same set uninterrupted, in-process, uncached.
    let off = ResultCache::open(CacheMode::Off, &[], None).unwrap();
    let reference = run_jobset(
        &set,
        &ExecOptions {
            binary: "resume_test".to_string(),
            cache: &off,
            progress: None,
            workers: 0,
            journal: None,
        },
    )
    .unwrap();

    let cache_path = temp_file("resume_cache");
    let journal_path = temp_file("resume_journal");

    // Leg 1: worker 0 dies after 2 completed jobs. The run must fail
    // with a worker error, not panic and not hang.
    let journal_text = killed_leg(&set, &cache_path, &journal_path);

    // The journal holds exactly the completed jobs: every done line's
    // hash is in the set, done indices are unique, and the count is a
    // genuinely partial prefix of the sweep (> 0, < total). Every
    // journaled job also has its payload in the cache — that pairing is
    // what resumption replays.
    let done_lines = done_lines_of(&journal_text);
    assert_eq!(done_lines.len(), 2);
    let cache_text = std::fs::read_to_string(&cache_path).unwrap();
    for line in &done_lines {
        let hash = line
            .split("\"config_hash\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("done line carries a config hash");
        let hash = u64::from_str_radix(hash, 16).unwrap();
        assert!(
            set.hashes().contains(&hash),
            "journaled hash {hash:016x} is not in the sweep"
        );
        assert!(
            cache_text.contains(&format!("{hash:016x}")),
            "journaled job {hash:016x} has no cache payload to resume from"
        );
    }

    // Leg 2: reopen against the same journal and cache. The journal
    // resumes at the completed count, the completed jobs come back as
    // cache hits, and only the remainder executes on the fleet.
    let cache = ResultCache::open(CacheMode::Rw, &[], Some(&cache_path)).unwrap();
    let journal = Journal::open(&journal_path, "resume_drill", &set).unwrap();
    assert_eq!(journal.resumed(), done_lines.len());
    let resumed = run_jobset(
        &set,
        &ExecOptions {
            binary: "resume_test".to_string(),
            cache: &cache,
            progress: None,
            workers: 2,
            journal: Some(&journal),
        },
    )
    .unwrap();
    assert_eq!(resumed.skipped, done_lines.len(), "journaled jobs replay");
    assert_eq!(
        resumed.per_worker.iter().sum::<usize>(),
        set.len() - done_lines.len(),
        "the fleet executes exactly the remainder"
    );
    for (i, (out, _)) in resumed.outcomes.iter().enumerate() {
        assert_eq!(
            out.stats, reference.outcomes[i].0.stats,
            "job {i} diverged after resumption"
        );
    }

    // The journal now covers the full sweep: a third open resumes at
    // total, and a rerun executes nothing at all.
    let journal = Journal::open(&journal_path, "resume_drill", &set).unwrap();
    assert_eq!(journal.resumed(), set.len());

    // The killed leg is deterministic: ten times in a row it fails and
    // journals the same strict, non-empty prefix of the sweep.
    for round in 0..10 {
        let journal_text = killed_leg(
            &set,
            &temp_file("repeat_cache"),
            &temp_file("repeat_journal"),
        );
        assert_eq!(done_lines_of(&journal_text).len(), 2, "round {round}");
    }

    // A different sweep must never replay this journal.
    let other = ConfigMatrix::new(GcConfig::default())
        .presets([Preset::Jlisp])
        .lower();
    assert!(matches!(
        Journal::open(&journal_path, "resume_drill", &other),
        Err(hwgc_jobs::JournalError::PlanMismatch { .. })
    ));
}
