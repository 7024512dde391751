//! The sweep resumption journal (`hwgc-sweep-journal-v1`): one JSONL
//! file per sweep recording, append-only, which jobs of a [`JobSet`]
//! have completed.
//!
//! Resumption is **journal ∪ cache**: the journal names the jobs a
//! previous (possibly killed) run finished; their *results* are
//! replayed from the content-addressed cache — which is why
//! [`crate::cache::sweep_cache_mode`] defaults sweeps to `rw`. A
//! journal therefore never carries payloads, only identities, and a
//! journaled job whose cache record has since vanished is simply
//! re-simulated (correct, just slower).
//!
//! The first line is a `plan` record carrying [`JobSet::digest`] — the
//! order-insensitive content hash of the whole set. A journal whose
//! plan digest disagrees with the sweep being resumed is a hard error:
//! replaying completion marks across *different* job sets would skip
//! jobs that never ran.

use std::collections::HashSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use hwgc_obs::json::Json;
use hwgc_obs::JobOutcome;

use crate::job::{workload_key, SimJob};
use crate::matrix::JobSet;

/// Schema tag of every journal line.
pub const JOURNAL_SCHEMA: &str = "hwgc-sweep-journal-v1";

/// A journal failure. I/O and digest mismatches are both hard errors —
/// a sweep must not resume over a journal it cannot trust.
#[derive(Debug)]
pub enum JournalError {
    Io(std::io::Error),
    /// The journal's plan line names a different job set.
    PlanMismatch {
        recorded: u64,
        expected: u64,
    },
    Corrupt(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::PlanMismatch { recorded, expected } => write!(
                f,
                "journal belongs to job set {recorded:016x}, this sweep is {expected:016x} — \
                 delete the journal or point HWGC_JOURNAL elsewhere"
            ),
            JournalError::Corrupt(msg) => write!(f, "corrupt journal: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

struct JournalInner {
    file: fs::File,
    done: HashSet<u64>,
}

/// An open, append-mode resumption journal. Thread-safe: coordinator
/// feeder threads record completions concurrently.
pub struct Journal {
    path: PathBuf,
    inner: Mutex<JournalInner>,
    resumed: usize,
}

impl Journal {
    /// Open (or create) the journal at `path` for `set`. An existing
    /// journal is validated against the set's digest and its completed
    /// hashes are loaded; a fresh one gets its plan line written.
    pub fn open(path: &Path, sweep: &str, set: &JobSet) -> Result<Journal, JournalError> {
        let expected = set.digest();
        let mut done = HashSet::new();
        let mut has_plan = false;
        if path.exists() {
            for (lineno, line) in fs::read_to_string(path)?.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let j = Json::parse(line).map_err(|e| {
                    JournalError::Corrupt(format!("{}:{}: {e}", path.display(), lineno + 1))
                })?;
                match j.get("kind").and_then(Json::as_str) {
                    Some("plan") => {
                        let recorded = j
                            .get("jobset")
                            .and_then(Json::as_str)
                            .and_then(|s| u64::from_str_radix(s, 16).ok())
                            .ok_or_else(|| {
                                JournalError::Corrupt("plan line lacks a jobset digest".into())
                            })?;
                        if recorded != expected {
                            return Err(JournalError::PlanMismatch { recorded, expected });
                        }
                        has_plan = true;
                    }
                    Some("done") => {
                        let hash = j
                            .get("config_hash")
                            .and_then(Json::as_str)
                            .and_then(|s| u64::from_str_radix(s, 16).ok())
                            .ok_or_else(|| {
                                JournalError::Corrupt("done line lacks a config_hash".into())
                            })?;
                        done.insert(hash);
                    }
                    // A truncated last line never parses (handled above);
                    // an unknown kind is a forward-compat skip.
                    _ => {}
                }
            }
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if !has_plan {
            let plan = Json::Obj(vec![
                ("schema".to_string(), Json::Str(JOURNAL_SCHEMA.into())),
                ("kind".to_string(), Json::Str("plan".into())),
                ("sweep".to_string(), Json::Str(sweep.to_string())),
                ("total".to_string(), Json::Int(set.len() as i128)),
                ("jobset".to_string(), Json::Str(format!("{expected:016x}"))),
            ]);
            plan.write_line(&mut file)?;
        }
        let resumed = done.len();
        Ok(Journal {
            path: path.to_path_buf(),
            inner: Mutex::new(JournalInner { file, done }),
            resumed,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Completions loaded from a previous run at open time.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Was this job already journaled as complete (by a previous run or
    /// earlier in this one)?
    pub fn completed(&self, config_hash: u64) -> bool {
        self.inner.lock().unwrap().done.contains(&config_hash)
    }

    /// Completions recorded so far (previous runs included).
    pub fn done_count(&self) -> usize {
        self.inner.lock().unwrap().done.len()
    }

    /// Record one completion. Idempotent per config hash — a resumed
    /// run's cache hits don't duplicate lines.
    pub fn record_done(
        &self,
        index: usize,
        job: &SimJob,
        how: JobOutcome,
        worker: usize,
    ) -> Result<(), JournalError> {
        let hash = job.config_hash();
        let mut inner = self.inner.lock().unwrap();
        if !inner.done.insert(hash) {
            return Ok(());
        }
        let line = Json::Obj(vec![
            ("schema".to_string(), Json::Str(JOURNAL_SCHEMA.into())),
            ("kind".to_string(), Json::Str("done".into())),
            ("index".to_string(), Json::Int(index as i128)),
            ("config_hash".to_string(), Json::Str(format!("{hash:016x}"))),
            ("workload".to_string(), Json::Str(workload_key(&job.spec))),
            ("outcome".to_string(), Json::Str(how.label().to_string())),
            ("worker".to_string(), Json::Int(worker as i128)),
        ]);
        line.write_line(&mut inner.file)?;
        inner.file.flush()?;
        Ok(())
    }
}

/// The journal path requested via `HWGC_JOURNAL`, if any.
pub fn journal_path_from_env() -> Option<PathBuf> {
    std::env::var("HWGC_JOURNAL")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwgc_core::GcConfig;
    use hwgc_workloads::{Preset, WorkloadSpec};

    fn tiny_set(cores: &[usize]) -> JobSet {
        JobSet::from_jobs(cores.iter().map(|&n| SimJob {
            spec: WorkloadSpec::new(Preset::Jlisp, 42),
            cfg: GcConfig::with_cores(n),
        }))
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hwgc-journal-tests");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn journal_records_and_reloads_completions() {
        let set = tiny_set(&[1, 2, 4]);
        let path = tmp("basic.jsonl");
        {
            let j = Journal::open(&path, "t", &set).unwrap();
            assert_eq!(j.resumed(), 0);
            j.record_done(0, &set.jobs()[0], JobOutcome::Miss, 0)
                .unwrap();
            j.record_done(2, &set.jobs()[2], JobOutcome::Miss, 1)
                .unwrap();
        }
        let j = Journal::open(&path, "t", &set).unwrap();
        assert_eq!(j.resumed(), 2);
        assert!(j.completed(set.hashes()[0]));
        assert!(!j.completed(set.hashes()[1]));
        assert!(j.completed(set.hashes()[2]));
    }

    #[test]
    fn journal_rejects_a_different_job_set() {
        let path = tmp("mismatch.jsonl");
        Journal::open(&path, "t", &tiny_set(&[1, 2])).unwrap();
        match Journal::open(&path, "t", &tiny_set(&[1, 2, 4])) {
            Err(err) => {
                assert!(matches!(err, JournalError::PlanMismatch { .. }), "{err}")
            }
            Ok(_) => panic!("journal accepted a different job set"),
        }
    }

    #[test]
    fn record_done_is_idempotent_per_hash() {
        let set = tiny_set(&[1]);
        let path = tmp("idempotent.jsonl");
        let j = Journal::open(&path, "t", &set).unwrap();
        j.record_done(0, &set.jobs()[0], JobOutcome::Miss, 0)
            .unwrap();
        j.record_done(0, &set.jobs()[0], JobOutcome::Hit, 0)
            .unwrap();
        drop(j);
        let lines = fs::read_to_string(&path).unwrap();
        assert_eq!(lines.lines().filter(|l| l.contains("\"done\"")).count(), 1);
    }
}
