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
use hwgc_obs::ledger::append_line;
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
    ///
    /// A final line without its newline that does not parse is what a
    /// writer killed mid-append leaves: it is cut off the file and the
    /// journal resumes without it. Any other line that is not UTF-8 or
    /// not JSON is [`JournalError::Corrupt`], naming its line.
    pub fn open(path: &Path, sweep: &str, set: &JobSet) -> Result<Journal, JournalError> {
        let expected = set.digest();
        let mut done = HashSet::new();
        let mut has_plan = false;
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let corrupt = |lineno: usize, msg: &dyn std::fmt::Display| {
            JournalError::Corrupt(format!("{}:{lineno}: {msg}", path.display()))
        };
        let mut torn_at = None;
        let mut start = 0;
        for (i, raw) in bytes.split(|&b| b == b'\n').enumerate() {
            let line_start = start;
            start += raw.len() + 1;
            let unterminated = start > bytes.len();
            let parsed = std::str::from_utf8(raw)
                .map_err(|e| corrupt(i + 1, &format_args!("not valid UTF-8: {e}")))
                .map(str::trim)
                .and_then(|line| match line {
                    "" => Ok(None),
                    line => Json::parse(line).map(Some).map_err(|e| corrupt(i + 1, &e)),
                });
            let j = match parsed {
                Ok(Some(j)) => j,
                Ok(None) => continue,
                Err(_) if unterminated => {
                    torn_at = Some(line_start);
                    break;
                }
                Err(e) => return Err(e),
            };
            let hash_field = |key: &str| {
                j.get(key)
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
            };
            match j.get("kind").and_then(Json::as_str) {
                Some("plan") => {
                    let recorded = hash_field("jobset").ok_or_else(|| {
                        JournalError::Corrupt("plan line lacks a jobset digest".into())
                    })?;
                    if recorded != expected {
                        return Err(JournalError::PlanMismatch { recorded, expected });
                    }
                    has_plan = true;
                }
                Some("done") => {
                    let hash = hash_field("config_hash").ok_or_else(|| {
                        JournalError::Corrupt("done line lacks a config_hash".into())
                    })?;
                    done.insert(hash);
                }
                // An unknown kind is a forward-compat skip.
                _ => {}
            }
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        if let Some(len) = torn_at {
            file.set_len(len as u64)?;
        }
        if !has_plan {
            let plan = Json::Obj(vec![
                ("schema".to_string(), Json::Str(JOURNAL_SCHEMA.into())),
                ("kind".to_string(), Json::Str("plan".into())),
                ("sweep".to_string(), Json::Str(sweep.to_string())),
                ("total".to_string(), Json::Int(set.len() as i128)),
                ("jobset".to_string(), Json::Str(format!("{expected:016x}"))),
            ]);
            append_json_line(&mut file, &plan)?;
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
        append_json_line(&mut inner.file, &line)?;
        inner.file.flush()?;
        Ok(())
    }
}

/// Append `value` as one line, on a fresh line if the file's last line
/// lacks its newline (see [`append_line`]).
fn append_json_line(file: &mut fs::File, value: &Json) -> std::io::Result<()> {
    let mut line = value.to_string_compact();
    line.push('\n');
    append_line(file, line.as_bytes())
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

    /// A done line as `record_done` writes it, cut to `keep` bytes.
    fn torn_done_line(path: &Path, keep: usize) -> Vec<u8> {
        let text = fs::read(path).unwrap();
        let last = text[..text.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        text[last..last + keep].to_vec()
    }

    #[test]
    fn a_torn_final_line_is_dropped_and_appends_resume_on_a_fresh_line() {
        let set = tiny_set(&[1, 2, 4]);
        let path = tmp("torn.jsonl");
        Journal::open(&path, "t", &set)
            .unwrap()
            .record_done(0, &set.jobs()[0], JobOutcome::Miss, 0)
            .unwrap();
        let whole = fs::read(&path).unwrap();
        // A writer killed mid-append leaves a prefix of its line.
        let probe = tmp("torn_probe.jsonl");
        Journal::open(&probe, "t", &set)
            .unwrap()
            .record_done(1, &set.jobs()[1], JobOutcome::Miss, 0)
            .unwrap();
        let fragment = torn_done_line(&probe, 40);
        fs::write(&path, [&whole[..], &fragment[..]].concat()).unwrap();
        {
            let j = Journal::open(&path, "t", &set).unwrap();
            assert_eq!(j.resumed(), 1);
            assert!(!j.completed(set.hashes()[1]));
            j.record_done(2, &set.jobs()[2], JobOutcome::Miss, 0)
                .unwrap();
        }
        let j = Journal::open(&path, "t", &set).unwrap();
        assert_eq!(j.resumed(), 2);
        assert!(j.completed(set.hashes()[0]) && j.completed(set.hashes()[2]));
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        assert_eq!(text.lines().count(), 3, "{text}");
    }

    #[test]
    fn a_whole_final_line_without_its_newline_is_kept() {
        let set = tiny_set(&[1, 2]);
        let path = tmp("unterminated.jsonl");
        Journal::open(&path, "t", &set)
            .unwrap()
            .record_done(0, &set.jobs()[0], JobOutcome::Miss, 0)
            .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.pop();
        fs::write(&path, &bytes).unwrap();
        {
            let j = Journal::open(&path, "t", &set).unwrap();
            assert_eq!(j.resumed(), 1);
            j.record_done(1, &set.jobs()[1], JobOutcome::Miss, 0)
                .unwrap();
        }
        assert_eq!(Journal::open(&path, "t", &set).unwrap().resumed(), 2);
    }

    #[test]
    fn a_bad_line_that_ends_in_a_newline_is_corrupt() {
        let set = tiny_set(&[1, 2]);
        let path = tmp("bad_line.jsonl");
        Journal::open(&path, "t", &set).unwrap();
        let plan = fs::read(&path).unwrap();
        for (bad, what) in [
            (&b"{\"kind\":\"do"[..], "JSON"),
            (&b"\"\xff\""[..], "UTF-8"),
        ] {
            fs::write(&path, [&plan[..], bad, b"\n"].concat()).unwrap();
            match Journal::open(&path, "t", &set) {
                Err(JournalError::Corrupt(msg)) => {
                    assert!(msg.contains(":2:"), "{what}: {msg}");
                    if what == "UTF-8" {
                        assert!(msg.contains("UTF-8"), "{msg}");
                    }
                }
                Err(e) => panic!("{what}: expected Corrupt, got {e}"),
                Ok(_) => panic!("{what}: a bad line was accepted"),
            }
        }
    }
}
