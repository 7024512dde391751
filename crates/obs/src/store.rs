//! The indexed ledger store: load/merge/dedupe JSONL ledgers into one
//! structure keyed by [`LedgerRecord::config_hash`] — the backbone that
//! the content-addressed result cache (`hwgc-jobs`) and the committed
//! `BENCH_ledger.jsonl` writer share.
//!
//! Identity and integrity rules:
//!
//! * the **key** is the config hash — what was asked for, never what
//!   happened or how fast;
//! * two records with the same hash must agree on every deterministic
//!   output they both carry (`stats_digest`, `total_cycles`,
//!   `sb_fingerprint`, shared efficacy counters). A disagreement is a
//!   [`StoreError::Conflict`] and loading/merging **hard-fails** —
//!   last-write-wins would silently paper over exactly the stale-result
//!   corruption the store exists to catch;
//! * `host_*` fields are quarantined: they never participate in identity
//!   or conflict checks, and a merge keeps the first record's host fields
//!   (deterministic, and the canonical serialization stays stable);
//! * merging records with equal deterministic outputs *completes* the
//!   surviving record: a missing `total_cycles`, `sb_fingerprint`,
//!   `result` payload or empty `efficacy` set is filled in from the
//!   other side, so a digest-only ledger line and a payload-carrying
//!   cache line of the same run collapse into one maximal record.

use std::collections::HashMap;
use std::path::Path;

use crate::ledger::LedgerRecord;

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The underlying file could not be read.
    Io(String),
    /// A JSONL line failed to parse (corrupted, truncated, tampered
    /// hash, or schema-version skew). `line` is 1-based.
    Parse { line: usize, msg: String },
    /// Two records with the same config hash disagree on a deterministic
    /// output field — the hard-fail case.
    Conflict {
        config_hash: u64,
        field: &'static str,
        have: String,
        incoming: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "{msg}"),
            StoreError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            StoreError::Conflict {
                config_hash,
                field,
                have,
                incoming,
            } => write!(
                f,
                "config_hash {config_hash:016x}: conflicting `{field}` \
                 (store has {have}, incoming record has {incoming}) — \
                 two runs of one configuration produced different \
                 simulation results"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// What [`LedgerStore::insert`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// First record for its config hash.
    Inserted,
    /// A record for the hash existed; deterministic outputs agreed and
    /// the survivor was completed from the incoming record.
    Merged,
}

/// Diagnostics of a [`LedgerStore::load_tolerant`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Records accepted (inserted or merged).
    pub accepted: usize,
    /// Lines quarantined with their parse diagnostics (`line N: …`).
    /// Only *parse* failures are tolerated — output conflicts between
    /// well-formed records still hard-fail the load.
    pub quarantined: Vec<String>,
}

/// An indexed, deduplicated collection of ledger records keyed by config
/// hash.
#[derive(Debug, Clone, Default)]
pub struct LedgerStore {
    records: Vec<LedgerRecord>,
    /// `records[i].config_hash()`, computed once on the way in.
    hashes: Vec<u64>,
    index: HashMap<u64, usize>,
}

impl LedgerStore {
    /// An empty store.
    pub fn new() -> LedgerStore {
        LedgerStore::default()
    }

    /// Number of distinct config hashes held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record for `config_hash`, if any.
    pub fn get(&self, config_hash: u64) -> Option<&LedgerRecord> {
        self.index.get(&config_hash).map(|&i| &self.records[i])
    }

    /// Every record, in insertion order. [`LedgerStore::canonical_jsonl`]
    /// is the hash-sorted view.
    pub fn records(&self) -> &[LedgerRecord] {
        &self.records
    }

    /// Insert one record, deduping against any existing record with the
    /// same config hash. Deterministic outputs must agree
    /// ([`StoreError::Conflict`] otherwise — never last-write-wins); on
    /// agreement the stored record is completed with whatever the
    /// incoming one carries that it lacks. Host fields of the incoming
    /// record are quarantined: the stored record keeps its own.
    pub fn insert(&mut self, rec: LedgerRecord) -> Result<InsertOutcome, StoreError> {
        self.insert_hashed(rec.config_hash(), rec)
    }

    /// [`LedgerStore::insert`] for a record whose config hash is known.
    fn insert_hashed(&mut self, hash: u64, rec: LedgerRecord) -> Result<InsertOutcome, StoreError> {
        let Some(&slot) = self.index.get(&hash) else {
            self.index.insert(hash, self.records.len());
            self.records.push(rec);
            self.hashes.push(hash);
            return Ok(InsertOutcome::Inserted);
        };
        let have = &mut self.records[slot];
        let conflict = |field: &'static str, have: String, incoming: String| {
            Err(StoreError::Conflict {
                config_hash: hash,
                field,
                have,
                incoming,
            })
        };
        if have.stats_digest != rec.stats_digest {
            return conflict(
                "stats_digest",
                format!("{:016x}", have.stats_digest),
                format!("{:016x}", rec.stats_digest),
            );
        }
        if let (Some(a), Some(b)) = (have.total_cycles, rec.total_cycles) {
            if a != b {
                return conflict("total_cycles", a.to_string(), b.to_string());
            }
        }
        if let (Some(a), Some(b)) = (have.sb_fingerprint, rec.sb_fingerprint) {
            if a != b {
                return conflict("sb_fingerprint", format!("{a:016x}"), format!("{b:016x}"));
            }
        }
        // Efficacy counters are deterministic: every counter present on
        // both sides must agree (a profiled and an unprofiled run of the
        // same config legitimately differ in *coverage*, never in value).
        for (k, a) in &have.efficacy {
            if let Some((_, b)) = rec.efficacy.iter().find(|(rk, _)| rk == k) {
                if a != b {
                    let (a, b) = (a.to_string(), b.to_string());
                    return Err(StoreError::Conflict {
                        config_hash: hash,
                        field: "efficacy",
                        have: format!("{k}={a}"),
                        incoming: format!("{k}={b}"),
                    });
                }
            }
        }
        // Agreement: complete the survivor.
        if have.total_cycles.is_none() {
            have.total_cycles = rec.total_cycles;
        }
        if have.sb_fingerprint.is_none() {
            have.sb_fingerprint = rec.sb_fingerprint;
        }
        if have.efficacy.is_empty() {
            have.efficacy = rec.efficacy;
        }
        if have.result.is_none() {
            have.result = rec.result;
        }
        Ok(InsertOutcome::Merged)
    }

    /// Insert every record of `other` (see [`LedgerStore::insert`]).
    /// Returns `(inserted, merged)` counts.
    pub fn merge(
        &mut self,
        other: impl IntoIterator<Item = LedgerRecord>,
    ) -> Result<(usize, usize), StoreError> {
        self.merge_hashed(other.into_iter().map(|rec| (rec.config_hash(), rec)))
    }

    /// [`LedgerStore::merge`] of a whole store, moving its records and
    /// reusing their hashes. An empty store adopts `other` as it is.
    pub fn merge_store(&mut self, other: LedgerStore) -> Result<(usize, usize), StoreError> {
        if self.is_empty() {
            let inserted = other.len();
            *self = other;
            return Ok((inserted, 0));
        }
        self.merge_hashed(other.hashes.into_iter().zip(other.records))
    }

    fn merge_hashed(
        &mut self,
        other: impl Iterator<Item = (u64, LedgerRecord)>,
    ) -> Result<(usize, usize), StoreError> {
        let (mut inserted, mut merged) = (0, 0);
        for (hash, rec) in other {
            match self.insert_hashed(hash, rec)? {
                InsertOutcome::Inserted => inserted += 1,
                InsertOutcome::Merged => merged += 1,
            }
        }
        Ok((inserted, merged))
    }

    /// Strict load of a JSONL ledger into a fresh store: any corrupted,
    /// truncated, non-UTF-8 or schema-skewed line fails with its 1-based
    /// line number, and output conflicts between records hard-fail.
    pub fn load(path: &Path) -> Result<LedgerStore, StoreError> {
        let bytes =
            std::fs::read(path).map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
        let mut store = LedgerStore::new();
        for (line, text) in jsonl_lines(&bytes) {
            let (rec, hash) = text
                .and_then(LedgerRecord::from_json_str_hashed)
                .map_err(|msg| StoreError::Parse { line, msg })?;
            store.insert_hashed(hash, rec)?;
        }
        Ok(store)
    }

    /// Tolerant load for workspace cache files: lines that fail to
    /// *parse* (e.g. a line truncated by an interrupted writer, or one
    /// that is not UTF-8) are quarantined into the report instead of
    /// failing the load. Output conflicts between well-formed records
    /// still hard-fail — a readable record with a wrong result is
    /// corruption, not noise. A missing file loads as an empty store.
    pub fn load_tolerant(path: &Path) -> Result<(LedgerStore, LoadReport), StoreError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::Io(format!("{}: {e}", path.display()))),
        };
        let mut store = LedgerStore::new();
        let mut report = LoadReport::default();
        for (line, text) in jsonl_lines(&bytes) {
            match text.and_then(LedgerRecord::from_json_str_hashed) {
                Ok((rec, hash)) => {
                    store.insert_hashed(hash, rec)?;
                    report.accepted += 1;
                }
                Err(msg) => report.quarantined.push(format!("line {line}: {msg}")),
            }
        }
        Ok((store, report))
    }

    /// The canonical serialization: one line per config hash, stably
    /// sorted by hash (ties cannot occur — the hash is the key). This is
    /// the format the committed `BENCH_ledger.jsonl` is kept in, so
    /// re-running `bench_baseline` on an unchanged simulator rewrites the
    /// same bytes.
    pub fn canonical_jsonl(&self) -> String {
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.sort_by_key(|&i| self.hashes[i]);
        let mut out = String::new();
        for i in order {
            out.push_str(&self.records[i].to_json_string());
            out.push('\n');
        }
        out
    }

    /// Write [`LedgerStore::canonical_jsonl`] to `path` (parent
    /// directories created).
    pub fn write_canonical(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.canonical_jsonl())
    }

    /// Hashes held, sorted.
    pub fn hashes(&self) -> Vec<u64> {
        let mut h = self.hashes.clone();
        h.sort_unstable();
        h
    }
}

/// The non-blank lines of a JSONL file with their 1-based numbers, split
/// as [`str::lines`] splits text. The file is checked for UTF-8 once; a
/// file that fails the check is checked line by line, so one bad byte
/// costs its line and not the file.
fn jsonl_lines(bytes: &[u8]) -> impl Iterator<Item = (usize, Result<&str, String>)> {
    let lines: Box<dyn Iterator<Item = Result<&str, String>>> = match std::str::from_utf8(bytes) {
        Ok(text) => Box::new(
            text.split('\n')
                .map(|line| Ok(line.strip_suffix('\r').unwrap_or(line))),
        ),
        Err(_) => Box::new(bytes.split(|&b| b == b'\n').map(|line| {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            std::str::from_utf8(line).map_err(|e| format!("not valid UTF-8: {e}"))
        })),
    };
    lines
        .enumerate()
        .filter(|(_, line)| !matches!(line, Ok(text) if text.trim().is_empty()))
        .map(|(i, line)| (i + 1, line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{Json, RawJson};

    fn record(workload: &str, digest: u64) -> LedgerRecord {
        LedgerRecord {
            binary: "test".to_string(),
            workload: workload.to_string(),
            engine: "sparse".to_string(),
            backend: "fixed".to_string(),
            config: vec![("n_cores".to_string(), "4".to_string())],
            env: Vec::new(),
            stats_digest: digest,
            total_cycles: Some(1000),
            sb_fingerprint: None,
            efficacy: Vec::new(),
            result: None,
            host: vec![("wall_ns".to_string(), Json::Int(42))],
        }
    }

    #[test]
    fn insert_dedupes_and_completes() {
        let mut store = LedgerStore::new();
        assert_eq!(
            store.insert(record("a", 7)).unwrap(),
            InsertOutcome::Inserted
        );
        // Same config, same outputs, extra information: merged in.
        let mut richer = record("a", 7);
        richer.sb_fingerprint = Some(0xabc);
        richer.efficacy = vec![("win.fired".to_string(), 3)];
        richer.result = Some(RawJson::new(&Json::Int(1)));
        richer.host = vec![("wall_ns".to_string(), Json::Int(99))];
        assert_eq!(store.insert(richer).unwrap(), InsertOutcome::Merged);
        assert_eq!(store.len(), 1);
        let survivor = store.get(record("a", 7).config_hash()).unwrap();
        assert_eq!(survivor.sb_fingerprint, Some(0xabc));
        assert_eq!(survivor.efficacy.len(), 1);
        assert!(survivor.result.is_some());
        // Host fields are quarantined: the first record's survive.
        assert_eq!(survivor.host, vec![("wall_ns".to_string(), Json::Int(42))]);
    }

    #[test]
    fn conflicting_digests_hard_fail() {
        let mut store = LedgerStore::new();
        store.insert(record("a", 7)).unwrap();
        let err = store.insert(record("a", 8)).unwrap_err();
        match err {
            StoreError::Conflict { field, .. } => assert_eq!(field, "stats_digest"),
            other => panic!("expected Conflict, got {other:?}"),
        }
        // The store is unchanged — no last-write-wins.
        assert_eq!(
            store
                .get(record("a", 7).config_hash())
                .unwrap()
                .stats_digest,
            7
        );
    }

    #[test]
    fn conflicting_shared_efficacy_hard_fails() {
        let mut store = LedgerStore::new();
        let mut a = record("a", 7);
        a.efficacy = vec![("win.fired".to_string(), 3)];
        store.insert(a).unwrap();
        let mut b = record("a", 7);
        b.efficacy = vec![("win.fired".to_string(), 4)];
        let err = store.insert(b).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Conflict {
                    field: "efficacy",
                    ..
                }
            ),
            "{err:?}"
        );
        // Disjoint coverage is fine (profiled vs unprofiled run).
        let mut c = record("a", 7);
        c.efficacy = Vec::new();
        assert_eq!(store.insert(c).unwrap(), InsertOutcome::Merged);
    }

    #[test]
    fn canonical_jsonl_is_sorted_and_stable() {
        let mut store = LedgerStore::new();
        store.insert(record("zzz", 1)).unwrap();
        store.insert(record("aaa", 2)).unwrap();
        store.insert(record("mmm", 3)).unwrap();
        let text = store.canonical_jsonl();
        // Parse back: same records, hash-sorted.
        let hashes: Vec<u64> = text
            .lines()
            .map(|l| LedgerRecord::from_json_str(l).unwrap().config_hash())
            .collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        assert_eq!(hashes, sorted);
        // Round trip is byte-stable.
        let mut store2 = LedgerStore::new();
        for line in text.lines() {
            store2
                .insert(LedgerRecord::from_json_str(line).unwrap())
                .unwrap();
        }
        assert_eq!(store2.canonical_jsonl(), text);
    }

    #[test]
    fn tolerant_load_quarantines_corrupt_lines() {
        let dir = std::env::temp_dir().join("hwgc_store_tolerant");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let good = record("a", 7).to_json_string();
        let truncated = &good[..good.len() / 2];
        std::fs::write(&path, format!("{good}\nnot json at all\n{truncated}\n")).unwrap();
        let (store, report) = LedgerStore::load_tolerant(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.quarantined.len(), 2);
        assert!(report.quarantined[0].starts_with("line 2:"));
        assert!(report.quarantined[1].starts_with("line 3:"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tolerant_load_quarantines_deep_and_non_utf8_lines() {
        let dir = std::env::temp_dir().join("hwgc_store_hostile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let good = |workload: &str| record(workload, 7).to_json_string();
        let mut bytes = format!("{}\n", good("a")).into_bytes();
        bytes.extend_from_slice(&"[".repeat(1_000_000).into_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&"{\"a\":".repeat(1_000_000).into_bytes());
        bytes.push(b'\n');
        let mut torn = good("b").into_bytes();
        torn[40] = 0xFF;
        bytes.extend_from_slice(&torn);
        bytes.extend_from_slice(format!("\r\n\n{}\r\n", good("c")).as_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (store, report) = LedgerStore::load_tolerant(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(report.accepted, 2);
        let lines: Vec<&str> = report
            .quarantined
            .iter()
            .map(|q| q.split(':').next().unwrap())
            .collect();
        assert_eq!(lines, ["line 2", "line 3", "line 4"]);
        assert!(report.quarantined[0].contains("nested too deep"));
        assert!(report.quarantined[2].contains("UTF-8"));
        // The strict loader still refuses the file, naming the line.
        match LedgerStore::load(&path).unwrap_err() {
            StoreError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Parse, got {other:?}"),
        }
        std::fs::write(&path, [good("a").as_bytes(), b"\n", &torn, b"\n"].concat()).unwrap();
        match LedgerStore::load(&path).unwrap_err() {
            StoreError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("UTF-8"), "{msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_committed_ledger_reserializes_byte_for_byte() {
        let path = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_ledger.jsonl"
        ));
        let store = LedgerStore::load(path).unwrap();
        assert!(!store.is_empty());
        assert_eq!(
            store.canonical_jsonl(),
            std::fs::read_to_string(path).unwrap()
        );
    }

    #[test]
    fn merge_store_adopts_or_merges_without_rehashing_differently() {
        let mut a = LedgerStore::new();
        a.insert(record("x", 1)).unwrap();
        a.insert(record("y", 2)).unwrap();
        let mut b = LedgerStore::new();
        b.insert(record("y", 2)).unwrap();
        b.insert(record("z", 3)).unwrap();
        let mut adopted = LedgerStore::new();
        assert_eq!(adopted.merge_store(a.clone()).unwrap(), (2, 0));
        assert_eq!(adopted.canonical_jsonl(), a.canonical_jsonl());
        assert_eq!(a.merge_store(b.clone()).unwrap(), (1, 1));
        let mut one_by_one = LedgerStore::new();
        one_by_one
            .merge(["x", "y", "z"].map(|w| record(w, u64::from(w.as_bytes()[0] - b'w'))))
            .unwrap();
        assert_eq!(a.hashes(), one_by_one.hashes());
        assert_eq!(a.canonical_jsonl(), one_by_one.canonical_jsonl());
        // A conflict still hard-fails through the store-level merge.
        let mut c = LedgerStore::new();
        c.insert(record("z", 4)).unwrap();
        assert!(matches!(a.merge_store(c), Err(StoreError::Conflict { .. })));
    }

    #[test]
    fn strict_load_rejects_corrupt_and_skewed_lines() {
        let dir = std::env::temp_dir().join("hwgc_store_strict");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        // Schema-version skew: a v2 record must be rejected with its
        // line number, not silently misread.
        let skewed = record("a", 7)
            .to_json_string()
            .replace("hwgc-ledger-v1", "hwgc-ledger-v2");
        std::fs::write(&path, format!("{skewed}\n")).unwrap();
        let err = LedgerStore::load(&path).unwrap_err();
        match &err {
            StoreError::Parse { line, msg } => {
                assert_eq!(*line, 1);
                assert!(msg.contains("schema"), "{msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
        // Missing file: strict load is an Io error, tolerant load is an
        // empty store.
        assert!(matches!(
            LedgerStore::load(&dir.join("nope.jsonl")),
            Err(StoreError::Io(_))
        ));
        let (empty, report) = LedgerStore::load_tolerant(&dir.join("nope.jsonl")).unwrap();
        assert!(empty.is_empty());
        assert_eq!(report, LoadReport::default());
    }
}
