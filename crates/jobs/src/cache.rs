//! Content-addressed result cache over the run ledger.
//!
//! A sweep job is identified by its ledger key — workload, engine,
//! backend and the sorted config/env pairs, hashed by
//! [`hwgc_obs::LedgerRecord::config_hash`]. Before simulating, the
//! harness consults a [`ResultCache`]; depending on what the cache holds
//! for the hash and on the [`CacheMode`], the job is satisfied four ways:
//!
//! * **miss** — nothing cached: simulate, and in a writable mode append
//!   a payload-carrying record to the workspace cache file;
//! * **hit** — a record with a full `result` payload: decode it, re-check
//!   its digest against the record's `stats_digest` (a corrupt payload is
//!   an error, never a silent wrong answer) and skip the simulation;
//! * **digest check** — a payload-less record (the committed
//!   `BENCH_ledger.jsonl` is digest-only): simulate anyway and hard-fail
//!   if the fresh digest disagrees with the recorded one — the default
//!   `ro` mode therefore costs nothing and turns every committed ledger
//!   line into a regression assertion;
//! * **verify** — paranoia mode: a seeded fraction of would-be hits is
//!   re-simulated and the digests compared; a mismatch means the cache
//!   holds a stale record and the run aborts.
//!
//! Bit-exactness contract: for every mode, the `GcOutcome` a caller
//! receives is digest-identical to what an uncached simulation would
//! produce (enforced by `tests/cache.rs`). The cache can make a sweep
//! faster or fail louder — never different.
//!
//! Modes come from `HWGC_CACHE` (`off` / `ro` / `rw` / `verify`;
//! default `ro` for one-off runs, `rw` for sweeps — see
//! [`sweep_cache_mode`]); the workspace cache file from
//! `HWGC_CACHE_PATH`; the verify sampling percentage from
//! `HWGC_CACHE_VERIFY_PCT`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hwgc_core::{GcOutcome, GcStats, StallBreakdown, StallReason};
use hwgc_memsim::{DramStats, FifoStats, MemStats, PORT_COUNT};
use hwgc_obs::json::{Json, RawJson, Reader};
use hwgc_obs::{JobOutcome, LedgerRecord, LedgerStore, StoreError};
use hwgc_sync::SyncStats;

/// What the cache is allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Never consult or write the cache.
    Off,
    /// Consult committed/provided ledgers; never write. Payload hits skip
    /// simulation; digest-only records become post-run cross-checks.
    #[default]
    Ro,
    /// `Ro` plus: misses append payload records to the workspace cache.
    Rw,
    /// `Rw` plus: a seeded fraction of payload hits is re-simulated and
    /// digest-compared (stale-cache detector).
    Verify,
}

impl CacheMode {
    /// Parse a `HWGC_CACHE` value.
    pub fn parse(s: &str) -> Option<CacheMode> {
        Some(match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => CacheMode::Off,
            "ro" | "" => CacheMode::Ro,
            "rw" => CacheMode::Rw,
            "verify" => CacheMode::Verify,
            _ => return None,
        })
    }

    /// The mode selected by `HWGC_CACHE` (default [`CacheMode::Ro`];
    /// unknown values fall back to the default rather than silently
    /// disabling integrity checks).
    pub fn from_env() -> CacheMode {
        match std::env::var("HWGC_CACHE") {
            Ok(v) => CacheMode::parse(&v).unwrap_or_default(),
            Err(_) => CacheMode::Ro,
        }
    }

    /// True when the mode may consult stored records at all.
    pub fn reads(self) -> bool {
        self != CacheMode::Off
    }

    /// True when misses append to the workspace cache file.
    pub fn writes(self) -> bool {
        matches!(self, CacheMode::Rw | CacheMode::Verify)
    }
}

/// The cache mode for *sweeps*: `HWGC_CACHE` as in
/// [`CacheMode::from_env`], but unset (and unknown values) default to
/// [`CacheMode::Rw`] instead of `Ro`. Sweep resumption is journal ∪
/// cache — a journaled job is skipped by replaying its payload record —
/// so a sweep that never wrote payloads could not be resumed, and
/// cross-run dedupe (`experiments fig5_scaling` then `experiments
/// table1_empty_worklist`) needs the first run's results on disk when
/// the second one starts.
pub fn sweep_cache_mode() -> CacheMode {
    match std::env::var("HWGC_CACHE") {
        Ok(v) => CacheMode::parse(&v).unwrap_or(CacheMode::Rw),
        Err(_) => CacheMode::Rw,
    }
}

/// A cache-layer failure. Every variant is an integrity violation — the
/// cache never degrades to a wrong answer.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// A stored record's digest disagrees with a fresh simulation of the
    /// same configuration (stale or corrupt cache/ledger).
    StaleRecord {
        config_hash: u64,
        recorded: u64,
        fresh: u64,
        /// True when verify-mode sampling caught it on a payload hit.
        verified: bool,
    },
    /// A payload decoded to stats whose digest disagrees with the
    /// record's own `stats_digest` field (corrupt payload).
    CorruptPayload {
        config_hash: u64,
        recorded: u64,
        decoded: u64,
    },
    /// A cache source failed to load.
    Load(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::StaleRecord {
                config_hash,
                recorded,
                fresh,
                verified,
            } => write!(
                f,
                "{} for config {config_hash:016x}: ledger records digest \
                 {recorded:016x}, fresh simulation produced {fresh:016x}",
                if *verified {
                    "HWGC_CACHE=verify caught a stale record"
                } else {
                    "stats digest mismatch"
                }
            ),
            CacheError::CorruptPayload {
                config_hash,
                recorded,
                decoded,
            } => write!(
                f,
                "corrupt cache payload for config {config_hash:016x}: record \
                 claims digest {recorded:016x}, payload decodes to {decoded:016x}"
            ),
            CacheError::Load(msg) => write!(f, "cache load: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// The content-addressed result cache shared by every job of a sweep.
/// Thread-safe: `run_cached` may be called concurrently from `par_map`
/// workers.
pub struct ResultCache {
    mode: CacheMode,
    store: LedgerStore,
    rw_path: Option<PathBuf>,
    verify_pct: u64,
    verify_seed: u64,
    hits: AtomicUsize,
    misses: AtomicUsize,
    verified: AtomicUsize,
    digest_checks: AtomicUsize,
    write_lock: Mutex<()>,
}

/// Counters accumulated by one [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: usize,
    pub misses: usize,
    pub verified: usize,
    pub digest_checks: usize,
}

/// What [`ResultCache::lookup`] resolved for a job key. Every variant
/// except [`CacheLookup::Hit`] obliges the caller to simulate and then
/// call [`ResultCache::complete`] with the fresh outcome.
// One short-lived value per job resolution; boxing the hit payload
// would buy nothing but an indirection at every cache hit.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CacheLookup {
    /// Payload hit, decoded and digest-checked: skip the simulation.
    Hit(GcOutcome),
    /// Verify-mode sampling selected this payload hit: re-simulate and
    /// compare the fresh digest against the recorded one.
    Verify(u64),
    /// Digest-only record (committed ledger): simulate, then assert the
    /// fresh digest equals the recorded one.
    Digest(u64),
    /// Nothing cached (or mode `off`): simulate.
    Absent,
}

impl ResultCache {
    /// Open a cache in `mode` over the given sources. `ro_sources` are
    /// consulted read-only (the committed ledger; loaded strictly — a
    /// corrupt committed ledger is an error, a missing one is empty).
    /// `rw_path`, used by writable modes, is loaded tolerantly (a line
    /// torn by a concurrent writer is quarantined) and appended to on
    /// misses. Conflicting digests between any two sources hard-fail.
    pub fn open(
        mode: CacheMode,
        ro_sources: &[&Path],
        rw_path: Option<&Path>,
    ) -> Result<ResultCache, CacheError> {
        // An I/O error names its path already; the others do not.
        let load_error = |path: &Path, e: StoreError| match e {
            StoreError::Io(msg) => CacheError::Load(msg),
            e => CacheError::Load(format!("{}: {e}", path.display())),
        };
        let mut store = LedgerStore::new();
        if mode.reads() {
            for src in ro_sources {
                if src.exists() {
                    LedgerStore::load(src)
                        .and_then(|loaded| store.merge_store(loaded))
                        .map_err(|e| load_error(src, e))?;
                }
            }
            // The workspace cache (payload-carrying, simulation-skipping)
            // is consulted only by the writable modes: default `ro` must
            // never skip a simulation on the say-so of an uncommitted
            // file.
            if mode.writes() {
                if let Some(path) = rw_path {
                    LedgerStore::load_tolerant(path)
                        .and_then(|(loaded, _report)| store.merge_store(loaded))
                        .map_err(|e| load_error(path, e))?;
                }
            }
        }
        Ok(ResultCache {
            mode,
            store,
            rw_path: mode
                .writes()
                .then(|| rw_path.map(Path::to_path_buf))
                .flatten(),
            verify_pct: verify_pct_from_env(),
            verify_seed: 0x00C0_FFEE,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            verified: AtomicUsize::new(0),
            digest_checks: AtomicUsize::new(0),
            write_lock: Mutex::new(()),
        })
    }

    /// An always-miss cache (mode `off`).
    pub fn disabled() -> ResultCache {
        ResultCache::open(CacheMode::Off, &[], None).expect("off-mode open cannot fail")
    }

    /// Override the verify sampling: re-simulate when
    /// `(config_hash ^ seed) % 100 < pct`.
    pub fn with_verify_sampling(mut self, pct: u64, seed: u64) -> ResultCache {
        self.verify_pct = pct.min(100);
        self.verify_seed = seed;
        self
    }

    /// The mode this cache runs in.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Number of records loaded from the sources.
    pub fn records_loaded(&self) -> usize {
        self.store.len()
    }

    /// Counters so far.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            digest_checks: self.digest_checks.load(Ordering::Relaxed),
        }
    }

    fn selected_for_verify(&self, config_hash: u64) -> bool {
        self.verify_pct >= 100 || (config_hash ^ self.verify_seed) % 100 < self.verify_pct
    }

    /// Satisfy one job. `key` is the job's ledger identity (outputs and
    /// host fields ignored); `sim` runs the real simulation. Returns the
    /// outcome — digest-identical to `sim()`'s in every mode — and how it
    /// was obtained. Errors are integrity violations only.
    ///
    /// This is [`ResultCache::lookup`] followed by
    /// [`ResultCache::complete`]; the multi-process executor uses those
    /// two halves directly (the simulation happens in a worker process,
    /// so no closure can sit between them) with identical semantics.
    pub fn run_cached<F>(
        &self,
        key: &LedgerRecord,
        sim: F,
    ) -> Result<(GcOutcome, JobOutcome), CacheError>
    where
        F: FnOnce() -> GcOutcome,
    {
        match self.lookup(key)? {
            CacheLookup::Hit(decoded) => Ok((decoded, JobOutcome::Hit)),
            pending => {
                let outcome = sim();
                let how = self.complete(key, &outcome, &pending)?;
                Ok((outcome, how))
            }
        }
    }

    /// Resolve what the cache holds for `key` *before* simulating.
    /// [`CacheLookup::Hit`] means the simulation can be skipped (the
    /// payload is decoded and digest-checked here — a corrupt payload is
    /// an error, never a silent wrong answer); every other variant must
    /// be followed by a simulation and a [`ResultCache::complete`] call.
    pub fn lookup(&self, key: &LedgerRecord) -> Result<CacheLookup, CacheError> {
        self.lookup_hash(key.config_hash())
    }

    /// [`ResultCache::lookup`] by the key's config hash — for callers
    /// that hold the hash already, such as [`crate::JobSet::hashes`].
    pub fn lookup_hash(&self, hash: u64) -> Result<CacheLookup, CacheError> {
        if !self.mode.reads() {
            return Ok(CacheLookup::Absent);
        }
        let cached = self.store.get(hash).map(|rec| {
            let payload = rec
                .result
                .as_ref()
                .map(|raw| outcome_from_text(raw.as_str()));
            (rec.stats_digest, payload)
        });
        match cached {
            None => Ok(CacheLookup::Absent),
            Some((recorded, Some(payload))) => {
                let decoded = payload.map_err(|e| {
                    CacheError::Load(format!("config {hash:016x}: bad payload: {e}"))
                })?;
                let decoded_digest = decoded.stats.digest();
                if decoded_digest != recorded {
                    return Err(CacheError::CorruptPayload {
                        config_hash: hash,
                        recorded,
                        decoded: decoded_digest,
                    });
                }
                if self.mode == CacheMode::Verify && self.selected_for_verify(hash) {
                    return Ok(CacheLookup::Verify(recorded));
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(CacheLookup::Hit(decoded))
            }
            Some((recorded, None)) => Ok(CacheLookup::Digest(recorded)),
        }
    }

    /// Post-simulation half of a cache transaction: digest-compare the
    /// fresh `outcome` against whatever [`ResultCache::lookup`] found,
    /// bump the counters, and append a payload record in writable modes.
    /// Mismatches are [`CacheError::StaleRecord`] hard failures.
    pub fn complete(
        &self,
        key: &LedgerRecord,
        outcome: &GcOutcome,
        lookup: &CacheLookup,
    ) -> Result<JobOutcome, CacheError> {
        match lookup {
            // A hit needs no completion; accepting it keeps the executor's
            // single completion path total over every lookup variant.
            CacheLookup::Hit(_) => Ok(JobOutcome::Hit),
            CacheLookup::Absent => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.append(key, outcome);
                Ok(JobOutcome::Miss)
            }
            CacheLookup::Verify(recorded) => {
                let fresh = outcome.stats.digest();
                if fresh != *recorded {
                    return Err(CacheError::StaleRecord {
                        config_hash: key.config_hash(),
                        recorded: *recorded,
                        fresh,
                        verified: true,
                    });
                }
                self.verified.fetch_add(1, Ordering::Relaxed);
                Ok(JobOutcome::VerifyOk)
            }
            CacheLookup::Digest(recorded) => {
                // Digest-only record (committed ledger): the fresh run
                // turns the record into a regression assertion.
                let fresh = outcome.stats.digest();
                if fresh != *recorded {
                    return Err(CacheError::StaleRecord {
                        config_hash: key.config_hash(),
                        recorded: *recorded,
                        fresh,
                        verified: false,
                    });
                }
                self.digest_checks.fetch_add(1, Ordering::Relaxed);
                self.append(key, outcome);
                Ok(JobOutcome::DigestCheck)
            }
        }
    }

    /// Append a payload-carrying record for `key` to the workspace cache
    /// file (writable modes only; single-line `O_APPEND` write, so
    /// concurrent *processes* interleave whole lines and concurrent
    /// threads serialize on the lock).
    fn append(&self, key: &LedgerRecord, outcome: &GcOutcome) {
        let Some(path) = &self.rw_path else { return };
        let mut rec = key.clone();
        rec.stats_digest = outcome.stats.digest();
        rec.total_cycles = Some(outcome.stats.total_cycles);
        rec.result = Some(RawJson::new(&outcome_to_json(outcome)));
        rec.host = Vec::new(); // cache records carry no host noise
        let _guard = self.write_lock.lock().unwrap();
        if let Err(e) = rec.append_jsonl(path) {
            eprintln!("warning: cache append to {} failed: {e}", path.display());
        }
    }
}

fn verify_pct_from_env() -> u64 {
    verify_pct_from(std::env::var("HWGC_CACHE_VERIFY_PCT").ok().as_deref())
}

/// Parse an `HWGC_CACHE_VERIFY_PCT` value: a decimal percentage
/// (surrounding whitespace ignored), capped at 100. Unset or anything
/// else samples the default 25 %.
pub fn verify_pct_from(var: Option<&str>) -> u64 {
    var.and_then(|v| v.trim().parse::<u64>().ok())
        .map_or(25, |pct| pct.min(100))
}

/// The workspace cache file: `HWGC_CACHE_PATH`, defaulting to
/// `target/hwgc-cache.jsonl` so `cargo clean` clears it.
pub fn cache_path_from_env() -> PathBuf {
    std::env::var_os("HWGC_CACHE_PATH")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/hwgc-cache.jsonl"))
}

// ---------------------------------------------------------------------
// GcStats / GcOutcome <-> Json: the payload codec, encoded as a tree and
// decoded from its text in one pass. Lives here (not in hwgc-obs)
// because obs deliberately has no dependency on hwgc-core. Round-trip
// is exact — every field is an integer — so the decoded stats'
// `digest()` equals the original's.
// ---------------------------------------------------------------------

fn u64s(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Int(i128::from(v))).collect())
}

fn breakdown_to_json(b: &StallBreakdown) -> Json {
    // One entry per StallReason, in bus-index order.
    u64s(&StallReason::ALL.map(|r| b.get(r)))
}

/// Serialize full [`GcStats`] (payload half of a cache record).
pub fn stats_to_json(s: &GcStats) -> Json {
    let mut fields = vec![
        (
            "total_cycles".to_string(),
            Json::Int(i128::from(s.total_cycles)),
        ),
        (
            "empty_worklist_cycles".to_string(),
            Json::Int(i128::from(s.empty_worklist_cycles)),
        ),
        ("stall".to_string(), breakdown_to_json(&s.stall)),
        (
            "per_core".to_string(),
            Json::Arr(s.per_core.iter().map(breakdown_to_json).collect()),
        ),
        (
            "objects_copied".to_string(),
            Json::Int(i128::from(s.objects_copied)),
        ),
        (
            "words_copied".to_string(),
            Json::Int(i128::from(s.words_copied)),
        ),
        (
            "pointers_visited".to_string(),
            Json::Int(i128::from(s.pointers_visited)),
        ),
        (
            "chunks_claimed".to_string(),
            Json::Int(i128::from(s.chunks_claimed)),
        ),
        (
            "roots_processed".to_string(),
            Json::Int(i128::from(s.roots_processed)),
        ),
        (
            "root_phase_cycles".to_string(),
            Json::Int(i128::from(s.root_phase_cycles)),
        ),
        (
            "fifo".to_string(),
            u64s(&[
                s.fifo.pushes,
                s.fifo.overflows,
                s.fifo.hits,
                s.fifo.misses,
                s.fifo.max_occupancy as u64,
            ]),
        ),
        (
            "mem".to_string(),
            Json::Obj({
                let mut mem = vec![
                    ("issued".to_string(), u64s(&s.mem.issued)),
                    (
                        "comparator_blocked_cycles".to_string(),
                        Json::Int(i128::from(s.mem.comparator_blocked_cycles)),
                    ),
                    (
                        "header_cache_hits".to_string(),
                        Json::Int(i128::from(s.mem.header_cache_hits)),
                    ),
                    (
                        "header_cache_misses".to_string(),
                        Json::Int(i128::from(s.mem.header_cache_misses)),
                    ),
                    (
                        "queue_occupancy_sum".to_string(),
                        Json::Int(i128::from(s.mem.queue_occupancy_sum)),
                    ),
                    (
                        "queue_busy_cycles".to_string(),
                        Json::Int(i128::from(s.mem.queue_busy_cycles)),
                    ),
                    ("cycles".to_string(), Json::Int(i128::from(s.mem.cycles))),
                ];
                if let Some(d) = &s.mem.dram {
                    mem.push((
                        "dram".to_string(),
                        Json::Obj(vec![
                            ("row_hits".to_string(), Json::Int(i128::from(d.row_hits))),
                            (
                                "row_empties".to_string(),
                                Json::Int(i128::from(d.row_empties)),
                            ),
                            (
                                "row_conflicts".to_string(),
                                Json::Int(i128::from(d.row_conflicts)),
                            ),
                            ("bank_accesses".to_string(), u64s(&d.bank_accesses)),
                            ("bank_busy_cycles".to_string(), u64s(&d.bank_busy_cycles)),
                        ]),
                    ));
                }
                mem
            }),
        ),
        (
            "sync".to_string(),
            Json::Obj(vec![
                ("acquisitions".to_string(), u64s(&s.sync.acquisitions)),
                ("failed_attempts".to_string(), u64s(&s.sync.failed_attempts)),
            ]),
        ),
    ];
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(fields)
}

/// Serialize a full [`GcOutcome`] (the cache payload).
pub fn outcome_to_json(o: &GcOutcome) -> Json {
    Json::Obj(vec![
        ("free".to_string(), Json::Int(i128::from(o.free))),
        ("stats".to_string(), stats_to_json(&o.stats)),
    ])
}

/// Decode [`outcome_to_json`] output: the tree is written out and read
/// back by [`outcome_from_text`], the one decoder.
pub fn outcome_from_json(j: &Json) -> Result<GcOutcome, String> {
    outcome_from_text(&j.to_string_compact())
}

/// Decode [`outcome_to_json`] output from its text, in one pass and
/// without a tree. Exact inverse: the decoded stats' digest equals the
/// encoded stats'. Members may come in any order; the first occurrence
/// of a member wins and unknown members are skipped. An error names the
/// member it fails on.
pub fn outcome_from_text(text: &str) -> Result<GcOutcome, String> {
    let mut r = Reader::new(text);
    let (mut free, mut stats) = (None, None);
    object_or_skip(&mut r, |r, key| {
        match key {
            "free" if free.is_none() => {
                let n = r.u64()?.and_then(|n| u32::try_from(n).ok());
                free = Some(n.ok_or("missing u32 field `free`")?);
            }
            "stats" if stats.is_none() => stats = Some(stats_from_reader(r)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    r.finish()?;
    Ok(GcOutcome {
        free: free.ok_or("missing u32 field `free`")?,
        stats: stats.ok_or("missing `stats`")?,
    })
}

/// Read an object member by member; any other value is skipped and reads
/// as an object without members.
fn object_or_skip<'a>(
    r: &mut Reader<'a>,
    mut each: impl FnMut(&mut Reader<'a>, &str) -> Result<(), String>,
) -> Result<(), String> {
    if r.peek() == Some(b'{') {
        r.object(|r, key| each(r, &key))
    } else {
        Ok(r.skip()?)
    }
}

/// One `u64` member.
fn u64_of(r: &mut Reader, key: &str) -> Result<u64, String> {
    r.u64()?.ok_or_else(|| format!("missing u64 field `{key}`"))
}

/// A `u64` array, each element handed to `push`; `what` names the array
/// in errors. Returns the element count.
fn u64s_of(
    r: &mut Reader,
    what: &(impl std::fmt::Display + ?Sized),
    mut push: impl FnMut(usize, u64),
) -> Result<usize, String> {
    if r.peek() != Some(b'[') {
        r.skip()?;
        return Err(format!("`{what}` is not an array"));
    }
    let mut n = 0;
    r.array(|r| {
        let v = r
            .u64()?
            .ok_or_else(|| format!("`{what}` holds a non-u64"))?;
        push(n, v);
        n += 1;
        Ok::<(), String>(())
    })?;
    Ok(n)
}

/// A `u64` array of exactly `N` elements.
fn u64_array<const N: usize>(
    r: &mut Reader,
    what: &(impl std::fmt::Display + ?Sized),
) -> Result<Result<[u64; N], usize>, String> {
    let mut values = [0; N];
    let n = u64s_of(r, what, |i, v| {
        if let Some(slot) = values.get_mut(i) {
            *slot = v;
        }
    })?;
    Ok(if n == N { Ok(values) } else { Err(n) })
}

fn breakdown_of(
    r: &mut Reader,
    what: &(impl std::fmt::Display + ?Sized),
) -> Result<StallBreakdown, String> {
    let values = u64_array::<{ StallReason::COUNT }>(r, what)?
        .map_err(|n| format!("`{what}` has {n} entries, expected {}", StallReason::COUNT))?;
    let mut b = StallBreakdown::default();
    for (reason, n) in StallReason::ALL.into_iter().zip(values) {
        b.record_n(reason, n);
    }
    Ok(b)
}

/// The members of `stats` (and of `stats.mem`, `stats.mem.dram` and
/// `stats.sync`), one bit each, in the order their absence is reported.
const STATS_MEMBERS: [&str; 13] = [
    "fifo",
    "mem",
    "sync",
    "per_core",
    "total_cycles",
    "empty_worklist_cycles",
    "stall",
    "objects_copied",
    "words_copied",
    "pointers_visited",
    "chunks_claimed",
    "roots_processed",
    "root_phase_cycles",
];
const MEM_MEMBERS: [&str; 8] = [
    "issued",
    "comparator_blocked_cycles",
    "header_cache_hits",
    "header_cache_misses",
    "queue_occupancy_sum",
    "queue_busy_cycles",
    "cycles",
    "dram",
];
const DRAM_MEMBERS: [&str; 5] = [
    "row_hits",
    "row_empties",
    "row_conflicts",
    "bank_accesses",
    "bank_busy_cycles",
];
const SYNC_MEMBERS: [&str; 2] = ["acquisitions", "failed_attempts"];

/// Which of `names` have been read: the first occurrence of a member
/// wins, later ones are skipped.
struct Seen<const N: usize> {
    names: [&'static str; N],
    bits: u32,
}

impl<const N: usize> Seen<N> {
    fn new(names: [&'static str; N]) -> Self {
        Seen { names, bits: 0 }
    }

    /// Is `key` a member not yet read? (It is marked read.)
    fn first(&mut self, key: &str) -> bool {
        let Some(i) = self.names.iter().position(|&n| n == key) else {
            return false;
        };
        let fresh = self.bits & (1 << i) == 0;
        self.bits |= 1 << i;
        fresh
    }

    /// The first member not read, if any.
    fn missing(&self) -> Option<&'static str> {
        (0..N)
            .find(|&i| self.bits & (1 << i) == 0)
            .map(|i| self.names[i])
    }
}

fn stats_from_reader(r: &mut Reader) -> Result<GcStats, String> {
    let mut s = GcStats::default();
    let mut seen = Seen::new(STATS_MEMBERS);
    object_or_skip(r, |r, key| {
        if !seen.first(key) {
            return Ok(r.skip()?);
        }
        let slot = match key {
            "fifo" => {
                let [pushes, overflows, hits, misses, occupancy] = u64_array::<5>(r, "fifo")?
                    .map_err(|n| format!("`fifo` has {n} entries, expected 5"))?;
                s.fifo = FifoStats {
                    pushes,
                    overflows,
                    hits,
                    misses,
                    max_occupancy: usize::try_from(occupancy)
                        .map_err(|_| "fifo occupancy overflow")?,
                };
                return Ok(());
            }
            "mem" => {
                s.mem = mem_from_reader(r)?;
                return Ok(());
            }
            "sync" => {
                s.sync = sync_from_reader(r)?;
                return Ok(());
            }
            "per_core" => {
                if r.peek() != Some(b'[') {
                    r.skip()?;
                    return Err("missing array field `per_core`".to_string());
                }
                return r.array(|r| {
                    let what = format_args!("per_core[{}]", s.per_core.len());
                    let core = breakdown_of(r, &what)?;
                    s.per_core.push(core);
                    Ok(())
                });
            }
            "stall" => {
                s.stall = breakdown_of(r, "stall")?;
                return Ok(());
            }
            "total_cycles" => &mut s.total_cycles,
            "empty_worklist_cycles" => &mut s.empty_worklist_cycles,
            "objects_copied" => &mut s.objects_copied,
            "words_copied" => &mut s.words_copied,
            "pointers_visited" => &mut s.pointers_visited,
            "chunks_claimed" => &mut s.chunks_claimed,
            "roots_processed" => &mut s.roots_processed,
            _ => &mut s.root_phase_cycles,
        };
        *slot = u64_of(r, key)?;
        Ok(())
    })?;
    match seen.missing() {
        None => Ok(s),
        Some("per_core") => Err("missing array field `per_core`".to_string()),
        Some(key @ ("fifo" | "mem" | "sync" | "stall")) => Err(format!("missing `{key}`")),
        Some(key) => Err(format!("missing u64 field `{key}`")),
    }
}

fn mem_from_reader(r: &mut Reader) -> Result<MemStats, String> {
    let mut m = MemStats::default();
    let mut seen = Seen::new(MEM_MEMBERS);
    object_or_skip(r, |r, key| {
        if !seen.first(key) {
            return Ok(r.skip()?);
        }
        let slot = match key {
            "dram" => {
                m.dram = Some(dram_from_reader(r)?);
                return Ok(());
            }
            "issued" => {
                m.issued = u64_array::<PORT_COUNT>(r, "mem.issued")?
                    .map_err(|_| format!("`mem.issued` is not {PORT_COUNT} entries"))?;
                return Ok(());
            }
            "comparator_blocked_cycles" => &mut m.comparator_blocked_cycles,
            "header_cache_hits" => &mut m.header_cache_hits,
            "header_cache_misses" => &mut m.header_cache_misses,
            "queue_occupancy_sum" => &mut m.queue_occupancy_sum,
            "queue_busy_cycles" => &mut m.queue_busy_cycles,
            _ => &mut m.cycles,
        };
        *slot = u64_of(r, key)?;
        Ok(())
    })?;
    match seen.missing() {
        // `dram` is optional: the fixed backend has no DRAM stats.
        None | Some("dram") => Ok(m),
        Some("issued") => Err("missing `mem.issued`".to_string()),
        Some(key) => Err(format!("missing u64 field `{key}`")),
    }
}

fn dram_from_reader(r: &mut Reader) -> Result<DramStats, String> {
    let mut d = DramStats::default();
    let mut seen = Seen::new(DRAM_MEMBERS);
    object_or_skip(r, |r, key| {
        if !seen.first(key) {
            return Ok(r.skip()?);
        }
        let slot = match key {
            "bank_accesses" => {
                return u64s_of(r, "dram.bank_accesses", |_, v| d.bank_accesses.push(v)).map(drop)
            }
            "bank_busy_cycles" => {
                return u64s_of(r, "dram.bank_busy_cycles", |_, v| {
                    d.bank_busy_cycles.push(v)
                })
                .map(drop)
            }
            "row_hits" => &mut d.row_hits,
            "row_empties" => &mut d.row_empties,
            _ => &mut d.row_conflicts,
        };
        *slot = u64_of(r, key)?;
        Ok(())
    })?;
    match seen.missing() {
        None => Ok(d),
        Some(key @ ("bank_accesses" | "bank_busy_cycles")) => Err(format!("missing `dram.{key}`")),
        Some(key) => Err(format!("missing u64 field `{key}`")),
    }
}

fn sync_from_reader(r: &mut Reader) -> Result<SyncStats, String> {
    let mut s = SyncStats::default();
    let mut seen = Seen::new(SYNC_MEMBERS);
    object_or_skip(r, |r, key| {
        if !seen.first(key) {
            return Ok(r.skip()?);
        }
        let values =
            u64_array::<3>(r, key)?.map_err(|_| format!("`sync.{key}` is not 3 entries"))?;
        if key == "acquisitions" {
            s.acquisitions = values;
        } else {
            s.failed_attempts = values;
        }
        Ok(())
    })?;
    match seen.missing() {
        None => Ok(s),
        Some(key) => Err(format!("missing `sync.{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hwgc_cache_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn line(workload: &str) -> String {
        LedgerRecord {
            workload: workload.to_string(),
            stats_digest: 1,
            ..LedgerRecord::default()
        }
        .to_json_string()
    }

    fn open_err(mode: CacheMode, ro: &[&Path], rw: Option<&Path>) -> String {
        match ResultCache::open(mode, ro, rw) {
            Ok(_) => panic!("open succeeded"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn a_non_utf8_line_costs_that_line_only() {
        let path = temp("non_utf8.jsonl");
        let mut torn = line("b").into_bytes();
        torn[30] = 0xFF;
        let bytes = [
            line("a").as_bytes(),
            b"\n",
            &torn,
            b"\n",
            line("c").as_bytes(),
            b"\n",
        ]
        .concat();
        std::fs::write(&path, bytes).unwrap();
        let cache = ResultCache::open(CacheMode::Rw, &[], Some(&path)).unwrap();
        assert_eq!(cache.records_loaded(), 2);
        // A committed ledger is loaded strictly: the same byte fails it,
        // naming the line.
        let err = open_err(CacheMode::Ro, &[&path], None);
        assert!(err.contains("line 2") && err.contains("UTF-8"), "{err}");
    }

    #[test]
    fn a_load_error_names_its_path_once() {
        // A directory cannot be read as a file: an I/O error.
        let dir = std::env::temp_dir()
            .join("hwgc_cache_unit")
            .join("a_directory");
        std::fs::create_dir_all(&dir).unwrap();
        let shown = dir.display().to_string();
        let err = open_err(CacheMode::Rw, &[], Some(&dir));
        assert_eq!(err.matches(&shown).count(), 1, "{err}");
        // A parse error names the path too, once.
        let bad = temp("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        let err = open_err(CacheMode::Ro, &[&bad], None);
        assert_eq!(err.matches(&*bad.display().to_string()).count(), 1, "{err}");
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn decode_errors_name_the_core() {
        let mut stats = GcStats {
            per_core: vec![StallBreakdown::default(); 3],
            ..GcStats::default()
        };
        stats.per_core[2].record_n(StallReason::ScanLock, 5);
        let text = outcome_to_json(&GcOutcome { free: 7, stats })
            .to_string_compact()
            .replace("[5,0,0,0,0,0,0,0,0]", "[-1,0,0,0,0,0,0,0,0]");
        assert_eq!(
            outcome_from_text(&text).unwrap_err(),
            "`per_core[2]` holds a non-u64"
        );
    }
}
