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
use hwgc_obs::json::Json;
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
/// cross-binary dedupe (`reproduce_all` then `bench_baseline`) needs
/// the first binary's results on disk when the second one starts.
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
        let cached = self
            .store
            .get(hash)
            .map(|rec| (rec.stats_digest, rec.result.as_ref().map(outcome_from_json)));
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
        rec.result = Some(outcome_to_json(outcome));
        rec.host = Vec::new(); // cache records carry no host noise
        let _guard = self.write_lock.lock().unwrap();
        if let Err(e) = rec.append_jsonl(path) {
            eprintln!("warning: cache append to {} failed: {e}", path.display());
        }
    }
}

fn verify_pct_from_env() -> u64 {
    std::env::var("HWGC_CACHE_VERIFY_PCT")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
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
// GcStats / GcOutcome <-> Json: the payload codec. Lives here (not in
// hwgc-obs) because obs deliberately has no dependency on hwgc-core.
// Round-trip is exact — every field is an integer — so the decoded
// stats' `digest()` equals the original's.
// ---------------------------------------------------------------------

fn u64s(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Int(i128::from(v))).collect())
}

/// Decoders name the field they fail on; `what` is formatted only then.
fn u64s_back(j: &Json, what: &(impl std::fmt::Display + ?Sized)) -> Result<Vec<u64>, String> {
    let Json::Arr(items) = j else {
        return Err(format!("`{what}` is not an array"));
    };
    // Sized up front: collecting `Result`s would grow the vector from 4.
    let mut values = Vec::with_capacity(items.len());
    for v in items {
        let n = v.as_int().and_then(|i| u64::try_from(i).ok());
        values.push(n.ok_or_else(|| format!("`{what}` holds a non-u64"))?);
    }
    Ok(values)
}

fn breakdown_to_json(b: &StallBreakdown) -> Json {
    // One entry per StallReason, in bus-index order.
    u64s(&StallReason::ALL.map(|r| b.get(r)))
}

fn breakdown_from_json(
    j: &Json,
    what: &(impl std::fmt::Display + ?Sized),
) -> Result<StallBreakdown, String> {
    let values = u64s_back(j, what)?;
    if values.len() != StallReason::COUNT {
        return Err(format!(
            "`{what}` has {} entries, expected {}",
            values.len(),
            StallReason::COUNT
        ));
    }
    let mut b = StallBreakdown::default();
    for (reason, &n) in StallReason::ALL.iter().zip(&values) {
        b.record_n(*reason, n);
    }
    Ok(b)
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

fn req_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_int)
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| format!("missing u64 field `{key}`"))
}

/// Decode [`stats_to_json`] output. Exact inverse: the decoded stats'
/// digest equals the encoded stats'.
pub fn stats_from_json(j: &Json) -> Result<GcStats, String> {
    let fifo_raw = u64s_back(j.get("fifo").ok_or("missing `fifo`")?, "fifo")?;
    if fifo_raw.len() != 5 {
        return Err(format!("`fifo` has {} entries, expected 5", fifo_raw.len()));
    }
    let mem_j = j.get("mem").ok_or("missing `mem`")?;
    let issued_raw = u64s_back(
        mem_j.get("issued").ok_or("missing `mem.issued`")?,
        "mem.issued",
    )?;
    let issued: [u64; PORT_COUNT] = issued_raw
        .try_into()
        .map_err(|_| format!("`mem.issued` is not {PORT_COUNT} entries"))?;
    let dram = match mem_j.get("dram") {
        Some(d) => Some(DramStats {
            row_hits: req_u64(d, "row_hits")?,
            row_empties: req_u64(d, "row_empties")?,
            row_conflicts: req_u64(d, "row_conflicts")?,
            bank_accesses: u64s_back(
                d.get("bank_accesses")
                    .ok_or("missing `dram.bank_accesses`")?,
                "dram.bank_accesses",
            )?,
            bank_busy_cycles: u64s_back(
                d.get("bank_busy_cycles")
                    .ok_or("missing `dram.bank_busy_cycles`")?,
                "dram.bank_busy_cycles",
            )?,
        }),
        None => None,
    };
    let sync_j = j.get("sync").ok_or("missing `sync`")?;
    let arr3 = |key: &str| -> Result<[u64; 3], String> {
        u64s_back(
            sync_j
                .get(key)
                .ok_or_else(|| format!("missing `sync.{key}`"))?,
            key,
        )?
        .try_into()
        .map_err(|_| format!("`sync.{key}` is not 3 entries"))
    };
    let per_core = match j.get("per_core") {
        Some(Json::Arr(cores)) => cores
            .iter()
            .enumerate()
            .map(|(i, c)| breakdown_from_json(c, &format_args!("per_core[{i}]")))
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("missing array field `per_core`".to_string()),
    };
    Ok(GcStats {
        total_cycles: req_u64(j, "total_cycles")?,
        empty_worklist_cycles: req_u64(j, "empty_worklist_cycles")?,
        stall: breakdown_from_json(j.get("stall").ok_or("missing `stall`")?, "stall")?,
        per_core,
        objects_copied: req_u64(j, "objects_copied")?,
        words_copied: req_u64(j, "words_copied")?,
        pointers_visited: req_u64(j, "pointers_visited")?,
        chunks_claimed: req_u64(j, "chunks_claimed")?,
        roots_processed: req_u64(j, "roots_processed")?,
        root_phase_cycles: req_u64(j, "root_phase_cycles")?,
        fifo: FifoStats {
            pushes: fifo_raw[0],
            overflows: fifo_raw[1],
            hits: fifo_raw[2],
            misses: fifo_raw[3],
            max_occupancy: usize::try_from(fifo_raw[4]).map_err(|_| "fifo occupancy overflow")?,
        },
        mem: MemStats {
            issued,
            comparator_blocked_cycles: req_u64(mem_j, "comparator_blocked_cycles")?,
            header_cache_hits: req_u64(mem_j, "header_cache_hits")?,
            header_cache_misses: req_u64(mem_j, "header_cache_misses")?,
            queue_occupancy_sum: req_u64(mem_j, "queue_occupancy_sum")?,
            queue_busy_cycles: req_u64(mem_j, "queue_busy_cycles")?,
            cycles: req_u64(mem_j, "cycles")?,
            dram,
        },
        sync: SyncStats {
            acquisitions: arr3("acquisitions")?,
            failed_attempts: arr3("failed_attempts")?,
        },
    })
}

/// Serialize a full [`GcOutcome`] (the cache payload).
pub fn outcome_to_json(o: &GcOutcome) -> Json {
    Json::Obj(vec![
        ("free".to_string(), Json::Int(i128::from(o.free))),
        ("stats".to_string(), stats_to_json(&o.stats)),
    ])
}

/// Decode [`outcome_to_json`] output.
pub fn outcome_from_json(j: &Json) -> Result<GcOutcome, String> {
    let free = j
        .get("free")
        .and_then(Json::as_int)
        .and_then(|i| u32::try_from(i).ok())
        .ok_or("missing u32 field `free`")?;
    Ok(GcOutcome {
        free,
        stats: stats_from_json(j.get("stats").ok_or("missing `stats`")?)?,
    })
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
        .to_json()
        .to_string_compact()
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
        let Json::Obj(mut fields) = stats_to_json(&stats) else {
            panic!("stats encode as an object")
        };
        let per_core = &mut fields.iter_mut().find(|(k, _)| k == "per_core").unwrap().1;
        let Json::Arr(cores) = per_core else {
            panic!("per_core is an array")
        };
        cores[2] = Json::Arr(vec![Json::Int(-1); StallReason::COUNT]);
        let err = stats_from_json(&Json::Obj(fields)).unwrap_err();
        assert_eq!(err, "`per_core[2]` holds a non-u64");
    }
}
