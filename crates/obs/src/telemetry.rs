//! Fleet telemetry for sweep execution: a [`SweepProgress`] reporter
//! that turns a silent fan-out (`par_map` over dozens of simulations)
//! into periodic stderr progress lines and a machine-readable
//! [`TELEMETRY_SCHEMA`] JSONL stream.
//!
//! The stream carries four line kinds:
//!
//! * `start` — sweep label and total job count;
//! * `job` — one per completed job: label, outcome
//!   (hit / miss / verify_ok / digest_check), host nanoseconds, and the
//!   running done/hit/miss counters at completion time;
//! * `workers` — fleet gauges from the work-stealing coordinator:
//!   jobs currently in flight across worker processes, the cumulative
//!   steal count, and the monotone ETA (see [`SweepProgress::fleet`]);
//! * `summary` — final counters, hit rate, total host time, steal
//!   count, and the slowest-job watermarks.
//!
//! Everything in the stream except the counters is **host data** (wall
//! clocks, ETAs) and therefore nondeterministic — the stream is an
//! operator aid and a CI artifact, never a golden file. The deterministic
//! artifacts a sweep produces (ledger records, reports) stay byte-stable
//! regardless of telemetry being on or off.
//!
//! Multiple processes may share one stream file (`reproduce_all` forwards
//! the path to its children): each line, newline included, is appended
//! with a single `write_all` ([`Json::write_line`]) under `O_APPEND`, so
//! concurrent writers interleave whole lines.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// JSON schema tag of every telemetry line.
pub const TELEMETRY_SCHEMA: &str = "hwgc-sweep-telemetry-v1";

/// How many slowest-job watermarks the summary keeps.
const WATERMARKS: usize = 3;

/// Minimum milliseconds between throttled stderr progress lines.
const STDERR_THROTTLE_MS: u64 = 500;

/// How a sweep job was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Result served from the content-addressed cache; simulation skipped.
    Hit,
    /// Simulated (no usable cache record).
    Miss,
    /// Cache hit re-simulated under `HWGC_CACHE=verify`; digests agreed.
    VerifyOk,
    /// Simulated, then cross-checked against a digest-only ledger record
    /// (a payload-less hit).
    DigestCheck,
}

impl JobOutcome {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobOutcome::Hit => "hit",
            JobOutcome::Miss => "miss",
            JobOutcome::VerifyOk => "verify_ok",
            JobOutcome::DigestCheck => "digest_check",
        }
    }

    fn from_label(s: &str) -> Option<JobOutcome> {
        Some(match s {
            "hit" => JobOutcome::Hit,
            "miss" => JobOutcome::Miss,
            "verify_ok" => JobOutcome::VerifyOk,
            "digest_check" => JobOutcome::DigestCheck,
            _ => return None,
        })
    }
}

/// Final counters of a sweep, as rendered into the `summary` line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepSummary {
    /// Sweep label.
    pub sweep: String,
    /// Jobs completed.
    pub done: usize,
    /// Jobs announced up front (0 when unknown).
    pub total: usize,
    /// Cache hits (simulation skipped).
    pub hits: usize,
    /// Simulated jobs.
    pub misses: usize,
    /// Verify-mode re-simulations that agreed.
    pub verified: usize,
    /// Post-run digest cross-checks against payload-less records.
    pub digest_checks: usize,
    /// Total host nanoseconds across jobs.
    pub host_ns: u64,
    /// Jobs stolen between worker queues (multi-process sweeps only;
    /// 0 for in-process execution).
    pub steals: u64,
    /// Slowest jobs, worst first: `(host_ns, label)`.
    pub slowest: Vec<(u64, String)>,
}

impl SweepSummary {
    /// Fraction of jobs that skipped simulation entirely.
    pub fn hit_rate(&self) -> f64 {
        if self.done == 0 {
            0.0
        } else {
            self.hits as f64 / self.done as f64
        }
    }
}

/// Live progress reporter for one sweep. Thread-safe: `job` may be
/// called concurrently from `par_map` workers.
pub struct SweepProgress {
    sweep: String,
    total: usize,
    started: Instant,
    done: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    verified: AtomicUsize,
    digest_checks: AtomicUsize,
    host_ns: AtomicU64,
    in_flight: AtomicUsize,
    steals: AtomicU64,
    /// Projected finish instant in elapsed-ms, clamped non-increasing
    /// (`u64::MAX` = no estimate yet). This is what keeps the ETA
    /// monotone under work-stealing: a queue rebalance can shuffle
    /// *which* worker runs the tail, never add work, so a later
    /// projection than the stored one is noise and is discarded.
    eta_finish_ms: AtomicU64,
    last_stderr_ms: AtomicU64,
    quiet: bool,
    slowest: Mutex<Vec<(u64, String)>>,
    stream: Mutex<Option<std::fs::File>>,
}

impl SweepProgress {
    /// A reporter for `total` jobs of sweep `sweep` (pass 0 when the job
    /// count is open-ended). `stream` is the shared telemetry JSONL file
    /// (`None` keeps telemetry stderr-only); `quiet` suppresses the
    /// throttled stderr lines (the JSONL stream is unaffected).
    pub fn new(sweep: &str, total: usize, stream: Option<&Path>, quiet: bool) -> SweepProgress {
        let file = stream.and_then(|path| {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .ok()
        });
        let progress = SweepProgress {
            sweep: sweep.to_string(),
            total,
            started: Instant::now(),
            done: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            verified: AtomicUsize::new(0),
            digest_checks: AtomicUsize::new(0),
            host_ns: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            eta_finish_ms: AtomicU64::new(u64::MAX),
            last_stderr_ms: AtomicU64::new(0),
            quiet,
            slowest: Mutex::new(Vec::new()),
            stream: Mutex::new(file),
        };
        progress.emit(Json::Obj(vec![
            (
                "schema".to_string(),
                Json::Str(TELEMETRY_SCHEMA.to_string()),
            ),
            ("kind".to_string(), Json::Str("start".to_string())),
            ("sweep".to_string(), Json::Str(sweep.to_string())),
            ("total".to_string(), Json::Int(total as i128)),
        ]));
        progress
    }

    /// Record one completed job. `host_ns` is the job's wall time on the
    /// host (0 is fine for instantaneous cache hits).
    pub fn job(&self, label: &str, outcome: JobOutcome, host_ns: u64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let counter = match outcome {
            JobOutcome::Hit => &self.hits,
            JobOutcome::Miss => &self.misses,
            JobOutcome::VerifyOk => &self.verified,
            JobOutcome::DigestCheck => &self.digest_checks,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.host_ns.fetch_add(host_ns, Ordering::Relaxed);
        {
            let mut slowest = self.slowest.lock().unwrap();
            slowest.push((host_ns, label.to_string()));
            slowest.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            slowest.truncate(WATERMARKS);
        }
        self.emit(Json::Obj(vec![
            (
                "schema".to_string(),
                Json::Str(TELEMETRY_SCHEMA.to_string()),
            ),
            ("kind".to_string(), Json::Str("job".to_string())),
            ("sweep".to_string(), Json::Str(self.sweep.clone())),
            ("job".to_string(), Json::Str(label.to_string())),
            (
                "outcome".to_string(),
                Json::Str(outcome.label().to_string()),
            ),
            ("done".to_string(), Json::Int(done as i128)),
            ("total".to_string(), Json::Int(self.total as i128)),
            ("host_ns".to_string(), Json::Int(i128::from(host_ns))),
        ]));
        self.maybe_stderr(done);
    }

    /// Update the work-stealing fleet gauges and emit a `workers` line.
    /// The multi-process coordinator calls this whenever a worker picks
    /// up or finishes a job and whenever a queue steal happens:
    /// `in_flight` is the number of jobs executing across workers right
    /// now, `steals` the cumulative cross-queue steal count. In-process
    /// sweeps never call it and their streams carry no `workers` lines.
    pub fn fleet(&self, in_flight: usize, steals: u64) {
        self.in_flight.store(in_flight, Ordering::Relaxed);
        self.steals.store(steals, Ordering::Relaxed);
        let mut fields = vec![
            (
                "schema".to_string(),
                Json::Str(TELEMETRY_SCHEMA.to_string()),
            ),
            ("kind".to_string(), Json::Str("workers".to_string())),
            ("sweep".to_string(), Json::Str(self.sweep.clone())),
            (
                "done".to_string(),
                Json::Int(self.done.load(Ordering::Relaxed) as i128),
            ),
            ("in_flight".to_string(), Json::Int(in_flight as i128)),
            ("steals".to_string(), Json::Int(i128::from(steals))),
        ];
        fields.push((
            "eta_ms".to_string(),
            self.eta_ms()
                .map_or(Json::Null, |ms| Json::Int(i128::from(ms))),
        ));
        self.emit(Json::Obj(fields));
    }

    /// Monotone time-to-finish estimate in milliseconds; `None` until
    /// the first job completes (or for open-ended/finished sweeps).
    ///
    /// The raw estimate is mean-per-job × remaining, with each
    /// in-flight job counted as half done — without that, a steal burst
    /// (several workers picking up fresh jobs at once) inflates
    /// "remaining" and the naive ETA jumps backwards. The projected
    /// *finish instant* is additionally clamped to never move later
    /// than any previous projection, so the countdown a user watches is
    /// non-increasing (it bottoms out at 0 when a projection is
    /// overdue, never resurges).
    pub fn eta_ms(&self) -> Option<u64> {
        let done = self.done.load(Ordering::Relaxed);
        if done == 0 || self.total == 0 || done >= self.total {
            return None;
        }
        let now_ms = self.started.elapsed().as_millis() as u64;
        let remaining = (self.total - done) as f64;
        let in_flight = (self.in_flight.load(Ordering::Relaxed) as f64).min(remaining);
        let per_job = now_ms as f64 / done as f64;
        let raw_finish = now_ms + (per_job * (remaining - 0.5 * in_flight)) as u64;
        let mut prev = self.eta_finish_ms.load(Ordering::Relaxed);
        loop {
            let clamped = raw_finish.min(prev);
            match self.eta_finish_ms.compare_exchange_weak(
                prev,
                clamped,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(clamped.saturating_sub(now_ms)),
                Err(p) => prev = p,
            }
        }
    }

    /// Counters so far (also the shape of the final summary line).
    pub fn snapshot(&self) -> SweepSummary {
        SweepSummary {
            sweep: self.sweep.clone(),
            done: self.done.load(Ordering::Relaxed),
            total: self.total,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            digest_checks: self.digest_checks.load(Ordering::Relaxed),
            host_ns: self.host_ns.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            slowest: self.slowest.lock().unwrap().clone(),
        }
    }

    /// Emit the `summary` line (and a final stderr line) and return the
    /// final counters.
    pub fn finish(&self) -> SweepSummary {
        let s = self.snapshot();
        let slowest = Json::Arr(
            s.slowest
                .iter()
                .map(|(ns, label)| {
                    Json::Obj(vec![
                        ("job".to_string(), Json::Str(label.clone())),
                        ("host_ns".to_string(), Json::Int(i128::from(*ns))),
                    ])
                })
                .collect(),
        );
        self.emit(Json::Obj(vec![
            (
                "schema".to_string(),
                Json::Str(TELEMETRY_SCHEMA.to_string()),
            ),
            ("kind".to_string(), Json::Str("summary".to_string())),
            ("sweep".to_string(), Json::Str(s.sweep.clone())),
            ("done".to_string(), Json::Int(s.done as i128)),
            ("total".to_string(), Json::Int(s.total as i128)),
            ("hits".to_string(), Json::Int(s.hits as i128)),
            ("misses".to_string(), Json::Int(s.misses as i128)),
            ("verified".to_string(), Json::Int(s.verified as i128)),
            (
                "digest_checks".to_string(),
                Json::Int(s.digest_checks as i128),
            ),
            ("hit_rate".to_string(), Json::Float(s.hit_rate())),
            ("host_ns".to_string(), Json::Int(i128::from(s.host_ns))),
            ("steals".to_string(), Json::Int(i128::from(s.steals))),
            ("slowest".to_string(), slowest),
        ]));
        if !self.quiet {
            eprintln!(
                "[{}] done {}/{} — {} hit / {} miss / {} verified / {} checked \
                 ({:.0}% hit rate, {:.1}s)",
                s.sweep,
                s.done,
                if s.total == 0 { s.done } else { s.total },
                s.hits,
                s.misses,
                s.verified,
                s.digest_checks,
                100.0 * s.hit_rate(),
                self.started.elapsed().as_secs_f64(),
            );
        }
        s
    }

    fn emit(&self, line: Json) {
        if let Some(f) = self.stream.lock().unwrap().as_mut() {
            let _ = line.write_line(f);
        }
    }

    fn maybe_stderr(&self, done: usize) {
        if self.quiet {
            return;
        }
        let now_ms = self.started.elapsed().as_millis() as u64;
        let last = self.last_stderr_ms.load(Ordering::Relaxed);
        let final_job = self.total != 0 && done == self.total;
        if !final_job && now_ms.saturating_sub(last) < STDERR_THROTTLE_MS {
            return;
        }
        if self
            .last_stderr_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
            && !final_job
        {
            return; // another worker just printed
        }
        let hits = self.hits.load(Ordering::Relaxed);
        let eta = match self.eta_ms() {
            Some(ms) => format!(", eta {:.0}s", ms as f64 / 1000.0),
            None => String::new(),
        };
        if self.total == 0 {
            eprintln!("[{}] {done} jobs done ({hits} cached{eta})", self.sweep);
        } else {
            eprintln!(
                "[{}] {done}/{} jobs done ({hits} cached{eta})",
                self.sweep, self.total
            );
        }
    }
}

/// Validate a [`TELEMETRY_SCHEMA`] JSONL stream and aggregate it: every
/// line must carry the schema tag and a known `kind`, `job` lines must
/// carry a known outcome, and the returned totals sum the job lines
/// across all sweeps in the stream (a `reproduce_all` stream holds one
/// sweep per child process).
pub fn validate_telemetry_jsonl(text: &str) -> Result<SweepSummary, String> {
    let mut totals = SweepSummary {
        sweep: "(aggregate)".to_string(),
        ..SweepSummary::default()
    };
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let v = Json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        if v.get("schema").and_then(Json::as_str) != Some(TELEMETRY_SCHEMA) {
            return Err(format!("line {n}: schema is not {TELEMETRY_SCHEMA}"));
        }
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {n}: missing `kind`"))?;
        match kind {
            "start" => {
                let total = v
                    .get("total")
                    .and_then(Json::as_int)
                    .ok_or_else(|| format!("line {n}: start without `total`"))?;
                totals.total +=
                    usize::try_from(total).map_err(|_| format!("line {n}: negative `total`"))?;
            }
            "job" => {
                let outcome = v
                    .get("outcome")
                    .and_then(Json::as_str)
                    .and_then(JobOutcome::from_label)
                    .ok_or_else(|| format!("line {n}: job without a known `outcome`"))?;
                totals.done += 1;
                match outcome {
                    JobOutcome::Hit => totals.hits += 1,
                    JobOutcome::Miss => totals.misses += 1,
                    JobOutcome::VerifyOk => totals.verified += 1,
                    JobOutcome::DigestCheck => totals.digest_checks += 1,
                }
                let ns = v
                    .get("host_ns")
                    .and_then(Json::as_int)
                    .ok_or_else(|| format!("line {n}: job without `host_ns`"))?;
                totals.host_ns +=
                    u64::try_from(ns).map_err(|_| format!("line {n}: negative `host_ns`"))?;
            }
            "workers" => {
                // Fleet gauges are instantaneous host data; validate the
                // required fields and keep the high-water steal count.
                let steals = v
                    .get("steals")
                    .and_then(Json::as_int)
                    .and_then(|i| u64::try_from(i).ok())
                    .ok_or_else(|| format!("line {n}: workers without `steals`"))?;
                v.get("in_flight")
                    .and_then(Json::as_int)
                    .ok_or_else(|| format!("line {n}: workers without `in_flight`"))?;
                totals.steals = totals.steals.max(steals);
            }
            "summary" => {
                // Summaries restate counters; watermarks are aggregated.
                if let Some(Json::Arr(slowest)) = v.get("slowest") {
                    for entry in slowest {
                        let label = entry
                            .get("job")
                            .and_then(Json::as_str)
                            .unwrap_or("?")
                            .to_string();
                        let ns = entry
                            .get("host_ns")
                            .and_then(Json::as_int)
                            .and_then(|i| u64::try_from(i).ok())
                            .unwrap_or(0);
                        totals.slowest.push((ns, label));
                    }
                    totals
                        .slowest
                        .sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
                    totals.slowest.truncate(WATERMARKS);
                }
            }
            other => return Err(format!("line {n}: unknown kind `{other}`")),
        }
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_round_trips_through_the_validator() {
        let dir = std::env::temp_dir().join("hwgc_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        let _ = std::fs::remove_file(&path);
        let progress = SweepProgress::new("unit", 3, Some(path.as_path()), true);
        progress.job("a", JobOutcome::Hit, 0);
        progress.job("b", JobOutcome::Miss, 2_000);
        progress.job("c", JobOutcome::VerifyOk, 1_000);
        let summary = progress.finish();
        assert_eq!(summary.done, 3);
        assert_eq!((summary.hits, summary.misses, summary.verified), (1, 1, 1));
        assert!((summary.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(summary.slowest[0], (2_000, "b".to_string()));

        let text = std::fs::read_to_string(&path).unwrap();
        let totals = validate_telemetry_jsonl(&text).unwrap();
        assert_eq!(totals.done, 3);
        assert_eq!(totals.total, 3);
        assert_eq!(totals.hits, 1);
        assert_eq!(totals.host_ns, 3_000);
        assert_eq!(totals.slowest[0], (2_000, "b".to_string()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_jobs_count_exactly_once() {
        let progress = SweepProgress::new("threads", 64, None, true);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let progress = &progress;
                scope.spawn(move || {
                    for j in 0..8 {
                        let outcome = if (t + j) % 2 == 0 {
                            JobOutcome::Hit
                        } else {
                            JobOutcome::Miss
                        };
                        progress.job(&format!("t{t}j{j}"), outcome, 10);
                    }
                });
            }
        });
        let s = progress.snapshot();
        assert_eq!(s.done, 64);
        assert_eq!(s.hits + s.misses, 64);
        assert_eq!(s.hits, 32);
        assert_eq!(s.host_ns, 640);
    }

    #[test]
    fn eta_is_monotone_under_stealing_bursts() {
        let progress = SweepProgress::new("eta", 100, None, true);
        assert_eq!(progress.eta_ms(), None, "no estimate before the first job");
        let mut last_eta = u64::MAX;
        for i in 0..60 {
            progress.job(&format!("j{i}"), JobOutcome::Miss, 1_000);
            // A steal burst: several workers pick up fresh jobs at once.
            // The naive per-job extrapolation would wobble; the clamped
            // countdown must never resurge.
            progress.fleet(if i % 7 == 0 { 4 } else { 1 }, i / 7);
            let eta = progress.eta_ms().expect("estimate after first job");
            assert!(
                eta <= last_eta,
                "job {i}: countdown resurged ({eta} > {last_eta})"
            );
            last_eta = eta;
        }
        let s = progress.snapshot();
        assert_eq!(s.steals, 59 / 7);
    }

    #[test]
    fn workers_lines_validate_and_aggregate_steals() {
        let dir = std::env::temp_dir().join("hwgc_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workers.jsonl");
        let _ = std::fs::remove_file(&path);
        let progress = SweepProgress::new("fleet", 2, Some(path.as_path()), true);
        progress.job("a", JobOutcome::Miss, 100);
        progress.fleet(1, 3);
        progress.job("b", JobOutcome::Miss, 100);
        progress.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"workers\""));
        let totals = validate_telemetry_jsonl(&text).unwrap();
        assert_eq!(totals.done, 2);
        assert_eq!(totals.steals, 3);
        let _ = std::fs::remove_file(&path);

        let err = validate_telemetry_jsonl(
            "{\"schema\":\"hwgc-sweep-telemetry-v1\",\"kind\":\"workers\"}\n",
        )
        .unwrap_err();
        assert!(err.contains("steals"), "{err}");
    }

    #[test]
    fn validator_rejects_foreign_and_malformed_lines() {
        let err = validate_telemetry_jsonl("{\"schema\":\"nope\"}\n").unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let err = validate_telemetry_jsonl(
            "{\"schema\":\"hwgc-sweep-telemetry-v1\",\"kind\":\"job\",\"outcome\":\"warp\"}\n",
        )
        .unwrap_err();
        assert!(err.contains("outcome"), "{err}");
        let err = validate_telemetry_jsonl("not json\n").unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
    }

    #[test]
    fn multi_process_streams_aggregate() {
        // Two sweeps interleaved in one stream, as reproduce_all children
        // produce under O_APPEND.
        let a = SweepProgress::new("a", 0, None, true); // just for shape
        drop(a);
        let mut text = String::new();
        for (sweep, outcome) in [("s1", "miss"), ("s2", "hit"), ("s1", "hit")] {
            text.push_str(&format!(
                "{{\"schema\":\"{TELEMETRY_SCHEMA}\",\"kind\":\"job\",\"sweep\":\"{sweep}\",\
                 \"job\":\"x\",\"outcome\":\"{outcome}\",\"done\":1,\"total\":1,\"host_ns\":5}}\n"
            ));
        }
        let totals = validate_telemetry_jsonl(&text).unwrap();
        assert_eq!(totals.done, 3);
        assert_eq!(totals.hits, 2);
        assert_eq!(totals.misses, 1);
        assert!((totals.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
