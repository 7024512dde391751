//! Sweep progress on stderr: a [`SweepProgress`] reporter that turns a
//! silent fan-out (`par_map` or a worker fleet over dozens of
//! simulations) into throttled progress lines and one final summary
//! line, and the [`JobOutcome`] each job is counted under.
//!
//! Everything it prints is host data (elapsed seconds, an ETA) and goes
//! to stderr only. A sweep's record is its result cache file (and its
//! resumption journal, when one is attached): the deterministic artifacts
//! are byte-identical whether anyone watches the progress or not.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

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
    /// Stable wire label (the resumption journal's `outcome` field).
    pub fn label(self) -> &'static str {
        match self {
            JobOutcome::Hit => "hit",
            JobOutcome::Miss => "miss",
            JobOutcome::VerifyOk => "verify_ok",
            JobOutcome::DigestCheck => "digest_check",
        }
    }
}

/// A sweep's counters, as the final summary line prints them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepSummary {
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
/// called concurrently from `par_map` workers and fleet feeders.
pub struct SweepProgress {
    sweep: String,
    total: usize,
    started: Instant,
    done: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    verified: AtomicUsize,
    digest_checks: AtomicUsize,
    /// Projected finish instant in elapsed-ms, clamped non-increasing
    /// (`u64::MAX` = no estimate yet), so the countdown never resurges.
    eta_finish_ms: AtomicU64,
    last_stderr_ms: AtomicU64,
}

impl SweepProgress {
    /// A reporter for `total` jobs of sweep `sweep` (pass 0 when the job
    /// count is open-ended).
    pub fn new(sweep: &str, total: usize) -> SweepProgress {
        SweepProgress {
            sweep: sweep.to_string(),
            total,
            started: Instant::now(),
            done: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            verified: AtomicUsize::new(0),
            digest_checks: AtomicUsize::new(0),
            eta_finish_ms: AtomicU64::new(u64::MAX),
            last_stderr_ms: AtomicU64::new(0),
        }
    }

    /// Count one completed job and maybe print a progress line.
    pub fn job(&self, outcome: JobOutcome) {
        let counter = match outcome {
            JobOutcome::Hit => &self.hits,
            JobOutcome::Miss => &self.misses,
            JobOutcome::VerifyOk => &self.verified,
            JobOutcome::DigestCheck => &self.digest_checks,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.maybe_stderr(done);
    }

    /// Monotone time-to-finish estimate in milliseconds: mean time per
    /// completed job × jobs remaining, with the projected *finish
    /// instant* clamped to never move later than an earlier projection.
    /// `None` until the first job completes, and for open-ended or
    /// finished sweeps.
    pub fn eta_ms(&self) -> Option<u64> {
        let done = self.done.load(Ordering::Relaxed);
        if done == 0 || self.total == 0 || done >= self.total {
            return None;
        }
        let now_ms = self.started.elapsed().as_millis() as u64;
        let per_job = now_ms as f64 / done as f64;
        let raw_finish = now_ms + (per_job * (self.total - done) as f64) as u64;
        let prev = self.eta_finish_ms.fetch_min(raw_finish, Ordering::Relaxed);
        Some(raw_finish.min(prev).saturating_sub(now_ms))
    }

    /// Print the final summary line and return the final counters.
    pub fn finish(&self) -> SweepSummary {
        let s = SweepSummary {
            done: self.done.load(Ordering::Relaxed),
            total: self.total,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            digest_checks: self.digest_checks.load(Ordering::Relaxed),
        };
        eprintln!(
            "[{}] done {}/{} — {} hit / {} miss / {} verified / {} checked \
             ({:.0}% hit rate, {:.1}s)",
            self.sweep,
            s.done,
            if s.total == 0 { s.done } else { s.total },
            s.hits,
            s.misses,
            s.verified,
            s.digest_checks,
            100.0 * s.hit_rate(),
            self.started.elapsed().as_secs_f64(),
        );
        s
    }

    fn maybe_stderr(&self, done: usize) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_jobs_count_exactly_once() {
        let progress = SweepProgress::new("threads", 64);
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
                        progress.job(outcome);
                    }
                });
            }
        });
        let s = progress.finish();
        assert_eq!(s.done, 64);
        assert_eq!(s.hits + s.misses, 64);
        assert_eq!(s.hits, 32);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eta_is_monotone() {
        let progress = SweepProgress::new("eta", 100);
        assert_eq!(progress.eta_ms(), None, "no estimate before the first job");
        let mut last_eta = u64::MAX;
        for i in 0..60 {
            progress.job(JobOutcome::Miss);
            if i % 7 == 0 {
                // A slow stretch: the naive per-job extrapolation grows,
                // the clamped countdown must not.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let eta = progress.eta_ms().expect("estimate after first job");
            assert!(
                eta <= last_eta,
                "job {i}: countdown resurged ({eta} > {last_eta})"
            );
            last_eta = eta;
        }
        for _ in 60..100 {
            progress.job(JobOutcome::Hit);
        }
        assert_eq!(progress.eta_ms(), None, "no estimate once finished");
    }
}
