//! What every workload shares: the options of a run, the timed repeat
//! loop with its failure tally, and the result a run produces.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::metrics::{Quartiles, Values};
use crate::spans::Tracer;
use crate::stats::Summary;

/// A traced run splits its budget: untraced ops, traced ops, and the
/// remainder for the one-off layer measurements.
pub const UNTRACED_SHARE: f64 = 0.3;
pub const TRACED_SHARE: f64 = 0.4;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long the timed loops measure, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// The self-tests' smoke size for the single-config workloads.
    pub scale_override: Option<f64>,
}

impl Options {
    /// Set-ups per run. `setup_s` is their median; a traced run does not
    /// report it and sets up once.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    /// A timed loop runs at least this many ops however slow they are.
    pub fn min_reps(&self) -> usize {
        if self.trace {
            3
        } else {
            5
        }
    }

    /// Seconds for the untraced timed loop.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * UNTRACED_SHARE
        } else {
            self.seconds
        }
    }
}

/// Ops attempted and failed. An op fails when its collection does not
/// verify, its digest differs from the first rep's, the cache answers
/// differently than it must, or it panics.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "op panicked".to_string())
}

/// Repeat `op` until `seconds` have passed and `min_reps` ops ran.
/// Returns what the successful ops returned, in order; failures and
/// caught panics go to `tally`.
pub fn repeat<T>(
    seconds: f64,
    min_reps: usize,
    tally: &mut Tally,
    mut op: impl FnMut() -> Result<T, String>,
) -> Vec<T> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut done = Vec::new();
    let mut reps = 0;
    while reps < min_reps || start.elapsed() < budget {
        reps += 1;
        tally.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(&mut op))
            .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(p))));
        match outcome {
            Ok(sample) => done.push(sample),
            Err(why) => {
                tally.failed += 1;
                tally
                    .failures
                    .push(format!("op {}: {why}", tally.attempted));
            }
        }
    }
    done
}

/// Whether the run's digest equals the one recorded for seed 42.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Golden {
    Match,
    Differs,
    /// No golden for this seed (goldens exist for seed 42 only).
    NotRecorded,
}

impl Golden {
    pub fn check(recorded: Option<u64>, digest: u64) -> Golden {
        match recorded {
            Some(d) if d == digest => Golden::Match,
            Some(_) => Golden::Differs,
            None => Golden::NotRecorded,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Golden::Match => "match",
            Golden::Differs => "differs",
            Golden::NotRecorded => "not-recorded",
        }
    }
}

/// Everything one run measured.
pub struct RunResult {
    pub workload: &'static str,
    pub opts: Options,
    /// `GcConfig::effective_engine` of the workload's config(s).
    pub engine: String,
    pub tally: Tally,
    /// Digest of the simulated statistics: `GcStats::digest` of the
    /// collection, or the job set's digests combined.
    pub stats_digest: u64,
    pub golden: Golden,
    /// The untraced op timings behind `op_wall_s`.
    pub op_wall: Summary,
    /// Tracing off: every end-to-end metric. Empty in a traced run.
    pub end_to_end: Values,
    /// Within-run quartiles of the timed end-to-end metrics, for
    /// `--compare`'s spread.
    pub quartiles: Quartiles,
    /// Traced run: every per-layer metric that has a meaning here.
    pub per_layer: Values,
    /// Traced run: the spans.
    pub trace: Option<Tracer>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }
}
