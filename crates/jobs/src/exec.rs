//! JobSet execution: one entry point ([`run_jobset`]) with two engines
//! behind it.
//!
//! * **In-process** (`workers == 0`, the default): pending jobs fan out
//!   over the [`crate::par_map`] thread pool — today's behaviour,
//!   preserved bit-for-bit for the determinism tests.
//! * **Multi-process** (`workers >= 1`): the coordinator spawns that
//!   many persistent `sweep_worker` child processes and feeds them jobs
//!   over stdin/stdout (length-prefixed JSON, see [`crate::protocol`]).
//!   Jobs are dealt round-robin into per-worker queues; a worker whose
//!   queue drains **steals from the back of the longest other queue**,
//!   so a slow job never strands the rest of its queue. The steal count
//!   lands in [`ExecReport::steals`].
//!
//! Both engines share the exact same cache transaction
//! ([`ResultCache::lookup`] before execution, [`ResultCache::complete`]
//! after) and the same journal and progress hooks, and both gather results
//! **by job index** — so for a given cache state the outcome vector,
//! the ledger records and every downstream artifact are byte-identical
//! across engines and worker counts (proptested in `tests/jobset.rs`).
//!
//! Resumption: with a [`Journal`] attached, every completion is
//! recorded as it happens. A killed sweep restarts by re-running
//! [`run_jobset`] over the same set — completed jobs come back as
//! cache hits (journal ∪ cache; see `crate::journal`) and only the
//! remainder executes.

use std::collections::VecDeque;
use std::io::{BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use hwgc_core::GcOutcome;
use hwgc_obs::{JobOutcome, SweepProgress};

use crate::cache::{CacheError, CacheLookup, ResultCache};
use crate::job::simulate;
use crate::journal::{Journal, JournalError};
use crate::matrix::JobSet;
use crate::par::par_map;
use crate::protocol::{read_frame, write_frame, FromWorker, ToWorker};

/// How to run a [`JobSet`].
pub struct ExecOptions<'a> {
    /// Cache keys are built under this binary name (the name is ledger
    /// provenance only — it never enters the config hash).
    pub binary: String,
    /// The shared result cache (open it with
    /// [`crate::cache::sweep_cache_mode`] for resumable sweeps).
    pub cache: &'a ResultCache,
    /// Stderr progress reporter, if any.
    pub progress: Option<&'a SweepProgress>,
    /// `0` = in-process on the `par_map` pool; `N >= 1` = that many
    /// `sweep_worker` processes (see [`crate::workers`]).
    pub workers: usize,
    /// Resumption journal, if any.
    pub journal: Option<&'a Journal>,
}

/// What [`run_jobset`] produced.
#[derive(Debug)]
pub struct ExecReport {
    /// Per-job results, in job-set (index) order.
    pub outcomes: Vec<(GcOutcome, JobOutcome)>,
    /// Jobs satisfied from the cache without executing.
    pub skipped: usize,
    /// Cross-queue steals (multi-process only).
    pub steals: u64,
    /// Jobs executed per worker process (empty for in-process runs).
    pub per_worker: Vec<usize>,
}

/// An execution failure. Cache and journal variants are integrity
/// violations; `Worker` means a child died or broke protocol — the
/// journal then holds exactly the completed jobs, ready for resumption.
#[derive(Debug)]
pub enum ExecError {
    Cache(CacheError),
    Journal(JournalError),
    Worker { worker: usize, message: String },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Cache(e) => write!(f, "cache: {e}"),
            ExecError::Journal(e) => write!(f, "{e}"),
            ExecError::Worker { worker, message } => {
                write!(f, "worker {worker}: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<CacheError> for ExecError {
    fn from(e: CacheError) -> ExecError {
        ExecError::Cache(e)
    }
}

impl From<JournalError> for ExecError {
    fn from(e: JournalError) -> ExecError {
        ExecError::Journal(e)
    }
}

/// Locate the `sweep_worker` binary: `HWGC_WORKER_BIN` when set, else a
/// sibling of the running executable (covering `target/<profile>/` for
/// binaries and `target/<profile>/deps/` for test executables).
pub fn worker_bin_path() -> Result<PathBuf, ExecError> {
    if let Some(p) = std::env::var_os("HWGC_WORKER_BIN") {
        return Ok(PathBuf::from(p));
    }
    let name = format!("sweep_worker{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe().map_err(|e| ExecError::Worker {
        worker: 0,
        message: format!("cannot locate own executable: {e}"),
    })?;
    let mut dir = exe.parent();
    while let Some(d) = dir {
        let cand = d.join(&name);
        if cand.exists() {
            return Ok(cand);
        }
        // test binaries live one level down in target/<profile>/deps/
        dir = d.parent();
        if d.file_name().is_none_or(|n| n != "deps") {
            break;
        }
    }
    Err(ExecError::Worker {
        worker: 0,
        message: format!(
            "sweep_worker binary not found next to {} — build it \
             (`cargo build --bin sweep_worker`) or set HWGC_WORKER_BIN",
            exe.display()
        ),
    })
}

/// Run every job of `set`, satisfying what the cache can and executing
/// the rest in-process or across a worker fleet. See the module docs.
pub fn run_jobset(set: &JobSet, opts: &ExecOptions) -> Result<ExecReport, ExecError> {
    let n = set.len();
    let mut slots: Vec<Mutex<Option<(GcOutcome, JobOutcome)>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let mut lookups: Vec<Option<CacheLookup>> = Vec::with_capacity(n);
    let mut pending: Vec<usize> = Vec::new();
    let mut skipped = 0;

    // Phase 1: cache resolution, in index order on the calling thread,
    // by the hashes the set was deduplicated by. Only a job that must
    // execute builds its ledger key (see `complete_job`).
    for (i, (job, &hash)) in set.jobs().iter().zip(set.hashes()).enumerate() {
        match opts.cache.lookup_hash(hash)? {
            CacheLookup::Hit(out) => {
                if let Some(p) = opts.progress {
                    p.job(JobOutcome::Hit);
                }
                if let Some(j) = opts.journal {
                    j.record_done(i, job, JobOutcome::Hit, 0)?;
                }
                *slots[i].get_mut().unwrap() = Some((out, JobOutcome::Hit));
                lookups.push(None);
                skipped += 1;
            }
            look => {
                lookups.push(Some(look));
                pending.push(i);
            }
        }
    }

    // Phase 2: execute the remainder.
    let (steals, per_worker) = if pending.is_empty() {
        (0, vec![0; opts.workers])
    } else if opts.workers == 0 {
        run_in_process(set, opts, &pending, &lookups, &slots)?;
        (0, Vec::new())
    } else {
        run_fleet(set, opts, &pending, &lookups, &slots)?
    };

    let outcomes = slots
        .iter_mut()
        .map(|s| {
            s.get_mut()
                .unwrap()
                .take()
                .expect("every job slot filled on success")
        })
        .collect();
    Ok(ExecReport {
        outcomes,
        skipped,
        steals,
        per_worker,
    })
}

/// Complete one executed job: cache transaction, journal, progress.
/// The single completion path both engines share.
fn complete_job(
    set: &JobSet,
    opts: &ExecOptions,
    lookups: &[Option<CacheLookup>],
    index: usize,
    outcome: &GcOutcome,
    worker: usize,
) -> Result<JobOutcome, ExecError> {
    let job = &set.jobs()[index];
    let key = job.cache_key(&opts.binary);
    debug_assert_eq!(
        key.config_hash(),
        set.hashes()[index],
        "the record appended for a job must carry the hash its lookup used"
    );
    let how = opts.cache.complete(
        &key,
        outcome,
        lookups[index]
            .as_ref()
            .expect("pending job retains its lookup"),
    )?;
    if let Some(j) = opts.journal {
        j.record_done(index, job, how, worker)?;
    }
    if let Some(p) = opts.progress {
        p.job(how);
    }
    Ok(how)
}

fn run_in_process(
    set: &JobSet,
    opts: &ExecOptions,
    pending: &[usize],
    lookups: &[Option<CacheLookup>],
    slots: &[Mutex<Option<(GcOutcome, JobOutcome)>>],
) -> Result<(), ExecError> {
    let results: Vec<Result<(), ExecError>> = par_map(pending, |_, &i| {
        let out = simulate(&set.jobs()[i]);
        let how = complete_job(set, opts, lookups, i, &out, 0)?;
        *slots[i].lock().unwrap() = Some((out, how));
        Ok(())
    });
    results.into_iter().collect()
}

/// One worker's persistent child process plus its I/O handles.
struct WorkerLink {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_worker(bin: &PathBuf, worker: usize) -> Result<WorkerLink, ExecError> {
    let fail = |message: String| ExecError::Worker { worker, message };
    let mut cmd = Command::new(bin);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // Abort injection (tests, CI resume drills): only worker 0 aborts,
    // so the journal ends up holding a genuinely partial sweep.
    if worker != 0 {
        cmd.env_remove("HWGC_WORKER_ABORT_AFTER");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| fail(format!("spawn {}: {e}", bin.display())))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    match read_frame(&mut stdout) {
        Ok(Some(j)) if matches!(FromWorker::from_json(&j), Ok(FromWorker::Ready)) => {
            Ok(WorkerLink {
                child,
                stdin,
                stdout,
            })
        }
        Ok(_) => Err(fail("worker did not say ready".to_string())),
        Err(e) => Err(fail(format!("handshake: {e}"))),
    }
}

fn run_fleet(
    set: &JobSet,
    opts: &ExecOptions,
    pending: &[usize],
    lookups: &[Option<CacheLookup>],
    slots: &[Mutex<Option<(GcOutcome, JobOutcome)>>],
) -> Result<(u64, Vec<usize>), ExecError> {
    let bin = worker_bin_path()?;
    let nw = opts.workers;
    // Deal pending jobs round-robin so every worker starts with a
    // contiguous share of the canonical order.
    let queues: Mutex<Vec<VecDeque<usize>>> = {
        let mut qs: Vec<VecDeque<usize>> = (0..nw).map(|_| VecDeque::new()).collect();
        for (k, &i) in pending.iter().enumerate() {
            qs[k % nw].push_back(i);
        }
        Mutex::new(qs)
    };
    let steals = AtomicU64::new(0);
    let per_worker: Vec<AtomicUsize> = (0..nw).map(|_| AtomicUsize::new(0)).collect();
    let first_error: Mutex<Option<ExecError>> = Mutex::new(None);

    let record_error = |err: ExecError| {
        let mut slot = first_error.lock().unwrap();
        if slot.is_none() {
            *slot = Some(err);
        }
    };

    std::thread::scope(|scope| {
        for w in 0..nw {
            let queues = &queues;
            let steals = &steals;
            let per_worker = &per_worker;
            let first_error = &first_error;
            let bin = &bin;
            scope.spawn(move || {
                let mut link = match spawn_worker(bin, w) {
                    Ok(l) => l,
                    Err(e) => {
                        record_error(e);
                        return;
                    }
                };
                loop {
                    if first_error.lock().unwrap().is_some() {
                        break;
                    }
                    // Pop own queue, else steal from the back of the
                    // longest other queue.
                    let index = {
                        let mut qs = queues.lock().unwrap();
                        match qs[w].pop_front() {
                            Some(i) => Some(i),
                            None => {
                                let victim = (0..nw)
                                    .filter(|&v| v != w)
                                    .max_by_key(|&v| qs[v].len())
                                    .filter(|&v| !qs[v].is_empty());
                                victim.map(|v| {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    qs[v].pop_back().expect("victim checked non-empty")
                                })
                            }
                        }
                    };
                    let Some(index) = index else { break };
                    let job = &set.jobs()[index];
                    let sent = write_frame(
                        &mut link.stdin,
                        &ToWorker::Job { index, job: *job }.to_json(),
                    );
                    if let Err(e) = sent {
                        record_error(ExecError::Worker {
                            worker: w,
                            message: format!("send job {index}: {e}"),
                        });
                        break;
                    }
                    let reply = read_frame(&mut link.stdout);
                    match reply {
                        Ok(Some(j)) => match FromWorker::from_json(&j) {
                            Ok(FromWorker::Done {
                                index: done_index,
                                outcome,
                            }) if done_index == index => {
                                per_worker[w].fetch_add(1, Ordering::Relaxed);
                                match complete_job(set, opts, lookups, index, &outcome, w) {
                                    Ok(how) => {
                                        *slots[index].lock().unwrap() = Some((outcome, how));
                                    }
                                    Err(e) => {
                                        record_error(e);
                                        break;
                                    }
                                }
                            }
                            Ok(FromWorker::Failed { index, message }) => {
                                record_error(ExecError::Worker {
                                    worker: w,
                                    message: format!("job {index}: {message}"),
                                });
                                break;
                            }
                            Ok(other) => {
                                record_error(ExecError::Worker {
                                    worker: w,
                                    message: format!("unexpected reply {other:?}"),
                                });
                                break;
                            }
                            Err(e) => {
                                record_error(ExecError::Worker {
                                    worker: w,
                                    message: format!("bad reply: {e}"),
                                });
                                break;
                            }
                        },
                        Ok(None) => {
                            record_error(ExecError::Worker {
                                worker: w,
                                message: format!("worker exited while job {index} was in flight"),
                            });
                            break;
                        }
                        Err(e) => {
                            record_error(ExecError::Worker {
                                worker: w,
                                message: format!("read reply for job {index}: {e}"),
                            });
                            break;
                        }
                    }
                }
                // Best-effort clean shutdown; a dead worker is already
                // accounted for.
                let _ = write_frame(&mut link.stdin, &ToWorker::Shutdown.to_json());
                let _ = link.stdin.flush();
                drop(link.stdin);
                let _ = link.child.wait();
            });
        }
    });

    if let Some(err) = first_error.into_inner().unwrap() {
        return Err(err);
    }
    Ok((
        steals.into_inner(),
        per_worker
            .into_iter()
            .map(AtomicUsize::into_inner)
            .collect(),
    ))
}
