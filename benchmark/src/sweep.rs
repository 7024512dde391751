//! The sweep workloads (`sweep40_cold`, `sweep40_warm`): the 40-job
//! matrix through `ResultCache::open` + `run_jobset`, in-process, against
//! a fresh cache file (every job simulates and is appended) or a primed
//! one (every job is a hit).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use hwgc_core::{GcOutcome, GcStats, SimCollector};
use hwgc_heap::{verify_collection, Snapshot};
use hwgc_jobs::{
    engine_label, job_from_json, job_to_json, outcome_from_json, outcome_to_json, read_frame,
    run_jobset, write_frame, CacheCounters, CacheLookup, CacheMode, ExecOptions, JobSet, Journal,
    ResultCache,
};
use hwgc_obs::{HostProfiler, JobOutcome, Json, LedgerStore};
use hwgc_workloads::Preset;

use crate::env::work_dir;
use crate::metrics::{self, sim_layers, Values};
use crate::run::{repeat, Golden, Options, RunResult, Tally, TRACED_SHARE};
use crate::spans::Tracer;
use crate::stats::{median, Summary};
use crate::workloads::{
    combine_digests, golden_digest, paper_abs_err_pp, reference, sweep_matrix, Workload,
};

/// Ledger provenance only; never enters a config hash.
const BINARY: &str = "benchmark";

/// One `ResultCache::open` + `run_jobset`, timed apart.
struct SweepSample {
    open_s: f64,
    run_s: f64,
    outcomes: Vec<(GcOutcome, JobOutcome)>,
    skipped: usize,
}

impl SweepSample {
    fn op_s(&self) -> f64 {
        self.open_s + self.run_s
    }
}

fn sweep_once(set: &JobSet, cache_file: &Path, workers: usize) -> Result<SweepSample, String> {
    let t0 = Instant::now();
    let cache =
        ResultCache::open(CacheMode::Rw, &[], Some(cache_file)).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let report = run_jobset(
        set,
        &ExecOptions {
            binary: BINARY.to_string(),
            cache: &cache,
            progress: None,
            workers,
            journal: None,
        },
    )
    .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    Ok(SweepSample {
        open_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        outcomes: report.outcomes,
        skipped: report.skipped,
    })
}

/// The simulated results of a job set.
struct SweepSim {
    cycles: u64,
    best16_speedup: f64,
    paper_abs_err_pp: f64,
    digest: u64,
}

/// One digest for the simulated statistics of a whole job set.
fn set_digest(outcomes: &[(GcOutcome, JobOutcome)]) -> u64 {
    combine_digests(outcomes.iter().map(|(o, _)| o.stats.digest()))
}

fn sweep_sim(set: &JobSet, outcomes: &[(GcOutcome, JobOutcome)]) -> SweepSim {
    let stats_of = |preset: Preset, cores: usize| -> &GcStats {
        let index = set
            .jobs()
            .iter()
            .position(|j| j.spec.preset == preset && j.cfg.n_cores == cores)
            .expect("matrix holds every preset at 1 and 16 cores");
        &outcomes[index].0.stats
    };
    let best16_speedup = Preset::ALL
        .iter()
        .map(|&p| stats_of(p, 1).total_cycles as f64 / stats_of(p, 16).total_cycles as f64)
        .fold(0.0, f64::max);
    let cells = [Preset::Cup, Preset::Javac, Preset::Jflex];
    SweepSim {
        cycles: outcomes.iter().map(|(o, _)| o.stats.total_cycles).sum(),
        best16_speedup,
        paper_abs_err_pp: cells
            .iter()
            .map(|&p| paper_abs_err_pp(p, stats_of(p, 16)))
            .sum::<f64>()
            / cells.len() as f64,
        digest: set_digest(outcomes),
    }
}

/// The checks every rep must pass: all jobs answered the way the
/// workload demands, and the same simulated results as the first rep.
fn check(set: &JobSet, sample: &SweepSample, cold: bool, expected: u64) -> Result<(), String> {
    let want_skipped = if cold { 0 } else { set.len() };
    if sample.skipped != want_skipped {
        return Err(format!(
            "{} of {} jobs were cache hits, expected {want_skipped}",
            sample.skipped,
            set.len()
        ));
    }
    let got = set_digest(&sample.outcomes);
    if got != expected {
        return Err(format!(
            "job-set digest {got:016x} differs from the priming sweep's {expected:016x}"
        ));
    }
    Ok(())
}

/// Scratch files of one run; removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        // Unique per run: the self-tests run several in one process.
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = work_dir()
            .join("scratch")
            .join(format!("{}-{run}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    /// A path for a file that does not exist yet.
    fn fresh(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(w: &'static Workload, cold: bool, opts: Options) -> RunResult {
    let scratch = Scratch::new();
    let primed_file = scratch.0.join("primed.jsonl");

    // Set-up: lower the matrix and run one cold sweep, which primes the
    // cache file the warm workload reads and is the cold workload's
    // warm-up op; the warm workload adds one warm-up op of its own.
    let mut setup_s = Vec::new();
    let mut lower_s = Vec::new();
    let mut last = None;
    for _ in 0..opts.setup_reps() {
        let t = Instant::now();
        let set = sweep_matrix(opts.seed);
        lower_s.push(t.elapsed().as_secs_f64());
        let primed = sweep_once(&set, &scratch.fresh("primed.jsonl"), 0).expect("priming sweep");
        let expected = set_digest(&primed.outcomes);
        check(&set, &primed, true, expected).expect("priming sweep simulates every job");
        if !cold {
            let warm = sweep_once(&set, &primed_file, 0).expect("warm-up op");
            check(&set, &warm, false, expected).expect("warm-up op is all hits");
        }
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((set, primed));
    }
    let (set, primed) = last.expect("at least one set-up");
    let sim = sweep_sim(&set, &primed.outcomes);
    let mut tally = Tally::default();

    // A timed op keeps its two timings only: thousands of warm reps
    // must not hold thousands of outcome sets in memory.
    let timed_op = || -> Result<(f64, f64), String> {
        let sample = if cold {
            sweep_once(&set, &scratch.fresh("cold.jsonl"), 0)?
        } else {
            sweep_once(&set, &primed_file, 0)?
        };
        check(&set, &sample, cold, sim.digest)?;
        Ok((sample.open_s, sample.run_s))
    };
    let mut samples = repeat(
        opts.untraced_seconds(),
        opts.min_reps(),
        &mut tally,
        timed_op,
    );
    if samples.is_empty() {
        samples.push((primed.open_s, primed.run_s));
    }
    let open_s: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let run_s: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let op_s: Vec<f64> = samples.iter().map(|s| s.0 + s.1).collect();
    let op_wall = Summary::of(&op_s);

    let (end_to_end, quartiles) = if opts.trace {
        Default::default()
    } else {
        metrics::end_to_end(
            &setup_s,
            &op_wall,
            &op_wall,
            sim.cycles as f64,
            sim.best16_speedup,
            sim.paper_abs_err_pp,
        )
    };

    let fig5_reference = reference("fig5.best16_speedup");
    let fig5_rel_err_pct = 100.0 * (sim.best16_speedup - fig5_reference).abs() / fig5_reference;
    let mut notes = vec![format!(
        "best 16-core speed-up {:.2} vs the paper's {fig5_reference} (fig5_best16_rel_err_pct {fig5_rel_err_pct:.2})",
        sim.best16_speedup
    )];
    let mut per_layer = Values::default();
    let mut trace = None;
    if opts.trace {
        let mut tracer = Tracer::new();
        let mut l = Values::default();

        // Traced ops: the job set by hand, through the same public pieces
        // `run_jobset` composes, plus the resumption journal it can carry.
        let by_hand = repeat(
            opts.seconds * TRACED_SHARE,
            opts.min_reps(),
            &mut tally,
            || {
                tracer.close_abandoned();
                let cache_file = if cold {
                    scratch.fresh("cold.jsonl")
                } else {
                    primed_file.clone()
                };
                let done = traced_sweep(
                    &mut tracer,
                    &set,
                    &cache_file,
                    &scratch.fresh("journal.jsonl"),
                )?;
                if done.digest != sim.digest {
                    return Err(format!(
                        "by-hand job-set digest {:016x} differs from run_jobset's {:016x}",
                        done.digest, sim.digest
                    ));
                }
                Ok(done)
            },
        );

        let stats: Vec<&GcStats> = primed.outcomes.iter().map(|(o, _)| &o.stats).collect();
        let core_cycles: f64 = set
            .jobs()
            .iter()
            .zip(&stats)
            .map(|(j, s)| (s.total_cycles * j.cfg.n_cores as u64) as f64)
            .sum();
        sim_layers(&mut l, &stats);
        l.set("core.fig5_best16_rel_err_pct", fig5_rel_err_pct);
        l.set(
            "workloads.build_s",
            tracer.median_seconds("workloads.build"),
        );
        l.set("heap.snapshot_s", tracer.median_seconds("heap.snapshot"));
        l.set("heap.verify_s", tracer.median_seconds("heap.verify"));
        if let Some(done) = by_hand.last() {
            let counters = done.counters;
            let looked_up = (counters.hits + counters.misses).max(1);
            l.set("jobs.cache_hits", counters.hits as f64);
            l.set("jobs.cache_misses", counters.misses as f64);
            l.set("jobs.hit_ratio", counters.hits as f64 / looked_up as f64);
            l.set("workloads.live_objects", done.live_objects as f64);
            l.set("workloads.live_words", done.live_words as f64);
            l.set("workloads.heap_words", done.heap_words as f64);
            let verify_s = tracer.median_seconds("heap.verify");
            if verify_s > 0.0 {
                l.set("heap.verify_words_per_s", done.live_words as f64 / verify_s);
            }
        }
        let collect_s = tracer.seconds("core.collect");
        if !collect_s.is_empty() {
            // Measured under the host profiler: `run_jobset` has no door
            // that times the collect call alone.
            metrics::collect_layers(&mut l, &Summary::of(&collect_s), core_cycles);
        }
        let profiles: Vec<&HostProfiler> = by_hand.iter().map(|d| &d.prof).collect();
        metrics::hostprof_layers(&mut l, &profiles, sim.cycles as f64);

        l.set("jobs.lower_s", median(&lower_s));
        l.set("jobs.jobs", set.len() as f64);
        l.set("jobs.duplicates", set.duplicates() as f64);
        l.set("jobs.cache_open_s", median(&open_s));
        l.set("jobs.run_jobset_s", median(&run_s));
        l.set(
            "jobs.cache_lookup_s",
            tracer.median_seconds("jobs.cache_lookup"),
        );
        l.set(
            "jobs.cache_complete_s",
            tracer.median_seconds("jobs.cache_complete"),
        );
        l.set(
            "jobs.journal_append_s",
            tracer.median_seconds("jobs.journal_append"),
        );
        l.set(
            "jobs.cache_file_bytes",
            std::fs::metadata(&primed_file).map_or(0.0, |m| m.len() as f64),
        );
        l.set(
            "jobs.codec_roundtrip_us",
            tracer.span("jobs.codec", |_| codec_roundtrip_us(&set, &primed.outcomes)),
        );
        let (load_s, parse_mb_per_s) =
            tracer.span("obs.ledger_load", |_| ledger_load(&primed_file));
        l.set("obs.ledger_load_s", load_s);
        l.set("obs.json_parse_mb_per_s", parse_mb_per_s);
        if cold {
            match fleet_over_inproc(&mut tracer, &set, &scratch, op_wall.median) {
                Ok(ratio) => l.set("jobs.fleet2_over_inproc_ratio", ratio),
                Err(why) => notes.push(format!("jobs.fleet2_over_inproc_ratio omitted: {why}")),
            }
        }

        metrics::bench_layers(&mut l, &op_wall, &tracer);
        per_layer = l;
        trace = Some(tracer);
    }

    let mut engine: Vec<&str> = set.jobs().iter().map(|j| engine_label(&j.cfg)).collect();
    engine.sort_unstable();
    engine.dedup();
    RunResult {
        workload: w.name,
        opts,
        engine: engine.join("+"),
        tally,
        stats_digest: sim.digest,
        golden: Golden::check(golden_digest(w.name, opts.seed), sim.digest),
        op_wall,
        end_to_end,
        quartiles,
        per_layer,
        trace,
        notes,
    }
}

/// What one by-hand sweep produced.
struct ByHand {
    /// The outcomes' digests combined, as [`SweepSim::digest`].
    digest: u64,
    counters: CacheCounters,
    prof: HostProfiler,
    live_objects: u64,
    live_words: u64,
    heap_words: u64,
}

fn traced_sweep(
    tracer: &mut Tracer,
    set: &JobSet,
    cache_file: &Path,
    journal_file: &Path,
) -> Result<ByHand, String> {
    // The benchmark's own digest check stays outside the op: formatting
    // 40 `GcStats` would be a tenth of a warm op nobody's layer owns.
    let mut outcomes = Vec::with_capacity(set.len());
    let mut done = tracer.op(|t| {
        let cache = t
            .span("jobs.cache_open", |_| {
                ResultCache::open(CacheMode::Rw, &[], Some(cache_file))
            })
            .map_err(|e| e.to_string())?;
        let journal = t
            .span("jobs.journal_open", |_| {
                Journal::open(journal_file, BINARY, set)
            })
            .map_err(|e| e.to_string())?;
        let mut done = ByHand {
            digest: 0,
            counters: CacheCounters::default(),
            prof: HostProfiler::new(),
            live_objects: 0,
            live_words: 0,
            heap_words: 0,
        };
        for (index, job) in set.jobs().iter().enumerate() {
            let (key, lookup) = t.span("jobs.cache_lookup", |_| {
                let key = job.cache_key(BINARY);
                let lookup = cache.lookup(&key);
                (key, lookup)
            });
            let (outcome, how) = match lookup.map_err(|e| e.to_string())? {
                CacheLookup::Hit(outcome) => (outcome, JobOutcome::Hit),
                pending => {
                    let mut heap = t.span("workloads.build", |_| job.spec.build());
                    let snap = t.span("heap.snapshot", |_| Snapshot::capture(&heap));
                    let outcome = t.span("core.collect", |_| {
                        SimCollector::new(job.cfg).collect_hostprof(&mut heap, &mut done.prof)
                    });
                    let live = t
                        .span("heap.verify", |_| {
                            verify_collection(&heap, outcome.free, &snap)
                        })
                        .map_err(|e| format!("{}: {e}", job.label()))?;
                    let how = t
                        .span("jobs.cache_complete", |_| {
                            cache.complete(&key, &outcome, &pending)
                        })
                        .map_err(|e| e.to_string())?;
                    done.live_objects += live.live_objects as u64;
                    done.live_words += live.live_words;
                    done.heap_words += heap.words().len() as u64;
                    t.span("heap.drop", |_| drop((heap, snap)));
                    (outcome, how)
                }
            };
            t.span("jobs.journal_append", |_| {
                journal.record_done(index, job, how, 0)
            })
            .map_err(|e| e.to_string())?;
            outcomes.push(outcome);
        }
        done.counters = cache.counters();
        t.span("jobs.close", |_| drop((cache, journal)));
        Ok::<ByHand, String>(done)
    })?;
    done.digest = combine_digests(outcomes.iter().map(|o| o.stats.digest()));
    Ok(done)
}

/// Microseconds for one job and its outcome through the worker wire:
/// `job_to_json`/`outcome_to_json`, `write_frame`, `read_frame`, and the
/// two decoders.
fn codec_roundtrip_us(set: &JobSet, outcomes: &[(GcOutcome, JobOutcome)]) -> f64 {
    const ROUNDS: usize = 20;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for (job, (outcome, _)) in set.jobs().iter().zip(outcomes) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &job_to_json(job)).expect("write to memory");
            write_frame(&mut wire, &outcome_to_json(outcome)).expect("write to memory");
            let mut reader = std::io::BufReader::new(&wire[..]);
            let job_back = read_frame(&mut reader).expect("frame").expect("job frame");
            let out_back = read_frame(&mut reader)
                .expect("frame")
                .expect("outcome frame");
            let job_back = job_from_json(&job_back).expect("job decodes");
            let out_back = outcome_from_json(&out_back).expect("outcome decodes");
            assert_eq!(job_back.config_hash(), job.config_hash());
            assert_eq!(out_back.stats.digest(), outcome.stats.digest());
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / (ROUNDS * set.len()) as f64
}

/// Seconds to load the primed cache file into a `LedgerStore`, and the
/// JSON parser's throughput over the same lines.
fn ledger_load(cache_file: &Path) -> (f64, f64) {
    const ROUNDS: usize = 15;
    let text = std::fs::read_to_string(cache_file).expect("primed cache file");
    let load: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            let (store, _) = LedgerStore::load_tolerant(cache_file).expect("cache file loads");
            assert!(!store.is_empty());
            t.elapsed().as_secs_f64()
        })
        .collect();
    let parse: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for line in text.lines() {
                std::hint::black_box(Json::parse(line).expect("cache line parses"));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    (median(&load), text.len() as f64 / 1e6 / median(&parse))
}

/// A two-process fleet's cold sweep over the in-process one. Needs the
/// `sweep_worker` binary `run.sh` builds (`BENCH_WORKER_BIN`).
fn fleet_over_inproc(
    tracer: &mut Tracer,
    set: &JobSet,
    scratch: &Scratch,
    inproc_op_s: f64,
) -> Result<f64, String> {
    let bin = std::env::var_os("BENCH_WORKER_BIN")
        .map(PathBuf::from)
        .filter(|p| p.exists())
        .ok_or("no sweep_worker binary (BENCH_WORKER_BIN)")?;
    std::env::set_var("HWGC_WORKER_BIN", &bin);
    let fleet: Result<Vec<f64>, String> = (0..3)
        .map(|_| {
            tracer
                .span("jobs.fleet2", |_| {
                    sweep_once(set, &scratch.fresh("cold.jsonl"), 2)
                })
                .map(|s| s.op_s())
        })
        .collect();
    std::env::remove_var("HWGC_WORKER_BIN");
    Ok(median(&fleet?) / inproc_op_s)
}
