//! The single-config workloads (`hub16`, `chain1`, `dram16`): one heap,
//! one config, and the op `Snapshot::capture` → `SimCollector::collect` →
//! `verify_collection`, each rep on a fresh clone made outside the timers.

use std::time::Instant;

use hwgc_core::{GcConfig, GcOutcome, SeqCheney, SimCollector};
use hwgc_heap::{verify_collection, Heap, Snapshot, VerifyReport};
use hwgc_jobs::engine_label;
use hwgc_obs::{derive_metrics, HostProfiler, Recorder, RunMeta};
use hwgc_workloads::{Preset, WorkloadSpec};

use crate::kernels;
use crate::metrics::{self, sim_layers, Values};
use crate::run::{repeat, Golden, Options, RunResult, Tally, TRACED_SHARE};
use crate::spans::Tracer;
use crate::stats::{median, Summary};
use crate::workloads::{config, golden_digest, paper_abs_err_pp, single_inputs, Workload};

/// Calls in the SB kernel and ticks in each memory kernel.
const SB_KERNEL_OPS: u64 = 10_000_000;
const MEM_KERNEL_TICKS: u64 = 2_000_000;
/// The probe-overhead measurement runs at this share of the workload's
/// scale: a full event recording at javac scale 10 already takes 1.2 GB.
const PROBE_SCALE_SHARE: f64 = 0.1;

/// One untraced op with its three layer calls timed apart.
struct OpSample {
    snapshot_s: f64,
    collect_s: f64,
    verify_s: f64,
    op_s: f64,
    out: GcOutcome,
    live: VerifyReport,
}

fn run_op(heap: &mut Heap, cfg: GcConfig) -> Result<OpSample, String> {
    let t0 = Instant::now();
    let snap = Snapshot::capture(heap);
    let t1 = Instant::now();
    let out = SimCollector::new(cfg).collect(heap);
    let t2 = Instant::now();
    let live = verify_collection(heap, out.free, &snap).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    Ok(OpSample {
        snapshot_s: (t1 - t0).as_secs_f64(),
        collect_s: (t2 - t1).as_secs_f64(),
        verify_s: (t3 - t2).as_secs_f64(),
        op_s: (t3 - t0).as_secs_f64(),
        out,
        live,
    })
}

fn same_digest(out: &GcOutcome, expected: u64) -> Result<(), String> {
    let got = out.stats.digest();
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "stats digest {got:016x} differs from the first rep's {expected:016x}"
        ))
    }
}

/// What set-up leaves behind for the timed loops.
struct Prepared {
    heap0: Heap,
    first: OpSample,
    cycles_1c: u64,
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
}

/// Set-up: build the heap, run one warm-up op, and take the 1-core
/// reference cycles. Repeated so `setup_s` is a median; a failure here
/// ends the run.
fn prepare(spec: &WorkloadSpec, cfg: GcConfig, dram: bool, reps: usize) -> Prepared {
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let heap0 = spec.build();
        build_s.push(t.elapsed().as_secs_f64());
        let first = run_op(&mut heap0.clone(), cfg).expect("warm-up op verifies");
        let cycles_1c = if cfg.n_cores == 1 {
            first.out.stats.total_cycles
        } else {
            let reference = run_op(&mut heap0.clone(), config(1, dram));
            reference
                .expect("1-core reference verifies")
                .out
                .stats
                .total_cycles
        };
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((heap0, first, cycles_1c));
    }
    let (heap0, first, cycles_1c) = last.expect("at least one set-up");
    Prepared {
        heap0,
        first,
        cycles_1c,
        setup_s,
        build_s,
    }
}

pub fn run(
    w: &'static Workload,
    preset: Preset,
    scale: f64,
    cores: usize,
    dram: bool,
    opts: Options,
) -> RunResult {
    let (spec, cfg) = single_inputs(preset, scale, cores, dram, opts.seed, opts.scale_override);
    let prepared = prepare(&spec, cfg, dram, opts.setup_reps());
    let heap0 = &prepared.heap0;
    let expected = prepared.first.out.stats.digest();
    let mut tally = Tally::default();

    let samples = repeat(opts.untraced_seconds(), opts.min_reps(), &mut tally, || {
        let mut heap = heap0.clone();
        let sample = run_op(&mut heap, cfg)?;
        same_digest(&sample.out, expected)?;
        Ok(sample)
    });
    // Should every timed op fail, the warm-up op stands in.
    let timed: Vec<&OpSample> = if samples.is_empty() {
        vec![&prepared.first]
    } else {
        samples.iter().collect()
    };
    let column = |f: fn(&OpSample) -> f64| -> Vec<f64> { timed.iter().map(|s| f(s)).collect() };
    let op_wall = Summary::of(&column(|s| s.op_s));
    let collect = Summary::of(&column(|s| s.collect_s));
    let stats = &prepared.first.out.stats;
    let cycles = stats.total_cycles as f64;
    let speedup = prepared.cycles_1c as f64 / cycles;

    let (end_to_end, quartiles) = if opts.trace {
        Default::default()
    } else {
        metrics::end_to_end(
            &prepared.setup_s,
            &op_wall,
            &collect,
            cycles,
            speedup,
            paper_abs_err_pp(preset, stats),
        )
    };

    let mut per_layer = Values::default();
    let notes = vec![format!(
        "speedup_vs_1c {speedup:.3}: no per-benchmark reference in repo"
    )];
    let mut trace = None;
    if opts.trace {
        let mut tracer = Tracer::new();
        let mut l = Values::default();
        l.set("workloads.build_s", median(&prepared.build_s));
        l.set(
            "workloads.live_objects",
            prepared.first.live.live_objects as f64,
        );
        l.set(
            "workloads.live_words",
            prepared.first.live.live_words as f64,
        );
        l.set("workloads.heap_words", heap0.words().len() as f64);

        // Traced ops: the same three calls under spans, with the host
        // profiler's door into the engine open.
        let profiles = repeat(
            opts.seconds * TRACED_SHARE,
            opts.min_reps(),
            &mut tally,
            || {
                tracer.close_abandoned();
                let mut heap = tracer.span("heap.clone", |_| heap0.clone());
                let mut prof = HostProfiler::new();
                let out = tracer.op(|t| {
                    let snap = t.span("heap.snapshot", |_| Snapshot::capture(&heap));
                    let out = t.span("core.collect", |_| {
                        SimCollector::new(cfg).collect_hostprof(&mut heap, &mut prof)
                    });
                    t.span("heap.verify", |_| verify_collection(&heap, out.free, &snap))
                        .map_err(|e| e.to_string())?;
                    t.span("heap.drop", |_| drop(snap));
                    Ok::<GcOutcome, String>(out)
                })?;
                same_digest(&out, expected)?;
                Ok(prof)
            },
        );
        tracer.span("workloads.build", |_| spec.build());

        let verify_s = median(&column(|s| s.verify_s));
        l.set("heap.clone_s", tracer.median_seconds("heap.clone"));
        l.set("heap.snapshot_s", median(&column(|s| s.snapshot_s)));
        l.set("heap.verify_s", verify_s);
        l.set(
            "heap.verify_words_per_s",
            prepared.first.live.live_words as f64 / verify_s,
        );
        metrics::collect_layers(&mut l, &collect, cycles * cores as f64);
        let seq: Vec<f64> = (0..3)
            .map(|_| {
                let mut heap = heap0.clone();
                tracer
                    .timed("core.seq_cheney", |_| SeqCheney::new().collect(&mut heap))
                    .1
            })
            .collect();
        l.set("core.seq_cheney_s", median(&seq));

        metrics::hostprof_layers(&mut l, &profiles.iter().collect::<Vec<_>>(), cycles);
        l.set(
            "obs.hostprof_overhead_ratio",
            tracer.median_seconds("core.collect") / collect.median,
        );
        sim_layers(&mut l, &[stats]);
        l.set(
            "sync.sb_op_ns",
            tracer.span("sync.sb_kernel", |_| kernels::sb_op_ns(SB_KERNEL_OPS)),
        );
        l.set(
            "memsim.fixed_tick_ns",
            tracer.span("memsim.tick_kernel", |_| {
                kernels::fixed_tick_ns(MEM_KERNEL_TICKS)
            }),
        );
        l.set(
            "memsim.dram_tick_ns",
            tracer.span("memsim.tick_kernel", |_| {
                kernels::dram_tick_ns(MEM_KERNEL_TICKS)
            }),
        );
        probe_overhead(&mut l, &mut tracer, &spec, cfg);

        metrics::bench_layers(&mut l, &op_wall, &tracer);
        per_layer = l;
        trace = Some(tracer);
    }

    RunResult {
        workload: w.name,
        opts,
        engine: engine_label(&cfg).to_string(),
        tally,
        stats_digest: expected,
        golden: Golden::check(golden_digest(w.name, opts.seed), expected),
        op_wall,
        end_to_end,
        quartiles,
        per_layer,
        trace,
        notes,
    }
}

/// What subscribing a full [`Recorder`] to the event bus costs against
/// the `NullProbe` path, on a smaller heap of the same shape.
fn probe_overhead(l: &mut Values, tracer: &mut Tracer, spec: &WorkloadSpec, cfg: GcConfig) {
    let small = WorkloadSpec {
        scale: spec.scale * PROBE_SCALE_SHARE,
        ..*spec
    };
    let heap0 = small.build();
    let collector = SimCollector::new(cfg);
    let mut heap = heap0.clone();
    let t = Instant::now();
    let plain = collector.collect(&mut heap);
    let plain_s = t.elapsed().as_secs_f64();
    let mut heap = heap0.clone();
    let mut recorder = Recorder::new();
    let (probed, probed_s) = tracer.timed("obs.collect_probed", |_| {
        collector.collect_probed(&mut heap, &mut recorder)
    });
    assert_eq!(
        probed.stats.digest(),
        plain.stats.digest(),
        "observation must be passive"
    );
    let recording = recorder.into_recording();
    let meta = RunMeta {
        name: small.preset.name().to_string(),
        n_cores: cfg.n_cores,
        total_cycles: probed.stats.total_cycles,
    };
    let (_, derive_s) = tracer.timed("obs.derive_metrics", |_| derive_metrics(&recording, &meta));
    l.set("obs.derive_metrics_s", derive_s);
    l.set("obs.probe_overhead_ratio", probed_s / plain_s);
    l.set("obs.events_recorded", recording.len() as f64);
}
