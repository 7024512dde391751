//! Self-tests of the benchmark harness, on a smoke size. Run offline with
//! `cargo test --release --offline --manifest-path benchmark/Cargo.toml`.

use std::sync::Once;

use hwgc_benchmark::compare::{compare, judge, Verdict};
use hwgc_benchmark::metrics::{Better, END_TO_END, PER_LAYER};
use hwgc_benchmark::run::{Options, RunResult};
use hwgc_benchmark::spans::{Tracer, OP};
use hwgc_benchmark::stats::hi_percentile;
use hwgc_benchmark::workloads::{by_name, WORKLOADS};
use hwgc_benchmark::{env, report, run_workload};
use hwgc_obs::json::Json;

/// A run short enough for a test: scale 1 heaps, a fraction of a second
/// per timed loop (each loop still runs its minimum number of ops).
fn smoke(workload: &str, trace: bool) -> RunResult {
    static SCRUB: Once = Once::new();
    SCRUB.call_once(|| {
        env::scrub();
    });
    let opts = Options {
        seed: 42,
        seconds: 0.2,
        trace,
        scale_override: Some(1.0),
    };
    let result = run_workload(by_name(workload).expect("workload exists"), opts);
    assert!(result.correct(), "{workload}: {:?}", result.tally.failures);
    result
}

fn assert_forest(tracer: &Tracer) {
    let spans = tracer.spans();
    for s in spans {
        assert!(s.end_ns >= s.start_ns, "{} ends before it starts", s.name);
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{} is not inside its parent {}",
                s.name,
                parent.name
            );
            assert_eq!(parent.op, s.op, "{} left its parent's op", s.name);
        }
    }
    // Self times partition the roots: nothing is counted twice or lost.
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns())
        .sum();
    assert_eq!(tracer.self_ns().iter().sum::<u64>(), roots);
}

#[test]
fn spans_nest_and_self_times_partition_the_parent() {
    let mut tracer = Tracer::new();
    let spin = |n: u64| std::hint::black_box((0..n).fold(0u64, |a, b| a ^ b.wrapping_mul(31)));
    tracer.span("setup", |_| spin(10_000));
    for _ in 0..3 {
        tracer.op(|t| {
            t.span("a", |t| {
                spin(50_000);
                t.span("a.inner", |_| spin(50_000));
            });
            t.span("b", |_| spin(50_000));
        });
    }
    assert_forest(&tracer);
    let table = tracer.layer_table();
    let row = |name: &str| table.iter().find(|r| r.name == name).expect("row");
    assert_eq!(row(OP).count, 3);
    assert_eq!(
        row(OP).total_ns,
        row(OP).self_ns + row("a").total_ns + row("b").total_ns
    );
    assert_eq!(
        row("a").total_ns,
        row("a").self_ns + row("a.inner").total_ns
    );
    assert_eq!(tracer.seconds("a.inner").len(), 3, "one entry per op");
    assert_eq!(tracer.seconds("setup").len(), 1, "and one per loose span");
}

#[test]
fn traced_single_config_run_reconciles() {
    let result = smoke("hub16", true);
    let tracer = result.trace.as_ref().expect("traced run keeps its spans");
    assert_forest(tracer);
    let share = result
        .per_layer
        .get("bench.unattributed_share")
        .expect("set");
    assert!(
        share <= 0.05,
        "unattributed share {share} of the op is over 0.05"
    );
    for name in ["heap.snapshot", "core.collect", "heap.verify"] {
        assert!(
            !tracer.seconds(name).is_empty(),
            "no {name} span under the op"
        );
    }
    let known: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
    for name in result.per_layer.names() {
        assert!(known.contains(&name), "{name} is not in PER_LAYER");
    }
    assert!(
        result.end_to_end.names().next().is_none(),
        "end-to-end metrics are measured with tracing off"
    );
    // chain1's prediction: one core never parks.
    let chain = smoke("chain1", true);
    assert_eq!(chain.per_layer.get("core.parks"), Some(0.0));
    assert!(result.per_layer.get("core.parks") > Some(0.0));
}

#[test]
fn warm_sweep_is_all_hits_and_reproduces_the_cold_sweep() {
    let cold = smoke("sweep40_cold", false);
    let warm = smoke("sweep40_warm", false);
    assert_eq!(cold.stats_digest, warm.stats_digest);
    for sim in ["sim_cycles", "speedup_vs_1c", "paper_abs_err_pp"] {
        assert_eq!(cold.end_to_end.get(sim), warm.end_to_end.get(sim), "{sim}");
    }
    for m in &END_TO_END {
        let value = warm.end_to_end.get(m.name).expect("every metric is set");
        assert!(value > 0.0, "{} must never be 0", m.name);
    }

    let traced = smoke("sweep40_warm", true);
    assert_forest(traced.trace.as_ref().expect("spans"));
    assert_eq!(traced.per_layer.get("jobs.jobs"), Some(40.0));
    assert_eq!(traced.per_layer.get("jobs.cache_hits"), Some(40.0));
    assert_eq!(traced.per_layer.get("jobs.cache_misses"), Some(0.0));
    assert_eq!(traced.per_layer.get("jobs.hit_ratio"), Some(1.0));
    assert_eq!(traced.stats_digest, cold.stats_digest);
    let share = traced
        .per_layer
        .get("bench.unattributed_share")
        .expect("set");
    assert!(
        share <= 0.05,
        "unattributed share {share} of the op is over 0.05"
    );
}

#[test]
fn percentile_picker_leaves_ten_samples_above() {
    for n in 1..=300usize {
        let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
        match hi_percentile(&sorted) {
            None => assert!(n <= 10, "{n} samples support a percentile"),
            Some((pct, value)) => {
                let above = sorted.iter().filter(|&&v| v > value).count();
                assert_eq!(above, 10, "n = {n}");
                let at_or_below = (n - above) as f64;
                assert!((pct - 100.0 * at_or_below / n as f64).abs() < 1e-9);
            }
        }
    }
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .to_vec()
    };
    let field = |item: &Json, key: &str| -> String {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };

    let listed = list("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (item, m) in listed.iter().zip(&END_TO_END) {
        assert!(legal_name(m.name), "{}", m.name);
        assert_eq!(field(item, "name"), m.name);
        assert_eq!(field(item, "unit"), m.unit);
        assert_eq!(field(item, "better"), m.better.label());
        assert_eq!(item.get("bound").and_then(Json::as_f64), Some(m.bound));
    }
    let listed = list("per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    for (item, (name, unit, better)) in listed.iter().zip(&PER_LAYER) {
        assert!(legal_name(name), "{name}");
        assert_eq!(field(item, "name"), *name);
        assert_eq!(field(item, "unit"), *unit);
        assert_eq!(field(item, "better"), better.label());
    }
    let listed = list("workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (item, w) in listed.iter().zip(&WORKLOADS) {
        assert!(legal_name(w.name), "{}", w.name);
        assert_eq!(field(item, "name"), w.name);
        assert_eq!(field(item, "why"), w.why);
    }
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
}

#[test]
fn compare_verdicts() {
    // Within the bound, beyond it, and too noisy to tell.
    let ok = judge(Better::Lower, 0.10, &[1.00], &[1.05], 0.02);
    assert_eq!(ok.1, Verdict::Ok);
    let worse = judge(Better::Lower, 0.10, &[1.00], &[1.20], 0.02);
    assert_eq!(worse.1, Verdict::Worse);
    assert!((worse.0 - 0.20).abs() < 1e-12);
    let noisy = judge(Better::Lower, 0.10, &[1.00, 1.30], &[1.10, 1.35], 0.25);
    assert_eq!(noisy.1, Verdict::Unresolved);
    // Noisy, but every run of b beats every run of a.
    let clear = judge(Better::Higher, 0.10, &[1.0, 1.3], &[1.4, 1.8], 0.25);
    assert_eq!(clear.1, Verdict::Ok);
    let slower = judge(Better::Higher, 0.10, &[100.0], &[80.0], 0.0);
    assert_eq!(slower.1, Verdict::Worse);

    // End to end over two records of a real run.
    let run = smoke("sweep40_warm", false);
    let hygiene = env::Hygiene::capture(Vec::new());
    let a = report::full_json(&run, &hygiene).to_string_compact();
    let (table, pass) = compare(&a, &a, true).expect("records parse");
    assert!(pass, "a run set compared with itself passes:\n{table}");
    assert!(table.contains("stats_digest       equal"));
    let model_changed = a.replace(&format!("{:016x}", run.stats_digest), "0123456789abcdef");
    assert!(
        compare(&a, &model_changed, false).expect("parse").1,
        "a digest change alone passes"
    );
    assert!(
        !compare(&a, &model_changed, true).expect("parse").1,
        "but not under --same-model"
    );
    let Json::Obj(mut fields) = Json::parse(&a).expect("record") else {
        panic!("record is an object")
    };
    for (key, value) in &mut fields {
        if key == "ops_failed" {
            *value = Json::Int(1);
        }
    }
    let failing = Json::Obj(fields).to_string_compact();
    assert!(
        !compare(&a, &failing, false).expect("parse").1,
        "a higher failed share fails"
    );
}
