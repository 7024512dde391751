//! Output: the table a person reads, the one-line result the driver
//! reads, and the full record `--compare` reads.

use hwgc_obs::json::Json;

use crate::env::Hygiene;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::RunResult;

pub const SCHEMA: &str = "hwgc-benchmark-v1";
/// Spans written to a trace file (the layer table covers all of them).
const SPANS_IN_FILE: usize = 20_000;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn int(v: u64) -> Json {
    Json::Int(i128::from(v))
}

/// `(name, value, unit)` of every metric this kind of run must print:
/// the end-to-end ones with tracing off, the per-layer ones with it on.
/// A per-layer metric without a meaning on the workload reads 0.
fn printed_metrics(r: &RunResult) -> Vec<(&'static str, f64, &'static str)> {
    if r.opts.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, r.per_layer.get(name).unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let value = r.end_to_end.get(m.name);
                (
                    m.name,
                    value.expect("every workload sets every end-to-end metric"),
                    m.unit,
                )
            })
            .collect()
    }
}

/// The last line of standard output.
pub fn final_line(r: &RunResult) -> String {
    let metrics = printed_metrics(r)
        .into_iter()
        .map(|(name, value, unit)| {
            let entry = obj(vec![("value", Json::Float(value)), ("unit", text(unit))]);
            (name.to_string(), entry)
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(r.correct())),
        ("attempted", int(r.tally.attempted)),
        ("failed", int(r.tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string_compact()
}

/// The full record of a run, one JSON object.
pub fn full_json(r: &RunResult, hygiene: &Hygiene) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .filter_map(|m| {
            let value = r.end_to_end.get(m.name)?;
            let mut fields = vec![("value", Json::Float(value)), ("unit", text(m.unit))];
            if let Some(&(_, p25, p75)) = r.quartiles.iter().find(|(n, _, _)| *n == m.name) {
                fields.push(("p25", Json::Float(p25)));
                fields.push(("p75", Json::Float(p75)));
            }
            Some((m.name.to_string(), obj(fields)))
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .filter_map(|&(name, unit, _)| {
            let value = r.per_layer.get(name)?;
            let entry = obj(vec![("value", Json::Float(value)), ("unit", text(unit))]);
            Some((name.to_string(), entry))
        })
        .collect();
    let (hi_pct, hi) = r.op_wall.hi.unwrap_or((0.0, 0.0));
    let mut fields = vec![
        ("schema", text(SCHEMA)),
        ("workload", text(r.workload)),
        ("seed", int(r.opts.seed)),
        ("seconds", Json::Float(r.opts.seconds)),
        ("trace", Json::Bool(r.opts.trace)),
        ("correct", Json::Bool(r.correct())),
        ("ops_attempted", int(r.tally.attempted)),
        ("ops_failed", int(r.tally.failed)),
        (
            "failures",
            Json::Arr(r.tally.failures.iter().map(|f| text(f)).collect()),
        ),
        ("stats_digest", text(&format!("{:016x}", r.stats_digest))),
        ("golden", text(r.golden.label())),
        ("env", hygiene.to_json(&r.engine)),
        (
            "op_wall_s",
            obj(vec![
                ("samples", int(r.op_wall.n as u64)),
                ("min", Json::Float(r.op_wall.min)),
                ("p25", Json::Float(r.op_wall.p25)),
                ("median", Json::Float(r.op_wall.median)),
                ("p75", Json::Float(r.op_wall.p75)),
                ("hi_pct", Json::Float(hi_pct)),
                ("hi", Json::Float(hi)),
            ]),
        ),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
        (
            "notes",
            Json::Arr(r.notes.iter().map(|n| text(n)).collect()),
        ),
    ];
    if let Some(tracer) = &r.trace {
        let layers = tracer
            .layer_table()
            .iter()
            .map(|row| {
                obj(vec![
                    ("name", text(row.name)),
                    ("count", int(row.count)),
                    ("total_ns", int(row.total_ns)),
                    ("self_ns", int(row.self_ns)),
                ])
            })
            .collect();
        fields.push(("layers", Json::Arr(layers)));
    }
    obj(fields)
}

/// [`full_json`] plus the spans themselves, for the trace file.
pub fn trace_json(r: &RunResult, hygiene: &Hygiene) -> Json {
    let Json::Obj(mut fields) = full_json(r, hygiene) else {
        unreachable!("full_json builds an object")
    };
    if let Some(tracer) = &r.trace {
        fields.push(("spans_total".to_string(), int(tracer.spans().len() as u64)));
        fields.push(("spans".to_string(), tracer.spans_json(SPANS_IN_FILE)));
    }
    Json::Obj(fields)
}

/// The table for a person: every metric by name with its unit.
pub fn print_human(r: &RunResult, hygiene: &Hygiene) {
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        r.workload, r.opts.seed, r.opts.seconds, r.opts.trace
    );
    println!("env {}", hygiene.to_json(&r.engine).to_string_compact());
    println!(
        "ops_attempted {}  ops_failed {}  stats_digest {:016x}  golden {}",
        r.tally.attempted,
        r.tally.failed,
        r.stats_digest,
        r.golden.label()
    );
    for failure in &r.tally.failures {
        println!("FAILED {failure}");
    }
    let w = &r.op_wall;
    print!(
        "op_wall_s samples {}  min {:.6}  p25 {:.6}  median {:.6}  p75 {:.6}",
        w.n, w.min, w.p25, w.median, w.p75
    );
    match w.hi {
        Some((pct, value)) => println!("  p{pct:.2} {value:.6} (10 samples above)"),
        None => println!("  (too few samples for a percentile with 10 above it)"),
    }
    for (name, value, unit) in printed_metrics(r) {
        println!("  {name:<34} {value:>18.6} {unit}");
    }
    if let Some(tracer) = &r.trace {
        println!("  span                        count      total_s       self_s");
        for row in tracer.layer_table() {
            println!(
                "  {:<24} {:>8} {:>12.6} {:>12.6}",
                row.name,
                row.count,
                row.total_ns as f64 * 1e-9,
                row.self_ns as f64 * 1e-9
            );
        }
    }
    for note in &r.notes {
        println!("note: {note}");
    }
}
