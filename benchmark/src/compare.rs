//! `--compare <a> <b>`: two sets of untraced runs (files of one JSON
//! record per line, as `--out` appends them), `a` the parent and `b` the
//! change. Per workload and end-to-end metric: both medians, how much
//! worse `b` is, the bound, and a verdict.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use hwgc_obs::json::Json;

use crate::metrics::{Better, END_TO_END};
use crate::report::SCHEMA;
use crate::stats::{ascending, median, quantile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The spread is wider than the bound and the sides overlap, so the
    /// medians decide nothing.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The untraced records of a run-set file, in file order.
pub fn parse_runs(text: &str) -> Result<Vec<Json>, String> {
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("line {}: not a {SCHEMA} record", i + 1));
        }
        if doc.get("trace") != Some(&Json::Bool(true)) {
            runs.push(doc);
        }
    }
    Ok(runs)
}

fn workload_of(run: &Json) -> &str {
    run.get("workload").and_then(Json::as_str).unwrap_or("?")
}

fn of_workload<'a>(runs: &'a [Json], workload: &str) -> Vec<&'a Json> {
    runs.iter().filter(|r| workload_of(r) == workload).collect()
}

fn number(run: &Json, key: &str) -> f64 {
    run.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One side's view of a metric on a workload.
struct Side {
    values: Vec<f64>,
    /// Run-to-run quartile distance over the median when the side has at
    /// least four runs, else the widest within-run one.
    spread: f64,
}

fn side(runs: &[&Json], metric: &str) -> Option<Side> {
    let entries: Vec<&Json> = runs
        .iter()
        .filter_map(|r| r.get("end_to_end")?.get(metric))
        .collect();
    let values: Vec<f64> = entries
        .iter()
        .filter_map(|e| e.get("value")?.as_f64())
        .collect();
    if values.is_empty() {
        return None;
    }
    let spread = if values.len() >= 4 {
        let s = ascending(&values);
        (quantile(&s, 0.75) - quantile(&s, 0.25)) / quantile(&s, 0.5).abs()
    } else {
        entries
            .iter()
            .filter_map(|e| {
                let value = e.get("value")?.as_f64()?;
                Some((e.get("p75")?.as_f64()? - e.get("p25")?.as_f64()?) / value.abs())
            })
            .fold(0.0, f64::max)
    };
    Some(Side { values, spread })
}

/// Judge one metric: `worse_by` is the share of `a`'s median by which
/// `b`'s is worse (negative when better).
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64], spread: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let b_always_better = match better {
        Better::Lower => ascending(b).last() < ascending(a).first(),
        Better::Higher => ascending(b).first() > ascending(a).last(),
    };
    let verdict = if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// The verdict table and whether the comparison passes: no `worse`, no
/// higher failed share, and with `same_model` no digest change.
pub fn compare(a_text: &str, b_text: &str, same_model: bool) -> Result<(String, bool), String> {
    let a_runs = parse_runs(a_text)?;
    let b_runs = parse_runs(b_text)?;
    let mut table = String::new();
    let mut pass = true;
    let mut seen = BTreeSet::new();
    let workloads: Vec<&str> = a_runs
        .iter()
        .map(workload_of)
        .filter(|w| seen.insert(*w))
        .collect();
    let _ = writeln!(
        table,
        "{:<13} {:<18} {:>16} {:>16} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a median", "b median", "worse by", "bound", "spread"
    );
    for workload in workloads {
        let (a, b) = (
            of_workload(&a_runs, workload),
            of_workload(&b_runs, workload),
        );
        if b.is_empty() {
            let _ = writeln!(table, "{workload:<13} missing from b");
            pass = false;
            continue;
        }
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, m.name), side(&b, m.name)) else {
                continue;
            };
            let spread = sa.spread.max(sb.spread);
            let (worse_by, verdict) = judge(m.better, m.bound, &sa.values, &sb.values, spread);
            pass &= verdict != Verdict::Worse;
            let _ = writeln!(
                table,
                "{workload:<13} {:<18} {:>16.6} {:>16.6} {:>+8.2}% {:>6.0}% {:>7.2}%  {}",
                m.name,
                median(&sa.values),
                median(&sb.values),
                100.0 * worse_by,
                100.0 * m.bound,
                100.0 * spread,
                verdict.label()
            );
        }

        let failed_share = |runs: &[&Json]| -> f64 {
            let failed: f64 = runs.iter().map(|r| number(r, "ops_failed")).sum();
            let attempted: f64 = runs.iter().map(|r| number(r, "ops_attempted")).sum();
            failed / attempted.max(1.0)
        };
        let (fa, fb) = (failed_share(&a), failed_share(&b));
        let failed_ok = fb <= fa;
        pass &= failed_ok;
        let _ = writeln!(
            table,
            "{workload:<13} {:<18} {fa:>16.6} {fb:>16.6} {:>44}",
            "failed_share",
            if failed_ok { "ok" } else { "worse" }
        );

        let digests = |runs: &[&Json]| -> BTreeSet<(i128, String)> {
            runs.iter()
                .map(|r| {
                    let seed = r.get("seed").and_then(Json::as_int).unwrap_or(-1);
                    let digest = r.get("stats_digest").and_then(Json::as_str).unwrap_or("?");
                    (seed, digest.to_string())
                })
                .collect()
        };
        let (da, db) = (digests(&a), digests(&b));
        let seeds = |d: &BTreeSet<(i128, String)>| -> BTreeSet<i128> {
            d.iter().map(|(s, _)| *s).collect()
        };
        let digest_verdict = if seeds(&da) != seeds(&db) {
            "not comparable (different seeds)"
        } else if da == db {
            "equal"
        } else {
            pass &= !same_model;
            "different"
        };
        let _ = writeln!(
            table,
            "{workload:<13} {:<18} {digest_verdict}",
            "stats_digest"
        );
    }
    let _ = writeln!(table, "{}", if pass { "PASS" } else { "FAIL" });
    Ok((table, pass))
}
