//! Cross-run regression diffing on the run ledger.
//!
//! Joins two `hwgc-ledger-v1` JSONL files on `config_hash` and
//! classifies every configuration as identical / changed / one-sided
//! via stats digests, SB fingerprints and efficacy counters, rendering
//! a markdown + JSON report (cycle deltas, efficacy-counter drift, host
//! time trend). Under `--check`, exits nonzero when any configuration
//! *changed* — one-sided coverage differences never fail the gate.
//!
//! A second mode audits a `hwgc-sweep-telemetry-v1` stream: validate
//! the JSONL, aggregate job outcomes across sweeps, and (with
//! `--min-hit-rate`) gate on the cache hit rate — the CI warm-cache
//! assertion.
//!
//! ```text
//! ledger_diff <left.jsonl> <right.jsonl> [--out-dir DIR] [--check]
//! ledger_diff --telemetry <stream.jsonl> [--min-hit-rate F] [--check]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hwgc_obs::{validate_telemetry_jsonl, LedgerDiff, LedgerStore};

struct Args {
    left: Option<PathBuf>,
    right: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    check: bool,
    telemetry: Option<PathBuf>,
    min_hit_rate: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ledger_diff <left.jsonl> <right.jsonl> [--out-dir DIR] [--check]\n\
         \x20      ledger_diff --telemetry <stream.jsonl> [--min-hit-rate F] [--check]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        left: None,
        right: None,
        out_dir: None,
        check: false,
        telemetry: None,
        min_hit_rate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => args.check = true,
            "--out-dir" => args.out_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--telemetry" => {
                args.telemetry = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--min-hit-rate" => {
                args.min_hit_rate = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => {
                let slot = if args.left.is_none() {
                    &mut args.left
                } else if args.right.is_none() {
                    &mut args.right
                } else {
                    usage()
                };
                *slot = Some(PathBuf::from(arg));
            }
        }
    }
    args
}

fn load(path: &Path) -> LedgerStore {
    LedgerStore::load(path).unwrap_or_else(|e| {
        eprintln!("ledger_diff: {}: {e}", path.display());
        std::process::exit(2);
    })
}

fn telemetry_audit(path: &Path, min_hit_rate: Option<f64>, check: bool) -> ExitCode {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("ledger_diff: {}: {e}", path.display());
        std::process::exit(2);
    });
    let totals = validate_telemetry_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("ledger_diff: {}: invalid telemetry: {e}", path.display());
        std::process::exit(2);
    });
    println!(
        "telemetry {}: {} jobs — {} hit / {} miss / {} verified / {} checked \
         ({:.1}% hit rate)",
        path.display(),
        totals.done,
        totals.hits,
        totals.misses,
        totals.verified,
        totals.digest_checks,
        100.0 * totals.hit_rate(),
    );
    for (ns, job) in &totals.slowest {
        println!("  slowest: {job} ({:.2} ms)", *ns as f64 / 1e6);
    }
    if let Some(min) = min_hit_rate {
        if totals.hit_rate() < min {
            eprintln!(
                "ledger_diff: hit rate {:.3} below required {min:.3}",
                totals.hit_rate()
            );
            if check {
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(stream) = &args.telemetry {
        if args.left.is_some() || args.right.is_some() {
            usage();
        }
        return telemetry_audit(stream, args.min_hit_rate, args.check);
    }
    let (Some(left_path), Some(right_path)) = (&args.left, &args.right) else {
        usage();
    };
    let left = load(left_path);
    let right = load(right_path);
    let diff = LedgerDiff::between(&left, &right);
    let left_name = left_path.display().to_string();
    let right_name = right_path.display().to_string();
    let markdown = diff.render_markdown(&left_name, &right_name);
    print!("{markdown}");

    let out_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| hwgc_bench::experiments_dir().join("ledger_diff"));
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| {
        eprintln!("ledger_diff: create {}: {e}", out_dir.display());
        std::process::exit(2);
    });
    let md_path = out_dir.join("ledger_diff.md");
    let json_path = out_dir.join("ledger_diff.json");
    std::fs::write(&md_path, &markdown).expect("write markdown report");
    std::fs::write(
        &json_path,
        format!(
            "{}\n",
            diff.to_json(&left_name, &right_name).to_string_compact()
        ),
    )
    .expect("write json report");
    println!("\n[report] {}", md_path.display());
    println!("[report] {}", json_path.display());

    let (_, changed, _, _) = diff.counts();
    if args.check && changed > 0 {
        eprintln!(
            "ledger_diff: {changed} configuration(s) changed simulation \
             results — failing under --check"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
