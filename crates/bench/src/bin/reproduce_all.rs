//! One-shot reproduction driver: runs every deterministic experiment in
//! DESIGN.md's index. Useful as a release smoke test and to refresh all
//! CSVs under `target/experiments/` after a model change.
//!
//! ```text
//! reproduce_all [--trace-out <path>] [--metrics-out <path>]
//!               [--ledger <path>] [--telemetry <path>]
//! ```
//!
//! The children are `experiments --check` (the paper's figures and
//! tables as one declared sweep, then a check that EXPERIMENTS.md's
//! generated tables match what it just measured) and the binaries with
//! hand-built workloads or probed runs. They write disjoint CSVs, so they
//! run concurrently on the `HWGC_JOBS` worker pool (set `HWGC_JOBS=1` for
//! a serial batch); each child's output is captured and printed in
//! order, so the log reads identically at any job count.
//!
//! `--trace-out <path>` / `--metrics-out <path>` are forwarded to the
//! `trace_dump` child (as `HWGC_TRACE_OUT` / `HWGC_METRICS_OUT`), so one
//! driver invocation can also produce the Perfetto trace and the metrics
//! snapshot of the traced run. `--ledger <path>` is forwarded to every
//! child as `HWGC_LEDGER`, so the ledger-aware experiments (`gc_report`
//! today) append their `hwgc-ledger-v1` records to one batch-wide JSONL
//! file (appends are single `O_APPEND` writes, safe under `HWGC_JOBS`
//! concurrency). Any other argument, or a flag without its path, is a
//! usage error that exits 2 before any child runs.
//!
//! Observability: every child consults the content-addressed result
//! cache per the inherited `HWGC_CACHE` knobs, and all children append to
//! one `hwgc-sweep-telemetry-v1` stream (`--telemetry <path>`, default
//! `target/experiments/sweep-telemetry.jsonl`; single-line `O_APPEND`
//! writes, safe under concurrency). After the batch the driver validates
//! the stream and prints the fleet hit-rate line — on a warm
//! `HWGC_CACHE=rw` cache a repeat run skips every simulation.
//!
//! Excluded: `ablation_software` and `ablation_granularity` run real
//! threads, so their sync-operation and fragmentation columns (and
//! `ablation_software`'s wall clocks) depend on the host's thread
//! schedule and differ between runs; run them separately.

use std::process::Command;

const USAGE: &str = "usage: reproduce_all [--trace-out <path>] [--metrics-out <path>] \
                     [--ledger <path>] [--telemetry <path>]";

/// The four `<flag> <path>` pairs, each at most once, in `FLAGS` order.
fn parse_args(args: &[String]) -> Result<[Option<String>; 4], String> {
    const FLAGS: [&str; 4] = ["--trace-out", "--metrics-out", "--ledger", "--telemetry"];
    let mut values: [Option<String>; 4] = Default::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let i = FLAGS
            .iter()
            .position(|f| f == arg)
            .ok_or_else(|| format!("unknown argument {arg:?}"))?;
        let path = args.next().ok_or_else(|| format!("{arg} needs a path"))?;
        if values[i].replace(path.clone()).is_some() {
            return Err(format!("{arg} is given twice"));
        }
    }
    Ok(values)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [trace_out, metrics_out, ledger, telemetry] = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("reproduce_all: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let telemetry = telemetry
        .map(std::path::PathBuf::from)
        .or_else(hwgc_bench::telemetry_path)
        .unwrap_or_else(|| hwgc_bench::experiments_dir().join("sweep-telemetry.jsonl"));
    // Fresh stream per batch: children append concurrently.
    let _ = std::fs::remove_file(&telemetry);

    let children: [&[&str]; 6] = [
        &["experiments", "--check"],
        &["ablation_heapsize"],
        &["ablation_linesplit"],
        &["ext_concurrent"],
        &["trace_dump"],
        &["gc_report"],
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("target dir").to_path_buf();
    let start = std::time::Instant::now();
    // Children inherit the caller's HWGC_CACHE when set; when unset, pin
    // the sweep default (`rw` on the shared cache path) explicitly so a
    // repeat batch, or a later `experiments` run, finds every job there.
    let cache_mode = std::env::var("HWGC_CACHE").unwrap_or_else(|_| "rw".to_string());
    let outputs = hwgc_jobs::par_map(&children, |_, argv| {
        let bin = argv[0];
        let mut cmd = Command::new(dir.join(bin));
        cmd.args(&argv[1..]);
        cmd.env("HWGC_TELEMETRY", &telemetry);
        cmd.env("HWGC_CACHE", &cache_mode);
        if let Some(p) = &ledger {
            cmd.env("HWGC_LEDGER", p);
        }
        if bin == "trace_dump" {
            if let Some(p) = &trace_out {
                cmd.env("HWGC_TRACE_OUT", p);
            }
            if let Some(p) = &metrics_out {
                cmd.env("HWGC_METRICS_OUT", p);
            }
        }
        cmd.output()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"))
    });
    let mut failures = 0;
    for (i, (argv, out)) in children.iter().zip(&outputs).enumerate() {
        let bin = argv.join(" ");
        println!(
            "\n=== [{} / {}] {bin} {}",
            i + 1,
            children.len(),
            "=".repeat(40)
        );
        print!("{}", String::from_utf8_lossy(&out.stdout));
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            eprintln!("*** {bin} failed: {}", out.status);
            failures += 1;
        }
    }
    assert!(failures == 0, "{failures} experiment(s) failed");

    // Fleet telemetry: validate the shared stream and print the
    // batch-wide cache effectiveness line.
    match std::fs::read_to_string(&telemetry) {
        Ok(text) => match hwgc_obs::validate_telemetry_jsonl(&text) {
            Ok(totals) => {
                println!(
                    "\n[telemetry] {} — {} jobs: {} hit / {} miss / {} verified / {} checked \
                     ({:.1}% of simulations skipped via cache)",
                    telemetry.display(),
                    totals.done,
                    totals.hits,
                    totals.misses,
                    totals.verified,
                    totals.digest_checks,
                    100.0 * totals.hit_rate(),
                );
            }
            Err(e) => panic!("telemetry stream {} is invalid: {e}", telemetry.display()),
        },
        Err(e) => eprintln!("[telemetry] no stream at {}: {e}", telemetry.display()),
    }

    println!(
        "\nall {} children reproduced in {:.1} s ({} jobs); CSVs under {}",
        children.len(),
        start.elapsed().as_secs_f64(),
        hwgc_jobs::jobs(),
        hwgc_bench::experiments_dir().display(),
    );
}
