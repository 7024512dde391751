//! One-shot reproduction driver: runs every deterministic experiment in
//! DESIGN.md's index back to back. Useful as a release smoke test and to
//! refresh all CSVs under `target/experiments/` after a model change.
//!
//! The experiments write disjoint CSVs, so they run concurrently on the
//! `HWGC_JOBS` worker pool (set `HWGC_JOBS=1` for the old serial
//! behavior); each child's output is captured and printed in experiment
//! order, so the log reads identically at any job count.
//!
//! `--trace-out <path>` / `--metrics-out <path>` are forwarded to the
//! `trace_dump` child (as `HWGC_TRACE_OUT` / `HWGC_METRICS_OUT`), so one
//! driver invocation can also produce the Perfetto trace and the metrics
//! snapshot of the traced run. `--ledger <path>` is forwarded to every
//! child as `HWGC_LEDGER`, so the ledger-aware experiments (`gc_report`
//! today) append their `hwgc-ledger-v1` records to one batch-wide JSONL
//! file (appends are single `O_APPEND` writes, safe under `HWGC_JOBS`
//! concurrency). After the batch, `gen_stall_tables
//! --check` verifies that EXPERIMENTS.md's generated tables (Table I,
//! Table II) still match the metrics JSON `table1_empty_worklist` and
//! `table2_stall_breakdown` just wrote.
//!
//! Observability (PR 9): every child consults the content-addressed
//! result cache per the inherited `HWGC_CACHE` knobs, and all children
//! append to one `hwgc-sweep-telemetry-v1` stream (`--telemetry <path>`,
//! default `target/experiments/sweep-telemetry.jsonl`; single-line
//! `O_APPEND` writes, safe under concurrency). After the batch the
//! driver validates the stream and prints the fleet hit-rate line — on a
//! warm `HWGC_CACHE=rw` cache a repeat run skips ≥90% of simulations.
//!
//! (`ablation_software` is excluded — it measures real threads and its
//! wall-clock columns are host-dependent; run it separately, and prefer
//! `HWGC_JOBS=1` when quoting its numbers.)

use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a path"))
                .clone()
        })
    };
    let trace_out = flag_value("--trace-out");
    let metrics_out = flag_value("--metrics-out");
    let ledger = flag_value("--ledger");
    let telemetry = flag_value("--telemetry")
        .map(std::path::PathBuf::from)
        .or_else(hwgc_bench::telemetry_path)
        .unwrap_or_else(|| hwgc_bench::experiments_dir().join("sweep-telemetry.jsonl"));
    // Fresh stream per batch: children append concurrently.
    let _ = std::fs::remove_file(&telemetry);

    let binaries = [
        "fig5_scaling",
        "table1_empty_worklist",
        "table2_stall_breakdown",
        "fig6_latency",
        "fig6_dram",
        "ablation_fifo",
        "ablation_testlock",
        "ablation_heapsize",
        "ablation_granularity",
        "ablation_linesplit",
        "ablation_headercache",
        "ext_concurrent",
        "trace_dump",
        "gc_report",
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("target dir").to_path_buf();
    let start = std::time::Instant::now();
    // Children inherit the caller's HWGC_CACHE when set; when unset, pin
    // the sweep default (`rw` on the shared cache path) explicitly so the
    // whole batch dedupes against later binaries sweeping the same
    // configurations (`table1_empty_worklist` after `fig5_scaling` is
    // all hits).
    let cache_mode = std::env::var("HWGC_CACHE").unwrap_or_else(|_| "rw".to_string());
    let outputs = hwgc_jobs::par_map(&binaries, |_, bin| {
        let mut cmd = Command::new(dir.join(bin));
        cmd.env("HWGC_TELEMETRY", &telemetry);
        cmd.env("HWGC_CACHE", &cache_mode);
        if let Some(p) = &ledger {
            cmd.env("HWGC_LEDGER", p);
        }
        if *bin == "trace_dump" {
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
    for (i, (bin, out)) in binaries.iter().zip(&outputs).enumerate() {
        println!(
            "\n=== [{} / {}] {bin} {}",
            i + 1,
            binaries.len(),
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

    // table1_empty_worklist and table2_stall_breakdown refreshed their
    // metrics JSON above; make sure the committed EXPERIMENTS.md tables
    // still match. Runs serially after the batch because it reads what
    // the batch wrote.
    println!("\n=== gen_stall_tables --check {}", "=".repeat(40));
    let check = Command::new(dir.join("gen_stall_tables"))
        .arg("--check")
        .output()
        .expect("failed to launch gen_stall_tables");
    print!("{}", String::from_utf8_lossy(&check.stdout));
    eprint!("{}", String::from_utf8_lossy(&check.stderr));
    assert!(
        check.status.success(),
        "EXPERIMENTS.md stall table is stale"
    );

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
        "\nall {} experiments reproduced in {:.1} s ({} jobs); CSVs under target/experiments/",
        binaries.len(),
        start.elapsed().as_secs_f64(),
        hwgc_jobs::jobs(),
    );
}
