//! One-shot reproduction driver: runs every deterministic experiment in
//! DESIGN.md's index. Useful as a release smoke test and to refresh all
//! CSVs under `target/experiments/` after a model change.
//!
//! ```text
//! reproduce_all [--trace-out <path>] [--metrics-out <path>] [--ledger <path>]
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
//! `--trace-out <path>` / `--metrics-out <path>` are forwarded as the same
//! flags to the `trace_dump` child, so one driver invocation can also
//! produce the Perfetto trace and the metrics snapshot of the traced run.
//! `--ledger <path>` is forwarded to `gc_report`, the one ledger-aware
//! child, which appends its `hwgc-ledger-v1` record there. Any other
//! argument, or a flag without its path, is a usage error that exits 2
//! before any child runs.
//!
//! The `experiments` child runs its sweep through the content-addressed
//! result cache (`HWGC_CACHE`, `rw` when unset) and prints its hit/miss
//! summary line on stderr; on a warm cache a repeat batch skips every
//! simulation of that sweep.
//!
//! Excluded: `ablation_software` and `ablation_granularity` run real
//! threads, so their sync-operation and fragmentation columns (and
//! `ablation_software`'s wall clocks) depend on the host's thread
//! schedule and differ between runs; run them separately.

use std::process::Command;

const USAGE: &str = "usage: reproduce_all [--trace-out <path>] [--metrics-out <path>] \
                     [--ledger <path>]";

/// The three `<flag> <path>` pairs, each at most once, in `FLAGS` order.
fn parse_args(args: &[String]) -> Result<[Option<String>; 3], String> {
    const FLAGS: [&str; 3] = ["--trace-out", "--metrics-out", "--ledger"];
    let mut values: [Option<String>; 3] = Default::default();
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
    let [trace_out, metrics_out, ledger] = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("reproduce_all: {e}\n{USAGE}");
        std::process::exit(2)
    });

    let words = |words: &[&str]| -> Vec<String> { words.iter().map(|w| w.to_string()).collect() };
    let flag = |name: &str, value: &Option<String>| -> Vec<String> {
        value
            .iter()
            .flat_map(|v| [name.to_string(), v.clone()])
            .collect()
    };
    let children: [Vec<String>; 6] = [
        words(&["experiments", "--check"]),
        words(&["ablation_heapsize"]),
        words(&["ablation_linesplit"]),
        words(&["ext_concurrent"]),
        [
            words(&["trace_dump"]),
            flag("--trace-out", &trace_out),
            flag("--metrics-out", &metrics_out),
        ]
        .concat(),
        [words(&["gc_report"]), flag("--ledger", &ledger)].concat(),
    ];
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("target dir").to_path_buf();
    let start = std::time::Instant::now();
    // Children inherit the caller's HWGC_CACHE when set; when unset, pin
    // the sweep default (`rw` on the shared cache path) explicitly so a
    // repeat batch, or a later `experiments` run, finds every job there.
    let cache_mode = std::env::var("HWGC_CACHE").unwrap_or_else(|_| "rw".to_string());
    let outputs = hwgc_jobs::par_map(&children, |_, argv| {
        let bin = &argv[0];
        let mut cmd = Command::new(dir.join(bin));
        cmd.args(&argv[1..]);
        cmd.env("HWGC_CACHE", &cache_mode);
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

    println!(
        "\nall {} children reproduced in {:.1} s ({} jobs); CSVs under {}",
        children.len(),
        start.elapsed().as_secs_f64(),
        hwgc_jobs::jobs(),
        hwgc_bench::experiments_dir().display(),
    );
}
