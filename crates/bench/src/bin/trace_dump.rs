//! Extension 4: per-cycle signal tracing (the model's analogue of the
//! paper's FPGA monitoring framework, Section VI-A), rebuilt on the
//! unified event bus: one probed collection feeds every export.
//!
//! ```text
//! trace_dump [preset] [--format {csv,chrome,summary}]
//!            [--trace-out <path>] [--metrics-out <path>]
//! ```
//!
//! * `summary` (default) — headline numbers and the coarse timeline, plus
//!   the CSV written next to the other experiment artifacts (the classic
//!   behavior);
//! * `csv` — the per-cycle signal trace as CSV only;
//! * `chrome` — Chrome trace-event / Perfetto JSON (load the file at
//!   `ui.perfetto.dev`): one slice track per GC core, one counter track
//!   per memory port, plus FIFO/worklist/busy-core counters.
//!
//! `--trace-out` overrides where the trace artifact goes (default
//! `target/experiments/trace_<preset>.{csv,chrome.json}`); in `summary`
//! mode, where the CSV already has its classic home, it instead requests
//! the Chrome trace at that path on top of the usual output, so a driver
//! can collect the Perfetto artifact without changing the format.
//! `--metrics-out`
//! additionally writes the run's metrics registry snapshot (lock wait/hold
//! histograms, contention pairs, port counters, `stats.*`);
//! `reproduce_all` forwards both flags. A flamegraph-ready folded-stacks
//! stall dump always lands next to the trace artifact.

use std::path::PathBuf;

use hwgc_bench::{
    chrome_trace, experiments_dir, metrics_for_run, render_trace_summary, run_probed, spec,
    stall_folded, trace_csv,
};
use hwgc_core::GcConfig;
use hwgc_workloads::Preset;

fn main() {
    let mut preset = Preset::Cup;
    let mut format = "summary".to_string();
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
                .clone()
        };
        match args[i].as_str() {
            "--format" => {
                format = value(i);
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(value(i));
                i += 2;
            }
            "--metrics-out" => {
                metrics_out = Some(value(i));
                i += 2;
            }
            name => {
                preset = Preset::by_name(name).unwrap_or_else(|| panic!("unknown preset {name}"));
                i += 1;
            }
        }
    }
    assert!(
        ["summary", "csv", "chrome"].contains(&format.as_str()),
        "--format must be one of summary, csv, chrome"
    );

    let cores = 8;
    println!("Extension 4: signal trace of one `{preset}` collection ({cores} cores)\n");

    let (out, trace, recording) = run_probed(&spec(preset), GcConfig::with_cores(cores), 1);

    let default_name = |ext: &str| experiments_dir().join(format!("trace_{preset}.{ext}"));
    let trace_path = |ext: &str| {
        trace_out
            .as_ref()
            .map(PathBuf::from)
            .unwrap_or_else(|| default_name(ext))
    };

    let write = |tag: &str, path: &PathBuf, text: &str| {
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("[{tag}] {}", path.display());
    };

    match format.as_str() {
        "summary" => {
            let reg = metrics_for_run(&preset.to_string(), cores, &out, &recording);
            print!(
                "{}",
                render_trace_summary(&preset.to_string(), cores, &out, &trace, &reg)
            );
            println!();
            write("csv", &default_name("csv"), &trace_csv(&trace));
            if let Some(path) = &trace_out {
                write(
                    "chrome",
                    &PathBuf::from(path),
                    &chrome_trace(&preset.to_string(), cores, &out, &recording),
                );
            }
        }
        "csv" => write("csv", &trace_path("csv"), &trace_csv(&trace)),
        "chrome" => write(
            "chrome",
            &trace_path("chrome.json"),
            &chrome_trace(&preset.to_string(), cores, &out, &recording),
        ),
        _ => unreachable!(),
    }

    write(
        "folded",
        &default_name("folded"),
        &stall_folded(&out.stats).to_folded_string(),
    );
    if let Some(path) = metrics_out {
        let reg = metrics_for_run(&preset.to_string(), cores, &out, &recording);
        write("metrics", &PathBuf::from(path), &reg.to_json_string());
    }
}
