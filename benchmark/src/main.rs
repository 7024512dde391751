//! `hwgc-benchmark`: run one workload, or compare two run sets. Started
//! through `benchmark/run.sh`, which builds it first.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use hwgc_benchmark::env::{scrub, work_dir, Hygiene};
use hwgc_benchmark::run::Options;
use hwgc_benchmark::workloads::{by_name, WORKLOADS};
use hwgc_benchmark::{compare, report, run_workload};

const USAGE: &str = "usage:
  run.sh --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--out <file>]
  run.sh --compare <a.jsonl> <b.jsonl> [--same-model]";

struct Args {
    workload: Option<String>,
    opts: Options,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    same_model: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Options {
            seed: 42,
            seconds: 10.0,
            trace: false,
            scale_override: None,
        },
        out: None,
        compare: None,
        same_model: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => args.out = Some(value("a file")?.into()),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--same-model" => args.same_model = true,
            "--trace" => {
                // `--trace 0|1` for the driver; bare `--trace` means on.
                args.opts.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.opts.seconds > 0.0 && args.opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let scrubbed = scrub();
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &args.compare {
        let read =
            |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let (table, pass) = compare::compare(&read(a)?, &read(b)?, args.same_model)?;
        print!("{table}");
        return Ok(pass);
    }
    let name = args.workload.ok_or(USAGE)?;
    let workload = by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })?;

    let hygiene = Hygiene::capture(scrubbed);
    let result = run_workload(workload, args.opts);
    report::print_human(&result, &hygiene);

    let io = |e: std::io::Error| format!("writing results: {e}");
    if args.opts.trace {
        let dir = work_dir();
        std::fs::create_dir_all(&dir).map_err(io)?;
        let file = dir.join(format!("{}.trace.json", workload.name));
        let trace = report::trace_json(&result, &hygiene).to_string_compact();
        std::fs::write(&file, trace + "\n").map_err(io)?;
        println!("trace written to {}", file.display());
    }
    if let Some(out) = &args.out {
        let record = report::full_json(&result, &hygiene).to_string_compact();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(io)?;
        writeln!(file, "{record}").map_err(io)?;
    }
    // The driver reads the last line of standard output.
    println!("{}", report::final_line(&result));
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("hwgc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
