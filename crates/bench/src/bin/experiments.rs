//! The paper's evaluation as one declared sweep. [`EXPERIMENTS`] holds
//! the simulated experiments, each a job list over presets × core counts
//! × one config axis, and a renderer:
//!
//! | name | reproduces |
//! |---|---|
//! | `fig5_scaling` | Figure 5: speedup vs. cores, default memory |
//! | `table1_empty_worklist` | Table I: cycles with an empty work list |
//! | `table2_stall_breakdown` | Table II: stall breakdown at 16 cores |
//! | `fig6_latency` | Figure 6: speedup with +20 cycles of memory latency |
//! | `fig6_dram` | Figure 6 under the bank/row DRAM backend |
//! | `ablation_fifo` | §V-D: header-FIFO capacity sweep |
//! | `ablation_testlock` | §VI-B: test-before-lock header probing |
//! | `ablation_headercache` | conclusions, item 2: a shared header cache |
//!
//! ```text
//! experiments [NAME...] [--check | --write]
//! ```
//!
//! The named experiments (default: all) lower into one [`JobSet`], so a
//! job that several experiments declare runs once: the eight declare 204
//! jobs, 147 of them distinct. The set runs once through
//! [`sweep_jobset`], so the result cache (`HWGC_CACHE`), the `HWGC_JOBS`
//! pool, the `HWGC_WORKERS` fleet and the `HWGC_JOURNAL` resumption
//! journal cover the whole batch. Each experiment then finds its
//! outcomes by config hash, prints its table and writes its CSV under
//! `HWGC_ARTIFACTS` (default `target/experiments/`), in the order above.
//!
//! Table I, Table II and the DRAM Figure 6 also render a table of
//! EXPERIMENTS.md, which sits between `<!-- BEGIN GENERATED: <tag> -->`
//! and `<!-- END GENERATED: <tag> -->` markers. `--write` splices the
//! rendered tables into `EXPERIMENTS.md` in the working directory;
//! `--check` leaves the file alone and exits 1 if a committed table
//! differs from its rendering.

use std::collections::HashMap;
use std::fmt::Write as _;

use hwgc_bench::{
    pct, row, spec, sweep_finish, sweep_jobset, write_csv, CORE_COUNTS, STALL_COLUMNS,
};
use hwgc_core::{GcConfig, GcOutcome, StallReason};
use hwgc_jobs::{ConfigMatrix, JobSet, SimJob};
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig};
use hwgc_workloads::Preset;

const USAGE: &str = "usage: experiments [NAME...] [--check | --write]";
const DOC: &str = "EXPERIMENTS.md";

/// One declared job and its outcome.
type Run<'a> = (&'a SimJob, &'a GcOutcome);

struct Experiment {
    name: &'static str,
    /// The marker tag of the EXPERIMENTS.md table `render` returns.
    table: Option<&'static str>,
    jobs: fn() -> Vec<SimJob>,
    /// Print the table and write the CSV from the runs of `jobs`, in
    /// declaration order; return the markdown of `table`.
    render: fn(&[Run]) -> Option<String>,
}

static EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        name: "fig5_scaling",
        table: None,
        jobs: || grid(GcConfig::default()),
        render: |runs| {
            let title = "Figure 5: scaling behavior (speedup vs 1-core baseline)";
            scaling(title, "fig5_scaling", runs, false)
        },
    },
    Experiment {
        name: "table1_empty_worklist",
        table: Some("table1-empty-worklist"),
        jobs: || grid(GcConfig::default()),
        render: table1,
    },
    Experiment {
        name: "table2_stall_breakdown",
        table: Some("table2-stall-breakdown"),
        jobs: || {
            let job = |p| SimJob {
                spec: spec(p),
                cfg: GcConfig::with_cores(16),
            };
            Preset::ALL.map(job).to_vec()
        },
        render: table2,
    },
    Experiment {
        name: "fig6_latency",
        table: None,
        jobs: || {
            grid(GcConfig {
                mem: MemConfig::default().with_extra_latency(20),
                ..GcConfig::default()
            })
        },
        render: |runs| {
            let title = "Figure 6: scaling behavior with +20 cycles memory latency";
            scaling(title, "fig6_latency", runs, false)
        },
    },
    Experiment {
        name: "fig6_dram",
        table: Some("fig6-dram-scaling"),
        jobs: || {
            let dram = MemBackendKind::Dram(DramConfig::default());
            grid(GcConfig {
                mem: MemConfig::default().with_backend(dram),
                ..GcConfig::default()
            })
        },
        render: |runs| {
            let title = "Figure 6 (realistic timing): scaling under the bank/row DRAM backend";
            scaling(title, "fig6_dram", runs, true)
        },
    },
    Experiment {
        name: "ablation_fifo",
        table: None,
        jobs: || {
            let cfgs = [0, 256, 1024, 4096, 16384, 65536].map(|header_fifo_capacity| GcConfig {
                mem: MemConfig {
                    header_fifo_capacity,
                    ..MemConfig::default()
                },
                ..GcConfig::default()
            });
            at16([Preset::Cup, Preset::Db, Preset::Javac], &cfgs)
        },
        render: ablation_fifo,
    },
    Experiment {
        name: "ablation_testlock",
        table: None,
        jobs: || {
            let cfgs = [false, true].map(|test_before_lock| GcConfig {
                test_before_lock,
                ..GcConfig::default()
            });
            at16([Preset::Javac, Preset::Db, Preset::Cup], &cfgs)
        },
        render: ablation_testlock,
    },
    Experiment {
        name: "ablation_headercache",
        table: None,
        jobs: || {
            let cfgs = [0, 64, 256, 4096].map(|header_cache_entries| GcConfig {
                mem: MemConfig {
                    header_cache_entries,
                    ..MemConfig::default()
                },
                ..GcConfig::default()
            });
            at16([Preset::Javac, Preset::Db, Preset::Jlisp], &cfgs)
        },
        render: ablation_headercache,
    },
];

/// Every preset at every core count of the paper, under `base`.
fn grid(base: GcConfig) -> Vec<SimJob> {
    ConfigMatrix::new(base)
        .presets(Preset::ALL)
        .cores(CORE_COUNTS)
        .lower()
        .jobs()
        .to_vec()
}

/// `presets` × `cfgs`, preset-major, every config at 16 cores.
fn at16(presets: [Preset; 3], cfgs: &[GcConfig]) -> Vec<SimJob> {
    let job = |p, cfg| SimJob {
        spec: spec(p),
        cfg: GcConfig { n_cores: 16, ..cfg },
    };
    presets
        .into_iter()
        .flat_map(|p| cfgs.iter().map(move |&cfg| job(p, cfg)))
        .collect()
}

/// `runs` split into runs of one preset each, with the preset's name.
fn per_preset<'a>(runs: &'a [Run<'a>]) -> impl Iterator<Item = (&'static str, &'a [Run<'a>])> {
    runs.chunk_by(|a, b| a.0.spec.preset == b.0.spec.preset)
        .map(|g| (g[0].0.spec.preset.name(), g))
}

/// Figures 5 and 6: per preset, the 1-core cycles and the speedup at
/// each core count. Under DRAM also the 16-core row-buffer hit rate and
/// the EXPERIMENTS.md table.
fn scaling(title: &str, name: &str, runs: &[Run], dram: bool) -> Option<String> {
    println!("{title}\n");
    let mut widths = vec![10, 12, 8, 8, 8, 8, 8];
    let mut header = vec!["app", "1-core cyc", "x1", "x2", "x4", "x8", "x16"];
    if dram {
        widths.push(9);
        header.push("row-hit");
    }
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    let mut md = String::from(
        "| app | 1-core cycles | x1 | x2 | x4 | x8 | x16 | row-hit (16c) |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for (app, runs) in per_preset(runs) {
        let base = runs[0].1.stats.total_cycles;
        let mut cells = vec![app.to_string(), base.to_string()];
        let _ = write!(md, "| {app} | {base} |");
        for (job, out) in runs {
            let cycles = out.stats.total_cycles;
            let speedup = base as f64 / cycles as f64;
            cells.push(format!("{speedup:.2}"));
            let _ = write!(md, " {speedup:.2} |");
            csv.push(format!("{app},{},{cycles},{speedup:.4}", job.cfg.n_cores));
        }
        if dram {
            let at16 = &runs[runs.len() - 1].1.stats.mem.dram;
            let rate = at16
                .as_ref()
                .expect("DRAM backend reports DramStats")
                .row_hit_rate();
            cells.push(format!("{:.0}%", rate * 100.0));
            let _ = writeln!(md, " {} |", pct(rate));
        }
        println!("{}", row(&cells, &widths));
    }
    write_csv(name, "app,cores,cycles,speedup", &csv);
    dram.then_some(md)
}

/// Table I: the fraction of cycles in which the work list is empty
/// (`scan == free`) — no gray object to process, the paper's measure of
/// missing object-level parallelism.
fn table1(runs: &[Run]) -> Option<String> {
    println!("Table I: fraction of clock cycles during which work list is empty\n");
    let widths = [10, 9, 9, 9, 9, 9];
    let header = ["app", "1 core", "2 cores", "4 cores", "8 cores", "16 cores"];
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    let mut md = String::from("| app | 1 | 2 | 4 | 8 | 16 cores |\n|---|---|---|---|---|---|\n");
    for (app, runs) in per_preset(runs) {
        let mut cells = vec![app.to_string()];
        let _ = write!(md, "| {app} |");
        for (job, out) in runs {
            let frac = out.stats.empty_worklist_fraction();
            cells.push(pct(frac));
            let _ = write!(md, " {} |", pct(frac));
            csv.push(format!("{app},{},{frac:.6}", job.cfg.n_cores));
        }
        md.push('\n');
        println!("{}", row(&cells, &widths));
    }
    write_csv("table1_empty_worklist", "app,cores,empty_fraction", &csv);
    Some(md)
}

/// Table II: per preset at 16 cores, the total cycles and, per stall
/// cause, the summed stall cycles with the mean per-core share.
fn table2(runs: &[Run]) -> Option<String> {
    println!("Table II: clock cycle distribution (for 16 cores)\n");
    let widths = [10, 9, 16, 14, 16, 16, 15, 16, 16];
    let header = [
        "app",
        "total",
        "scan-lock",
        "free-lock",
        "header-lock",
        "body-load",
        "body-store",
        "header-load",
        "header-store",
    ];
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    let mut md = String::from(
        "| app | scan-lock | free-lock | header-lock | body-load | body-store | header-load \
         | header-store |\n|---|---|---|---|---|---|---|---|\n",
    );
    for (job, out) in runs {
        let (app, s) = (job.spec.preset.name(), &out.stats);
        let mut cells = vec![app.to_string(), s.total_cycles.to_string()];
        let mut line = format!("{app},{}", s.total_cycles);
        let _ = write!(md, "| {app} |");
        for (_, reason) in STALL_COLUMNS {
            let (cycles, frac) = (s.stall.get(reason), s.stall_fraction(reason));
            cells.push(format!("{cycles} ({})", pct(frac)));
            let _ = write!(line, ",{cycles},{frac:.6}");
            let _ = write!(md, " {} |", pct(frac));
        }
        md.push('\n');
        println!("{}", row(&cells, &widths));
        csv.push(line);
    }
    write_csv(
        "table2_stall_breakdown",
        "app,total,scan_lock,scan_lock_frac,free_lock,free_lock_frac,header_lock,header_lock_frac,\
         body_load,body_load_frac,body_store,body_store_frac,header_load,header_load_frac,\
         header_store,header_store_frac",
        &csv,
    );
    Some(md)
}

/// §V-D: while the gray population fits the header FIFO, scan-side
/// header reads cost no memory access; once it overflows (cup), the
/// reads prolong the scan-lock critical section.
fn ablation_fifo(runs: &[Run]) -> Option<String> {
    println!("Ablation A: header FIFO capacity sweep (16 cores)\n");
    let widths = [10, 9, 10, 11, 11, 11, 10];
    let header = [
        "app",
        "fifo",
        "total",
        "scan-lock",
        "hdr-load",
        "fifo-hit%",
        "overflow",
    ];
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    for (app, runs) in per_preset(runs) {
        for (job, out) in runs {
            let s = &out.stats;
            let capacity = job.cfg.mem.header_fifo_capacity;
            let scan = s.stall_fraction(StallReason::ScanLock);
            let load = s.stall_fraction(StallReason::HeaderLoad);
            let hits = s.fifo.hits as f64;
            let reads = (s.fifo.hits + s.fifo.misses).max(1) as f64;
            let cells = [
                app.to_string(),
                capacity.to_string(),
                s.total_cycles.to_string(),
                pct(scan),
                pct(load),
                format!("{:.1} %", 100.0 * hits / reads),
                s.fifo.overflows.to_string(),
            ];
            println!("{}", row(&cells, &widths));
            csv.push(format!(
                "{app},{capacity},{},{scan:.6},{load:.6},{:.6},{}",
                s.total_cycles,
                hits / reads,
                s.fifo.overflows
            ));
        }
        println!();
    }
    write_csv(
        "ablation_fifo",
        "app,fifo_capacity,total,scan_lock_frac,header_load_frac,fifo_hit_rate,overflows",
        &csv,
    );
    None
}

/// §VI-B: "reading the mark bit without prior acquisition of the header
/// lock". javac's hub headers are mostly marked already when a parent
/// reads them, so the unlocked probe removes most header-lock contention.
fn ablation_testlock(runs: &[Run]) -> Option<String> {
    println!("Ablation C: test-before-lock header probing (16 cores)\n");
    let widths = [10, 14, 9, 13, 13, 10];
    let header = [
        "app",
        "variant",
        "total",
        "header-lock",
        "hdr-load",
        "speedup",
    ];
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    for (app, runs) in per_preset(runs) {
        let base = runs[0].1.stats.total_cycles;
        for (job, out) in runs {
            let s = &out.stats;
            let variant = match job.cfg.test_before_lock {
                false => "lock-first",
                true => "test-first",
            };
            let lock = s.stall_fraction(StallReason::HeaderLock);
            let load = s.stall_fraction(StallReason::HeaderLoad);
            let cells = [
                app.to_string(),
                variant.to_string(),
                s.total_cycles.to_string(),
                pct(lock),
                pct(load),
                format!("{:.2}x", base as f64 / s.total_cycles as f64),
            ];
            println!("{}", row(&cells, &widths));
            csv.push(format!(
                "{app},{variant},{},{lock:.6},{load:.6}",
                s.total_cycles
            ));
        }
        println!();
    }
    write_csv(
        "ablation_testlock",
        "app,variant,total,header_lock_frac,header_load_frac",
        &csv,
    );
    None
}

/// Conclusions, item 2: a shared, direct-mapped, write-through header
/// cache at the memory interface serves repeated header loads on chip.
/// javac's hub headers, re-read by every parent, gain most; db's headers
/// are read once each and mostly miss.
fn ablation_headercache(runs: &[Run]) -> Option<String> {
    println!("Extension 2: shared header cache (16 cores)\n");
    let widths = [10, 9, 10, 11, 11, 10];
    let header = ["app", "entries", "total", "hdr-load", "hit rate", "speedup"];
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    for (app, runs) in per_preset(runs) {
        let base = runs[0].1.stats.total_cycles;
        for (job, out) in runs {
            let s = &out.stats;
            let entries = job.cfg.mem.header_cache_entries;
            let load = s.stall_fraction(StallReason::HeaderLoad);
            let (hits, misses) = (s.mem.header_cache_hits, s.mem.header_cache_misses);
            let hit_rate = match hits + misses {
                0 => "-".to_string(),
                lookups => format!("{:.1} %", 100.0 * hits as f64 / lookups as f64),
            };
            let cells = [
                app.to_string(),
                entries.to_string(),
                s.total_cycles.to_string(),
                pct(load),
                hit_rate,
                format!("{:.2}x", base as f64 / s.total_cycles as f64),
            ];
            println!("{}", row(&cells, &widths));
            csv.push(format!(
                "{app},{entries},{},{load:.6},{hits},{misses}",
                s.total_cycles
            ));
        }
        println!();
    }
    write_csv(
        "ablation_headercache",
        "app,entries,total,header_load_frac,cache_hits,cache_misses",
        &csv,
    );
    None
}

/// The experiments named in `args` (all when none is), and whether
/// EXPERIMENTS.md is checked (`Some(false)`) or written (`Some(true)`).
fn parse_args(args: &[String]) -> Result<(Vec<&'static Experiment>, Option<bool>), String> {
    let mut chosen: Vec<&'static Experiment> = Vec::new();
    let mut write = None;
    for arg in args {
        match arg.as_str() {
            "--check" | "--write" => {
                if write.replace(arg == "--write").is_some() {
                    return Err("give one of --check and --write, once".to_string());
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name => {
                let exp = EXPERIMENTS
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown experiment {name:?}"))?;
                if chosen.iter().any(|e| e.name == name) {
                    return Err(format!("{name} is named twice"));
                }
                chosen.push(exp);
            }
        }
    }
    if chosen.is_empty() {
        chosen = EXPERIMENTS.iter().collect();
    }
    if write.is_some() && chosen.iter().all(|e| e.table.is_none()) {
        return Err(format!("no chosen experiment generates a table of {DOC}"));
    }
    Ok((chosen, write))
}

/// Splice `table` between the `tag` markers of `doc`.
fn splice(doc: &str, tag: &str, table: &str) -> Result<String, String> {
    let begin_marker = format!("<!-- BEGIN GENERATED: {tag} -->");
    let end_marker = format!("<!-- END GENERATED: {tag} -->");
    let begin = doc
        .find(&begin_marker)
        .ok_or_else(|| format!("marker {begin_marker:?} not found"))?;
    let end = doc
        .find(&end_marker)
        .ok_or_else(|| format!("marker {end_marker:?} not found"))?;
    if end < begin {
        return Err(format!("{tag}: END marker precedes BEGIN marker"));
    }
    let head = &doc[..begin + begin_marker.len()];
    let tail = &doc[end..];
    Ok(format!("{head}\n{table}{tail}"))
}

/// Write `tables` into EXPERIMENTS.md, whose text is `doc`, or check
/// that it holds them already; returns the exit code.
fn update_doc(doc: String, tables: &[(&str, String)], write: bool) -> i32 {
    let updated = tables
        .iter()
        .try_fold(doc.clone(), |d, (tag, md)| splice(&d, tag, md))
        .unwrap_or_else(|e| panic!("{DOC}: {e}"));
    if doc == updated {
        println!("{DOC}: generated tables are up to date");
        0
    } else if write {
        std::fs::write(DOC, &updated).unwrap_or_else(|e| panic!("write {DOC}: {e}"));
        println!("{DOC}: generated tables refreshed");
        0
    } else {
        eprintln!(
            "{DOC}: a generated table is stale; regenerate with \
             `cargo run --release -p hwgc-bench --bin experiments -- --write`"
        );
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (chosen, write) = parse_args(&args).unwrap_or_else(|e| {
        let names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("experiments: {e}\n{USAGE}\nnames: {}", names.join(", "));
        std::process::exit(2)
    });
    // Read the doc before any job runs, so a run from outside the
    // workspace root fails before the sweep rather than after it.
    let doc =
        write.map(|_| std::fs::read_to_string(DOC).unwrap_or_else(|e| panic!("read {DOC}: {e}")));
    let declared: Vec<Vec<SimJob>> = chosen.iter().map(|e| (e.jobs)()).collect();
    let set = JobSet::from_jobs(declared.iter().flatten().copied());
    let report = sweep_jobset("experiments", &set);
    let outcomes: HashMap<u64, &GcOutcome> = set
        .hashes()
        .iter()
        .copied()
        .zip(report.outcomes.iter().map(|(out, _)| out))
        .collect();

    let mut tables = Vec::new();
    for (i, (exp, jobs)) in chosen.iter().zip(&declared).enumerate() {
        if i > 0 {
            println!();
        }
        let runs: Vec<Run> = jobs
            .iter()
            .map(|job| (job, outcomes[&job.config_hash()]))
            .collect();
        if let (Some(md), Some(tag)) = ((exp.render)(&runs), exp.table) {
            tables.push((tag, md));
        }
    }
    sweep_finish();
    if let (Some(doc), Some(write)) = (doc, write) {
        std::process::exit(update_doc(doc, &tables, write));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(name: &str) -> Vec<u64> {
        let exp = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
        (exp.jobs)().iter().map(SimJob::config_hash).collect()
    }

    #[test]
    fn shared_jobs_run_once() {
        assert_eq!(hashes("fig5_scaling").len(), 40);
        assert_eq!(hashes("fig5_scaling"), hashes("table1_empty_worklist"));
        let set = JobSet::from_jobs(EXPERIMENTS.iter().flat_map(|e| (e.jobs)()));
        assert_eq!((set.len(), set.duplicates()), (147, 57));
    }

    #[test]
    fn every_committed_ledger_record_is_a_declared_job() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ledger.jsonl");
        let committed = hwgc_obs::LedgerStore::load(std::path::Path::new(path)).unwrap();
        assert!(!committed.is_empty());
        let declared = JobSet::from_jobs(EXPERIMENTS.iter().flat_map(|e| (e.jobs)()));
        for hash in committed.hashes() {
            assert!(
                declared.hashes().contains(&hash),
                "BENCH_ledger.jsonl record {hash:016x} matches no declared job, \
                 so no sweep ever checks it"
            );
        }
    }

    #[test]
    fn splice_replaces_between_markers() {
        let doc =
            "before\n<!-- BEGIN GENERATED: t -->\nold table\n<!-- END GENERATED: t -->\nafter\n";
        let out = splice(doc, "t", "new\n").unwrap();
        assert_eq!(
            out,
            "before\n<!-- BEGIN GENERATED: t -->\nnew\n<!-- END GENERATED: t -->\nafter\n"
        );
        // Idempotent.
        assert_eq!(splice(&out, "t", "new\n").unwrap(), out);
    }

    #[test]
    fn splice_requires_markers() {
        assert!(splice("no markers", "t", "x").is_err());
    }

    #[test]
    fn splice_is_per_tag() {
        let doc = "<!-- BEGIN GENERATED: a -->\nA\n<!-- END GENERATED: a -->\n\
                   <!-- BEGIN GENERATED: b -->\nB\n<!-- END GENERATED: b -->\n";
        let out = splice(doc, "b", "B2\n").unwrap();
        assert!(out.contains("A\n"), "tag a untouched");
        assert!(out.contains("B2\n"), "tag b replaced");
        assert!(!out.contains("\nB\n<!-- END GENERATED: b -->"));
        assert!(splice(doc, "c", "x").is_err());
    }
}
