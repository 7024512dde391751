//! Ablation B (paper Sections I & III): what fine-grained synchronization
//! costs in software, and what the coarser-grained schemes from related
//! work trade for avoiding it.
//!
//! Runs the real-thread collectors on the benchmark presets and reports,
//! per collector and thread count: wall-clock time, speedup over the
//! single-threaded run, synchronization operations per live object, and
//! fragmentation. The hardware model needs *zero* synchronization cost
//! for the same fine-grained algorithm — that contrast is the paper's
//! thesis.
//!
//! Every column depends on the host: the wall clocks on its speed and
//! core count, and sync-ops/object and fragmentation on the thread
//! schedule, so no two runs print the same table.

use hwgc_bench::{row, spec, write_csv};
use hwgc_heap::{verify_collection, verify_collection_relaxed, Snapshot};
use hwgc_swgc::{Chunked, FineGrained, Packets, SwCollector, WorkStealing};
use hwgc_workloads::Preset;

fn main() {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("Ablation B: software collectors (real threads)");
    println!(
        "host parallelism: {host} — wall-clock speedups are only meaningful when the\n         thread count stays at or below this; sync-ops/object and fragmentation vary\n         with the thread schedule from run to run.\n"
    );
    let presets = [Preset::Db, Preset::Javac, Preset::Cup, Preset::Compress];
    let threads = [1usize, 2, 4];
    let widths = [10, 15, 9, 12, 9, 13, 11];
    let header: Vec<String> = [
        "app",
        "collector",
        "threads",
        "time (µs)",
        "speedup",
        "sync-ops/obj",
        "frag words",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    println!("{}", row(&header, &widths));

    let collectors: Vec<(Box<dyn SwCollector>, bool)> = vec![
        (Box::new(FineGrained::new()), true),
        (Box::new(WorkStealing::new()), false),
        (Box::new(Chunked::new()), false),
        (Box::new(Packets::new()), false),
    ];

    let mut csv = Vec::new();
    for preset in presets {
        for (collector, compacting) in &collectors {
            let mut base_us = 0.0;
            for &t in &threads {
                // Median of 3 runs to tame scheduling noise.
                let mut times = Vec::new();
                let mut last = None;
                for _ in 0..3 {
                    let mut heap = spec(preset).build();
                    let snap = Snapshot::capture(&heap);
                    let report = collector.collect(&mut heap, t);
                    let check = if *compacting {
                        verify_collection(&heap, report.free, &snap)
                    } else {
                        verify_collection_relaxed(&heap, report.free, &snap)
                    };
                    check.unwrap_or_else(|e| {
                        panic!("{} {} threads on {preset}: {e}", collector.name(), t)
                    });
                    times.push(report.elapsed.as_secs_f64() * 1e6);
                    last = Some((report, snap.live_objects() as u64));
                }
                times.sort_by(f64::total_cmp);
                let us = times[1];
                let (report, live) = last.unwrap();
                if t == 1 {
                    base_us = us;
                }
                let cells = vec![
                    preset.name().to_string(),
                    collector.name().to_string(),
                    t.to_string(),
                    format!("{us:.0}"),
                    format!("{:.2}", base_us / us),
                    format!("{:.1}", report.ops.total_ops() as f64 / live.max(1) as f64),
                    report.fragmentation_words.to_string(),
                ];
                println!("{}", row(&cells, &widths));
                csv.push(format!(
                    "{},{},{},{:.1},{:.3},{:.2},{}",
                    preset.name(),
                    collector.name(),
                    t,
                    us,
                    base_us / us,
                    report.ops.total_ops() as f64 / live.max(1) as f64,
                    report.fragmentation_words
                ));
            }
        }
        println!();
    }
    write_csv(
        "ablation_software",
        "app,collector,threads,time_us,speedup,sync_ops_per_obj,fragmentation_words",
        &csv,
    );
}
