//! Paper Section III: every software scheme picks a work/allocation
//! granularity, trading synchronization frequency against fragmentation
//! and load balance. This binary sweeps each baseline's granularity knob:
//!
//! * Flood work-stealing / Ossia packets: the LAB size (Petrank &
//!   Kolodner's delayed allocation targets exactly this fragmentation),
//! * Imai & Tick: the chunk size,
//! * Ossia: additionally the packet capacity.
//!
//! Reported per point: shared synchronization operations per live object
//! and fragmentation — the two ends of the trade the paper's coprocessor
//! collapses (its fine-grained scheme needs neither).
//!
//! The collectors run on real threads, so both columns depend on the
//! host's thread schedule: which thread steals, claims or retires a LAB
//! first changes the counts, and two runs differ (work-stealing
//! fragmentation at LAB 64 has read 14288 and 13968 words). Read the
//! trend across knob values, not the digits; `reproduce_all` leaves this
//! binary out of its deterministic batch.

use hwgc_bench::{row, spec, write_csv};
use hwgc_heap::{verify_collection_relaxed, Snapshot};
use hwgc_swgc::{Chunked, Packets, SwCollector, WorkStealing};
use hwgc_workloads::Preset;

fn run(
    collector: &dyn SwCollector,
    label: &str,
    knob: u32,
    csv: &mut Vec<String>,
    widths: &[usize],
) {
    let mut heap = spec(Preset::Db).build();
    let snapshot = Snapshot::capture(&heap);
    let report = collector.collect(&mut heap, 2);
    verify_collection_relaxed(&heap, report.free, &snapshot)
        .unwrap_or_else(|e| panic!("{label} {knob}: {e}"));
    let live = snapshot.live_objects() as f64;
    let frag_pct = 100.0 * report.fragmentation_words as f64
        / (report.words_copied + report.fragmentation_words) as f64;
    let cells = vec![
        label.to_string(),
        knob.to_string(),
        format!("{:.2}", report.ops.total_ops() as f64 / live),
        report.fragmentation_words.to_string(),
        format!("{frag_pct:.1} %"),
    ];
    println!("{}", row(&cells, widths));
    csv.push(format!(
        "{label},{knob},{:.4},{},{:.4}",
        report.ops.total_ops() as f64 / live,
        report.fragmentation_words,
        frag_pct
    ));
}

fn main() {
    println!("Granularity trade-off of the software baselines (db preset, 2 threads)\n");
    let widths = [14, 9, 13, 12, 8];
    let header: Vec<String> = ["collector", "knob", "sync-ops/obj", "frag words", "frag%"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    for lab in [64u32, 256, 1024, 4096] {
        run(
            &WorkStealing { lab_words: lab },
            "work-stealing",
            lab,
            &mut csv,
            &widths,
        );
    }
    println!();
    for chunk in [256u32, 1024, 2048, 8192] {
        run(
            &Chunked { chunk_words: chunk },
            "chunked",
            chunk,
            &mut csv,
            &widths,
        );
    }
    println!();
    for packet in [1usize, 16, 256, 1024] {
        run(
            &Packets {
                packet_size: packet,
                lab_words: 1024,
            },
            "work-packets",
            packet as u32,
            &mut csv,
            &widths,
        );
    }
    println!(
        "\nreading: larger buffers cut the shared operations per object but waste more\n\
         tospace — the trade every software scheme makes (Section III). The hardware\n\
         collector's sync-ops/object equivalent is ~4.5, each costing zero cycles, with\n\
         zero fragmentation."
    );
    write_csv(
        "ablation_granularity",
        "collector,knob,sync_ops_per_obj,frag_words,frag_pct",
        &csv,
    );
}
