//! Extension 1 (paper conclusions, item 1): distributing collection work
//! at a granularity finer than whole objects.
//!
//! "Our experiments show that two remaining issues limit scalability:
//! (1) limited object-level parallelism … Therefore, we are currently
//! investigating improvements that allow us to distribute work at a finer
//! granularity than object-level granularity, e.g. at the granularity of
//! cache lines."
//!
//! Workload: a chain of large reference arrays whose chain edge is the
//! last pointer slot, so the successor becomes claimable only when the
//! parent's scan finishes — object-level parallelism ≈ 1, the worst case
//! for the paper's collector. With `line_split = Some(L)`, a scan claim
//! takes at most L body words, so all cores can copy one array
//! concurrently.

use hwgc_bench::{row, run_verified_heap, write_csv};
use hwgc_core::GcConfig;
use hwgc_heap::{GraphBuilder, Heap};
use hwgc_workloads::generators::{big_array_chain, GenStats};

fn build() -> Heap {
    let n = 24u32;
    let nulls = 2000u32;
    let mut heap = Heap::new(n * (4 + nulls) + 8192);
    let mut b = GraphBuilder::new(&mut heap);
    let mut s = GenStats::default();
    let head = big_array_chain(&mut b, n as usize, nulls, &mut s);
    b.root(head);
    heap
}

fn main() {
    println!("Extension 1: line-granularity work distribution");
    println!("workload: chain of 24 reference arrays x 2001 slots (chain edge last)\n");
    let widths = [14, 7, 10, 9, 9];
    let header: Vec<String> = ["granularity", "cores", "cycles", "speedup", "claims"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    println!("{}", row(&header, &widths));

    let mut csv = Vec::new();
    for (name, line_split) in [
        ("object", None),
        ("line=256", Some(256u32)),
        ("line=64", Some(64)),
        ("line=16", Some(16)),
    ] {
        let mut base = 0u64;
        for cores in [1usize, 4, 16] {
            let cfg = GcConfig {
                n_cores: cores,
                line_split,
                ..GcConfig::default()
            };
            let out = run_verified_heap(&mut build(), cfg, "bigarrays-chain24x2001");
            if cores == 1 {
                base = out.stats.total_cycles;
            }
            let cells = vec![
                name.to_string(),
                cores.to_string(),
                out.stats.total_cycles.to_string(),
                format!("{:.2}", base as f64 / out.stats.total_cycles as f64),
                out.stats.chunks_claimed.to_string(),
            ];
            println!("{}", row(&cells, &widths));
            csv.push(format!(
                "{},{},{},{:.4},{}",
                name,
                cores,
                out.stats.total_cycles,
                base as f64 / out.stats.total_cycles as f64,
                out.stats.chunks_claimed
            ));
        }
        println!();
    }
    println!(
        "reading: at object granularity the chain is inherently serial; splitting the\n\
         body copy into lines recovers the parallelism the paper's conclusions predict\n\
         (until the claims become so small that scan-lock traffic dominates)."
    );
    write_csv(
        "ablation_linesplit",
        "granularity,cores,cycles,speedup,claims",
        &csv,
    );
}
