//! Differential oracle: every collector in the workspace, run on clones of
//! the same heap, must agree on the functional outcome.
//!
//! The baseline is the sequential Cheney reference ([`SeqCheney`]); against
//! it the oracle runs the cycle-level [`SimCollector`] across core counts,
//! FIFO/header-cache/memory-reordering settings and schedule policies, and
//! the four real-thread software collectors. Agreement means:
//!
//! * the live set (objects and words copied) is identical,
//! * every run passes [`verify_collection`] against the same pre-cycle
//!   [`Snapshot`] — which pins the final root targets to the same object
//!   ids — strict for compacting collectors, relaxed for the fragmenting
//!   software baselines,
//! * compacting collectors produce the same allocation frontier.
//!
//! A disagreement panics with the graph name, the diverging configuration
//! and both outcomes.

use hwgc_core::schedule::{Adversarial, RandomOrder, SchedulePolicy};
use hwgc_core::{GcConfig, SeqCheney, SimCollector};
use hwgc_heap::{verify_collection, verify_collection_relaxed, Heap, Snapshot};
use hwgc_jobs::par_map;
use hwgc_memsim::MemConfig;
use hwgc_swgc::{Chunked, FineGrained, Packets, SwCollector, WorkStealing};

/// Summary of one differential run.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// Live objects every collector agreed on.
    pub live_objects: usize,
    /// Live words every collector agreed on.
    pub live_words: u64,
    /// Number of collector configurations exercised.
    pub runs: usize,
}

/// The simulated-collector configurations the oracle sweeps: core counts
/// 1–16 at defaults, then FIFO off, header cache on, reordered DRAM
/// service and their combination at contention-prone core counts.
pub fn sim_configs() -> Vec<(String, GcConfig)> {
    let mut configs: Vec<(String, GcConfig)> = Vec::new();
    for cores in [1usize, 2, 4, 8, 16] {
        configs.push((format!("sim/{cores}c"), GcConfig::with_cores(cores)));
    }
    for cores in [2usize, 8] {
        configs.push((
            format!("sim/{cores}c/fifo-off"),
            GcConfig {
                mem: MemConfig {
                    header_fifo_capacity: 0,
                    ..MemConfig::default()
                },
                ..GcConfig::with_cores(cores)
            },
        ));
        configs.push((
            format!("sim/{cores}c/hdr-cache"),
            GcConfig {
                mem: MemConfig {
                    header_cache_entries: 64,
                    ..MemConfig::default()
                },
                ..GcConfig::with_cores(cores)
            },
        ));
        configs.push((
            format!("sim/{cores}c/mem-reorder"),
            GcConfig {
                mem: MemConfig::default().with_service_reorder(0xD15C_0D15),
                ..GcConfig::with_cores(cores)
            },
        ));
        configs.push((
            format!("sim/{cores}c/fifo-off/hdr-cache/mem-reorder"),
            GcConfig {
                mem: MemConfig {
                    header_fifo_capacity: 0,
                    header_cache_entries: 64,
                    ..MemConfig::default()
                }
                .with_service_reorder(0xFEED),
                ..GcConfig::with_cores(cores)
            },
        ));
    }
    configs
}

/// Run every collector on clones of `heap` and check agreement. Panics
/// (with `name` and the diverging configuration) on any disagreement.
pub fn differential(name: &str, heap: &Heap) -> OracleOutcome {
    let snapshot = Snapshot::capture(heap);
    let mut runs = 0;

    // --- sequential reference -----------------------------------------
    let mut seq_heap = heap.clone();
    let seq = SeqCheney::new().collect(&mut seq_heap);
    verify_collection(&seq_heap, seq.free, &snapshot)
        .unwrap_or_else(|e| panic!("{name}: seq reference failed verification: {e}"));
    assert_eq!(
        seq.objects_copied as usize,
        snapshot.live_objects(),
        "{name}: seq live-object count disagrees with the snapshot"
    );
    assert_eq!(
        seq.words_copied, snapshot.live_words,
        "{name}: seq live words"
    );
    runs += 1;

    // --- simulated collector across configurations --------------------
    // Every remaining run owns its heap clone, so the three sections fan
    // out on the `HWGC_JOBS` worker pool; checks still name the exact
    // diverging configuration because each closure carries its label.
    let configs = sim_configs();
    runs += par_map(&configs, |_, (cfg_name, cfg)| {
        let mut h = heap.clone();
        let out = SimCollector::new(*cfg).collect(&mut h);
        check_sim(name, cfg_name, &h, &snapshot, &seq, out.free, &out.stats);
    })
    .len();

    // --- simulated collector under schedule policies -------------------
    let policy_runs: Vec<(u64, bool)> = [1u64, 0xACE5]
        .into_iter()
        .flat_map(|seed| [(seed, false), (seed, true)])
        .collect();
    runs += par_map(&policy_runs, |_, &(seed, adversarial)| {
        let mut policy: Box<dyn SchedulePolicy> = if adversarial {
            Box::new(Adversarial::new(seed))
        } else {
            Box::new(RandomOrder::new(seed))
        };
        let cfg_name = format!("sim/4c/{}/{seed:#x}", policy.name());
        let mut h = heap.clone();
        let out =
            SimCollector::new(GcConfig::with_cores(4)).collect_scheduled(&mut h, policy.as_mut());
        check_sim(name, &cfg_name, &h, &snapshot, &seq, out.free, &out.stats);
    })
    .len();

    // --- real-thread software collectors --------------------------------
    type SwBuild = fn() -> Box<dyn SwCollector>;
    let sw_kinds: [(SwBuild, bool); 4] = [
        (|| Box::new(FineGrained::new()), true),
        (|| Box::new(WorkStealing::new()), false),
        (|| Box::new(Chunked::new()), false),
        (|| Box::new(Packets::new()), false),
    ];
    let sw_runs: Vec<((SwBuild, bool), usize)> = sw_kinds
        .into_iter()
        .flat_map(|kind| [1usize, 4].map(|threads| (kind, threads)))
        .collect();
    runs += par_map(&sw_runs, |_, &((build, compacting), threads)| {
        let collector = build();
        let mut h = heap.clone();
        let report = collector.collect(&mut h, threads);
        let cfg_name = format!("swgc/{}/{threads}t", report.name);
        let result = if compacting {
            verify_collection(&h, report.free, &snapshot)
        } else {
            verify_collection_relaxed(&h, report.free, &snapshot)
        };
        result.unwrap_or_else(|e| panic!("{name}: {cfg_name} failed verification: {e}"));
        assert_eq!(
            report.objects_copied, seq.objects_copied,
            "{name}: {cfg_name} copied a different number of objects"
        );
        assert_eq!(
            report.words_copied, seq.words_copied,
            "{name}: {cfg_name} copied a different number of words"
        );
        if compacting {
            assert_eq!(
                report.free, seq.free,
                "{name}: {cfg_name} compacted to a different frontier"
            );
        }
    })
    .len();

    OracleOutcome {
        live_objects: snapshot.live_objects(),
        live_words: snapshot.live_words,
        runs,
    }
}

fn check_sim(
    graph: &str,
    cfg_name: &str,
    heap: &Heap,
    snapshot: &Snapshot,
    seq: &hwgc_core::SeqOutcome,
    free: u32,
    stats: &hwgc_core::GcStats,
) {
    verify_collection(heap, free, snapshot)
        .unwrap_or_else(|e| panic!("{graph}: {cfg_name} failed verification: {e}"));
    assert_eq!(
        stats.objects_copied, seq.objects_copied,
        "{graph}: {cfg_name} copied a different number of objects"
    );
    assert_eq!(
        stats.words_copied, seq.words_copied,
        "{graph}: {cfg_name} copied a different number of words"
    );
    assert_eq!(
        free, seq.free,
        "{graph}: {cfg_name} compacted to a different frontier"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs;

    #[test]
    fn oracle_accepts_a_small_shared_graph() {
        let outcome = differential("shared_hub", &graphs::shared_hub(12));
        assert_eq!(outcome.live_objects, 13);
        assert!(outcome.runs > 25, "only {} runs", outcome.runs);
    }

    #[test]
    fn sim_config_matrix_covers_the_advertised_axes() {
        let configs = sim_configs();
        assert!(configs.len() >= 13);
        assert!(configs.iter().any(|(n, _)| n.contains("fifo-off")));
        assert!(configs.iter().any(|(n, _)| n.contains("hdr-cache")));
        assert!(configs.iter().any(|(n, _)| n.contains("mem-reorder")));
        assert!(configs.iter().any(|(_, c)| c.n_cores == 16));
    }
}
