//! The five workloads, the inputs each derives from the seed, and the
//! paper cells the simulated results are compared against.
//!
//! The seed reaches the program only through generated inputs
//! ([`WorkloadSpec::seed`], and for `chain1` the scale).

use hwgc_core::{GcConfig, GcStats, StallReason};
use hwgc_jobs::{ConfigMatrix, JobSet};
use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig};
use hwgc_obs::json::Json;
use hwgc_workloads::{Preset, WorkloadSpec};

/// Core counts of the sweep matrix (Figure 5's x axis).
pub const SWEEP_CORES: [usize; 5] = [1, 2, 4, 8, 16];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One heap, one config: snapshot → collect → verify.
    Single {
        preset: Preset,
        scale: f64,
        cores: usize,
        dram: bool,
    },
    /// The 40-job matrix against a fresh cache: every job simulates.
    SweepCold,
    /// The same matrix against a primed cache: every job is a hit.
    SweepWarm,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the set (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "hub16",
        why: "javac hub graph, scale 40, 16 cores, fixed memory: the sparse park/wake engine, SB header-lock arbitration and MemorySystem::tick carry most of the op",
        kind: Kind::Single {
            preset: Preset::Javac,
            scale: 40.0,
            cores: 16,
            dram: false,
        },
    },
    Workload {
        name: "chain1",
        why: "compress chain of large objects, scale 60, 1 core: bypasses the sparse engine, SB contention and the calendar; heap snapshot/verify is half the op",
        kind: Kind::Single {
            preset: Preset::Compress,
            scale: 60.0,
            cores: 1,
            dram: false,
        },
    },
    Workload {
        name: "dram16",
        why: "db random graph, scale 16, 16 cores, DRAM backend: bank/row queues behind the same MemBackend trait, so a refactor that helps one backend and costs the other shows",
        kind: Kind::Single {
            preset: Preset::Db,
            scale: 16.0,
            cores: 16,
            dram: true,
        },
    },
    Workload {
        name: "sweep40_cold",
        why: "8 presets x 5 core counts at scale 1 into a fresh rw cache: the reproduce_all shape, where per-job fixed costs matter and steady-state speed does not",
        kind: Kind::SweepCold,
    },
    Workload {
        name: "sweep40_warm",
        why: "the same 40 jobs against a primed cache: all hits, JSON parse and digest re-check only, zero engine; must reproduce the cold sweep's simulated results",
        kind: Kind::SweepWarm,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A single-config workload's inputs for `seed`. `scale_override` is the
/// self-tests' smoke size.
pub fn single_inputs(
    preset: Preset,
    scale: f64,
    cores: usize,
    dram: bool,
    seed: u64,
    scale_override: Option<f64>,
) -> (WorkloadSpec, GcConfig) {
    let mut scale = scale_override.unwrap_or(scale);
    if preset == Preset::Compress {
        // compress has no random topology, so the seed moves its size
        // instead (±0.5 %): a held-back seed is a different input here too.
        scale *= 1.0 + ((seed % 11) as f64 - 5.0) / 1000.0;
    }
    (
        WorkloadSpec {
            preset,
            seed,
            scale,
        },
        config(cores, dram),
    )
}

/// The config of a workload. Built on the crate defaults with every
/// `HWGC_*` variable scrubbed (see `env::scrub`), so nothing in the
/// environment selects an engine or a backend.
pub fn config(cores: usize, dram: bool) -> GcConfig {
    let backend = if dram {
        MemBackendKind::Dram(DramConfig::default())
    } else {
        MemBackendKind::Fixed
    };
    GcConfig {
        mem: MemConfig::default().with_backend(backend),
        ..GcConfig::with_cores(cores)
    }
}

/// The sweep workloads' job set: every preset at every core count, with
/// seed-derived topologies.
pub fn sweep_matrix(seed: u64) -> JobSet {
    ConfigMatrix::new(config(1, false))
        .presets(Preset::ALL)
        .seeds([seed])
        .cores(SWEEP_CORES)
        .lower()
}

// ---------------------------------------------------------------------
// Reference cells and golden digests (data files beside Cargo.toml).
// ---------------------------------------------------------------------

fn data_file(text: &str, what: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("benchmark/{what} is not JSON: {e}"))
}

/// A paper cell from `reference.json`, by id.
pub fn reference(id: &str) -> f64 {
    let doc = data_file(include_str!("../reference.json"), "reference.json");
    doc.get("cells")
        .and_then(Json::as_arr)
        .and_then(|cells| {
            cells
                .iter()
                .find(|c| c.get("id").and_then(Json::as_str) == Some(id))
        })
        .and_then(|c| c.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("reference.json has no cell `{id}`"))
}

/// The golden `stats_digest` of `workload`, recorded for `seed` only.
pub fn golden_digest(workload: &str, seed: u64) -> Option<u64> {
    let doc = data_file(include_str!("../golden.json"), "golden.json");
    if doc.get("seed").and_then(Json::as_int) != Some(i128::from(seed)) {
        return None;
    }
    doc.get("stats_digest")?
        .get(workload)?
        .as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
}

fn pct(fraction: f64) -> f64 {
    100.0 * fraction
}

/// Absolute error, in percentage points, of a single-config workload
/// against the paper cell its preset is known for.
pub fn paper_abs_err_pp(preset: Preset, stats: &GcStats) -> f64 {
    let (model, cell) = match preset {
        Preset::Javac => (
            pct(stats.stall_fraction(StallReason::HeaderLock)),
            "table2.javac16.header_lock_pct",
        ),
        Preset::Db => (
            pct(stats.stall_fraction(StallReason::HeaderLoad)),
            "table2.db16.header_load_pct",
        ),
        Preset::Cup => (
            pct(stats.stall_fraction(StallReason::ScanLock)),
            "table2.cup16.scan_lock_pct",
        ),
        Preset::Jflex => (
            pct(stats.empty_worklist_fraction()),
            "table1.jflex16.empty_worklist_pct",
        ),
        Preset::Compress => (
            pct(stats.empty_worklist_fraction()),
            "table1.compress1.empty_worklist_pct",
        ),
        other => panic!("no reference cell in reference.json for preset {other}"),
    };
    (model - reference(cell)).abs()
}

/// FNV-1a over a sequence of digests: one digest for a whole job set.
pub fn combine_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    hwgc_obs::ledger::fnv1a(&bytes)
}
