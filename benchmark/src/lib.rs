//! The repo's benchmark: five workloads over the simulator's layers,
//! measured from outside through the crates' public functions. See
//! `README.md` beside this crate's `Cargo.toml` for the workloads, the
//! metrics and how they are expected to interact.

pub mod compare;
pub mod env;
pub mod kernels;
pub mod metrics;
pub mod report;
pub mod run;
pub mod single;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod workloads;

use run::{Options, RunResult};
use workloads::{Kind, Workload};

/// Run one workload.
pub fn run_workload(w: &'static Workload, opts: Options) -> RunResult {
    match w.kind {
        Kind::Single {
            preset,
            scale,
            cores,
            dram,
        } => single::run(w, preset, scale, cores, dram, opts),
        Kind::SweepCold => sweep::run(w, true, opts),
        Kind::SweepWarm => sweep::run(w, false, opts),
    }
}
