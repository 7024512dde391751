//! The paper's primary contribution: a fine-grained parallel compacting
//! garbage collector running on a (simulated) multi-core GC coprocessor
//! with hardware-supported synchronization.
//!
//! The collector is the parallel variant of Cheney's copying algorithm from
//! paper Section IV: gray objects form a *single centralized work list* —
//! the tospace region between the `scan` and `free` registers — and work is
//! distributed on an object-by-object basis. Three invariants are enforced
//! by synchronization:
//!
//! 1. every gray object is assigned to exactly one core (atomic access to
//!    `scan`),
//! 2. every object is evacuated exactly once (atomic access to object
//!    headers),
//! 3. every object gets an exclusive tospace area (atomic access to
//!    `free`),
//!
//! with the deadlock-free lock ordering `scan < header < free`.
//!
//! Modules:
//!
//! * [`config`] — collector configuration (core count, memory model,
//!   ablation switches),
//! * [`stats`] — cycle-accurate statistics matching the paper's Tables I
//!   and II,
//! * [`machine`] — the per-core microprogram as an explicit state machine,
//! * [`engine`] — the cycle-level simulation loop and [`SimCollector`],
//! * [`schedule`] — pluggable per-cycle core-arbitration policies (the
//!   schedule-exploration hook used by the `hwgc-check` harness),
//! * [`seq`] — the sequential Cheney reference collector (functionally the
//!   paper's 1-core configuration, with no timing model).

pub mod concurrent;
pub mod config;
pub mod engine;
pub mod machine;
pub mod schedule;
pub mod seq;
pub mod stats;
pub mod trace;

pub use concurrent::{MutatorConfig, MutatorStats};
pub use config::{GcConfig, MAX_CORES};
pub use engine::{ConcurrentOutcome, GcOutcome, SimCollector};
pub use schedule::{
    Adversarial, CoreView, RandomOrder, SchedulePolicy, ScheduleView, StaticPriority,
};
pub use seq::{SeqCheney, SeqOutcome};
pub use stats::{GcStats, StallBreakdown, StallReason};
pub use trace::{SignalTrace, TraceProbe, TraceRow};
