//! Unified observability layer for the whole simulator.
//!
//! Every subsystem reports into one **event bus**: the engine emits typed,
//! cycle-stamped [`Event`]s (core state transitions, worklist claims,
//! phase boundaries, signal samples), and the hardware-unit models keep
//! cheap opt-in logs — the synchronization block's [`hwgc_sync::SbEvent`]
//! and the memory system's [`hwgc_memsim::MemEvent`] — that the engine
//! bridges onto the bus with stamps unified on the *engine* clock.
//!
//! The bus is a [`Probe`]: a statically-dispatched trait whose default
//! implementation, [`NullProbe`], compiles to nothing. The engine's
//! steady-state loop guards every emission with `P::ACTIVE` (an associated
//! `const`), so a probe-less run keeps its allocation-free hot loop and
//! event-horizon fast-forward at their current cycle costs — verified by
//! the existing counting-allocator and differential tests.
//!
//! On top of the bus sit:
//!
//! * a **metrics registry** ([`MetricsRegistry`]) of counters, gauges and
//!   log2-bucketed histograms with a stable JSON snapshot schema
//!   ([`metrics::SCHEMA`]), derived from a recorded event stream by
//!   [`derive::derive_metrics`];
//! * **exporters**: Chrome trace-event / Perfetto JSON
//!   ([`chrome::chrome_trace_json`]) with one track per GC core and one
//!   per memory port, and a flamegraph-ready folded-stacks dump
//!   ([`FoldedStacks`]).
//!
//! Fast-forward interaction rule (see DESIGN.md §6): every event on the
//! bus is a *transition* — something changed — and fast-forward windows
//! are by construction transition-free for the cores, the FIFO and the SB
//! registers, so probe-on and probe-off runs produce identical `GcStats`
//! and identical event streams. Per-cycle lock-failure events are pinned
//! exactly as the SB event log already pins them (`bulk_fail` is illegal
//! while a log is enabled), and sampled rows cap the skip at the next
//! wanted sample via [`Probe::next_sample`].

pub mod attr;
pub mod chrome;
pub mod critpath;
pub mod derive;
pub mod event;
pub mod folded;
pub mod host;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod probe;
pub mod progress;
pub mod report;
pub mod store;
pub mod whatif;

pub use attr::{attribute, BlameReport, ClassBlame, RunModel};
pub use chrome::{chrome_trace_json, validate_chrome_trace, ChromeSummary, RunMeta};
pub use critpath::{critical_path, CritPath};
pub use derive::derive_metrics;
pub use event::{Event, OwnedEvent, SampleRec};
pub use folded::FoldedStacks;
pub use host::{
    validate_hostprof_json, HostProf, HostProfiler, NullHostProf, TimerAgg, HOSTPROF_SCHEMA,
};
pub use json::Json;
pub use ledger::{LedgerRecord, LEDGER_SCHEMA};
pub use metrics::{Histogram, MetricsRegistry};
pub use probe::{Fanout, NullProbe, Probe, Recorder, Recording, SharedProbe};
pub use progress::{JobOutcome, SweepProgress, SweepSummary};
pub use report::{render_report_json, render_report_markdown, HostSection, RunReport};
pub use store::{InsertOutcome, LedgerStore, LoadReport, StoreError};
pub use whatif::{predict, Prediction};
