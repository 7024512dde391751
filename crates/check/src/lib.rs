//! Schedule-exploration and differential-oracle harness for the simulated
//! fine-grained parallel compacting collector.
//!
//! The paper's collector rests on three invariants (Section IV): every
//! gray object is claimed by exactly one core, every object is evacuated
//! exactly once, and every evacuated object receives an exclusive tospace
//! area. The production test suite exercises them under the engine's
//! default static arbitration; this crate exercises them under *any* legal
//! arbitration:
//!
//! * [`graphs`] — deterministic adversarial object graphs (deep lists,
//!   wide fanouts, shared hubs, cycles, self-loops, minimal objects, a
//!   seeded random soup),
//! * [`sweep`] — run the collector under hundreds of seeded
//!   [`hwgc_core::schedule::SchedulePolicy`] × core-count combinations
//!   (plus DRAM service reordering) and assert functional equivalence
//!   with the sequential reference,
//! * [`lint`] — replay the SB's cycle-stamped event log against a shadow
//!   SB and flag invariant violations with exact cycle numbers,
//! * [`oracle`] — differential execution of the sequential reference, the
//!   simulated collector across configurations and the four real-thread
//!   software collectors on clones of the same heap.

pub mod graphs;
pub mod lint;
pub mod oracle;
pub mod sweep;

pub use lint::{lint_events, lint_trace, TraceLint, Violation};
pub use oracle::{differential, sim_configs, OracleOutcome};
pub use sweep::{run_sweep, PolicyKind, SweepConfig, SweepOutcome};
