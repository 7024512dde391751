//! Synchronization block (SB) model of the multi-core GC coprocessor
//! (paper Section V-C), plus software synchronization primitives used by
//! the real-thread collectors in `hwgc-swgc`.
//!
//! The hardware SB provides:
//!
//! * the `scan` and `free` registers, readable by all cores, each guarded
//!   by a lock with **zero-cycle uncontended acquisition** and static
//!   priority arbitration (lowest core index wins),
//! * one **header-lock register** per core: acquiring a header lock
//!   compares the requested address against all other cores' registers in
//!   parallel; a match stalls the requester,
//! * the `ScanState` register of per-core busy bits, readable atomically
//!   together with the `scan`/`free` comparison (termination detection),
//! * barrier synchronization via "synchronizing" micro-instructions.
//!
//! The model is used by the single-threaded cycle simulator: the engine
//! ticks cores in index order each cycle, so a core may acquire a currently
//! free lock *within its own tick* (zero-cost), and a lock released by core
//! *i* can be re-acquired by core *j > i* in the same cycle — exactly the
//! paper's "a lock can be released by one core and reacquired by another
//! core in the same cycle". Static prioritization falls out of the tick
//! order.

pub mod barrier;
pub mod sb;
pub mod sw;

pub use barrier::Barrier;
pub use sb::{event_fingerprint, LockKind, SbEvent, SbEventRecord, SyncBlock, SyncStats};
