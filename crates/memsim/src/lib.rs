//! Split-transaction memory system of the GC coprocessor (paper Section
//! V-D).
//!
//! Each core owns four single-entry buffers — header-load, header-store,
//! body-load and body-store — so up to `4 × N` requests can be pending at
//! once. A core stalls only when it re-uses a busy buffer or consumes a
//! load whose data has not arrived. The DRAM model accepts a configurable
//! number of requests per cycle (bandwidth) and completes each a
//! configurable number of cycles after service start (latency).
//!
//! Ordering is enforced *only where the algorithm requires it*:
//!
//! * body accesses are completely unordered (every body word is written or
//!   read exactly once per collection cycle),
//! * a header **load** is delayed while a header **store** to the same
//!   address is pending (the comparator array),
//! * write/write ordering on headers needs no hardware because the locking
//!   protocol guarantees a single writer per header.
//!
//! The model is *timing-only*: data movement is performed by the collector
//! cores directly on the heap at architecturally-correct points (stores
//! apply when issued; loads are sampled when consumed). The lock protocol
//! and the comparator array together make this equivalent to the hardware's
//! value flow.
//!
//! The module also provides the on-chip [`HeaderFifo`] that buffers gray
//! tospace headers: they are read at `scan` in exactly the order they were
//! written at `free`, so as long as the gray population fits the FIFO, the
//! scan-side header read needs no memory access at all.

pub mod backend;
pub mod dram;
pub mod fifo;
pub mod system;
mod wheel;

pub use backend::{backend_from, MemBackend, MemBackendKind, Service};
pub use dram::{Dram, DramConfig, DramMemorySystem, DramStats, PagePolicy, MAX_BANKS};
pub use fifo::{FifoStats, HeaderFifo};
pub use system::{
    Fixed, Issue, MemConfig, MemEvent, MemEventRecord, MemStats, Memory, MemorySystem, Port,
    RowOutcome, PORT_COUNT,
};
pub use wheel::MAX_SERVICE_LATENCY;
