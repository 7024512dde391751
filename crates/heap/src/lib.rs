//! Object-based heap model for the hardware-supported parallel compacting
//! collector (Horvath & Meyer, ICPP 2010).
//!
//! The paper's system is a 32-bit machine with an object-based memory model:
//! every object consists of a two-word header followed by a *pointer area*
//! of `pi` words and a *data area* of `delta` words (paper Fig. 3). Pointer
//! and non-pointer data are strictly separated so that the hardware always
//! knows where pointers live. The heap is divided into two semispaces; a
//! collection cycle copies all reachable objects from *fromspace* to
//! *tospace* (Cheney-style), inherently compacting the heap.
//!
//! This crate provides:
//!
//! * [`header`] — encoding/decoding of the two-word object header
//!   (mark state, colour, `pi`, `delta`, forwarding pointer / backlink),
//! * [`Heap`] — the word-addressed arena with two semispaces, a mutator-side
//!   bump allocator and typed accessors,
//! * [`GraphBuilder`] — a convenient API for wiring object graphs,
//! * [`snapshot`] / [`verify`] — a pre-collection snapshot of the reachable
//!   graph and a post-collection verifier that checks reachability
//!   preservation, content preservation, compaction and pointer hygiene.
//!
//! Addresses are `u32` word indices into the arena; address `0` is the null
//! pointer and the first few words of the arena are reserved so that no
//! object can ever live at address zero.

mod bitset;
pub mod builder;
pub mod header;
pub mod heap;
pub mod snapshot;
pub mod verify;

pub use builder::{GraphBuilder, ObjId};
pub use header::{Color, Header, MAX_FIELD};
pub use heap::{Addr, Heap, Word, NULL, RESERVED_WORDS};
pub use snapshot::{ObjRecord, Snapshot};
pub use verify::{
    verify_collection, verify_collection_relaxed, verify_collection_with, VerifyError,
    VerifyOptions, VerifyReport,
};
