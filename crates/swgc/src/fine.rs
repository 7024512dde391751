//! The paper's fine-grained algorithm, transliterated to software
//! synchronization.
//!
//! Identical structure to the hardware collector — a single worklist
//! bounded by `scan` and `free`, frame-only evacuation (Gray 1), body
//! copy at scan time (Gray 2), per-object header synchronization, busy
//! flags for termination — but every operation the synchronization block
//! performs for free costs an atomic read-modify-write here:
//!
//! * the `scan` critical section (header read + advance) is a ticket lock,
//! * the `free` critical section is a ticket lock,
//! * header locks are a spin bit (bit 31) in header word 0, CASed,
//! * busy flags are a shared atomic bitmask.
//!
//! Ablation B measures exactly this overhead against the hardware model
//! and against the coarser-grained baselines in the sibling modules.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use hwgc_heap::header::{self, Header, SW_LOCK_BIT};
use hwgc_heap::{Addr, NULL};
use hwgc_sync::sw::{SpinBarrier, SwSyncOps, TicketLock};

use crate::arena::Arena;
use crate::common::{ParallelOutcome, SwCollector};

/// The fine-grained software collector.
#[derive(Debug, Default, Clone, Copy)]
pub struct FineGrained;

impl FineGrained {
    /// Create a collector.
    pub fn new() -> FineGrained {
        FineGrained
    }
}

struct Shared<'a> {
    arena: &'a Arena,
    scan_lock: TicketLock,
    free_lock: TicketLock,
    scan: AtomicU32,
    free: AtomicU32,
    busy: AtomicU32,
    done: AtomicBool,
}

impl Shared<'_> {
    /// Lock the header of `obj` by CASing the spin bit into word 0.
    /// Returns the (locked) word-0 value.
    fn lock_header(&self, obj: Addr, ops: &mut SwSyncOps) -> u32 {
        let idx = obj as usize;
        loop {
            ops.header_cas += 1;
            let cur = self.arena_word(idx).load(Ordering::Acquire);
            if cur & SW_LOCK_BIT != 0 {
                ops.header_cas_failed += 1;
                ops.spin_iterations += 1;
                if ops.spin_iterations.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            match self.arena_word(idx).compare_exchange_weak(
                cur,
                cur | SW_LOCK_BIT,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return cur | SW_LOCK_BIT,
                Err(_) => {
                    ops.header_cas_failed += 1;
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Unlock a header by storing word 0 without the spin bit.
    fn unlock_header(&self, obj: Addr, w0: u32) {
        self.arena_word(obj as usize)
            .store(w0 & !SW_LOCK_BIT, Ordering::Release);
    }

    fn arena_word(&self, idx: usize) -> &AtomicU32 {
        // The arena exposes atomic words only through its own methods;
        // for the CAS-based header lock we need the raw atomic.
        self.arena.word_atomic(idx)
    }

    /// Frame-only evacuation under the caller-held header lock, exactly
    /// the paper's Gray-1 transition. Returns the frame address.
    fn evacuate_frame(&self, obj: Addr, w0_locked: u32, ops: &mut SwSyncOps) -> Addr {
        let pi = header::pi_of(w0_locked);
        let delta = header::delta_of(w0_locked);
        let size = 2 + pi + delta;
        ops.lock_acquisitions += 1;
        let guard = self.free_lock.lock();
        let dst = self.free.load(Ordering::Relaxed);
        assert!(dst + size <= self.arena.to_limit(), "tospace overflow");
        // Install the gray frame header *before* publishing the new free
        // value: a scanner that observes free > dst must observe the
        // header (release store on free).
        let (gw0, gw1) = Header::gray(pi, delta, obj).encode();
        self.arena.store(dst, gw0);
        self.arena.store(dst + 1, gw1);
        self.free.store(dst + size, Ordering::Release);
        drop(guard);
        // Publish the forwarding pointer, then mark + unlock the header.
        self.arena.store_release(obj + 1, dst);
        self.unlock_header(obj, header::with_mark(w0_locked));
        dst
    }

    /// The per-pointer child protocol: lock header, read, evacuate if
    /// unmarked, return the forwarding address.
    fn forward_child(&self, child: Addr, ops: &mut SwSyncOps) -> Addr {
        let w0 = self.lock_header(child, ops);
        if header::is_marked(w0) {
            let fwd = self.arena.load(child + 1);
            self.unlock_header(child, w0);
            fwd
        } else {
            self.evacuate_frame(child, w0, ops)
        }
    }
}

impl SwCollector for FineGrained {
    fn name(&self) -> &'static str {
        "fine-grained"
    }

    // The fine-grained collector has no steals or packets to report: its
    // distribution mechanism is the shared scan/free registers, which the
    // `SwSyncOps` counters already capture.
    fn parallel_collect_observed(
        &self,
        arena: &Arena,
        roots: &mut [Addr],
        n_threads: usize,
        _probe: Option<&hwgc_obs::SharedProbe>,
    ) -> ParallelOutcome {
        let shared = Shared {
            arena,
            scan_lock: TicketLock::new(),
            free_lock: TicketLock::new(),
            scan: AtomicU32::new(arena.to_base()),
            free: AtomicU32::new(arena.to_base()),
            busy: AtomicU32::new(0),
            done: AtomicBool::new(false),
        };

        // Root phase (the hardware's core 1 does the same, sequentially).
        let mut root_ops = SwSyncOps::default();
        for r in roots.iter_mut() {
            if *r != NULL {
                *r = shared.forward_child(*r, &mut root_ops);
            }
        }

        let mut outcomes: Vec<(SwSyncOps, u64, u64)> = Vec::new();
        // Start barrier: workers begin the scan loop together, so the
        // timed region measures collection, not thread spawn skew.
        let start = SpinBarrier::new(n_threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_threads)
                .map(|tid| {
                    let shared = &shared;
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        worker(shared, tid)
                    })
                })
                .collect();
            for h in handles {
                outcomes.push(h.join().expect("worker panicked"));
            }
        });

        let mut out = ParallelOutcome {
            free: shared.free.load(Ordering::Acquire),
            ..ParallelOutcome::default()
        };
        out.ops.merge(&root_ops);
        for (ops, objects, words) in outcomes {
            out.ops.merge(&ops);
            out.objects_copied += objects;
            out.words_copied += words;
        }
        // Count root evacuations (frames made by the root phase).
        // Every frame between to_base and the first worker claim was made
        // by the root phase; simplest exact accounting: objects = frames
        // scanned, which the workers count — plus nothing else, since
        // every evacuated frame is eventually scanned.
        out
    }
}

/// The main scanning loop of one worker thread.
fn worker(shared: &Shared<'_>, tid: usize) -> (SwSyncOps, u64, u64) {
    let my_bit = 1u32 << tid;
    let mut ops = SwSyncOps::default();
    let mut objects = 0u64;
    let mut words = 0u64;
    loop {
        if shared.done.load(Ordering::Acquire) {
            break;
        }
        // Claim an object: the scan critical section covers the header
        // read and the advance, as in the paper's pseudo-code.
        ops.lock_acquisitions += 1;
        let guard = shared.scan_lock.lock();
        let scan = shared.scan.load(Ordering::Relaxed);
        let free = shared.free.load(Ordering::Acquire);
        if scan == free {
            // Termination test: worklist empty + nobody busy. The SB
            // evaluates both in one cycle; here `free` was read first, so
            // a worker may have evacuated one last frame and cleared its
            // busy bit in between. Nobody can turn busy while we hold the
            // scan lock, so once `busy` reads zero a second look at
            // `free` is conclusive.
            if shared.busy.load(Ordering::Acquire) == 0
                && shared.free.load(Ordering::Acquire) == scan
            {
                shared.done.store(true, Ordering::Release);
                drop(guard);
                break;
            }
            drop(guard);
            ops.spin_iterations += 1;
            if ops.spin_iterations % 16 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        let w0 = shared.arena.load(scan);
        let backlink = shared.arena.load(scan + 1);
        let size = header::size_of_w0(w0);
        shared.busy.fetch_or(my_bit, Ordering::AcqRel);
        shared.scan.store(scan + size, Ordering::Relaxed);
        drop(guard);

        // Gray 2: copy the body, translating pointers as we go.
        let pi = header::pi_of(w0);
        let delta = header::delta_of(w0);
        debug_assert_eq!(
            Header::decode(w0, backlink).color,
            hwgc_heap::Color::Gray,
            "claimed frame at {scan} not gray"
        );
        for slot in 0..pi {
            let child = shared.arena.load(backlink + 2 + slot);
            let fwd = if child == NULL {
                NULL
            } else {
                shared.forward_child(child, &mut ops)
            };
            shared.arena.store(scan + 2 + slot, fwd);
        }
        for slot in 0..delta {
            shared.arena.store(
                scan + 2 + pi + slot,
                shared.arena.load(backlink + 2 + pi + slot),
            );
        }
        let (bw0, bw1) = Header::black(pi, delta).encode();
        shared.arena.store(scan, bw0);
        shared.arena.store_release(scan + 1, bw1);
        objects += 1;
        words += size as u64;
        shared.busy.fetch_and(!my_bit, Ordering::AcqRel);
    }
    (ops, objects, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwgc_heap::{verify_collection, GraphBuilder, Heap, Snapshot};

    fn diamond() -> Heap {
        let mut heap = Heap::new(600);
        let mut b = GraphBuilder::new(&mut heap);
        let r = b.add(2, 1).unwrap();
        let l = b.add(1, 2).unwrap();
        let rr = b.add(1, 2).unwrap();
        let bot = b.add(0, 4).unwrap();
        let dead = b.add(1, 8).unwrap();
        b.link(r, 0, l);
        b.link(r, 1, rr);
        b.link(l, 0, bot);
        b.link(rr, 0, bot);
        b.link(dead, 0, bot);
        b.root(r);
        heap
    }

    #[test]
    fn fine_grained_is_fully_compacting() {
        // The fine-grained collector preserves the paper's compaction
        // property: the strict verifier applies.
        for threads in [1, 2, 4] {
            let mut heap = diamond();
            let snap = Snapshot::capture(&heap);
            let report = FineGrained::new().collect(&mut heap, threads);
            verify_collection(&heap, report.free, &snap)
                .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
            assert_eq!(report.fragmentation_words, 0);
        }
    }

    #[test]
    fn fine_grained_counts_sync_ops() {
        let mut heap = diamond();
        let report = FineGrained::new().collect(&mut heap, 2);
        // At least one CAS per object reference processed.
        assert!(report.ops.header_cas >= 4);
        assert!(report.ops.lock_acquisitions >= 4);
    }

    #[test]
    fn fine_grained_empty_roots() {
        let mut heap = Heap::new(100);
        let report = FineGrained::new().collect(&mut heap, 4);
        assert_eq!(report.free, heap.to_base());
        assert_eq!(report.objects_copied, 0);
    }
}
