//! Post-collection verifier.
//!
//! After a collection cycle, the tospace must contain exactly the objects
//! that were reachable before the cycle, compacted contiguously from the
//! bottom of tospace, all black, with every pointer redirected into
//! tospace. This module checks all of that against a [`Snapshot`] captured
//! before the cycle.

use std::collections::HashSet;

use crate::bitset::BitSet;
use crate::header::Color;
use crate::heap::{Addr, Heap, NULL};
use crate::snapshot::Snapshot;

/// A verification failure, with enough context to debug the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A root still points into fromspace (or outside the heap).
    RootNotInTospace { root_index: usize, addr: Addr },
    /// Root `root_index` refers to the wrong object.
    RootIdMismatch {
        root_index: usize,
        expected: Option<u32>,
        found: Option<u32>,
    },
    /// A reachable tospace object is not black.
    NotBlack { addr: Addr, color: Color },
    /// A pointer escapes tospace.
    DanglingPointer { obj: Addr, slot: u32, target: Addr },
    /// Object contents differ from the snapshot.
    ContentMismatch { id: u32, detail: String },
    /// An object present before the cycle is missing afterwards.
    MissingObject { id: u32 },
    /// Tospace contains an object that was not reachable before the cycle.
    UnexpectedObject { id: u32 },
    /// The objects in `[to_base, free)` do not tile the region contiguously.
    NotCompacted { detail: String },
    /// `free` does not match the live data volume.
    LiveWordsMismatch { expected: u64, found: u64 },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for VerifyError {}

/// Summary of a successful verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    pub live_objects: usize,
    pub live_words: u64,
}

/// Verify the heap after a collection cycle.
///
/// * `free` is the collector's final allocation frontier in tospace.
/// * `snapshot` was captured from the same heap before the cycle.
///
/// Checks performed:
/// 1. every root points to a tospace copy of the object it pointed to,
/// 2. walking tospace `[to_base, free)` yields a contiguous tiling of black
///    objects (compaction),
/// 3. the id-keyed set of walked objects equals the snapshot's reachable
///    set, with identical `pi`/`delta`, data words and child edges,
/// 4. every pointer in tospace targets tospace or is null,
/// 5. every walked object is reachable from the roots (a copying collector
///    never copies garbage), and `free - to_base` equals the snapshot's
///    live word count.
pub fn verify_collection(
    heap: &Heap,
    free: Addr,
    snapshot: &Snapshot,
) -> Result<VerifyReport, VerifyError> {
    verify_inner(heap, free, snapshot, VerifyOptions::default())
}

/// Verify a collection performed by a collector that does **not**
/// guarantee perfect compaction (the software baselines with local
/// allocation buffers or chunked allocation leave fragmentation holes).
/// Performs every check of [`verify_collection`] except the contiguous
/// tiling of `[to_base, free)`: the live set is discovered from the roots
/// instead, and `free` only bounds it.
pub fn verify_collection_relaxed(
    heap: &Heap,
    free: Addr,
    snapshot: &Snapshot,
) -> Result<VerifyReport, VerifyError> {
    verify_inner(
        heap,
        free,
        snapshot,
        VerifyOptions {
            compacted: false,
            ..VerifyOptions::default()
        },
    )
}

/// Knobs for [`verify_collection_with`].
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Require `[to_base, free)` to be a contiguous tiling (walked from
    /// the roots instead when false).
    pub compacted: bool,
    /// Permit black objects whose id is not in the snapshot — objects the
    /// mutator allocated *during* the collection (concurrent extension).
    /// Such objects must still be black with tospace-or-null pointers.
    pub allow_unknown_objects: bool,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            compacted: true,
            allow_unknown_objects: false,
        }
    }
}

/// [`verify_collection`] with explicit [`VerifyOptions`].
pub fn verify_collection_with(
    heap: &Heap,
    free: Addr,
    snapshot: &Snapshot,
    opts: VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    verify_inner(heap, free, snapshot, opts)
}

/// `discovered` entry of an object whose id the snapshot does not know.
const UNKNOWN: u32 = u32::MAX;

fn verify_inner(
    heap: &Heap,
    free: Addr,
    snapshot: &Snapshot,
    opts: VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    let compacted = opts.compacted;
    let to_base = heap.to_base();
    if free < to_base || free > heap.to_limit() {
        return Err(VerifyError::NotCompacted {
            detail: format!("free={free} lies outside tospace"),
        });
    }

    // --- 2: discover the tospace objects -------------------------------
    // Compacted collectors must tile [to_base, free) exactly; relaxed
    // collectors are walked from the roots instead. Every later read of a
    // header or an id goes through an address discovered here, so a wild
    // root or pointer can fail a check but never index out of the arena.
    let mut starts = BitSet::new(heap.semi_size() as usize); // object starts, by tospace offset
    let mut discovered: Vec<(Addr, u32)> = Vec::new(); // (start, snapshot position or UNKNOWN)
    let mut visited = vec![false; snapshot.live_objects()]; // per snapshot record
    let mut unknown: HashSet<u32> = HashSet::new();
    // Checks shared by both walks; yields the address one past the object.
    let mut discover = |addr: Addr| -> Result<Addr, VerifyError> {
        if addr + 2 > free {
            return Err(VerifyError::NotCompacted {
                detail: format!("object at {addr} overruns free={free}"),
            });
        }
        let h = heap.header(addr);
        if h.color != Color::Black {
            return Err(VerifyError::NotBlack {
                addr,
                color: h.color,
            });
        }
        if h.delta < 1 {
            return Err(VerifyError::NotCompacted {
                detail: format!("object at {addr} has delta 0; cannot carry id"),
            });
        }
        let next = addr + h.size_words();
        if next > free {
            return Err(VerifyError::NotCompacted {
                detail: format!("object at {addr} overruns free={free}"),
            });
        }
        let id = heap.data(addr, 0);
        let position = snapshot.position(id);
        let first = match position {
            Some(p) => !std::mem::replace(&mut visited[p], true),
            None => unknown.insert(id),
        };
        if !first {
            return Err(VerifyError::NotCompacted {
                detail: format!("duplicate id {id}"),
            });
        }
        starts.insert((addr - to_base) as usize);
        discovered.push((addr, position.map_or(UNKNOWN, |p| p as u32)));
        Ok(next)
    };
    if compacted {
        let mut addr = to_base;
        while addr < free {
            addr = discover(addr)?;
        }
    } else {
        let mut seen = BitSet::new(heap.semi_size() as usize);
        let mut queue: Vec<Addr> = Vec::new();
        let mut enqueue = |addr: Addr, queue: &mut Vec<Addr>| -> Result<(), VerifyError> {
            if addr == NULL {
                return Ok(());
            }
            // A header past the frontier counts as outside tospace here.
            if !heap.in_tospace(addr) || addr + 2 > free {
                return Err(VerifyError::RootNotInTospace {
                    root_index: usize::MAX,
                    addr,
                });
            }
            if seen.insert((addr - to_base) as usize) {
                queue.push(addr);
            }
            Ok(())
        };
        for &r in heap.roots() {
            enqueue(r, &mut queue)?;
        }
        let mut cursor = 0;
        while let Some(&addr) = queue.get(cursor) {
            cursor += 1;
            discover(addr)?;
            for slot in 0..heap.header(addr).pi {
                enqueue(heap.ptr(addr, slot), &mut queue)?;
            }
        }
        // Errors below name the lowest-address offender in both modes.
        discovered.sort_unstable_by_key(|&(addr, _)| addr);
    }

    // Was an object discovered at `a`, and which id does it carry?
    let is_start = |a: Addr| heap.in_tospace(a) && starts.contains((a - to_base) as usize);
    let id_at = |a: Addr| -> Option<u32> { is_start(a).then(|| heap.data(a, 0)) };

    // --- 1: roots ------------------------------------------------------
    for (i, &r) in heap.roots().iter().enumerate() {
        if i >= snapshot.root_ids.len() {
            // Roots appended during/after the snapshot (e.g. mutator
            // registers in the concurrent extension): only pointer hygiene
            // applies; the reachability walk below checks they name an
            // object.
            if r != NULL && !heap.in_tospace(r) {
                return Err(VerifyError::RootNotInTospace {
                    root_index: i,
                    addr: r,
                });
            }
            continue;
        }
        let expected = snapshot.root_ids[i];
        if r == NULL {
            if expected.is_some() {
                return Err(VerifyError::RootIdMismatch {
                    root_index: i,
                    expected,
                    found: None,
                });
            }
            continue;
        }
        if !heap.in_tospace(r) {
            return Err(VerifyError::RootNotInTospace {
                root_index: i,
                addr: r,
            });
        }
        let found = id_at(r);
        if found != expected {
            let points_at_unknown =
                opts.allow_unknown_objects && found.is_some_and(|id| unknown.contains(&id));
            if !points_at_unknown {
                return Err(VerifyError::RootIdMismatch {
                    root_index: i,
                    expected,
                    found,
                });
            }
        }
    }

    // --- 3 + 4: per-object contents and pointer hygiene ----------------
    // In address order, so a heap with several faults always reports the
    // same one: the lowest-address offender.
    let arena = heap.words();
    for &(addr, position) in &discovered {
        let h = heap.header(addr);
        let ptrs = addr as usize + 2;
        let data = ptrs + h.pi as usize;
        if position == UNKNOWN {
            if !opts.allow_unknown_objects {
                return Err(VerifyError::UnexpectedObject { id: arena[data] });
            }
            // Allocated during the collection: must be black (checked
            // during discovery) with clean pointers; contents are the
            // mutator's business.
            for (slot, &target) in arena[ptrs..data].iter().enumerate() {
                if target != NULL && !heap.in_tospace(target) {
                    return Err(VerifyError::DanglingPointer {
                        obj: addr,
                        slot: slot as u32,
                        target,
                    });
                }
            }
            continue;
        }
        let rec = snapshot.record(position as usize);
        let id = rec.id();
        if h.pi != rec.pi || h.delta != rec.delta {
            return Err(VerifyError::ContentMismatch {
                id,
                detail: format!(
                    "shape (pi,delta) = ({},{}), expected ({},{})",
                    h.pi, h.delta, rec.pi, rec.delta
                ),
            });
        }
        let got_data = &arena[data..data + h.delta as usize];
        if let Some(slot) = got_data.iter().zip(rec.data).position(|(g, e)| g != e) {
            return Err(VerifyError::ContentMismatch {
                id,
                detail: format!(
                    "data[{slot}] = {:#x}, expected {:#x}",
                    got_data[slot], rec.data[slot]
                ),
            });
        }
        for (slot, (&target, &child)) in arena[ptrs..data].iter().zip(rec.children).enumerate() {
            let expected_child = Some(child).filter(|&c| c != 0);
            if target == NULL {
                if expected_child.is_some() {
                    return Err(VerifyError::ContentMismatch {
                        id,
                        detail: format!("ptr[{slot}] is null, expected {expected_child:?}"),
                    });
                }
                continue;
            }
            if !heap.in_tospace(target) {
                return Err(VerifyError::DanglingPointer {
                    obj: addr,
                    slot: slot as u32,
                    target,
                });
            }
            let child_id = id_at(target);
            if child_id != expected_child {
                return Err(VerifyError::ContentMismatch {
                    id,
                    detail: format!("ptr[{slot}] -> id {child_id:?}, expected {expected_child:?}"),
                });
            }
        }
    }

    // --- 3 (other direction) + 5: exact live set, no garbage copied ----
    if let Some(missing) = visited.iter().position(|&v| !v) {
        return Err(VerifyError::MissingObject {
            id: snapshot.record(missing).id(),
        });
    }
    let live_words_found = if compacted {
        let found = (free - to_base) as u64;
        if opts.allow_unknown_objects {
            if found < snapshot.live_words {
                return Err(VerifyError::LiveWordsMismatch {
                    expected: snapshot.live_words,
                    found,
                });
            }
        } else if found != snapshot.live_words {
            return Err(VerifyError::LiveWordsMismatch {
                expected: snapshot.live_words,
                found,
            });
        }
        found
    } else {
        // Fragmenting collectors consume at least the live volume.
        let consumed = (free - to_base) as u64;
        if consumed < snapshot.live_words {
            return Err(VerifyError::LiveWordsMismatch {
                expected: snapshot.live_words,
                found: consumed,
            });
        }
        snapshot.live_words
    };

    // Reachability from roots must cover every object in tospace (copying
    // collectors never copy garbage). Only discovered starts are followed:
    // checks 1 and 4 let a tospace address that is no object start through
    // where the snapshot had a null slot or no root.
    let mut reached = BitSet::new(heap.semi_size() as usize);
    let mut queue: Vec<Addr> = Vec::new();
    let mut reach = |a: Addr, queue: &mut Vec<Addr>| -> Result<(), VerifyError> {
        if a == NULL {
            return Ok(());
        }
        if !is_start(a) {
            return Err(VerifyError::NotCompacted {
                detail: format!("{a} is reachable from the roots but starts no object"),
            });
        }
        if reached.insert((a - to_base) as usize) {
            queue.push(a);
        }
        Ok(())
    };
    for &r in heap.roots() {
        reach(r, &mut queue)?;
    }
    let mut cursor = 0;
    while let Some(&a) = queue.get(cursor) {
        cursor += 1;
        for slot in 0..heap.header(a).pi {
            reach(heap.ptr(a, slot), &mut queue)?;
        }
    }
    if queue.len() != discovered.len() {
        return Err(VerifyError::NotCompacted {
            detail: format!(
                "{} objects in tospace but only {} reachable from roots",
                discovered.len(),
                queue.len()
            ),
        });
    }

    Ok(VerifyReport {
        live_objects: discovered.len() - unknown.len(),
        live_words: live_words_found,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::header::Header;

    /// Trivial single-threaded Cheney used to exercise the verifier itself.
    fn toy_cheney(heap: &mut Heap) -> Addr {
        heap.flip();
        let mut scan = heap.to_base();
        let mut free = heap.to_base();
        let evacuate = |heap: &mut Heap, free: &mut Addr, obj: Addr| -> Addr {
            if obj == NULL {
                return NULL;
            }
            let h = heap.header(obj);
            if h.marked {
                return h.link;
            }
            let dst = *free;
            *free += h.size_words();
            for i in 0..h.size_words() {
                let w = heap.word(obj + i);
                heap.set_word(dst + i, w);
            }
            heap.set_header(dst, Header::black(h.pi, h.delta));
            heap.set_header(obj, Header::forwarded(h.pi, h.delta, dst));
            dst
        };
        for i in 0..heap.roots().len() {
            let r = heap.roots()[i];
            let n = evacuate(heap, &mut free, r);
            heap.set_root(i, n);
        }
        while scan < free {
            let h = heap.header(scan);
            for slot in 0..h.pi {
                let t = heap.ptr(scan, slot);
                let n = evacuate(heap, &mut free, t);
                heap.set_ptr(scan, slot, n);
            }
            scan += h.size_words();
        }
        heap.set_alloc_ptr(free);
        free
    }

    fn diamond_heap() -> Heap {
        let mut heap = Heap::new(500);
        let mut b = GraphBuilder::new(&mut heap);
        let r = b.add(2, 1).unwrap();
        let l = b.add(1, 2).unwrap();
        let rr = b.add(1, 2).unwrap();
        let bot = b.add(0, 4).unwrap();
        let _garbage = b.add(3, 3).unwrap();
        b.link(r, 0, l);
        b.link(r, 1, rr);
        b.link(l, 0, bot);
        b.link(rr, 0, bot);
        b.root(r);
        heap
    }

    #[test]
    fn verifier_accepts_correct_collection() {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        let report = verify_collection(&heap, free, &snap).unwrap();
        assert_eq!(report.live_objects, 4);
        assert_eq!(report.live_words, snap.live_words);
    }

    #[test]
    fn verifier_rejects_gray_object() {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        // Corrupt: re-gray the first object.
        let base = heap.to_base();
        let h = heap.header(base);
        heap.set_header(base, Header::gray(h.pi, h.delta, 0));
        assert!(matches!(
            verify_collection(&heap, free, &snap),
            Err(VerifyError::NotBlack { .. })
        ));
    }

    #[test]
    fn verifier_rejects_fromspace_pointer() {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        let base = heap.to_base();
        let from = heap.from_base();
        heap.set_ptr(base, 0, from); // dangling into fromspace
        assert!(matches!(
            verify_collection(&heap, free, &snap),
            Err(VerifyError::DanglingPointer { .. })
        ));
    }

    #[test]
    fn verifier_rejects_content_corruption() {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        let base = heap.to_base();
        let h = heap.header(base);
        heap.set_data(base, h.delta - 1, 0x12345678);
        let r = verify_collection(&heap, free, &snap);
        assert!(
            matches!(r, Err(VerifyError::ContentMismatch { .. }))
                // data word 0 corruption shows up as an id mismatch instead
                || matches!(r, Err(VerifyError::UnexpectedObject { .. }))
                || matches!(r, Err(VerifyError::RootIdMismatch { .. })),
            "got {r:?}"
        );
    }

    #[test]
    fn verifier_rejects_wrong_free_pointer() {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        assert!(verify_collection(&heap, free + 3, &snap).is_err());
    }

    #[test]
    fn verifier_rejects_missing_object() {
        let mut heap = diamond_heap();
        let mut snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        // Pretend the snapshot had one more object.
        snap.push_record(&[999], &[]);
        snap.live_words += 3;
        let r = verify_collection(&heap, free, &snap);
        assert!(
            matches!(r, Err(VerifyError::MissingObject { id: 999 }))
                || matches!(r, Err(VerifyError::LiveWordsMismatch { .. })),
            "got {r:?}"
        );
    }

    #[test]
    fn empty_heap_verifies() {
        let mut heap = Heap::new(100);
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        let report = verify_collection(&heap, free, &snap).unwrap();
        assert_eq!(report.live_objects, 0);
    }

    #[test]
    fn verifier_rejects_root_left_in_fromspace() {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        // Un-redirect the root: point it back into fromspace.
        let from = heap.from_base();
        heap.set_root(0, from);
        assert!(matches!(
            verify_collection(&heap, free, &snap),
            Err(VerifyError::RootNotInTospace { root_index: 0, .. })
        ));
    }

    #[test]
    fn verifier_rejects_root_redirected_to_wrong_object() {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        // Redirect the root to the second tospace object instead of the
        // first (toy_cheney copies the root object to to_base).
        let base = heap.to_base();
        let second = base + heap.header(base).size_words();
        assert!(second < free);
        heap.set_root(0, second);
        assert!(matches!(
            verify_collection(&heap, free, &snap),
            Err(VerifyError::RootIdMismatch { root_index: 0, .. })
        ));
    }

    #[test]
    fn verifier_rejects_root_nulled_out() {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        heap.set_root(0, NULL);
        assert!(matches!(
            verify_collection(&heap, free, &snap),
            Err(VerifyError::RootIdMismatch {
                root_index: 0,
                found: None,
                ..
            })
        ));
    }

    #[test]
    fn verifier_rejects_object_missing_from_snapshot() {
        let mut heap = diamond_heap();
        let mut snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        // Forget the shared bottom object (id 4): the copy in tospace is
        // now one the snapshot never knew about.
        snap.remove_record(4);
        assert!(matches!(
            verify_collection(&heap, free, &snap),
            Err(VerifyError::UnexpectedObject { id: 4 })
        ));
    }

    #[test]
    fn verifier_rejects_duplicate_evacuation() {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        // Forge the failure mode invariant 2 prevents: two tospace copies
        // carrying the same id (here by rewriting the second object's id
        // to the first's).
        let base = heap.to_base();
        let second = base + heap.header(base).size_words();
        let first_id = heap.data(base, 0);
        heap.set_data(second, 0, first_id);
        assert!(matches!(
            verify_collection(&heap, free, &snap),
            Err(VerifyError::NotCompacted { .. })
        ));
    }

    #[test]
    fn verifier_rejects_truncated_tospace_walk() {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        // A frontier one word short cuts the last object in half.
        assert!(matches!(
            verify_collection(&heap, free - 1, &snap),
            Err(VerifyError::NotCompacted { .. })
        ));
    }

    #[test]
    fn verifier_rejects_live_volume_mismatch() {
        let mut heap = diamond_heap();
        let mut snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        // The heap is intact but the snapshot claims one more live word.
        snap.live_words += 1;
        assert!(matches!(
            verify_collection(&heap, free, &snap),
            Err(VerifyError::LiveWordsMismatch { .. })
        ));
    }

    /// The diamond after a correct collection, with its pre-GC snapshot
    /// and the frontier.
    fn collected_diamond() -> (Heap, Snapshot, Addr) {
        let mut heap = diamond_heap();
        let snap = Snapshot::capture(&heap);
        let free = toy_cheney(&mut heap);
        (heap, snap, free)
    }

    /// Corrupt the last data word of the tospace object at `addr`.
    fn corrupt_last_data_word(heap: &mut Heap, addr: Addr) {
        let delta = heap.header(addr).delta;
        let w = heap.data(addr, delta - 1);
        heap.set_data(addr, delta - 1, w ^ 0x8000);
    }

    #[test]
    fn two_faults_report_the_lower_address_every_time() {
        let (intact, mut snap, free) = collected_diamond();
        let mut heap = intact.clone();
        // Objects two and three (ids 2 and 3, `delta` 2) both get a bad
        // data word: the report must name the one at the lower address.
        let base = heap.to_base();
        let second = base + heap.header(base).size_words();
        let third = second + heap.header(second).size_words();
        corrupt_last_data_word(&mut heap, third);
        corrupt_last_data_word(&mut heap, second);
        let lower_id = heap.data(second, 0);
        for entry in [verify_collection, verify_collection_relaxed] {
            let first = entry(&heap, free, &snap).unwrap_err();
            assert!(
                matches!(first, VerifyError::ContentMismatch { id, .. } if id == lower_id),
                "got {first:?}"
            );
            for _ in 0..20 {
                assert_eq!(entry(&heap, free, &snap).unwrap_err(), first);
            }
        }

        // Likewise two records the heap lacks: the first in capture order.
        snap.push_record(&[998], &[]);
        snap.push_record(&[999], &[]);
        for _ in 0..20 {
            assert_eq!(
                verify_collection(&intact, free, &snap),
                Err(VerifyError::MissingObject { id: 998 })
            );
        }
    }

    /// Addresses no tospace object can live at: past the arena, inside the
    /// reserved words, and in the other semispace (of the collected `heap`).
    fn wild_addresses(heap: &Heap) -> [Addr; 3] {
        [0xFFFF_FFF0, 1, heap.from_base()]
    }

    #[test]
    fn wild_roots_end_in_a_typed_error() {
        let (intact, snap, free) = collected_diamond();
        for wild in wild_addresses(&intact) {
            let mut heap = intact.clone();
            heap.set_root(0, wild);
            assert_eq!(
                verify_collection(&heap, free, &snap),
                Err(VerifyError::RootNotInTospace {
                    root_index: 0,
                    addr: wild
                })
            );
            // The relaxed walk starts from the roots, so it meets the
            // address before it knows which root held it.
            assert_eq!(
                verify_collection_relaxed(&heap, free, &snap),
                Err(VerifyError::RootNotInTospace {
                    root_index: usize::MAX,
                    addr: wild
                })
            );
            // A root the snapshot has no expectation for.
            heap.set_root(0, heap.to_base());
            heap.add_root(wild);
            assert_eq!(
                verify_collection(&heap, free, &snap),
                Err(VerifyError::RootNotInTospace {
                    root_index: 1,
                    addr: wild
                })
            );
        }
    }

    #[test]
    fn wild_pointers_end_in_a_typed_error() {
        let (intact, snap, free) = collected_diamond();
        for wild in wild_addresses(&intact) {
            let mut heap = intact.clone();
            let base = heap.to_base();
            heap.set_ptr(base, 1, wild);
            assert_eq!(
                verify_collection(&heap, free, &snap),
                Err(VerifyError::DanglingPointer {
                    obj: base,
                    slot: 1,
                    target: wild
                })
            );
            assert_eq!(
                verify_collection_relaxed(&heap, free, &snap),
                Err(VerifyError::RootNotInTospace {
                    root_index: usize::MAX,
                    addr: wild
                })
            );
        }
    }

    #[test]
    fn pointers_into_tospace_that_start_no_object_are_rejected() {
        let (heap, snap, free) = collected_diamond();
        let base = heap.to_base();
        // Past the frontier, on the last word of tospace, and into the
        // middle of an object.
        for target in [free, heap.to_limit() - 1, base + 1] {
            let mut heap = heap.clone();
            heap.set_ptr(base, 0, target);
            assert!(verify_collection(&heap, free, &snap).is_err());
            assert!(verify_collection_relaxed(&heap, free, &snap).is_err());
            heap.set_root(0, target);
            assert!(verify_collection(&heap, free, &snap).is_err());
            assert!(verify_collection_relaxed(&heap, free, &snap).is_err());
        }
    }

    #[test]
    fn frontier_outside_tospace_is_rejected() {
        let (heap, snap, _) = collected_diamond();
        for free in [0, heap.to_base() - 1, heap.to_limit() + 1, u32::MAX] {
            for entry in [verify_collection, verify_collection_relaxed] {
                assert!(matches!(
                    entry(&heap, free, &snap),
                    Err(VerifyError::NotCompacted { .. })
                ));
            }
        }
    }

    /// Ids are arbitrary `u32`s: the snapshot's index must cost memory in
    /// proportion to the live set, not to the largest id (a dense by-id
    /// table would need 16 GiB here).
    #[test]
    fn sparse_ids_capture_and_verify() {
        let mut heap = Heap::new(1000);
        let mut b = GraphBuilder::new(&mut heap);
        let objs: Vec<_> = (0..5).map(|_| b.add(1, 2).unwrap()).collect();
        for pair in objs.windows(2) {
            b.link(pair[0], 0, pair[1]);
        }
        b.root(objs[0]);
        let addrs: Vec<Addr> = objs.iter().map(|&o| b.addr(o)).collect();
        // Extreme values, and address-valued ids as
        // `examples/server_sessions.rs` stamps them.
        let ids = [1, 0x8000_0000, u32::MAX, addrs[3], addrs[4]];
        for (&a, &id) in addrs.iter().zip(&ids) {
            heap.set_data(a, 0, id);
        }
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 5);
        assert_eq!(snap.root_ids, vec![Some(1)]);
        for (i, &id) in ids.iter().enumerate() {
            let rec = snap.get(id).unwrap();
            assert_eq!(rec.id(), id);
            assert_eq!(rec.children, [ids.get(i + 1).copied().unwrap_or(0)]);
        }
        assert!(snap.get(2).is_none());
        let free = toy_cheney(&mut heap);
        for entry in [verify_collection, verify_collection_relaxed] {
            assert_eq!(entry(&heap, free, &snap).unwrap().live_objects, 5);
        }
    }

    /// A collected diamond plus two black objects the mutator allocated
    /// mid-cycle (ids the snapshot never saw), held by a new root.
    fn diamond_with_mid_cycle_allocations() -> (Heap, Snapshot, Addr, [Addr; 2]) {
        let (mut heap, snap, _) = collected_diamond();
        let new = [heap.alloc(1, 1).unwrap(), heap.alloc(0, 2).unwrap()];
        heap.set_header(new[0], Header::black(1, 1));
        heap.set_header(new[1], Header::black(0, 2));
        heap.set_data(new[0], 0, 7001);
        heap.set_data(new[1], 0, 7002);
        heap.set_ptr(new[0], 0, new[1]);
        heap.add_root(new[0]);
        let free = heap.alloc_ptr();
        (heap, snap, free, new)
    }

    #[test]
    fn unknown_objects_are_accepted_only_on_request() {
        let (heap, snap, free, _) = diamond_with_mid_cycle_allocations();
        let allow = |compacted| VerifyOptions {
            compacted,
            allow_unknown_objects: true,
        };
        for compacted in [true, false] {
            let report = verify_collection_with(&heap, free, &snap, allow(compacted)).unwrap();
            assert_eq!(report.live_objects, 4);
        }
        assert_eq!(
            verify_collection(&heap, free, &snap),
            Err(VerifyError::UnexpectedObject { id: 7001 })
        );
    }

    #[test]
    fn duplicate_unknown_ids_are_rejected_even_when_unknowns_are_allowed() {
        let (mut heap, snap, free, new) = diamond_with_mid_cycle_allocations();
        heap.set_data(new[1], 0, 7001);
        for compacted in [true, false] {
            let opts = VerifyOptions {
                compacted,
                allow_unknown_objects: true,
            };
            assert!(matches!(
                verify_collection_with(&heap, free, &snap, opts),
                Err(VerifyError::NotCompacted { .. })
            ));
        }
    }

    #[test]
    fn unknown_objects_still_need_clean_pointers() {
        let (mut heap, snap, free, new) = diamond_with_mid_cycle_allocations();
        let from = heap.from_base();
        heap.set_ptr(new[0], 0, from);
        let opts = VerifyOptions {
            compacted: true,
            allow_unknown_objects: true,
        };
        assert_eq!(
            verify_collection_with(&heap, free, &snap, opts),
            Err(VerifyError::DanglingPointer {
                obj: new[0],
                slot: 0,
                target: from
            })
        );
    }

    /// A random graph of `n` objects, some of them garbage, with one to
    /// three roots (the last possibly null).
    fn random_heap(n: usize, seed: u64) -> Heap {
        let mut heap = Heap::new(4096);
        let mut b = GraphBuilder::new(&mut heap);
        let mut x = seed | 1;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let shapes: Vec<(u32, u32)> = (0..n)
            .map(|_| ((rand() % 4) as u32, 1 + (rand() % 4) as u32))
            .collect();
        let ids: Vec<_> = shapes
            .iter()
            .map(|&(pi, delta)| b.add(pi, delta).unwrap())
            .collect();
        for (&id, &(pi, _)) in ids.iter().zip(&shapes) {
            for slot in 0..pi {
                if rand() % 3 != 0 {
                    b.link(id, slot, ids[rand() as usize % n]);
                }
            }
        }
        b.root(ids[0]);
        for _ in 0..rand() % 3 {
            b.root(ids[rand() as usize % n]);
        }
        if rand() % 4 == 0 {
            heap.add_root(NULL);
        }
        heap
    }

    /// Every value worth writing over `old`: a flipped bit, null, an
    /// object start, the middle of an object, and the wild addresses.
    fn replacements(heap: &Heap, old: u32) -> Vec<u32> {
        let base = heap.to_base();
        let second = base + heap.header(base).size_words();
        let mut v = vec![old ^ 1, NULL, base, second, base + 1];
        v.extend(wild_addresses(heap));
        v.retain(|&w| w != old);
        v
    }

    proptest::proptest! {
        /// After a correct collection, changing any one body word of any
        /// tospace object, or any one root, is rejected (and never
        /// panics) by the strict and the relaxed verifier.
        #[test]
        fn any_single_word_mutation_is_rejected(n in 1usize..24, seed in 0u64..1000) {
            let mut heap = random_heap(n, seed);
            let snap = Snapshot::capture(&heap);
            let free = toy_cheney(&mut heap);
            let entries = [verify_collection, verify_collection_relaxed];
            for entry in entries {
                let report = entry(&heap, free, &snap).unwrap();
                proptest::prop_assert_eq!(report.live_objects, snap.live_objects());
            }
            let mut addr = heap.to_base();
            while addr < free {
                let size = heap.header(addr).size_words();
                for at in addr + 2..addr + size {
                    let old = heap.word(at);
                    for new in replacements(&heap, old) {
                        heap.set_word(at, new);
                        for entry in entries {
                            proptest::prop_assert!(
                                entry(&heap, free, &snap).is_err(),
                                "word {} of the object at {}: {:#x} -> {:#x} accepted",
                                at - addr, addr, old, new
                            );
                        }
                    }
                    heap.set_word(at, old);
                }
                addr += size;
            }
            for i in 0..heap.roots().len() {
                let old = heap.roots()[i];
                for new in replacements(&heap, old) {
                    heap.set_root(i, new);
                    for entry in entries {
                        proptest::prop_assert!(
                            entry(&heap, free, &snap).is_err(),
                            "root {}: {} -> {} accepted", i, old, new
                        );
                    }
                }
                heap.set_root(i, old);
            }
        }
    }
}
