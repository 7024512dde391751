//! Pre-collection snapshot of the reachable object graph.
//!
//! Captured by a breadth-first traversal from the roots before the
//! collector runs; compared against the tospace contents afterwards by
//! [`crate::verify`]. Objects are keyed by the id the [`crate::GraphBuilder`]
//! stamped into data word 0, so the comparison is independent of where the
//! collector placed each copy.
//!
//! Records sit in capture order over one shared word arena, each laid out
//! like the paper's Fig. 3 object minus the header: `delta` data words
//! (the id first), then `pi` child ids with `0` for a null slot.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::bitset::BitSet;
use crate::header;
use crate::heap::{Addr, Heap, NULL};

/// Shape + contents of one reachable object, borrowed from its [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjRecord<'a> {
    pub pi: u32,
    pub delta: u32,
    /// Data words (the id in slot 0).
    pub data: &'a [u32],
    /// Child id per pointer slot (`0` for a null slot; ids are non-zero).
    pub children: &'a [u32],
}

impl ObjRecord<'_> {
    /// The builder id (data word 0).
    pub fn id(&self) -> u32 {
        self.data[0]
    }
}

/// Where one record's body starts in [`Snapshot::words`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordHead {
    pi: u32,
    delta: u32,
    offset: u32,
}

/// Hasher of the id index. Ids are arbitrary `u32`s (sequential builder
/// ids, stamped addresses, counters that grow without bound) but always
/// written by this program, so one multiply-and-fold replaces SipHash.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the id index hashes u32 keys only");
    }

    fn write_u32(&mut self, id: u32) {
        let h = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The table takes its bucket from the low bits and its tag from
        // the top seven; fold the well-mixed high half into the low one.
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The reachable graph at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// One head per reachable object, in capture (breadth-first) order.
    heads: Vec<RecordHead>,
    /// The record bodies, back to back in the same order.
    words: Vec<u32>,
    /// id -> position in `heads`.
    index: HashMap<u32, u32, BuildHasherDefault<IdHasher>>,
    /// Ids referenced by the roots, in root order (`None` for null roots).
    pub root_ids: Vec<Option<u32>>,
    /// Total words occupied by reachable objects (headers included).
    pub live_words: u64,
}

impl Snapshot {
    /// Capture the reachable graph of `heap` starting from its root set.
    /// Every reachable object must carry its id in data word 0 (i.e. have
    /// `delta >= 1` and have been stamped by the builder).
    ///
    /// # Panics
    /// Panics if a reachable object has `delta == 0`, a zero or duplicate
    /// id, or if a root or pointer leads outside the arena.
    pub fn capture(heap: &Heap) -> Snapshot {
        let arena = heap.words();
        let mut seen = BitSet::new(arena.len());
        // Breadth-first queue; it only grows, so `queue[i]` is also the
        // address record `i` was captured from.
        let mut queue: Vec<Addr> = Vec::new();

        // The id of the object at `addr` (0 for null), queueing it on the
        // first visit.
        let mut visit = |addr: Addr, queue: &mut Vec<Addr>| -> u32 {
            if addr == NULL {
                return 0;
            }
            let w0 = heap.word(addr);
            let id_word = addr + 2 + header::pi_of(w0);
            if seen.insert(addr as usize) {
                assert!(
                    header::delta_of(w0) >= 1,
                    "snapshot requires id-stamped objects (delta >= 1)"
                );
                assert_ne!(heap.word(id_word), 0, "object at {addr} has no id stamp");
                queue.push(addr);
            }
            heap.word(id_word)
        };

        let root_ids: Vec<Option<u32>> = heap
            .roots()
            .iter()
            .map(|&r| Some(visit(r, &mut queue)).filter(|&id| id != 0))
            .collect();

        let mut heads: Vec<RecordHead> = Vec::new();
        let mut words: Vec<u32> = Vec::new();
        let mut live_words = 0u64;
        while let Some(&addr) = queue.get(heads.len()) {
            let w0 = heap.word(addr);
            let (pi, delta) = (header::pi_of(w0), header::delta_of(w0));
            live_words += u64::from(2 + pi + delta);
            heads.push(RecordHead {
                pi,
                delta,
                offset: words.len() as u32,
            });
            let ptrs = addr as usize + 2;
            let data = ptrs + pi as usize;
            words.extend_from_slice(&arena[data..data + delta as usize]);
            for &target in &arena[ptrs..data] {
                let child = visit(target, &mut queue);
                words.push(child);
            }
        }

        let mut index = HashMap::with_capacity_and_hasher(heads.len(), Default::default());
        for (i, head) in heads.iter().enumerate() {
            let id = words[head.offset as usize];
            assert!(
                index.insert(id, i as u32).is_none(),
                "duplicate object id {id}"
            );
        }

        Snapshot {
            heads,
            words,
            index,
            root_ids,
            live_words,
        }
    }

    /// Number of reachable objects.
    pub fn live_objects(&self) -> usize {
        self.heads.len()
    }

    /// The record of object `id`, if it was reachable.
    pub fn get(&self, id: u32) -> Option<ObjRecord<'_>> {
        self.position(id).map(|i| self.record(i))
    }

    /// Every record, in capture order: breadth-first from the roots,
    /// pointer slots left to right — independent of object addresses.
    pub fn records(&self) -> impl ExactSizeIterator<Item = ObjRecord<'_>> {
        (0..self.heads.len()).map(|i| self.record(i))
    }

    /// Capture-order position of object `id`.
    pub(crate) fn position(&self, id: u32) -> Option<usize> {
        self.index.get(&id).map(|&i| i as usize)
    }

    /// The record at capture-order position `i`.
    pub(crate) fn record(&self, i: usize) -> ObjRecord<'_> {
        let RecordHead { pi, delta, offset } = self.heads[i];
        let (data, rest) = self.words[offset as usize..].split_at(delta as usize);
        ObjRecord {
            pi,
            delta,
            data,
            children: &rest[..pi as usize],
        }
    }
}

#[cfg(test)]
impl Snapshot {
    /// Append a record the heap never held (the verifier's tests forge
    /// snapshots that disagree with the heap).
    pub(crate) fn push_record(&mut self, data: &[u32], children: &[u32]) {
        let at = self.heads.len() as u32;
        assert!(self.index.insert(data[0], at).is_none());
        self.heads.push(RecordHead {
            pi: children.len() as u32,
            delta: data.len() as u32,
            offset: self.words.len() as u32,
        });
        self.words.extend_from_slice(data);
        self.words.extend_from_slice(children);
    }

    /// Forget object `id`; its body words stay behind, unreferenced.
    pub(crate) fn remove_record(&mut self, id: u32) {
        let at = self.index.remove(&id).expect("no such record");
        self.heads.remove(at as usize);
        for i in self.index.values_mut().filter(|i| **i > at) {
            *i -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn snapshot_reaches_only_live_objects() {
        let mut heap = Heap::new(1000);
        let mut b = GraphBuilder::new(&mut heap);
        let a = b.add(1, 1).unwrap();
        let c = b.add(0, 1).unwrap();
        let _garbage = b.add(0, 5).unwrap();
        b.link(a, 0, c);
        b.root(a);
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 2);
        assert_eq!(snap.root_ids, vec![Some(1)]);
        assert_eq!(snap.live_words, 4 + 3);
        assert_eq!(snap.get(1).unwrap().children, [2]);
        assert!(snap.get(3).is_none());
    }

    #[test]
    fn snapshot_handles_cycles_and_nulls() {
        let mut heap = Heap::new(1000);
        let mut b = GraphBuilder::new(&mut heap);
        let a = b.add(2, 1).unwrap();
        let c = b.add(1, 1).unwrap();
        b.link(a, 0, c);
        b.link(c, 0, a); // cycle back
        b.root(a);
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 2);
        assert_eq!(snap.get(1).unwrap().children, [2, 0]);
        assert_eq!(snap.get(2).unwrap().children, [1]);
    }

    #[test]
    fn shared_children_recorded_once() {
        let mut heap = Heap::new(1000);
        let mut b = GraphBuilder::new(&mut heap);
        let r = b.add(2, 1).unwrap();
        let shared = b.add(0, 2).unwrap();
        b.link(r, 0, shared);
        b.link(r, 1, shared);
        b.root(r);
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 2);
        assert_eq!(snap.get(1).unwrap().children, [2, 2]);
    }

    #[test]
    fn empty_roots_empty_snapshot() {
        let heap = Heap::new(100);
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 0);
        assert_eq!(snap.live_words, 0);
        assert!(snap.root_ids.is_empty());
    }

    #[test]
    fn records_come_in_breadth_first_order_with_full_bodies() {
        let mut heap = Heap::new(1000);
        let mut b = GraphBuilder::new(&mut heap);
        // Allocation order 1..=4, but the root is the last object and its
        // slots name 3 before 2: capture order follows the graph, not the
        // addresses.
        let x = b.add(0, 2).unwrap();
        let y = b.add(1, 1).unwrap();
        let z = b.add(0, 3).unwrap();
        let r = b.add(2, 1).unwrap();
        b.link(r, 0, z);
        b.link(r, 1, y);
        b.link(y, 0, x);
        b.root(r);
        let snap = Snapshot::capture(&heap);
        let ids: Vec<u32> = snap.records().map(|r| r.id()).collect();
        assert_eq!(ids, [4, 3, 2, 1]);
        for rec in snap.records() {
            assert_eq!(rec.data.len(), rec.delta as usize);
            assert_eq!(rec.children.len(), rec.pi as usize);
            assert_eq!(snap.get(rec.id()), Some(rec));
            for (slot, &w) in rec.data.iter().enumerate() {
                assert_eq!(w, crate::builder::stamp(rec.id(), slot as u32));
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate object id")]
    fn duplicate_ids_are_refused() {
        let mut heap = Heap::new(100);
        let mut b = GraphBuilder::new(&mut heap);
        let a = b.add(1, 1).unwrap();
        let c = b.add(0, 1).unwrap();
        b.link(a, 0, c);
        b.root(a);
        let ca = b.addr(c);
        heap.set_data(ca, 0, 1);
        Snapshot::capture(&heap);
    }
}
