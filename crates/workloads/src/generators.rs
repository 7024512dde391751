//! Parameterized object-graph topologies.
//!
//! All generators are deterministic for a given seed, build through the
//! [`GraphBuilder`] (so every object carries an id and verifiable content
//! stamps), and return the set of objects they created so callers can
//! compose topologies.

use hwgc_heap::{GraphBuilder, ObjId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a generator built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    pub objects: u64,
    pub words: u64,
    pub edges: u64,
}

impl GenStats {
    fn count(&mut self, pi: u32, delta: u32) {
        self.objects += 1;
        self.words += 2 + pi as u64 + delta as u64;
    }
}

/// A chain of `n` objects, each pointing at its successor: the degenerate
/// graph of `compress`/`search`. Every object has one pointer slot and
/// `delta` data words. The head is rooted. Returns the chain head.
pub fn linear_chain(b: &mut GraphBuilder<'_>, n: usize, delta: u32, stats: &mut GenStats) -> ObjId {
    assert!(n > 0);
    let head = b.add(1, delta).expect("fromspace full");
    stats.count(1, delta);
    let mut prev = head;
    for _ in 1..n {
        let obj = b.add(1, delta).expect("fromspace full");
        stats.count(1, delta);
        b.link(prev, 0, obj);
        stats.edges += 1;
        prev = obj;
    }
    head
}

/// A chain of spine nodes, each carrying `leaves` private leaf objects:
/// the `compress`/`search` shape refined for the paper's Table I numbers.
///
/// The next-spine pointer sits in the *middle* of the pointer area, with
/// leaves on both sides. A scanning core therefore (a) reaches the next
/// spine only partway through its pointer sweep, bounding the chain's
/// pipeline parallelism at roughly two cores, and (b) always leaves a
/// trailing leaf in the work list when the next spine is claimed, so a
/// single core never sees an empty work list (Table I: compress is 0.01 %
/// empty at 1 core yet ≈ 99 % empty at ≥ 4 cores). Returns the chain
/// head.
pub fn leafy_chain(
    b: &mut GraphBuilder<'_>,
    n_spines: usize,
    leaves: u32,
    leaf_delta: u32,
    spine_delta: u32,
    stats: &mut GenStats,
) -> ObjId {
    assert!(n_spines > 0);
    let pi = leaves + 1;
    let next_slot = leaves / 2; // leaves before and after the spine edge
    let head = b.add(pi, spine_delta).expect("fromspace full");
    stats.count(pi, spine_delta);
    let mut prev = head;
    for i in 1..=n_spines {
        for slot in 0..pi {
            if slot == next_slot {
                continue;
            }
            let leaf = b.add(0, leaf_delta).expect("fromspace full");
            stats.count(0, leaf_delta);
            b.link(prev, slot, leaf);
            stats.edges += 1;
        }
        if i == n_spines {
            break;
        }
        let next = b.add(pi, spine_delta).expect("fromspace full");
        stats.count(pi, spine_delta);
        b.link(prev, next_slot, next);
        stats.edges += 1;
        prev = next;
    }
    head
}

/// A chain whose spine nodes have a *null-padded* pointer area with the
/// next-spine edge near the end, plus private leaf objects before and
/// after it. The null slots are scanned cheaply but delay the evacuation
/// of the next spine until late in the parent's sweep, so the spine is
/// effectively serial (pipeline depth ≈ 1); the leaves provide exactly
/// enough side work to keep one or two extra cores busy. Tuning
/// `leaf_delta` against the spine sweep length dials the plateau speedup
/// between ≈ 1.3 (`search`) and ≈ 2 (`compress`) and keeps the work list
/// non-empty at 1 core (paper Table I). Returns the chain head.
#[allow(clippy::too_many_arguments)]
pub fn serial_chain(
    b: &mut GraphBuilder<'_>,
    n_spines: usize,
    leaves_pre: u32,
    nulls: u32,
    leaves_post: u32,
    leaf_delta: u32,
    spine_delta: u32,
    stats: &mut GenStats,
) -> ObjId {
    assert!(n_spines > 0);
    let pi = leaves_pre + nulls + 1 + leaves_post;
    let next_slot = leaves_pre + nulls;
    let head = b.add(pi, spine_delta).expect("fromspace full");
    stats.count(pi, spine_delta);
    let mut prev = head;
    for i in 1..=n_spines {
        for slot in (0..leaves_pre).chain(next_slot + 1..pi) {
            let leaf = b.add(0, leaf_delta).expect("fromspace full");
            stats.count(0, leaf_delta);
            b.link(prev, slot, leaf);
            stats.edges += 1;
        }
        if i == n_spines {
            break;
        }
        let next = b.add(pi, spine_delta).expect("fromspace full");
        stats.count(pi, spine_delta);
        b.link(prev, next_slot, next);
        stats.edges += 1;
        prev = next;
    }
    head
}

/// A forest of `k` independent leafy chains hanging off one root object:
/// the `jflex` shape, whose object-level parallelism saturates at roughly
/// `2k` cores. Returns the root.
pub fn parallel_chains(
    b: &mut GraphBuilder<'_>,
    k: usize,
    len: usize,
    delta: u32,
    stats: &mut GenStats,
) -> ObjId {
    assert!(k >= 1 && k <= hwgc_heap::MAX_FIELD as usize);
    let root = b.add(k as u32, 1).expect("fromspace full");
    stats.count(k as u32, 1);
    for i in 0..k {
        let head = leafy_chain(b, len, 2, delta, 1, stats);
        b.link(root, i as u32, head);
        stats.edges += 1;
    }
    root
}

/// A complete `k`-ary tree of the given depth (depth 0 = a single leaf).
/// Interior nodes have `k` pointer slots; every node has `delta` data
/// words. Returns the tree root.
pub fn kary_tree(
    b: &mut GraphBuilder<'_>,
    depth: u32,
    k: u32,
    delta: u32,
    stats: &mut GenStats,
) -> ObjId {
    let pi = if depth == 0 { 0 } else { k };
    let node = b.add(pi, delta).expect("fromspace full");
    stats.count(pi, delta);
    if depth > 0 {
        for slot in 0..k {
            let child = kary_tree(b, depth - 1, k, delta, stats);
            b.link(node, slot, child);
            stats.edges += 1;
        }
    }
    node
}

/// A root that fans out (through intermediate array objects of `arity`
/// pointer slots each) to `width` record objects, each with `leaf_delta`
/// data words and `leaf_children` private child objects of `child_delta`
/// data words: the `cup` shape. Scanning the arrays turns all `width`
/// records gray long before they can be consumed, producing a standing
/// gray frontier of ~`width` objects that overflows any FIFO smaller than
/// that; the records' own pointers keep header-load traffic high, as in
/// the paper's cup row of Table II. Returns the root.
#[allow(clippy::too_many_arguments)]
pub fn wide_fanout(
    b: &mut GraphBuilder<'_>,
    width: usize,
    arity: u32,
    leaf_delta: u32,
    leaf_children: u32,
    child_delta: u32,
    stats: &mut GenStats,
) -> ObjId {
    assert!((1..=hwgc_heap::MAX_FIELD).contains(&arity));
    let n_arrays = width.div_ceil(arity as usize);
    assert!(
        n_arrays <= hwgc_heap::MAX_FIELD as usize,
        "width too large for two levels"
    );
    let root = b.add(n_arrays as u32, 1).expect("fromspace full");
    stats.count(n_arrays as u32, 1);
    let mut remaining = width;
    for slot in 0..n_arrays {
        let here = remaining.min(arity as usize) as u32;
        remaining -= here as usize;
        let arr = b.add(here, 1).expect("fromspace full");
        stats.count(here, 1);
        b.link(root, slot as u32, arr);
        stats.edges += 1;
        for leaf_slot in 0..here {
            let leaf = b.add(leaf_children, leaf_delta).expect("fromspace full");
            stats.count(leaf_children, leaf_delta);
            b.link(arr, leaf_slot, leaf);
            stats.edges += 1;
            for c in 0..leaf_children {
                let child = b.add(0, child_delta).expect("fromspace full");
                stats.count(0, child_delta);
                b.link(leaf, c, child);
                stats.edges += 1;
            }
        }
    }
    root
}

/// `n_parents` objects arranged as a complete binary tree (slots 0 and 1
/// are the tree edges); every further slot (2..`parent_pi`) points at one
/// of `n_hubs` shared hub objects, chosen uniformly: the `javac` shape —
/// "a few objects are referenced by many objects". The tree provides
/// abundant object-level parallelism; the hubs concentrate header-lock
/// traffic, reproducing javac's 29.4 % header-lock stalls in Table II.
/// Returns the tree root.
pub fn hub_graph(
    b: &mut GraphBuilder<'_>,
    n_parents: usize,
    parent_pi: u32,
    n_hubs: usize,
    hub_delta: u32,
    rng: &mut SmallRng,
    stats: &mut GenStats,
) -> ObjId {
    assert!(n_parents >= 1 && n_hubs >= 1 && parent_pi >= 3);
    let hubs: Vec<ObjId> = (0..n_hubs)
        .map(|_| {
            let h = b.add(0, hub_delta).expect("fromspace full");
            stats.count(0, hub_delta);
            h
        })
        .collect();
    let mut parents = Vec::with_capacity(n_parents);
    for i in 0..n_parents {
        let p = b.add(parent_pi, 1).expect("fromspace full");
        stats.count(parent_pi, 1);
        for slot in 2..parent_pi {
            let hub = hubs[rng.random_range(0..n_hubs)];
            b.link(p, slot, hub);
            stats.edges += 1;
        }
        if i > 0 {
            let parent_idx = (i - 1) / 2;
            let slot = ((i - 1) % 2) as u32;
            b.link(parents[parent_idx], slot, p);
            stats.edges += 1;
        }
        parents.push(p);
    }
    parents[0]
}

/// A connected random graph of `n` objects: object `i` gets `pi` pointer
/// slots drawn from `pi_range` and `delta` data words from `delta_range`;
/// slot 0 of each object (except the first) points at a random *earlier*
/// object's... rather, each object past the first is given one incoming
/// edge from a random earlier object (guaranteeing reachability from the
/// first object), and remaining slots point at uniformly random objects
/// (which may create cycles, self-loops and sharing) or stay null with
/// probability `null_fraction`. Returns the first object (the root).
#[allow(clippy::too_many_arguments)]
pub fn random_graph(
    b: &mut GraphBuilder<'_>,
    n: usize,
    pi_range: (u32, u32),
    delta_range: (u32, u32),
    null_fraction: f64,
    rng: &mut SmallRng,
    stats: &mut GenStats,
) -> ObjId {
    assert!(n >= 1);
    assert!(
        pi_range.0 >= 1,
        "objects need a slot for the connectivity edge"
    );
    let mut objs: Vec<ObjId> = Vec::with_capacity(n);
    let mut free_slots: Vec<(ObjId, u32)> = Vec::new();
    for _ in 0..n {
        let pi = rng.random_range(pi_range.0..=pi_range.1);
        let delta = rng.random_range(delta_range.0..=delta_range.1);
        let o = b.add(pi, delta).expect("fromspace full");
        stats.count(pi, delta);
        if let Some(&last) = objs.last() {
            // Connectivity edge from a random earlier object with a spare
            // slot; fall back to the previous object's slot 0 (overwrite).
            if let Some(pos) = pick_slot(&mut free_slots, rng) {
                b.link(pos.0, pos.1, o);
            } else {
                b.link(last, 0, o);
            }
            stats.edges += 1;
        }
        for slot in 0..pi {
            free_slots.push((o, slot));
        }
        objs.push(o);
    }
    // Fill remaining slots with random edges or nulls.
    for (obj, slot) in free_slots {
        if rng.random_bool(null_fraction) {
            continue;
        }
        let target = objs[rng.random_range(0..objs.len())];
        b.link(obj, slot, target);
        stats.edges += 1;
    }
    objs[0]
}

fn pick_slot(free: &mut Vec<(ObjId, u32)>, rng: &mut SmallRng) -> Option<(ObjId, u32)> {
    if free.is_empty() {
        return None;
    }
    let i = rng.random_range(0..free.len());
    Some(free.swap_remove(i))
}

/// A chain of `n` large *reference* arrays: each object has `nulls`
/// empty pointer slots followed by one pointer to the next array (think
/// of the chunked backbone of a large list). Because the chain edge is
/// the last slot of a long pointer area, the successor only becomes
/// claimable at the very end of the parent's scan — the chain is strictly
/// serial at object granularity, which is the workload that motivates the
/// paper's proposed cache-line-granularity work distribution
/// (conclusions, item 1). Returns the chain head.
pub fn big_array_chain(
    b: &mut GraphBuilder<'_>,
    n: usize,
    nulls: u32,
    stats: &mut GenStats,
) -> ObjId {
    assert!(n > 0 && nulls < hwgc_heap::MAX_FIELD);
    let pi = nulls + 1;
    let head = b.add(pi, 1).expect("fromspace full");
    stats.count(pi, 1);
    let mut prev = head;
    for _ in 1..n {
        let next = b.add(pi, 1).expect("fromspace full");
        stats.count(pi, 1);
        b.link(prev, nulls, next);
        stats.edges += 1;
        prev = next;
    }
    head
}

/// Allocate `n` unreachable garbage objects (never rooted, never linked
/// from live data). A copying collector's cost must not depend on them.
pub fn garbage(b: &mut GraphBuilder<'_>, n: usize, delta: u32, stats_words: &mut u64) {
    for _ in 0..n {
        let _ = b.add(0, delta).expect("fromspace full");
        *stats_words += 2 + delta as u64;
    }
}

/// A deterministic RNG for workload construction.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwgc_heap::{Heap, Snapshot};

    fn with_builder<R>(semi: u32, f: impl FnOnce(&mut GraphBuilder<'_>) -> R) -> (Heap, R) {
        let mut heap = Heap::new(semi);
        let r = {
            let mut b = GraphBuilder::new(&mut heap);
            f(&mut b)
        };
        (heap, r)
    }

    #[test]
    fn chain_is_fully_reachable() {
        let (mut heap, _) = with_builder(10_000, |b| {
            let mut s = GenStats::default();
            let head = linear_chain(b, 50, 5, &mut s);
            b.root(head);
            assert_eq!(s.objects, 50);
            assert_eq!(s.edges, 49);
            assert_eq!(s.words, 50 * 8);
        });
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 50);
        heap.clear_roots();
    }

    #[test]
    fn parallel_chains_shape() {
        let (heap, _) = with_builder(100_000, |b| {
            let mut s = GenStats::default();
            let root = parallel_chains(b, 4, 25, 3, &mut s);
            b.root(root);
            // root + per chain: 25 spines with 2 leaves each
            assert_eq!(s.objects, 1 + 4 * (25 + 50));
        });
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 301);
    }

    #[test]
    fn kary_tree_counts() {
        let (heap, _) = with_builder(100_000, |b| {
            let mut s = GenStats::default();
            let root = kary_tree(b, 3, 2, 1, &mut s);
            b.root(root);
            assert_eq!(s.objects, 15); // complete binary tree, depth 3
        });
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 15);
    }

    #[test]
    fn wide_fanout_width() {
        let (heap, _) = with_builder(200_000, |b| {
            let mut s = GenStats::default();
            let root = wide_fanout(b, 1000, 64, 2, 1, 3, &mut s);
            b.root(root);
            // root + ceil(1000/64)=16 arrays + 1000 records + 1000 children
            assert_eq!(s.objects, 1 + 16 + 2000);
        });
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 2017);
    }

    #[test]
    fn hub_graph_is_connected_and_shares() {
        let (heap, _) = with_builder(200_000, |b| {
            let mut s = GenStats::default();
            let mut r = rng(7);
            let root = hub_graph(b, 100, 4, 5, 2, &mut r, &mut s);
            b.root(root);
            assert_eq!(s.objects, 105);
        });
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 105);
    }

    #[test]
    fn random_graph_reaches_all_objects() {
        for seed in 0..5 {
            let (heap, _) = with_builder(400_000, |b| {
                let mut s = GenStats::default();
                let mut r = rng(seed);
                let root = random_graph(b, 500, (1, 4), (1, 6), 0.3, &mut r, &mut s);
                b.root(root);
                assert_eq!(s.objects, 500);
            });
            let snap = Snapshot::capture(&heap);
            assert_eq!(snap.live_objects(), 500, "seed {seed}");
        }
    }

    #[test]
    fn random_graph_is_deterministic() {
        let build = |seed| {
            let (heap, _) = with_builder(400_000, |b| {
                let mut s = GenStats::default();
                let mut r = rng(seed);
                let root = random_graph(b, 300, (1, 3), (1, 4), 0.2, &mut r, &mut s);
                b.root(root);
            });
            Snapshot::capture(&heap)
        };
        let a = build(42);
        let b = build(42);
        assert_eq!(a.live_objects(), b.live_objects());
        assert_eq!(a.live_words, b.live_words);
    }

    #[test]
    fn garbage_is_unreachable() {
        let (heap, _) = with_builder(10_000, |b| {
            let mut s = GenStats::default();
            let head = linear_chain(b, 10, 2, &mut s);
            b.root(head);
            let mut gw = 0;
            garbage(b, 20, 4, &mut gw);
            assert_eq!(gw, 20 * 6);
        });
        let snap = Snapshot::capture(&heap);
        assert_eq!(snap.live_objects(), 10);
    }
}
