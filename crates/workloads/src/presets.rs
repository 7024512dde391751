//! The eight named benchmark presets.
//!
//! Each preset reproduces the GC-relevant signature of one of the paper's
//! Java benchmarks (see the crate docs for the mapping rationale). Object
//! counts are scaled down from the FPGA prototype's heaps so the full
//! parameter sweeps finish quickly; `scale` lets experiments dial them
//! back up. The *shapes* — which benchmarks parallelize, which overflow
//! the FIFO, which contend on header locks — are what matter and are
//! preserved at any scale.

use hwgc_heap::{GraphBuilder, Heap};

use crate::generators::{
    self, garbage, hub_graph, kary_tree, parallel_chains, random_graph, serial_chain, wide_fanout,
    GenStats,
};

/// One of the paper's eight benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// SPEC JVM98 `_201_compress`: LZW over large byte arrays — a highly
    /// linear graph of big objects; no object-level parallelism.
    Compress,
    /// CUP parser generator: a very wide gray frontier that overflows the
    /// header FIFO.
    Cup,
    /// SPEC JVM98 `_209_db`: a large flat database of small records.
    Db,
    /// SPEC JVM98 `_213_javac`: symbol/type objects referenced by many
    /// AST nodes — popular headers.
    Javac,
    /// JavaCC parser generator: a medium, well-parallelizable graph.
    Javacc,
    /// JFlex scanner generator: a forest with fewer independent branches
    /// than a 16-core coprocessor has cores.
    Jflex,
    /// A small Lisp interpreter: a tree of tiny cons cells.
    Jlisp,
    /// Binary-tree search benchmark: a linear access structure of large
    /// nodes; no object-level parallelism.
    Search,
}

impl Preset {
    /// All presets, in the paper's table order.
    pub const ALL: [Preset; 8] = [
        Preset::Compress,
        Preset::Cup,
        Preset::Db,
        Preset::Javac,
        Preset::Javacc,
        Preset::Jflex,
        Preset::Jlisp,
        Preset::Search,
    ];

    /// The benchmark's name as printed in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Preset::Compress => "compress",
            Preset::Cup => "cup",
            Preset::Db => "db",
            Preset::Javac => "javac",
            Preset::Javacc => "javacc",
            Preset::Jflex => "jflex",
            Preset::Jlisp => "jlisp",
            Preset::Search => "search",
        }
    }

    /// Look a preset up by name.
    pub fn by_name(name: &str) -> Option<Preset> {
        Preset::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// Build the preset's heap at scale 1 with the given seed.
    pub fn build(&self, seed: u64) -> Heap {
        WorkloadSpec {
            preset: *self,
            seed,
            scale: 1.0,
        }
        .build()
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A preset plus knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    pub preset: Preset,
    /// Seed for the randomized topologies (db, javac, javacc).
    pub seed: u64,
    /// Multiplier on object counts (1.0 = default size).
    pub scale: f64,
}

impl WorkloadSpec {
    /// Convenience constructor at scale 1.
    pub fn new(preset: Preset, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            preset,
            seed,
            scale: 1.0,
        }
    }

    fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(1)
    }

    /// Build the heap: allocate the live graph plus ~30 % garbage, root
    /// it, and size the semispaces so roughly half of fromspace is
    /// occupied (the paper's rule of thumb: twice the minimal heap).
    pub fn build(&self) -> Heap {
        // Generously sized scratch heap; rebuilt tight below.
        let semi = self.semi_words();
        let mut heap = Heap::new(semi);
        let mut stats = GenStats::default();
        let mut rng = generators::rng(self.seed);
        let mut b = GraphBuilder::new(&mut heap);
        let root = match self.preset {
            Preset::Compress => {
                serial_chain(&mut b, self.scaled(2_500), 2, 16, 1, 12, 2, &mut stats)
            }
            Preset::Search => serial_chain(&mut b, self.scaled(2_500), 1, 24, 1, 4, 8, &mut stats),
            Preset::Cup => wide_fanout(&mut b, self.scaled(4_600), 100, 8, 1, 4, &mut stats),
            Preset::Db => random_graph(
                &mut b,
                self.scaled(16_000),
                (2, 4),
                (3, 8),
                0.25,
                &mut rng,
                &mut stats,
            ),
            Preset::Javac => hub_graph(&mut b, self.scaled(12_000), 4, 6, 4, &mut rng, &mut stats),
            Preset::Javacc => random_graph(
                &mut b,
                self.scaled(3_500),
                (1, 3),
                (2, 6),
                0.25,
                &mut rng,
                &mut stats,
            ),
            Preset::Jflex => parallel_chains(&mut b, 5, self.scaled(500), 4, &mut stats),
            Preset::Jlisp => kary_tree(&mut b, 12, 2, 2, &mut stats),
        };
        b.root(root);
        // ~30 % garbage by word volume, in smallish objects.
        let garbage_objects = (stats.words / 20).max(1) as usize;
        let mut gw = 0;
        garbage(&mut b, garbage_objects, 4, &mut gw);
        heap
    }

    /// Semispace size in words for this preset/scale.
    pub fn semi_words(&self) -> u32 {
        let base: u64 = match self.preset {
            // spine (2 + pi + delta) + leaves (2 + delta) per spine link
            Preset::Compress => 2_500 * (24 + 3 * 14),
            Preset::Search => 2_500 * (37 + 2 * 6),
            Preset::Cup => 4_600 * (11 + 6) + 48 * 103,
            Preset::Db => 16_000 * 11,
            Preset::Javac => 12_000 * 8,
            Preset::Javacc => 3_500 * 9,
            Preset::Jflex => 5 * 500 * (6 + 2 * 6) + 16,
            Preset::Jlisp => 8191 * 6,
        };
        // Room for the live graph, its garbage (~30 %) and slack.
        ((base as f64 * self.scale.max(1.0) * 1.6) as u32).max(4096) + 4096
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwgc_heap::Snapshot;

    #[test]
    fn all_presets_build_and_are_reachable() {
        for p in Preset::ALL {
            let heap = p.build(1);
            let snap = Snapshot::capture(&heap);
            assert!(snap.live_objects() > 50, "{p}: {}", snap.live_objects());
            assert!(
                heap.allocated_words() as u64 > snap.live_words,
                "{p} must contain garbage"
            );
        }
    }

    #[test]
    fn preset_names_roundtrip() {
        for p in Preset::ALL {
            assert_eq!(Preset::by_name(p.name()), Some(p));
        }
        assert_eq!(Preset::by_name("nope"), None);
    }

    #[test]
    fn builds_are_deterministic() {
        for p in [Preset::Db, Preset::Javac, Preset::Javacc] {
            let a = Snapshot::capture(&p.build(9));
            let b = Snapshot::capture(&p.build(9));
            assert_eq!(a.live_words, b.live_words, "{p}");
            assert_eq!(a.live_objects(), b.live_objects(), "{p}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Snapshot::capture(&Preset::Db.build(1));
        let b = Snapshot::capture(&Preset::Db.build(2));
        // Same object count, different wiring → different live words is
        // not guaranteed, but the edge structure should differ.
        assert_eq!(a.live_objects(), b.live_objects());
        let edges = |s: &Snapshot| -> Vec<(u32, Vec<u32>)> {
            let mut v: Vec<_> = s.records().map(|r| (r.id(), r.children.to_vec())).collect();
            v.sort();
            v
        };
        assert_ne!(edges(&a), edges(&b));
    }

    #[test]
    fn scale_changes_size() {
        let small = WorkloadSpec {
            preset: Preset::Javacc,
            seed: 3,
            scale: 0.1,
        };
        let big = WorkloadSpec {
            preset: Preset::Javacc,
            seed: 3,
            scale: 1.0,
        };
        let a = Snapshot::capture(&small.build());
        let b = Snapshot::capture(&big.build());
        assert!(a.live_objects() * 5 < b.live_objects());
    }

    #[test]
    fn cup_frontier_exceeds_default_fifo() {
        // The cup preset must be able to overflow the default 4096-entry
        // FIFO: it has far more leaves than that.
        let heap = Preset::Cup.build(1);
        let snap = Snapshot::capture(&heap);
        assert!(snap.live_objects() > 5_000);
    }

    #[test]
    fn linear_presets_have_linear_spine() {
        for p in [Preset::Compress, Preset::Search] {
            let heap = p.build(1);
            let snap = Snapshot::capture(&heap);
            // The live graph must be a tree (every object referenced at
            // most once) whose interior nodes form a single chain — i.e.
            // at most one child of any object has children of its own.
            let mut in_degree = std::collections::HashMap::new();
            for rec in snap.records() {
                let children = rec.children.iter().filter(|&&c| c != 0);
                for &c in children.clone() {
                    *in_degree.entry(c).or_insert(0u32) += 1;
                }
                let interior_children = children
                    .filter(|&&c| !snap.get(c).unwrap().children.is_empty())
                    .count();
                assert!(interior_children <= 1, "{p} spine must be linear");
            }
            assert!(
                in_degree.values().all(|&d| d == 1),
                "{p} must be tree-shaped"
            );
        }
    }
}
