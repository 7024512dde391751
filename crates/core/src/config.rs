//! Collector configuration.

use hwgc_memsim::MemConfig;

/// Largest supported [`GcConfig::n_cores`]: the engine keeps its awake
/// and wake sets as one `u64` bit mask over the cores.
/// [`crate::SimCollector::new`] asserts the bound; the job codec rejects
/// frames beyond it.
pub const MAX_CORES: usize = 64;

/// Configuration of a simulated collection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// Number of coprocessor cores (the prototype supports 1–16).
    pub n_cores: usize,
    /// Memory-system timing model.
    pub mem: MemConfig,
    /// Ablation C (paper Section VI-B, javac discussion): read the mark
    /// bit *without* acquiring the header lock first, and only attempt a
    /// locking read if the mark bit is clear. Already-forwarded children —
    /// the common case for popular objects — then never contend on the
    /// header lock.
    pub test_before_lock: bool,
    /// Extension 1 (paper conclusions): distribute work at a granularity
    /// finer than whole objects. `Some(L)` lets a scan claim take at most
    /// `L` body words of a large object, so several cores can copy one
    /// object concurrently; the synchronization block tracks the
    /// outstanding chunks and the last finisher blackens. `None` is the
    /// paper's object-granularity baseline.
    pub line_split: Option<u32>,
    /// Test harness knob: permute the core tick order every cycle with
    /// this seed. The paper's SB arbitrates with a *static* priority
    /// (`None`, the default — cores tick in index order); a permuted order
    /// models any other legal arbiter and lets tests explore different
    /// interleavings of the same collection. Functional results must be
    /// identical either way; only stall attribution may shift.
    pub tick_permutation_seed: Option<u64>,
    /// Upper bound on simulated cycles before the engine assumes a model
    /// bug and panics with diagnostics.
    pub max_cycles: u64,
    /// What-if ablation knob: give the SB's `scan`/`free` registers one
    /// write port *per core*, so a same-cycle register write no longer
    /// blocks the next acquirer (the `scan_lock`/`free_lock` stall class
    /// loses its write-port-conflict share). Lock holds themselves are
    /// unchanged — claim and evacuation atomicity still rely on them.
    /// Not a paper configuration; used to validate the what-if predictor.
    pub multiport_sb: bool,
    /// The jump rule (default on): when every core is parked, the engine
    /// jumps the clock to the memory system's next activity in one step
    /// instead of ticking every hollow cycle; and under the naive park
    /// rule, when the only progress is body words streaming through at
    /// burst speed, it replays that run in closed form (DESIGN.md §5).
    /// Bit-exact — identical `GcStats`, SB event stamps and trace rows —
    /// under either park rule, with or without a schedule policy; jumps
    /// stop at every sampled trace cycle, and a mutator suppresses them.
    /// `false` executes every cycle: with the naive rule, that is the
    /// per-cycle reference loop the differential tests compare against.
    pub fast_forward: bool,
    /// The engine's park rule. `None` (the default, unless the
    /// `HWGC_ENGINE` environment knob names one — see [`engine_from`])
    /// chooses from what the configuration shows: see
    /// [`GcConfig::effective_engine`]. The rules are bit-exact —
    /// identical `GcStats`, SB event stamps and trace rows, including
    /// under schedule policies — so the choice only moves host time; the
    /// differential tests pin one rule on each side.
    pub engine: Option<EngineKind>,
}

/// When the engine's one loop parks a stalled core (DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The degenerate rule: no core parks alone. After a cycle in which
    /// nothing moved, every stalled core parks until the memory system's
    /// next activity; after one in which only body streams moved, the
    /// stream jump replays them (with `fast_forward` on).
    Naive,
    /// Cores whose next retry provably fails park on per-resource wake
    /// conditions — SB lock releases or their own memory retirements — so
    /// per-cycle work is O(runnable) instead of O(n_cores). A mutator
    /// forces the naive rule (its ticks observe every cycle).
    Sparse,
}

/// Parse the `HWGC_ENGINE` environment knob: `naive` or `sparse` (ASCII
/// case-insensitive, trimmed) pin an engine; unset, empty or anything
/// unrecognized yields `None`, the automatic choice of
/// [`GcConfig::effective_engine`].
pub fn engine_from(var: Option<&str>) -> Option<EngineKind> {
    match var.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        Some("naive") => Some(EngineKind::Naive),
        Some("sparse") => Some(EngineKind::Sparse),
        _ => None,
    }
}

impl Default for GcConfig {
    fn default() -> GcConfig {
        GcConfig {
            n_cores: 1,
            mem: MemConfig::default(),
            test_before_lock: false,
            line_split: None,
            tick_permutation_seed: None,
            multiport_sb: false,
            max_cycles: 2_000_000_000,
            fast_forward: true,
            engine: engine_from(std::env::var("HWGC_ENGINE").ok().as_deref()),
        }
    }
}

impl GcConfig {
    /// Convenience constructor for the common case.
    pub fn with_cores(n_cores: usize) -> GcConfig {
        GcConfig {
            n_cores,
            ..GcConfig::default()
        }
    }

    /// The park rule this configuration actually runs: the pinned
    /// [`GcConfig::engine`] when present, else the sparse rule — with one
    /// measured exception. At a single simulated core the sparse rule's
    /// wake-admission bookkeeping costs more than it saves (the active
    /// set *is* the core), and only the naive rule has the stream jump:
    /// pinning the sparse rule on one core of `compress` at scale 60
    /// doubles the collection's wall time, and costs 4–16 % on `javac`
    /// and `db`. So an unpinned single-core configuration runs the naive
    /// rule.
    pub fn effective_engine(&self) -> EngineKind {
        match self.engine {
            Some(kind) => kind,
            None if self.n_cores == 1 => EngineKind::Naive,
            None => EngineKind::Sparse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_core() {
        let c = GcConfig::default();
        assert_eq!(c.n_cores, 1);
        assert!(!c.test_before_lock);
    }

    #[test]
    fn with_cores_sets_count_only() {
        let c = GcConfig::with_cores(16);
        assert_eq!(c.n_cores, 16);
        assert_eq!(c.mem, MemConfig::default());
    }

    #[test]
    fn engine_from_documents_every_input_class() {
        // The two engines, case-insensitive, whitespace-tolerant.
        assert_eq!(engine_from(Some("naive")), Some(EngineKind::Naive));
        assert_eq!(engine_from(Some("sparse")), Some(EngineKind::Sparse));
        assert_eq!(engine_from(Some(" SPARSE \n")), Some(EngineKind::Sparse));
        // Unset, empty, a removed engine, or garbage: the automatic choice.
        assert_eq!(engine_from(None), None);
        assert_eq!(engine_from(Some("")), None);
        assert_eq!(engine_from(Some("par")), None);
        assert_eq!(engine_from(Some("sparsely")), None);
    }

    #[test]
    fn effective_engine_chooses_from_cores_unless_pinned() {
        use EngineKind::{Naive, Sparse};
        // Only a single core — where the naive rule's stream jump wins —
        // leaves the sparse rule; `fast_forward` is the jump rule of both
        // and plays no part in the choice.
        for (n_cores, fast_forward, auto) in [
            (1, true, Naive),
            (1, false, Naive),
            (2, true, Sparse),
            (2, false, Sparse),
            (16, true, Sparse),
            (16, false, Sparse),
        ] {
            let cfg = GcConfig {
                fast_forward,
                engine: None,
                ..GcConfig::with_cores(n_cores)
            };
            assert_eq!(
                cfg.effective_engine(),
                auto,
                "{n_cores} cores, ff {fast_forward}"
            );
            // A pin wins regardless.
            for kind in [Naive, Sparse] {
                let pinned = GcConfig {
                    engine: Some(kind),
                    ..cfg
                };
                assert_eq!(pinned.effective_engine(), kind);
            }
        }
    }
}
