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
    /// The event-driven engine (default on): a stalled core parks on its
    /// own wake condition instead of retrying every cycle; when every
    /// core is parked, the clock jumps to the memory system's next
    /// activity in one step instead of ticking every hollow cycle; and
    /// when the only cores awake are streaming body words through at
    /// burst speed, the run replays in closed form (DESIGN.md §5, §8).
    /// Bit-exact — identical `GcStats`, SB event stamps and trace rows —
    /// with or without a schedule policy; jumps stop at every sampled
    /// trace cycle, and a mutator suppresses parks and jumps alike.
    /// `false` is the per-cycle reference loop the differential tests
    /// compare against: every core ticks every cycle.
    pub fast_forward: bool,
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
}
