//! Schedule-exploration sweep: run the simulated collector under hundreds
//! of (policy, seed, core count) combinations and prove the functional
//! outcome is schedule-independent.
//!
//! Every combination runs a full collection with
//! [`SimCollector::collect_scheduled_traced`], then:
//!
//! 1. [`verify_collection`] against the pre-cycle snapshot (reachability,
//!    content, compaction, root redirection),
//! 2. exactly-once copy counts against the sequential reference
//!    (`objects_copied` / `words_copied` — invariant 2 made countable),
//! 3. the trace lint over the complete SB event stream (invariants as
//!    they happened, cycle by cycle).
//!
//! Seeds double as DRAM service-reorder seeds ([`MemConfig`]'s
//! `service_reorder_seed`), so memory-timing interleavings are explored in
//! the same pass as arbitration interleavings.
//!
//! Scale is controlled by [`SweepConfig`]: [`SweepConfig::smoke`] is the
//! CI-sized default (≥ 200 combinations in a few seconds);
//! [`SweepConfig::nightly`] is the nightly full sweep.

use hwgc_core::schedule::{Adversarial, RandomOrder, SchedulePolicy, StaticPriority};
use hwgc_core::{GcConfig, SeqCheney, SignalTrace, SimCollector};
use hwgc_heap::{verify_collection, Heap, Snapshot};
use hwgc_jobs::par_map;
use hwgc_memsim::MemConfig;

use crate::lint::lint_trace;

/// Which arbitration policy a sweep combination uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Index order — the paper's arbiter (seed-independent; swept once).
    Static,
    /// Fresh seeded permutation every cycle.
    Random,
    /// Contention-maximizing order.
    Adversarial,
}

impl PolicyKind {
    fn build(self, seed: u64) -> Box<dyn SchedulePolicy> {
        match self {
            PolicyKind::Static => Box::new(StaticPriority),
            PolicyKind::Random => Box::new(RandomOrder::new(seed)),
            PolicyKind::Adversarial => Box::new(Adversarial::new(seed)),
        }
    }
}

/// Sweep dimensions.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Core counts to sweep.
    pub core_counts: Vec<usize>,
    /// Seeds per (policy, core count). Seeds feed both the policy and the
    /// DRAM service reordering.
    pub seeds: Vec<u64>,
    /// Policies to sweep (seeded kinds multiply with `seeds`).
    pub policies: Vec<PolicyKind>,
    /// Run the trace lint on every combination (captures the full SB
    /// event stream; slightly slower, catches in-flight violations even
    /// when the end state verifies).
    pub lint: bool,
}

impl SweepConfig {
    /// The CI smoke configuration: 5 core counts × 2 seeded policies × 20
    /// seeds = 200 combinations, all linted.
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            core_counts: vec![1, 2, 4, 8, 16],
            seeds: (0..20).map(|i| 0x5EED + i * 0x9E37_79B9).collect(),
            policies: vec![PolicyKind::Random, PolicyKind::Adversarial],
            lint: true,
        }
    }

    /// The nightly full sweep: 7 core counts × 2 seeded policies × 100
    /// seeds = 1400 combinations per graph, all linted.
    pub fn nightly() -> SweepConfig {
        SweepConfig {
            core_counts: vec![1, 2, 3, 4, 8, 12, 16],
            seeds: (0..100).map(|i| 0x5EED + i * 0x9E37_79B9).collect(),
            policies: vec![PolicyKind::Random, PolicyKind::Adversarial],
            lint: true,
        }
    }

    /// Number of (policy, seed, core count) combinations this config runs
    /// per graph (the static policy, being seedless, counts once per core
    /// count).
    pub fn combos(&self) -> usize {
        let seeded = self
            .policies
            .iter()
            .filter(|p| **p != PolicyKind::Static)
            .count();
        let statics = self.policies.len() - seeded;
        self.core_counts.len() * (seeded * self.seeds.len() + statics)
    }
}

/// Aggregate result of a sweep over one graph.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Combinations run (and individually verified).
    pub combos: usize,
    /// Total simulated cycles across all combinations.
    pub total_cycles: u64,
    /// Spread of cycle counts observed: (min, max). Different schedules
    /// must be *functionally* identical but are expected to differ here.
    pub cycle_range: (u64, u64),
}

/// Sweep `cfg` over the heap produced by `build`. Each combination clones
/// the heap, collects under the combination's policy, and is checked as
/// described in the module docs. Panics on the first divergence, naming
/// the policy, seed and core count.
///
/// Combinations are independent simulations, so they run on the
/// [`crate::par`] worker pool (`HWGC_JOBS` workers); the outcome is folded
/// in combination order and therefore identical at any job count.
pub fn run_sweep(build: &(dyn Fn() -> Heap + Sync), cfg: &SweepConfig) -> SweepOutcome {
    let base = build();
    let snapshot = Snapshot::capture(&base);
    let mut seq_heap = base.clone();
    let seq = SeqCheney::new().collect(&mut seq_heap);

    let mut combo_list: Vec<(PolicyKind, u64, usize)> = Vec::with_capacity(cfg.combos());
    for &policy_kind in &cfg.policies {
        let seeds: &[u64] = if policy_kind == PolicyKind::Static {
            &[0]
        } else {
            &cfg.seeds
        };
        for &seed in seeds {
            for &cores in &cfg.core_counts {
                combo_list.push((policy_kind, seed, cores));
            }
        }
    }

    let per_combo_cycles = par_map(&combo_list, |_, &(policy_kind, seed, cores)| {
        run_one_combo(&base, &snapshot, &seq, cfg.lint, policy_kind, seed, cores)
    });

    let mut total_cycles = 0u64;
    let mut cycle_range = (u64::MAX, 0u64);
    for &cycles in &per_combo_cycles {
        total_cycles += cycles;
        cycle_range.0 = cycle_range.0.min(cycles);
        cycle_range.1 = cycle_range.1.max(cycles);
    }
    SweepOutcome {
        combos: per_combo_cycles.len(),
        total_cycles,
        cycle_range,
    }
}

/// Run and verify one sweep combination; returns its simulated cycles.
fn run_one_combo(
    base: &Heap,
    snapshot: &Snapshot,
    seq: &hwgc_core::SeqOutcome,
    lint: bool,
    policy_kind: PolicyKind,
    seed: u64,
    cores: usize,
) -> u64 {
    let label = format!("{policy_kind:?}/seed {seed:#x}/{cores} cores");
    let mut heap = base.clone();
    let gc_cfg = GcConfig {
        mem: MemConfig::default().with_service_reorder(seed ^ 0x000F_F5E7),
        ..GcConfig::with_cores(cores)
    };
    let mut policy = policy_kind.build(seed);
    let out = if lint {
        let mut trace = SignalTrace::with_events(64);
        let out = SimCollector::new(gc_cfg).collect_scheduled_traced(
            &mut heap,
            policy.as_mut(),
            &mut trace,
        );
        let violations = lint_trace(&trace);
        assert!(
            violations.is_empty(),
            "{label}: trace lint found violations:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        out
    } else {
        SimCollector::new(gc_cfg).collect_scheduled(&mut heap, policy.as_mut())
    };
    verify_collection(&heap, out.free, snapshot)
        .unwrap_or_else(|e| panic!("{label}: verification failed: {e}"));
    assert_eq!(
        out.stats.objects_copied, seq.objects_copied,
        "{label}: object copy count diverged from the sequential reference"
    );
    assert_eq!(
        out.stats.words_copied, seq.words_copied,
        "{label}: word copy count diverged from the sequential reference"
    );
    assert_eq!(out.free, seq.free, "{label}: allocation frontier diverged");
    out.stats.total_cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs;

    #[test]
    fn combo_count_matches_dimensions() {
        let cfg = SweepConfig::smoke();
        assert_eq!(cfg.combos(), 5 * 2 * 20);
        assert_eq!(SweepConfig::nightly().combos(), 7 * 2 * 100);
        let with_static = SweepConfig {
            policies: vec![PolicyKind::Static, PolicyKind::Random],
            ..SweepConfig::smoke()
        };
        assert_eq!(with_static.combos(), 5 * (20 + 1));
    }

    #[test]
    fn tiny_sweep_passes_on_a_contended_graph() {
        let cfg = SweepConfig {
            core_counts: vec![2, 4],
            seeds: vec![1, 2, 3],
            policies: vec![
                PolicyKind::Static,
                PolicyKind::Random,
                PolicyKind::Adversarial,
            ],
            lint: true,
        };
        let outcome = run_sweep(&|| graphs::shared_hub(24), &cfg);
        assert_eq!(outcome.combos, cfg.combos());
        assert!(outcome.total_cycles > 0);
    }

    #[test]
    fn schedules_differ_in_timing_but_not_function() {
        let cfg = SweepConfig {
            core_counts: vec![4],
            seeds: (0..8).collect(),
            policies: vec![PolicyKind::Random],
            lint: false,
        };
        let outcome = run_sweep(&|| graphs::diamond_mesh(10), &cfg);
        // run_sweep itself asserts functional equality; across 8 random
        // schedules at 4 cores, at least two should differ in latency.
        assert!(
            outcome.cycle_range.0 < outcome.cycle_range.1,
            "all schedules produced identical cycle counts {:?}",
            outcome.cycle_range
        );
    }
}
