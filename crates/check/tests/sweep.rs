//! The schedule-exploration sweep (ISSUE acceptance: ≥ 200 policy-seed ×
//! core-count combinations in the CI smoke run, every one verified).

use hwgc_check::graphs;
use hwgc_check::{run_sweep, PolicyKind, SweepConfig};

#[test]
fn smoke_sweep_covers_at_least_200_combinations() {
    let cfg = SweepConfig::smoke();
    assert!(
        cfg.combos() >= 200,
        "smoke config shrank to {} combos",
        cfg.combos()
    );
    // The shared hub maximizes header-lock contention: every spoke scan
    // races for the same fromspace header.
    let outcome = run_sweep(&|| graphs::shared_hub(48), &cfg);
    assert_eq!(outcome.combos, cfg.combos());
    assert!(
        outcome.cycle_range.0 < outcome.cycle_range.1,
        "200 schedules produced identical timing {:?} — the policies are not reaching the engine",
        outcome.cycle_range
    );
}

#[test]
fn quick_sweep_on_every_catalog_shape() {
    // A narrow sweep per shape keeps CI time bounded while still running
    // every adversarial structure under both seeded policies.
    let cfg = SweepConfig {
        core_counts: vec![2, 8],
        seeds: vec![0x5EED, 0xFACE],
        policies: vec![PolicyKind::Random, PolicyKind::Adversarial],
        lint: true,
    };
    for (name, heap) in graphs::catalog() {
        let outcome = run_sweep(&|| heap.clone(), &cfg);
        assert_eq!(outcome.combos, cfg.combos(), "{name}");
    }
}

/// The nightly full sweep: every catalog shape × the nightly configuration
/// (7 core counts × 2 policies × 100 seeds = 1400 combinations per shape).
/// Run with `cargo test -p hwgc-check --test sweep -- --ignored`.
#[test]
#[ignore = "full sweep — minutes of runtime; run nightly or on demand"]
fn full_sweep_all_shapes() {
    let cfg = SweepConfig::nightly();
    for (name, heap) in graphs::catalog() {
        let outcome = run_sweep(&|| heap.clone(), &cfg);
        assert_eq!(outcome.combos, cfg.combos(), "{name}");
        println!(
            "{name}: {} combos, cycle range {:?}",
            outcome.combos, outcome.cycle_range
        );
    }
}
