//! Differential regression wall for the `MemBackend` trait refactor.
//!
//! The engine used to drive `MemorySystem` directly; it now goes through
//! the `MemBackend` trait (statically dispatched). That refactor claimed
//! bit-exactness. This file makes the claim permanent:
//!
//! 1. every cycle count and `GcStats` digest in the committed
//!    `BENCH_simulator.json` baseline must still be reproduced *exactly*
//!    by the default (fixed-latency) backend, and
//! 2. on the Figure 6 configuration (+20 cycles per access, the regime
//!    where memory timing dominates), the cycle-stamped SB event stream
//!    must match the committed fingerprint byte for byte.
//!
//! A mismatch here means a semantic change to the default timing model —
//! which invalidates every committed experiment table. If the change is
//! *intentional*, re-run `bench_baseline` to refresh the baseline and
//! update the pinned fingerprint printed in the failure message.

use hwgc_core::{GcConfig, SignalTrace, SimCollector};
use hwgc_jobs::par_map;
use hwgc_workloads::{Preset, WorkloadSpec};
use std::fmt::Write as _;

/// One committed combo: preset, cores, cycles and `GcStats::digest()`.
type Combo = (Preset, usize, u64, u64);

/// Parse the `combos` array of `BENCH_simulator.json` without a JSON
/// dependency: each combo is one line shaped
/// `{"preset": "javac", "cores": 4, "cycles": 106237, "stats_digest": "…", ...}`.
fn baseline_combos() -> Vec<Combo> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simulator.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_simulator.json");
    let mut combos = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"preset\": \"") else {
            continue;
        };
        let field = |key: &str, radix: u32| -> u64 {
            let tag = format!("\"{key}\": ");
            let at = rest
                .find(&tag)
                .unwrap_or_else(|| panic!("no {key} in {line}"));
            let digits: String = rest[at + tag.len()..]
                .trim_start_matches('"')
                .chars()
                .take_while(|c| c.is_digit(radix))
                .collect();
            u64::from_str_radix(&digits, radix)
                .unwrap_or_else(|e| panic!("bad {key} in {line}: {e}"))
        };
        let name: String = rest.chars().take_while(|&c| c != '"').collect();
        let preset = Preset::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .unwrap_or_else(|| panic!("unknown preset {name:?} in baseline"));
        combos.push((
            preset,
            field("cores", 10) as usize,
            field("cycles", 10),
            field("stats_digest", 16),
        ));
    }
    assert!(
        combos.len() >= 24,
        "baseline parse found only {} combos — format drift?",
        combos.len()
    );
    combos
}

/// Every committed baseline cycle count and stats digest, reproduced
/// exactly through the trait-dispatched default backend. The digest
/// covers every stall and lock counter, so a change that moves them
/// without moving `total_cycles` fails here too.
#[test]
fn default_backend_reproduces_the_committed_baseline_exactly() {
    let combos = baseline_combos();
    par_map(&combos, |_, &(preset, cores, want_cycles, want_digest)| {
        let mut heap = WorkloadSpec::new(preset, 42).build();
        let out = SimCollector::new(GcConfig::with_cores(cores)).collect(&mut heap);
        assert_eq!(
            out.stats.total_cycles,
            want_cycles,
            "{}/{cores}c: trait-dispatched default backend diverged from \
             BENCH_simulator.json — the refactor is no longer bit-exact \
             (or the timing model changed without refreshing the baseline)",
            preset.name()
        );
        assert_eq!(
            out.stats.digest(),
            want_digest,
            "{}/{cores}c: stats digest {:016x} diverged from BENCH_simulator.json's \
             {want_digest:016x} at equal cycles — a stall or lock counter moved \
             (re-run bench_baseline if the change is intentional)",
            preset.name(),
            out.stats.digest()
        );
    });
}

/// FNV-1a, stable and dependency-free; collisions are irrelevant here —
/// the test asks "did anything change", not "what changed".
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Committed fingerprint of the Figure 6 SB event stream (javac, 4
/// cores, +20 cycles per access): (event count, total cycles, FNV-1a of
/// the Debug rendering of every record in order).
const FIG6_EVENTS: usize = 213201;
const FIG6_CYCLES: u64 = 603516;
const FIG6_FNV: u64 = 0xd5ca_4752_de69_1272;

#[test]
fn fig6_sb_event_stream_matches_the_committed_fingerprint() {
    let mut heap = WorkloadSpec::new(Preset::Javac, 42).build();
    let cfg = GcConfig {
        n_cores: 4,
        mem: hwgc_memsim::MemConfig::default().with_extra_latency(20),
        ..GcConfig::default()
    };
    let mut trace = SignalTrace::with_events(1 << 40);
    let out = SimCollector::new(cfg).collect_traced(&mut heap, &mut trace);

    let mut rendered = String::new();
    for rec in trace.events() {
        writeln!(rendered, "{rec:?}").unwrap();
    }
    let got = (
        trace.events().len(),
        out.stats.total_cycles,
        fnv1a(rendered.as_bytes()),
    );
    assert_eq!(
        got,
        (FIG6_EVENTS, FIG6_CYCLES, FIG6_FNV),
        "fig6 SB event stream diverged from the committed fingerprint \
         (got {} events, {} cycles, fnv {:#018x}). If the timing change is \
         intentional, refresh BENCH_simulator.json via bench_baseline and \
         update FIG6_EVENTS/FIG6_CYCLES/FIG6_FNV to these values.",
        got.0,
        got.1,
        got.2
    );
}
