//! The pure parsers behind the `HWGC_*` environment knobs, on arbitrary
//! strings: none panics, every input in a knob's documented grammar
//! means what the grammar says, and every input outside it lands on the
//! knob's documented fallback.
//!
//! Each knob's grammar is restated here from its documentation, token
//! by token, and the parser is held to it:
//!
//! * `HWGC_MEM_BACKEND` (`backend_from`, `PagePolicy::parse`);
//! * `HWGC_CACHE` (`CacheMode::parse`);
//! * `HWGC_JOBS` / `HWGC_WORKERS` (`jobs_from`, `workers_from`);
//! * `HWGC_CACHE_VERIFY_PCT` (`verify_pct_from`).
//!
//! `PROPTEST_CASES` raises the case count (CI runs this in release with
//! 20000).

use hwgc_jobs::{jobs_from, verify_pct_from, workers_from, CacheMode};
use hwgc_memsim::{backend_from, DramConfig, MemBackendKind, PagePolicy};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Words of every knob's grammar, near misses, separators, whitespace
/// and characters no grammar uses.
const TOKENS: &[&str] = &[
    "dram",
    "DRAM",
    "Dram",
    "fixed",
    "FIXED",
    ":",
    "::",
    "150ns",
    "120ns",
    "100ns",
    "80ns",
    "100NS",
    "90ns",
    "open",
    "closed",
    "Closed",
    "opened",
    "off",
    "ro",
    "rw",
    "RW",
    "verify",
    "none",
    "0",
    "1",
    "2",
    "7",
    "25",
    "100",
    "101",
    "-1",
    "+3",
    "2.5",
    "1e3",
    "00",
    "18446744073709551615",
    "18446744073709551616",
    "true",
    "True",
    "on",
    "yes",
    "no",
    " ",
    "\t",
    "\n",
    "\u{a0}",
    "\u{2003}",
    "x",
    "é",
    "中",
    "\u{0}",
    "\u{7f}",
];

fn arb_text(rng: &mut TestRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.next_u64() % 6 {
        if rng.next_u64().is_multiple_of(8) {
            // Any scalar value.
            let c = loop {
                if let Some(c) = char::from_u32((rng.next_u64() % 0x11_0000) as u32) {
                    break c;
                }
            };
            s.push(c);
        } else {
            s.push_str(TOKENS[(rng.next_u64() % TOKENS.len() as u64) as usize]);
        }
    }
    s
}

/// An arbitrary knob value.
struct Text;

impl Strategy for Text {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        arb_text(rng)
    }
}

/// `HWGC_MEM_BACKEND`: unset, empty or `fixed` is the fixed backend;
/// `dram` followed by `:`-separated presets and page policies is DRAM;
/// ASCII case and surrounding whitespace do not matter; anything else
/// is the fixed backend.
fn backend_grammar(var: Option<&str>) -> MemBackendKind {
    let text = var.unwrap_or("").trim().to_ascii_lowercase();
    let mut parts = text.split(':');
    if parts.next() != Some("dram") {
        return MemBackendKind::Fixed;
    }
    let mut cfg = DramConfig::default();
    for part in parts {
        let preset = ["150ns", "120ns", "100ns", "80ns"].contains(&part);
        match part {
            "open" => cfg.page_policy = PagePolicy::Open,
            "closed" => cfg.page_policy = PagePolicy::Closed,
            _ if preset => {
                let policy = cfg.page_policy;
                cfg = DramConfig::preset(part).expect("a documented preset");
                cfg.page_policy = policy;
            }
            _ => return MemBackendKind::Fixed,
        }
    }
    MemBackendKind::Dram(cfg)
}

/// A positive worker count, or `None` (zero, garbage, unset).
fn count_grammar(var: Option<&str>) -> Option<usize> {
    let digits = var?.trim();
    let digits = digits.strip_prefix('+').unwrap_or(digits);
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse::<usize>().ok().filter(|&n| n >= 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn mem_backend_follows_its_grammar(text in Text) {
        prop_assert_eq!(backend_from(Some(&text)), backend_grammar(Some(&text)));
        prop_assert_eq!(backend_from(None), MemBackendKind::Fixed);
        let policy = match text.as_str() {
            "open" => Some(PagePolicy::Open),
            "closed" => Some(PagePolicy::Closed),
            _ => None,
        };
        prop_assert_eq!(PagePolicy::parse(&text), policy);
    }

    #[test]
    fn cache_mode_follows_its_grammar(text in Text) {
        let want = match text.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(CacheMode::Off),
            "ro" | "" => Some(CacheMode::Ro),
            "rw" => Some(CacheMode::Rw),
            "verify" => Some(CacheMode::Verify),
            _ => None,
        };
        prop_assert_eq!(CacheMode::parse(&text), want);
    }

    #[test]
    fn worker_counts_follow_their_grammar(text in Text) {
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        let want = count_grammar(Some(&text));
        prop_assert_eq!(jobs_from(Some(&text)), want.unwrap_or(machine));
        prop_assert_eq!(workers_from(Some(&text)), want.unwrap_or(0));
        prop_assert_eq!(jobs_from(None), machine);
        prop_assert_eq!(workers_from(None), 0);
    }

    #[test]
    fn verify_pct_follows_its_grammar(text in Text) {
        let digits = text.trim();
        let digits = digits.strip_prefix('+').unwrap_or(digits);
        let want = if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            // Past `u64::MAX` is not a number the knob can hold.
            digits.parse::<u64>().map_or(25, |pct| pct.min(100))
        } else {
            25
        };
        prop_assert_eq!(verify_pct_from(Some(&text)), want);
        prop_assert_eq!(verify_pct_from(None), 25);
    }
}

#[test]
fn documented_examples() {
    assert_eq!(
        backend_from(Some(" DRAM:100ns:Closed ")),
        backend_grammar(Some("dram:100ns:closed"))
    );
    assert!(
        matches!(backend_from(Some("dram:100ns:closed")), MemBackendKind::Dram(c) if c.page_policy == PagePolicy::Closed)
    );
    assert_eq!(backend_from(Some("dram:90ns")), MemBackendKind::Fixed);
    assert_eq!(backend_from(Some("dram:")), MemBackendKind::Fixed);
    assert_eq!(verify_pct_from(Some(" 250 ")), 100);
    assert_eq!(verify_pct_from(Some("-5")), 25);
    assert_eq!(CacheMode::parse(" RW "), Some(CacheMode::Rw));
}
