//! Property tests for the JSON reader and the ledger-line readers built
//! on it:
//!
//! * arbitrary `Json` values round-trip through `to_string_compact` and
//!   `Json::parse`;
//! * on arbitrary documents and on truncated, bit-flipped and spliced
//!   variants of a real cache line, `Json::parse` agrees with the
//!   reference reader in `json_reference` on every `Ok` value and on
//!   `Ok` versus `Err`;
//! * the tokenizer's validating skip accepts exactly what the reference
//!   accepts, and `Reader::raw` keeps exactly the text
//!   `Json::to_string_compact` writes for the value;
//! * `LedgerRecord::from_json_str` and `LedgerStore::load_tolerant` never
//!   panic on those inputs, a record is read only from a valid JSON
//!   line and writes back to a line that reads as the same record, and a
//!   tolerant load accounts for every line.
//!
//! `PROPTEST_CASES` raises the case count (CI runs these in release with
//! 20000).

mod json_reference;

use hwgc_obs::json::{Json, Reader};
use hwgc_obs::{LedgerRecord, LedgerStore, StoreError};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// One line of a workspace cache file, as a cold sweep wrote it (1-core
/// `javacc`, fixed backend).
const CACHE_LINE: &str = r#"{"schema":"hwgc-ledger-v1","binary":"fig5_scaling","workload":"javacc/seed42/scale1","engine":"naive","backend":"fixed","config_hash":"eef94dc541e6d730","config":{"backend":"fixed","bandwidth":"10","engine":"naive","extra_latency":"0","fast_forward":"true","header_cache_entries":"0","header_fifo_capacity":"4096","latency":"5","line_split":"None","max_cycles":"2000000000","multiport_sb":"false","n_cores":"1","service_reorder_seed":"None","test_before_lock":"false","tick_permutation_seed":"None"},"env":{},"stats_digest":"e855ac7b4500f650","total_cycles":91719,"efficacy":{},"result":{"free":82478,"stats":{"chunks_claimed":3500,"empty_worklist_cycles":52,"fifo":[3500,0,3500,0,689],"mem":{"issued":[6088,6999,20978,20978],"comparator_blocked_cycles":0,"header_cache_hits":0,"header_cache_misses":0,"queue_occupancy_sum":55043,"queue_busy_cycles":31532,"cycles":91711},"objects_copied":3500,"per_core":[[0,0,0,17500,7300,30440,2399,0,5]],"pointers_visited":6968,"root_phase_cycles":8,"roots_processed":1,"stall":[0,0,0,17500,7300,30440,2399,0,5],"sync":{"acquisitions":[3500,3500,6088],"failed_attempts":[0,0,0]},"total_cycles":91719,"words_copied":27978}}}"#;

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[below(rng, from.len() as u64) as usize]
}

fn arb_char(rng: &mut TestRng) -> char {
    match below(rng, 8) {
        // What the writer escapes.
        0 => pick(rng, &['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}']),
        // Other control characters (written as `\u00XX`).
        1 => char::from_u32(below(rng, 0x20) as u32).expect("ASCII"),
        2 => pick(
            rng,
            &[
                'é',
                'ß',
                '中',
                '€',
                '😀',
                '\u{7f}',
                '\u{80}',
                '\u{fffd}',
                '\u{10ffff}',
            ],
        ),
        // Any scalar value.
        3 => loop {
            if let Some(c) = char::from_u32(below(rng, 0x11_0000) as u32) {
                break c;
            }
        },
        _ => char::from_u32(0x20 + below(rng, 0x5f) as u32).expect("printable ASCII"),
    }
}

fn arb_string(rng: &mut TestRng) -> String {
    let len = below(rng, 12);
    (0..len).map(|_| arb_char(rng)).collect()
}

fn arb_int(rng: &mut TestRng) -> i128 {
    let wide = |rng: &mut TestRng| i128::from(rng.next_u64() as i64) * i128::from(rng.next_u64());
    match below(rng, 10) {
        0 => pick(rng, &[i128::MIN, i128::MAX, i128::MIN + 1, i128::MAX - 1]),
        1 => pick(
            rng,
            &[
                i128::from(u64::MAX),
                i128::from(i64::MIN),
                i128::from(i64::MAX),
                0,
                -1,
            ],
        ),
        // Either side of the 19-digit fast path and of `u64::MAX`.
        2 => pick(
            rng,
            &[
                9_999_999_999_999_999_999,
                10_000_000_000_000_000_000,
                999_999_999_999_999_999,
                -9_999_999_999_999_999_999,
                i128::from(u64::MAX) + 1,
                99_999_999_999_999_999_999,
            ],
        ),
        3 => -i128::from(below(rng, 1000)),
        4 => wide(rng),
        // Mostly 20 digits, often past `u64::MAX`.
        5 => i128::from(rng.next_u64()) * i128::from(1 + below(rng, 16)),
        _ => i128::from(rng.next_u64() >> below(rng, 64)),
    }
}

fn arb_float(rng: &mut TestRng) -> f64 {
    match below(rng, 3) {
        0 => pick(rng, &[0.5, -2.5, 1e300, -1e-300, 0.1, 3.0, -0.0, 1e16]),
        1 => (rng.next_u64() as i64) as f64 / 1024.0,
        _ => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                break f;
            }
        },
    }
}

fn arb_json(rng: &mut TestRng, depth: u32) -> Json {
    let kind = if depth == 0 || below(rng, 3) == 0 {
        below(rng, 6)
    } else {
        6 + below(rng, 2)
    };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(below(rng, 2) == 1),
        2 => Json::Int(arb_int(rng)),
        3 => Json::Float(arb_float(rng)),
        4 | 5 => Json::Str(arb_string(rng)),
        6 => Json::Arr(
            (0..below(rng, 5))
                .map(|_| arb_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..below(rng, 5))
                .map(|_| (arb_string(rng), arb_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Arbitrary `Json` values, nested at most `.0` deep.
struct ArbJson(u32);

impl Strategy for ArbJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        arb_json(rng, self.0)
    }
}

/// Bytes worth splicing into a document: structure, escapes, number
/// syntax, whitespace, a multi-byte character's lead byte.
const SPLICE: &[&[u8]] = &[
    b"\"", b"\\", b"\\u", b"\\u00", b"[", b"]", b"{", b"}", b":", b",", b"-", b"0", b"9", b".",
    b"e", b"E+", b" ", b"\t", b"\n", b"null", b"tru", b"\xc3", b"\xff", b"1e999",
];

/// A mutated copy of `base`: truncated, bit-flipped, spliced, or
/// untouched. The result may not be UTF-8.
fn mutate(rng: &mut TestRng, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..=below(rng, 3) {
        let at = below(rng, bytes.len() as u64 + 1) as usize;
        match below(rng, 5) {
            0 => bytes.truncate(at),
            1 | 2 if at < bytes.len() => bytes[at] ^= 1 << below(rng, 8),
            3 => {
                let splice = pick(rng, SPLICE);
                bytes.splice(at..at, splice.iter().copied());
            }
            4 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    bytes
}

/// A document to feed both readers: a variant of the cache line or of an
/// arbitrary value's text. Depth stays far below the nesting cap.
struct Variant;

impl Strategy for Variant {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let base = if below(rng, 2) == 0 {
            CACHE_LINE.as_bytes().to_vec()
        } else {
            arb_json(rng, 4).to_string_compact().into_bytes()
        };
        mutate(rng, &base)
    }
}

/// `Json::parse` and the reference agree: equal `Ok` values, or both `Err`.
fn assert_agrees(text: &str) {
    match (Json::parse(text), json_reference::parse(text)) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "{text:?}"),
        (Err(_), Err(_)) => {}
        (new, old) => panic!("readers disagree on {text:?}: {new:?} vs {old:?}"),
    }
}

/// The tokenizer's skip accepts `text` exactly when the reference
/// parses it, and `Reader::raw` keeps the compact text of the value.
fn assert_skip_agrees(text: &str) {
    let mut r = Reader::new(text);
    let skipped = r.skip().and_then(|()| r.finish());
    match (skipped, json_reference::parse(text)) {
        (Ok(()), Ok(value)) => {
            let mut r = Reader::new(text);
            let raw = r.raw().expect("skip accepted it");
            assert_eq!(raw.as_str(), value.to_string_compact(), "{text:?}");
        }
        (Err(_), Err(_)) => {}
        (new, old) => panic!("skip and the reference disagree on {text:?}: {new:?} vs {old:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn values_round_trip_through_text(value in ArbJson(4)) {
        let text = value.to_string_compact();
        prop_assert_eq!(Json::parse(&text), Ok(value));
        assert_agrees(&text);
    }

    #[test]
    fn reader_agrees_with_the_reference_on_mutated_documents(bytes in Variant) {
        assert_agrees(&String::from_utf8_lossy(&bytes));
        assert_skip_agrees(&String::from_utf8_lossy(&bytes));
        if let Ok(text) = std::str::from_utf8(&bytes) {
            assert_agrees(text);
            assert_skip_agrees(text);
        }
    }

    #[test]
    fn raw_values_keep_their_compact_text(value in ArbJson(4), spaced in 0u32..2) {
        let compact = value.to_string_compact();
        // The same value with whitespace before every string and
        // structural character.
        let text = if spaced == 1 {
            let mut out = String::new();
            let mut in_string = false;
            let mut escaped = false;
            for c in compact.chars() {
                if in_string {
                    in_string = escaped || c != '"';
                    escaped = !escaped && c == '\\';
                    out.push(c);
                } else {
                    in_string = c == '"';
                    if matches!(c, '"' | '[' | ']' | '{' | '}' | ',' | ':') {
                        out.push_str(" \t");
                    }
                    out.push(c);
                }
            }
            out.push('\n');
            out
        } else {
            compact.clone()
        };
        assert_skip_agrees(&text);
        let mut r = Reader::new(&text);
        prop_assert_eq!(r.raw().unwrap().as_str(), compact.as_str());
    }

    #[test]
    fn ledger_records_come_only_from_json_and_write_back(bytes in Variant) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(rec) = LedgerRecord::from_json_str(&text) {
            prop_assert!(json_reference::parse(&text).is_ok(), "{:?}", text);
            let line = rec.to_json_string();
            let again = LedgerRecord::from_json_str(&line).unwrap();
            prop_assert_eq!(again.to_json_string(), line);
            prop_assert_eq!(again, rec);
        }
    }

    #[test]
    fn ledger_readers_never_panic_on_mutated_lines(
        lines in prop::collection::vec(Variant, 1..4),
        keep_original in 0u32..2,
    ) {
        for line in &lines {
            let _ = LedgerRecord::from_json_str(&String::from_utf8_lossy(line));
        }
        let mut file = Vec::new();
        if keep_original == 1 {
            file.extend_from_slice(CACHE_LINE.as_bytes());
            file.push(b'\n');
        }
        for line in &lines {
            file.extend_from_slice(line);
            file.push(b'\n');
        }
        let path = std::env::temp_dir().join(format!(
            "hwgc_proptest_json_{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, &file).unwrap();
        match LedgerStore::load_tolerant(&path) {
            Ok((store, report)) => {
                // Every non-blank line is accepted or quarantined. (A
                // mutation can add a line break, so count them here.)
                let non_blank = file
                    .split(|&b| b == b'\n')
                    .filter(|l| !String::from_utf8_lossy(l).trim().is_empty())
                    .count();
                prop_assert_eq!(report.accepted + report.quarantined.len(), non_blank);
                prop_assert!(store.len() <= report.accepted);
            }
            // A mutated digest under an intact config hash is a real
            // conflict with the original line: the load must refuse it.
            Err(e) => prop_assert!(matches!(e, StoreError::Conflict { .. }), "{e}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn the_cache_line_is_a_valid_record() {
    let rec = LedgerRecord::from_json_str(CACHE_LINE).unwrap();
    assert_eq!(rec.to_json_string(), CACHE_LINE);
    assert_agrees(CACHE_LINE);
    assert_skip_agrees(CACHE_LINE);
}

#[test]
fn a_line_with_a_malformed_payload_is_quarantined() {
    let path = std::env::temp_dir().join(format!(
        "hwgc_proptest_json_payload_{}.jsonl",
        std::process::id()
    ));
    let broken = CACHE_LINE.replace("\"fifo\":[3500,", "\"fifo\":[3500,,");
    std::fs::write(&path, format!("{broken}\n")).unwrap();
    let (store, report) = LedgerStore::load_tolerant(&path).unwrap();
    assert!(store.is_empty());
    assert_eq!(report.quarantined.len(), 1);
    assert!(
        report.quarantined[0].contains("JSON error"),
        "{:?}",
        report.quarantined
    );
    let _ = std::fs::remove_file(&path);
}
