//! The structured run ledger: one JSONL record per simulation, the
//! provenance substrate the ROADMAP's content-addressed result cache and
//! autopilot key on.
//!
//! Every harness binary can append a [`LedgerRecord`] per run: which
//! binary ran which workload under which configuration (engine, backend,
//! env knobs), a digest of the resulting `GcStats`, optionally the SB
//! event-stream fingerprint, the deterministic efficacy counters from
//! `hostprof`, and — clearly separated — nondeterministic host timings.
//!
//! The **config hash** ([`LedgerRecord::config_hash`]) is the
//! content-address: FNV-1a over the *sorted* configuration key/value
//! pairs plus workload, engine and backend. Field order never matters
//! (pairs are sorted inside the hash), and no output or wall-clock field
//! participates — two runs of the same configuration hash identically no
//! matter how long they took or what they produced. Host-timing fields
//! are quarantined by construction: they live in
//! [`LedgerRecord::host`] and serialize under keys prefixed `host_`.

use std::path::Path;

use crate::json::{Json, JsonError};

/// JSON schema tag of [`LedgerRecord::to_json`].
pub const LEDGER_SCHEMA: &str = "hwgc-ledger-v1";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One run's provenance record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerRecord {
    /// Harness binary that produced the run (`bench_baseline`, …).
    pub binary: String,
    /// Workload / preset label.
    pub workload: String,
    /// Engine kind actually run (`naive` / `sparse`).
    pub engine: String,
    /// Memory backend kind (`fixed` / `dram`).
    pub backend: String,
    /// Configuration key/value pairs (hashed sorted; order-free).
    pub config: Vec<(String, String)>,
    /// Environment knobs in effect (`HWGC_*`; hashed sorted).
    pub env: Vec<(String, String)>,
    /// Digest of the run's `GcStats` (an *output*; not hashed).
    pub stats_digest: u64,
    /// Total simulated cycles — the one-number summary `ledger_diff`
    /// renders deltas of (an *output*; not hashed). `None` on records
    /// written before the field existed.
    pub total_cycles: Option<u64>,
    /// SB event-stream FNV fingerprint, when the run logged SB events.
    pub sb_fingerprint: Option<u64>,
    /// Deterministic efficacy counters (windows fired, veto reasons,
    /// wake counts, ff jumps, …) — golden-testable, not hashed.
    pub efficacy: Vec<(String, u64)>,
    /// Full result payload for the content-addressed cache (the complete
    /// `GcStats` plus allocation frontier, serialized by `hwgc-check`'s
    /// cache layer). Deterministic, not hashed, and absent from the
    /// committed digest-only ledger — only workspace cache files carry
    /// it.
    pub result: Option<Json>,
    /// Nondeterministic host fields. Serialized with a `host_` prefix;
    /// excluded from the config hash by construction.
    pub host: Vec<(String, Json)>,
}

impl LedgerRecord {
    /// The content-address of this run's *configuration*: FNV-1a over
    /// workload, engine, backend and the sorted config and env pairs.
    /// Outputs (`stats_digest`, fingerprint, efficacy) and every `host`
    /// field are excluded — the hash identifies what was asked for, not
    /// what happened or how fast.
    pub fn config_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |s: &str| {
            for &b in s.as_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            // Field separator: no byte of a UTF-8 string is 0xFF.
            h = (h ^ 0xFF).wrapping_mul(FNV_PRIME);
        };
        eat(&self.workload);
        eat(&self.engine);
        eat(&self.backend);
        let mut pairs: Vec<(&str, &str, &str)> = self
            .config
            .iter()
            .map(|(k, v)| ("config", k.as_str(), v.as_str()))
            .chain(
                self.env
                    .iter()
                    .map(|(k, v)| ("env", k.as_str(), v.as_str())),
            )
            .collect();
        pairs.sort_unstable();
        for (section, k, v) in pairs {
            eat(section);
            eat(k);
            eat(v);
        }
        h
    }

    /// Serialize as one [`LEDGER_SCHEMA`] JSON object. Deterministic
    /// fields come first; every nondeterministic field is prefixed
    /// `host_` so a reader (or a test) can split the record without a
    /// schema in hand.
    pub fn to_json(&self) -> Json {
        let hex = |v: u64| Json::Str(format!("{v:016x}"));
        let mut config = self.config.clone();
        config.sort();
        let mut env = self.env.clone();
        env.sort();
        let mut fields = vec![
            ("schema".to_string(), Json::Str(LEDGER_SCHEMA.to_string())),
            ("binary".to_string(), Json::Str(self.binary.clone())),
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("engine".to_string(), Json::Str(self.engine.clone())),
            ("backend".to_string(), Json::Str(self.backend.clone())),
            ("config_hash".to_string(), hex(self.config_hash())),
            (
                "config".to_string(),
                Json::Obj(
                    config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "env".to_string(),
                Json::Obj(
                    env.iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("stats_digest".to_string(), hex(self.stats_digest)),
        ];
        if let Some(tc) = self.total_cycles {
            fields.push(("total_cycles".to_string(), Json::Int(i128::from(tc))));
        }
        if let Some(fp) = self.sb_fingerprint {
            fields.push(("sb_fingerprint".to_string(), hex(fp)));
        }
        fields.push((
            "efficacy".to_string(),
            Json::Obj(
                self.efficacy
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Int(i128::from(*v))))
                    .collect(),
            ),
        ));
        if let Some(result) = &self.result {
            fields.push(("result".to_string(), result.clone()));
        }
        for (k, v) in &self.host {
            fields.push((format!("host_{k}"), v.clone()));
        }
        Json::Obj(fields)
    }

    /// Parse a record previously produced by [`LedgerRecord::to_json`].
    pub fn from_json_str(text: &str) -> Result<LedgerRecord, String> {
        LedgerRecord::from_json_str_hashed(text).map(|(rec, _)| rec)
    }

    /// [`LedgerRecord::from_json_str`] plus the record's config hash,
    /// which the parse verifies against the recorded one anyway. Every
    /// value moves out of the parsed tree; nothing is cloned.
    pub(crate) fn from_json_str_hashed(text: &str) -> Result<(LedgerRecord, u64), String> {
        let schema_err = || format!("schema is not {LEDGER_SCHEMA}");
        let Json::Obj(mut fields) = Json::parse(text).map_err(|e: JsonError| e.to_string())? else {
            return Err(schema_err());
        };
        if take(&mut fields, "schema").as_ref().and_then(Json::as_str) != Some(LEDGER_SCHEMA) {
            return Err(schema_err());
        }
        let efficacy = match take(&mut fields, "efficacy") {
            Some(Json::Obj(counters)) => counters
                .into_iter()
                .map(
                    |(k, val)| match val.as_int().and_then(|i| u64::try_from(i).ok()) {
                        Some(n) => Ok((k, n)),
                        None => Err(format!("`efficacy.{k}` is not a u64")),
                    },
                )
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing object field `efficacy`".to_string()),
        };
        let mut rec = LedgerRecord {
            binary: take_str(&mut fields, "binary")?,
            workload: take_str(&mut fields, "workload")?,
            engine: take_str(&mut fields, "engine")?,
            backend: take_str(&mut fields, "backend")?,
            config: take_pairs(&mut fields, "config")?,
            env: take_pairs(&mut fields, "env")?,
            stats_digest: take_hex(&mut fields, "stats_digest")?,
            total_cycles: match take(&mut fields, "total_cycles") {
                Some(tc) => Some(
                    tc.as_int()
                        .and_then(|i| u64::try_from(i).ok())
                        .ok_or("`total_cycles` is not a u64")?,
                ),
                None => None,
            },
            sb_fingerprint: if fields.iter().any(|(k, _)| k == "sb_fingerprint") {
                Some(take_hex(&mut fields, "sb_fingerprint")?)
            } else {
                None
            },
            efficacy,
            result: take(&mut fields, "result"),
            host: Vec::new(),
        };
        let recorded = take_hex(&mut fields, "config_hash")?;
        rec.host = fields
            .into_iter()
            .filter(|(k, _)| k.starts_with("host_"))
            .map(|(mut k, val)| {
                k.drain(.."host_".len());
                (k, val)
            })
            .collect();
        let computed = rec.config_hash();
        if recorded != computed {
            return Err(format!(
                "config_hash mismatch: recorded {recorded:016x}, computed {computed:016x}"
            ));
        }
        Ok((rec, computed))
    }

    /// Append this record as one line to the JSONL file at `path`
    /// (created, with parent directories, on first use).
    pub fn append_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        self.to_json().write_line(&mut f)
    }
}

/// Move the value of the first field named `key` out of `fields`,
/// leaving `null` in its place (first occurrence wins, as in
/// [`Json::get`]).
fn take(fields: &mut [(String, Json)], key: &str) -> Option<Json> {
    fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| std::mem::replace(v, Json::Null))
}

fn take_str(fields: &mut [(String, Json)], key: &str) -> Result<String, String> {
    match take(fields, key) {
        Some(Json::Str(s)) => Ok(s),
        _ => Err(format!("missing string field `{key}`")),
    }
}

fn take_hex(fields: &mut [(String, Json)], key: &str) -> Result<u64, String> {
    let raw = take_str(fields, key)?;
    u64::from_str_radix(&raw, 16).map_err(|e| format!("bad hex in `{key}`: {e}"))
}

fn take_pairs(fields: &mut [(String, Json)], key: &str) -> Result<Vec<(String, String)>, String> {
    match take(fields, key) {
        Some(Json::Obj(pairs)) => pairs
            .into_iter()
            .map(|(k, val)| match val {
                Json::Str(s) => Ok((k, s)),
                _ => Err(format!("`{key}.{k}` is not a string")),
            })
            .collect(),
        _ => Err(format!("missing object field `{key}`")),
    }
}

/// Parse every record of a JSONL ledger file (blank lines skipped).
pub fn read_jsonl(path: &Path) -> Result<Vec<LedgerRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            LedgerRecord::from_json_str(line).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> LedgerRecord {
        LedgerRecord {
            binary: "bench_baseline".to_string(),
            workload: "compress".to_string(),
            engine: "sparse".to_string(),
            backend: "fixed".to_string(),
            config: vec![
                ("n_cores".to_string(), "16".to_string()),
                ("extra_latency".to_string(), "20".to_string()),
            ],
            env: vec![("HWGC_MEM_BACKEND".to_string(), "dram".to_string())],
            stats_digest: 0xdead_beef,
            total_cycles: Some(124_483),
            sb_fingerprint: Some(0x1234),
            efficacy: vec![
                ("win.fired".to_string(), 120),
                ("win.veto.retire_bound".to_string(), 4),
            ],
            result: Some(Json::Obj(vec![("free".to_string(), Json::Int(0x1000))])),
            host: vec![
                ("wall_ns".to_string(), Json::Int(31_500_000)),
                (
                    "timers".to_string(),
                    Json::Obj(vec![("mem.tick".to_string(), Json::Int(9000))]),
                ),
            ],
        }
    }

    #[test]
    fn round_trips_through_jsonl() {
        let dir = std::env::temp_dir().join("hwgc_ledger_test");
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = record();
        rec.append_jsonl(&path).unwrap();
        rec.append_jsonl(&path).unwrap();
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back.len(), 2);
        // Serialization sorts the config/env pairs, so compare canonical
        // forms: a parsed record re-serializes byte-identically.
        assert_eq!(
            back[0].to_json().to_string_compact(),
            rec.to_json().to_string_compact()
        );
        assert_eq!(back[0].config_hash(), rec.config_hash());
        assert_eq!(back[0].efficacy, rec.efficacy);
        assert_eq!(back[0].host, rec.host);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_hash_ignores_field_order() {
        let a = record();
        let mut b = record();
        b.config.reverse();
        b.env.reverse();
        assert_eq!(a.config_hash(), b.config_hash());
        // But a changed value changes the hash.
        let mut c = record();
        c.config[0].1 = "8".to_string();
        assert_ne!(a.config_hash(), c.config_hash());
        // Separator soundness: ("ab","c") must not collide with ("a","bc").
        let mut d = record();
        d.config[0] = ("n_cores1".to_string(), "6".to_string());
        assert_ne!(a.config_hash(), d.config_hash());
    }

    #[test]
    fn host_fields_do_not_participate_in_the_hash() {
        let a = record();
        let mut b = record();
        b.host.clear();
        let mut c = record();
        c.host
            .push(("extra".to_string(), Json::Str("slow run".to_string())));
        assert_eq!(a.config_hash(), b.config_hash());
        assert_eq!(a.config_hash(), c.config_hash());
        // Outputs do not participate either (a cache key must not depend
        // on what it caches).
        let mut d = record();
        d.stats_digest = 1;
        d.total_cycles = None;
        d.sb_fingerprint = None;
        d.efficacy.clear();
        d.result = None;
        assert_eq!(a.config_hash(), d.config_hash());
    }

    #[test]
    fn nondeterministic_fields_carry_the_host_prefix() {
        let text = record().to_json().to_string_compact();
        let doc = Json::parse(&text).unwrap();
        let Json::Obj(fields) = doc else { panic!() };
        let deterministic = [
            "schema",
            "binary",
            "workload",
            "engine",
            "backend",
            "config_hash",
            "config",
            "env",
            "stats_digest",
            "total_cycles",
            "sb_fingerprint",
            "efficacy",
            "result",
        ];
        for (k, _) in &fields {
            assert!(
                deterministic.contains(&k.as_str()) || k.starts_with("host_"),
                "field `{k}` is neither deterministic nor host_-prefixed"
            );
        }
        assert!(fields.iter().any(|(k, _)| k == "host_wall_ns"));
    }

    #[test]
    fn parser_rejects_tampered_hash() {
        let mut text = record().to_json().to_string_compact();
        let hash = format!("{:016x}", record().config_hash());
        text = text.replace(&hash, "0000000000000000");
        let err = LedgerRecord::from_json_str(&text).unwrap_err();
        assert!(err.contains("config_hash mismatch"), "{err}");
    }
}
