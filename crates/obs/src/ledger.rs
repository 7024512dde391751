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

use std::borrow::Cow;
use std::path::Path;

use crate::json::{Json, JsonError, ObjectWriter, RawJson, Reader, Scalar};

/// JSON schema tag of [`LedgerRecord::to_json_string`].
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
    /// Engine rule actually run: `sparse` (event-driven, the default) or
    /// `reference` (the per-cycle loop, `fast_forward: false`).
    pub engine: String,
    /// Memory backend kind (`fixed` / `dram`).
    pub backend: String,
    /// Configuration key/value pairs (hashed sorted; order-free).
    pub config: Vec<(String, String)>,
    /// Environment knobs in effect (`HWGC_*`; hashed sorted).
    pub env: Vec<(String, String)>,
    /// Digest of the run's `GcStats` (an *output*; not hashed).
    pub stats_digest: u64,
    /// Total simulated cycles (an *output*; not hashed). `None` on
    /// records written before the field existed.
    pub total_cycles: Option<u64>,
    /// SB event-stream FNV fingerprint, when the run logged SB events.
    pub sb_fingerprint: Option<u64>,
    /// Deterministic efficacy counters (windows fired, veto reasons,
    /// wake counts, ff jumps, …) — golden-testable, not hashed.
    pub efficacy: Vec<(String, u64)>,
    /// Full result payload for the content-addressed cache (the complete
    /// `GcStats` plus allocation frontier, encoded by `hwgc-jobs`' cache
    /// layer), kept as its compact text: a load validates it and a hit
    /// decodes it, but nothing builds a tree of it. Deterministic, not
    /// hashed, and absent from the committed digest-only ledger — only
    /// workspace cache files carry it.
    pub result: Option<RawJson>,
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

    /// Serialize as one [`LEDGER_SCHEMA`] JSON object, compact, without
    /// a newline. Deterministic fields come first; every
    /// nondeterministic field is prefixed `host_` so a reader (or a
    /// test) can split the record without a schema in hand.
    pub fn to_json_string(&self) -> String {
        let hex = |v: u64| format!("{v:016x}");
        fn sorted(pairs: &[(String, String)]) -> Vec<&(String, String)> {
            let mut pairs: Vec<_> = pairs.iter().collect();
            pairs.sort_unstable();
            pairs
        }
        let mut out = String::with_capacity(512);
        let mut w = ObjectWriter::open(&mut out);
        w.str("schema", LEDGER_SCHEMA);
        w.str("binary", &self.binary);
        w.str("workload", &self.workload);
        w.str("engine", &self.engine);
        w.str("backend", &self.backend);
        w.str("config_hash", &hex(self.config_hash()));
        for (key, pairs) in [("config", &self.config), ("env", &self.env)] {
            let mut o = ObjectWriter::open(w.key(key));
            for (k, v) in sorted(pairs) {
                o.str(k, v);
            }
            o.close();
        }
        w.str("stats_digest", &hex(self.stats_digest));
        if let Some(tc) = self.total_cycles {
            w.int("total_cycles", tc);
        }
        if let Some(fp) = self.sb_fingerprint {
            w.str("sb_fingerprint", &hex(fp));
        }
        let mut o = ObjectWriter::open(w.key("efficacy"));
        for (k, v) in &self.efficacy {
            o.int(k, *v);
        }
        o.close();
        if let Some(result) = &self.result {
            w.raw("result", result);
        }
        for (k, v) in &self.host {
            w.value(&format!("host_{k}"), v);
        }
        w.close();
        out
    }

    /// Parse a record previously produced by
    /// [`LedgerRecord::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<LedgerRecord, String> {
        LedgerRecord::from_json_str_hashed(text).map(|(rec, _)| rec)
    }

    /// [`LedgerRecord::from_json_str`] plus the record's config hash,
    /// which the parse verifies against the recorded one anyway.
    ///
    /// The line is read in one pass through the tokenizer, straight into
    /// the record's fields: the first occurrence of a field wins, every
    /// `host_*` field is kept, the `result` payload is validated and kept
    /// as text. A JSON syntax error anywhere in the line wins over a
    /// field error; field errors are reported in a fixed field order.
    pub(crate) fn from_json_str_hashed(text: &str) -> Result<(LedgerRecord, u64), String> {
        let mut r = Reader::new(text);
        let mut fields = Fields::default();
        let is_object = r.peek() == Some(b'{');
        if is_object {
            r.object(|r, key| fields.read(r, key))?;
        } else {
            r.skip()?;
        }
        r.finish()?;
        if !is_object {
            return Err(Fields::schema_err());
        }
        let (rec, recorded) = fields.into_record()?;
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
            .read(true)
            .append(true)
            .open(path)?;
        let mut line = self.to_json_string();
        line.push('\n');
        append_line(&mut f, line.as_bytes())
    }
}

/// Append `line` (newline included) to the file `f` opened in append
/// mode, in one `write_all`. A file whose last byte is not a newline
/// holds a torn line — a writer died mid-record — so the line starts
/// with a newline of its own: the torn fragment stays a line of its own
/// (which a tolerant load quarantines) instead of swallowing this one.
/// The file must be open for reading too.
pub fn append_line(f: &mut std::fs::File, line: &[u8]) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut last = [b'\n'];
    if f.seek(SeekFrom::End(0))? > 0 {
        f.seek(SeekFrom::End(-1))?;
        f.read_exact(&mut last)?;
    }
    if last[0] != b'\n' {
        f.write_all(&[b"\n", line].concat())
    } else {
        f.write_all(line)
    }
}

/// The fields of a ledger line, first occurrence each, as read; checked
/// and assembled by [`Fields::into_record`]. `Some(None)` is a field
/// present with a value of the wrong type.
#[derive(Default)]
struct Fields<'a> {
    schema: Option<Option<Cow<'a, str>>>,
    binary: Option<Option<Cow<'a, str>>>,
    workload: Option<Option<Cow<'a, str>>>,
    engine: Option<Option<Cow<'a, str>>>,
    backend: Option<Option<Cow<'a, str>>>,
    config_hash: Option<Option<Cow<'a, str>>>,
    config: Option<Result<Vec<(String, String)>, String>>,
    env: Option<Result<Vec<(String, String)>, String>>,
    stats_digest: Option<Option<Cow<'a, str>>>,
    total_cycles: Option<Option<u64>>,
    sb_fingerprint: Option<Option<Cow<'a, str>>>,
    efficacy: Option<Result<Vec<(String, u64)>, String>>,
    result: Option<RawJson>,
    host: Vec<(String, Json)>,
}

/// Read one value into `slot` unless an earlier occurrence filled it.
fn first<'a, T>(
    slot: &mut Option<T>,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>,
) -> Result<(), JsonError> {
    if slot.is_some() {
        return r.skip();
    }
    *slot = Some(read(r)?);
    Ok(())
}

fn string<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    Ok(match r.scalar()? {
        Some(Scalar::Str(s)) => Some(s),
        _ => None,
    })
}

/// An object of `T`s; the first member that is not a `T` is the error.
fn members<'a, T>(
    r: &mut Reader<'a>,
    key: &str,
    what: &str,
    of: impl Fn(Scalar<'a>) -> Option<T>,
) -> Result<Result<Vec<(String, T)>, String>, JsonError> {
    if r.peek() != Some(b'{') {
        r.skip()?;
        return Ok(Err(format!("missing object field `{key}`")));
    }
    let mut pairs = Ok(Vec::new());
    r.object(|r, k| {
        let value = r.scalar()?.and_then(&of);
        if let Ok(list) = &mut pairs {
            match value {
                Some(v) => list.push((k.into_owned(), v)),
                None => pairs = Err(format!("`{key}.{k}` is not {what}")),
            }
        }
        Ok::<(), JsonError>(())
    })?;
    Ok(pairs)
}

impl<'a> Fields<'a> {
    fn schema_err() -> String {
        format!("schema is not {LEDGER_SCHEMA}")
    }

    fn read(&mut self, r: &mut Reader<'a>, key: Cow<'a, str>) -> Result<(), JsonError> {
        let pairs = |key: &'static str| {
            move |r: &mut Reader<'a>| {
                members(r, key, "a string", |v| match v {
                    Scalar::Str(s) => Some(s.into_owned()),
                    _ => None,
                })
            }
        };
        match &*key {
            "schema" => first(&mut self.schema, r, string),
            "binary" => first(&mut self.binary, r, string),
            "workload" => first(&mut self.workload, r, string),
            "engine" => first(&mut self.engine, r, string),
            "backend" => first(&mut self.backend, r, string),
            "config_hash" => first(&mut self.config_hash, r, string),
            "config" => first(&mut self.config, r, pairs("config")),
            "env" => first(&mut self.env, r, pairs("env")),
            "stats_digest" => first(&mut self.stats_digest, r, string),
            "total_cycles" => first(&mut self.total_cycles, r, Reader::u64),
            "sb_fingerprint" => first(&mut self.sb_fingerprint, r, string),
            "efficacy" => first(&mut self.efficacy, r, |r| {
                members(r, "efficacy", "a u64", |v| v.as_u64())
            }),
            "result" => first(&mut self.result, r, Reader::raw),
            _ => match key.strip_prefix("host_") {
                Some(name) => {
                    let value = r.value()?;
                    self.host.push((name.to_owned(), value));
                    Ok(())
                }
                None => r.skip(),
            },
        }
    }

    /// Check the fields and build the record; also returns the recorded
    /// config hash.
    fn into_record(self) -> Result<(LedgerRecord, u64), String> {
        fn str_field<'s>(
            field: Option<Option<Cow<'s, str>>>,
            key: &str,
        ) -> Result<Cow<'s, str>, String> {
            field
                .flatten()
                .ok_or_else(|| format!("missing string field `{key}`"))
        }
        fn text(field: Option<Option<Cow<str>>>, key: &str) -> Result<String, String> {
            str_field(field, key).map(Cow::into_owned)
        }
        fn hex(field: Option<Option<Cow<str>>>, key: &str) -> Result<u64, String> {
            let raw = str_field(field, key)?;
            u64::from_str_radix(&raw, 16).map_err(|e| format!("bad hex in `{key}`: {e}"))
        }
        let missing = |key: &str| format!("missing object field `{key}`");
        if self.schema.flatten().as_deref() != Some(LEDGER_SCHEMA) {
            return Err(Fields::schema_err());
        }
        let efficacy = self.efficacy.unwrap_or_else(|| Err(missing("efficacy")))?;
        let rec = LedgerRecord {
            binary: text(self.binary, "binary")?,
            workload: text(self.workload, "workload")?,
            engine: text(self.engine, "engine")?,
            backend: text(self.backend, "backend")?,
            config: self.config.unwrap_or_else(|| Err(missing("config")))?,
            env: self.env.unwrap_or_else(|| Err(missing("env")))?,
            stats_digest: hex(self.stats_digest, "stats_digest")?,
            total_cycles: match self.total_cycles {
                Some(tc) => Some(tc.ok_or("`total_cycles` is not a u64")?),
                None => None,
            },
            sb_fingerprint: match self.sb_fingerprint {
                Some(fp) => Some(hex(Some(fp), "sb_fingerprint")?),
                None => None,
            },
            efficacy,
            result: self.result,
            host: self.host,
        };
        let recorded = hex(self.config_hash, "config_hash")?;
        Ok((rec, recorded))
    }
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
            result: Some(RawJson::new(&Json::Obj(vec![(
                "free".to_string(),
                Json::Int(0x1000),
            )]))),
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
        let mut other = record();
        other.workload = "javac".to_string();
        rec.append_jsonl(&path).unwrap();
        other.append_jsonl(&path).unwrap();
        let store = crate::store::LedgerStore::load(&path).unwrap();
        assert_eq!(store.len(), 2);
        for want in [&rec, &other] {
            let back = store.get(want.config_hash()).unwrap();
            // Serialization sorts the config/env pairs, so compare
            // canonical forms: a parsed record re-serializes
            // byte-identically.
            assert_eq!(back.to_json_string(), want.to_json_string());
            assert_eq!(back.config_hash(), want.config_hash());
            assert_eq!(back.efficacy, want.efficacy);
            assert_eq!(back.host, want.host);
        }
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
        let text = record().to_json_string();
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
        let mut text = record().to_json_string();
        let hash = format!("{:016x}", record().config_hash());
        text = text.replace(&hash, "0000000000000000");
        let err = LedgerRecord::from_json_str(&text).unwrap_err();
        assert!(err.contains("config_hash mismatch"), "{err}");
    }

    #[test]
    fn an_append_after_a_torn_line_starts_a_fresh_line() {
        let path = std::env::temp_dir().join("hwgc_ledger_torn.jsonl");
        let rec = record();
        let line = rec.to_json_string();
        // A whole record, then a writer killed mid-line.
        std::fs::write(&path, format!("{line}\n{}", &line[..line.len() / 2])).unwrap();
        let mut other = record();
        other.workload = "javac".to_string();
        other.append_jsonl(&path).unwrap();
        let (store, report) = crate::store::LedgerStore::load_tolerant(&path).unwrap();
        assert_eq!(report.accepted, 2, "{:?}", report.quarantined);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].starts_with("line 2:"));
        assert!(store.get(other.config_hash()).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_line_format_is_pinned() {
        // Written by the tree serializer the line writer replaced.
        let line = r#"{"schema":"hwgc-ledger-v1","binary":"bench_baseline","workload":"compress","engine":"sparse","backend":"fixed","config_hash":"bf8b8154596993b1","config":{"extra_latency":"20","n_cores":"16"},"env":{"HWGC_MEM_BACKEND":"dram"},"stats_digest":"00000000deadbeef","total_cycles":124483,"sb_fingerprint":"0000000000001234","efficacy":{"win.fired":120,"win.veto.retire_bound":4},"result":{"free":4096},"host_wall_ns":31500000,"host_timers":{"mem.tick":9000}}"#;
        assert_eq!(record().to_json_string(), line);
        assert_eq!(LedgerRecord::from_json_str(line).unwrap(), {
            let mut rec = record();
            rec.config.sort();
            rec
        });
    }
}
