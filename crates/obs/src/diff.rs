//! Cross-run regression diffing: join two ledger stores on
//! `config_hash` and classify every configuration as identical, changed
//! or present on one side only — the engine behind the `ledger_diff`
//! binary and the CI regression gate.
//!
//! Classification is purely over **deterministic** fields:
//!
//! * `stats_digest` — the ground truth: a differing digest is always
//!   `Changed`;
//! * `sb_fingerprint` — compared when both sides carry it (a run that
//!   didn't log SB events is *less covered*, not different);
//! * efficacy counters — every counter present on both sides must agree;
//! * `total_cycles` — rendered as a delta headline when both sides carry
//!   it (it is implied by the digest, but a number beats a hash in a
//!   report).
//!
//! `host_*` fields never classify: host-time movement between two runs
//! of an identical config is rendered as an informational trend line
//! only. `--check` semantics: only `Changed` entries fail the gate —
//! one-sided configs mean the sweeps covered different configurations
//! (a perturbation shows up as an `only_left`/`only_right` *pair*), not
//! that the simulator changed behaviour.

use crate::json::Json;
use crate::ledger::LedgerRecord;
use crate::store::LedgerStore;

/// JSON schema tag of [`LedgerDiff::to_json`].
pub const DIFF_SCHEMA: &str = "hwgc-ledger-diff-v1";

/// How one configuration compares across the two ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Present on both sides with agreeing deterministic outputs.
    Identical,
    /// Present on both sides with a differing digest, fingerprint or
    /// shared efficacy counter — a simulation-result change.
    Changed,
    /// Only the left ledger holds this configuration.
    OnlyLeft,
    /// Only the right ledger holds this configuration.
    OnlyRight,
}

impl DiffStatus {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            DiffStatus::Identical => "identical",
            DiffStatus::Changed => "changed",
            DiffStatus::OnlyLeft => "only_left",
            DiffStatus::OnlyRight => "only_right",
        }
    }
}

/// One configuration's comparison.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// The join key.
    pub config_hash: u64,
    /// Human label: `workload/engine/backend (binary)`.
    pub label: String,
    /// Classification.
    pub status: DiffStatus,
    /// `total_cycles` on each side, when carried.
    pub cycles: (Option<u64>, Option<u64>),
    /// Why the entry is `Changed` (empty otherwise).
    pub reasons: Vec<String>,
    /// Informational host-time trend: summed `*.total_ns` host timer
    /// fields on each side, when both carry any.
    pub host_ns: Option<(u64, u64)>,
}

/// The full join of two ledgers.
#[derive(Debug, Clone, Default)]
pub struct LedgerDiff {
    /// Entries sorted by config hash.
    pub entries: Vec<DiffEntry>,
}

fn record_label(rec: &LedgerRecord) -> String {
    format!(
        "{}/{}/{} ({})",
        rec.workload, rec.engine, rec.backend, rec.binary
    )
}

fn host_total_ns(rec: &LedgerRecord) -> Option<u64> {
    let mut total = 0u64;
    let mut any = false;
    for (k, v) in &rec.host {
        if k == "wall_ns" || k.ends_with(".total_ns") || k.ends_with("_total_ns") {
            if let Some(ns) = v.as_int().and_then(|i| u64::try_from(i).ok()) {
                total += ns;
                any = true;
            }
        }
    }
    any.then_some(total)
}

fn compare(hash: u64, left: &LedgerRecord, right: &LedgerRecord) -> DiffEntry {
    let mut reasons = Vec::new();
    if left.stats_digest != right.stats_digest {
        reasons.push(format!(
            "stats_digest {:016x} -> {:016x}",
            left.stats_digest, right.stats_digest
        ));
    }
    if let (Some(a), Some(b)) = (left.sb_fingerprint, right.sb_fingerprint) {
        if a != b {
            reasons.push(format!("sb_fingerprint {a:016x} -> {b:016x}"));
        }
    }
    for (k, a) in &left.efficacy {
        if let Some((_, b)) = right.efficacy.iter().find(|(rk, _)| rk == k) {
            if a != b {
                reasons.push(format!("efficacy {k} {a} -> {b}"));
            }
        }
    }
    if let (Some(a), Some(b)) = (left.total_cycles, right.total_cycles) {
        if a != b && !reasons.iter().any(|r| r.starts_with("stats_digest")) {
            // A cycle delta without a digest delta means a corrupt record
            // somewhere — surface it rather than masking it.
            reasons.push(format!("total_cycles {a} -> {b} with equal digests"));
        }
    }
    let status = if reasons.is_empty() {
        DiffStatus::Identical
    } else {
        DiffStatus::Changed
    };
    let host_ns = match (host_total_ns(left), host_total_ns(right)) {
        (Some(a), Some(b)) => Some((a, b)),
        _ => None,
    };
    DiffEntry {
        config_hash: hash,
        label: record_label(left),
        status,
        cycles: (left.total_cycles, right.total_cycles),
        reasons,
        host_ns,
    }
}

impl LedgerDiff {
    /// Join `left` and `right` on config hash and classify every entry.
    pub fn between(left: &LedgerStore, right: &LedgerStore) -> LedgerDiff {
        let mut hashes = left.hashes();
        for h in right.hashes() {
            if left.get(h).is_none() {
                hashes.push(h);
            }
        }
        hashes.sort_unstable();
        let entries = hashes
            .into_iter()
            .map(|hash| match (left.get(hash), right.get(hash)) {
                (Some(a), Some(b)) => compare(hash, a, b),
                (Some(a), None) => DiffEntry {
                    config_hash: hash,
                    label: record_label(a),
                    status: DiffStatus::OnlyLeft,
                    cycles: (a.total_cycles, None),
                    reasons: Vec::new(),
                    host_ns: None,
                },
                (None, Some(b)) => DiffEntry {
                    config_hash: hash,
                    label: record_label(b),
                    status: DiffStatus::OnlyRight,
                    cycles: (None, b.total_cycles),
                    reasons: Vec::new(),
                    host_ns: None,
                },
                (None, None) => unreachable!("hash came from one of the stores"),
            })
            .collect();
        LedgerDiff { entries }
    }

    /// `(identical, changed, only_left, only_right)` counts.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for e in &self.entries {
            match e.status {
                DiffStatus::Identical => c.0 += 1,
                DiffStatus::Changed => c.1 += 1,
                DiffStatus::OnlyLeft => c.2 += 1,
                DiffStatus::OnlyRight => c.3 += 1,
            }
        }
        c
    }

    /// The entries that fail `--check`.
    pub fn changed(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries
            .iter()
            .filter(|e| e.status == DiffStatus::Changed)
    }

    /// Machine-readable report.
    pub fn to_json(&self, left_name: &str, right_name: &str) -> Json {
        let (identical, changed, only_left, only_right) = self.counts();
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let mut fields = vec![
                    (
                        "config_hash".to_string(),
                        Json::Str(format!("{:016x}", e.config_hash)),
                    ),
                    ("label".to_string(), Json::Str(e.label.clone())),
                    (
                        "status".to_string(),
                        Json::Str(e.status.label().to_string()),
                    ),
                ];
                if let Some(c) = e.cycles.0 {
                    fields.push(("cycles_left".to_string(), Json::Int(i128::from(c))));
                }
                if let Some(c) = e.cycles.1 {
                    fields.push(("cycles_right".to_string(), Json::Int(i128::from(c))));
                }
                if !e.reasons.is_empty() {
                    fields.push((
                        "reasons".to_string(),
                        Json::Arr(e.reasons.iter().map(|r| Json::Str(r.clone())).collect()),
                    ));
                }
                if let Some((a, b)) = e.host_ns {
                    fields.push((
                        "host_ns".to_string(),
                        Json::Arr(vec![Json::Int(i128::from(a)), Json::Int(i128::from(b))]),
                    ));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(DIFF_SCHEMA.to_string())),
            ("left".to_string(), Json::Str(left_name.to_string())),
            ("right".to_string(), Json::Str(right_name.to_string())),
            ("identical".to_string(), Json::Int(identical as i128)),
            ("changed".to_string(), Json::Int(changed as i128)),
            ("only_left".to_string(), Json::Int(only_left as i128)),
            ("only_right".to_string(), Json::Int(only_right as i128)),
            ("entries".to_string(), Json::Arr(entries)),
        ])
    }

    /// Human-readable report.
    pub fn render_markdown(&self, left_name: &str, right_name: &str) -> String {
        use std::fmt::Write as _;
        let (identical, changed, only_left, only_right) = self.counts();
        let mut out = String::new();
        let _ = writeln!(out, "# Ledger diff");
        let _ = writeln!(out);
        let _ = writeln!(out, "- left:  `{left_name}`");
        let _ = writeln!(out, "- right: `{right_name}`");
        let _ = writeln!(
            out,
            "- {identical} identical, **{changed} changed**, \
             {only_left} only-left, {only_right} only-right"
        );
        if changed > 0 {
            let _ = writeln!(out);
            let _ = writeln!(out, "## Changed configurations");
            let _ = writeln!(out);
            let _ = writeln!(out, "| config | hash | cycles | why |");
            let _ = writeln!(out, "|---|---|---|---|");
            for e in self.changed() {
                let cycles = match e.cycles {
                    (Some(a), Some(b)) => {
                        let delta = b as i128 - a as i128;
                        format!("{a} -> {b} ({delta:+})")
                    }
                    _ => "—".to_string(),
                };
                let _ = writeln!(
                    out,
                    "| {} | `{:016x}` | {} | {} |",
                    e.label,
                    e.config_hash,
                    cycles,
                    e.reasons.join("; ")
                );
            }
        }
        let one_sided: Vec<&DiffEntry> = self
            .entries
            .iter()
            .filter(|e| matches!(e.status, DiffStatus::OnlyLeft | DiffStatus::OnlyRight))
            .collect();
        if !one_sided.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "## One-sided configurations");
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "Configurations covered by only one sweep (a config \
                 perturbation moves a record's hash, producing an \
                 only-left/only-right pair):"
            );
            let _ = writeln!(out);
            for e in &one_sided {
                let _ = writeln!(
                    out,
                    "- `{:016x}` {} — {}",
                    e.config_hash,
                    e.label,
                    e.status.label()
                );
            }
        }
        let trends: Vec<&DiffEntry> = self
            .entries
            .iter()
            .filter(|e| e.status == DiffStatus::Identical && e.host_ns.is_some())
            .collect();
        if !trends.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "## Host-time trend (informational)");
            let _ = writeln!(out);
            let _ = writeln!(out, "| config | left (ms) | right (ms) | ratio |");
            let _ = writeln!(out, "|---|---|---|---|");
            for e in &trends {
                let (a, b) = e.host_ns.unwrap();
                let ratio = if a == 0 {
                    "—".to_string()
                } else {
                    format!("{:.2}x", b as f64 / a as f64)
                };
                let _ = writeln!(
                    out,
                    "| {} | {:.2} | {:.2} | {} |",
                    e.label,
                    a as f64 / 1e6,
                    b as f64 / 1e6,
                    ratio
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, digest: u64, cycles: u64) -> LedgerRecord {
        LedgerRecord {
            binary: "test".to_string(),
            workload: workload.to_string(),
            engine: "sparse".to_string(),
            backend: "fixed".to_string(),
            config: vec![("n_cores".to_string(), "4".to_string())],
            env: Vec::new(),
            stats_digest: digest,
            total_cycles: Some(cycles),
            sb_fingerprint: None,
            efficacy: vec![("win.fired".to_string(), 10), ("ff.jumps".to_string(), 2)],
            result: None,
            host: vec![("wall_ns".to_string(), Json::Int(1_000_000))],
        }
    }

    fn store(records: Vec<LedgerRecord>) -> LedgerStore {
        let mut s = LedgerStore::new();
        s.merge(records).unwrap();
        s
    }

    #[test]
    fn clean_runs_diff_identical() {
        let left = store(vec![record("a", 7, 100), record("b", 9, 200)]);
        let mut r1 = record("a", 7, 100);
        r1.host = vec![("wall_ns".to_string(), Json::Int(9_999_999))];
        let right = store(vec![r1, record("b", 9, 200)]);
        let diff = LedgerDiff::between(&left, &right);
        assert_eq!(diff.counts(), (2, 0, 0, 0));
        assert_eq!(diff.changed().count(), 0);
        // Host time moved but is informational only.
        let a = &diff.entries[if diff.entries[0].label.contains("a/") {
            0
        } else {
            1
        }];
        assert_eq!(a.status, DiffStatus::Identical);
        assert!(a.host_ns.is_some());
    }

    #[test]
    fn digest_and_efficacy_changes_classify_as_changed() {
        let left = store(vec![record("a", 7, 100)]);
        let mut r = record("a", 8, 120);
        r.efficacy = vec![("win.fired".to_string(), 4), ("ff.jumps".to_string(), 2)];
        let right = store(vec![r]);
        let diff = LedgerDiff::between(&left, &right);
        assert_eq!(diff.counts(), (0, 1, 0, 0));
        let e = diff.changed().next().unwrap();
        assert!(e.reasons.iter().any(|r| r.contains("stats_digest")));
        assert!(e
            .reasons
            .contains(&"efficacy win.fired 10 -> 4".to_string()));
        assert_eq!(e.cycles, (Some(100), Some(120)));
        let md = diff.render_markdown("L", "R");
        assert!(md.contains("100 -> 120 (+20)"), "{md}");
        assert!(md.contains("win.fired"), "{md}");
    }

    #[test]
    fn perturbation_reports_exactly_the_perturbed_hashes() {
        // A deliberate config perturbation: same workload, one knob
        // changed. The hash moves, so the diff must report exactly the
        // old hash as only-left and the new one as only-right — and
        // nothing as changed.
        let shared = record("shared", 5, 50);
        let base = record("a", 7, 100);
        let mut perturbed = record("a", 7, 100);
        perturbed.config[0].1 = "8".to_string();
        let (old_hash, new_hash) = (base.config_hash(), perturbed.config_hash());
        assert_ne!(old_hash, new_hash);
        let left = store(vec![shared.clone(), base]);
        let right = store(vec![shared, perturbed]);
        let diff = LedgerDiff::between(&left, &right);
        assert_eq!(diff.counts(), (1, 0, 1, 1));
        let only_left: Vec<u64> = diff
            .entries
            .iter()
            .filter(|e| e.status == DiffStatus::OnlyLeft)
            .map(|e| e.config_hash)
            .collect();
        let only_right: Vec<u64> = diff
            .entries
            .iter()
            .filter(|e| e.status == DiffStatus::OnlyRight)
            .map(|e| e.config_hash)
            .collect();
        assert_eq!(only_left, vec![old_hash]);
        assert_eq!(only_right, vec![new_hash]);
    }

    #[test]
    fn missing_coverage_is_not_a_change() {
        // Right side lacks the fingerprint and half the efficacy
        // counters: less covered, not different.
        let mut full = record("a", 7, 100);
        full.sb_fingerprint = Some(0xbeef);
        let mut thin = record("a", 7, 100);
        thin.sb_fingerprint = None;
        thin.efficacy = Vec::new();
        let diff = LedgerDiff::between(&store(vec![full]), &store(vec![thin]));
        assert_eq!(diff.counts(), (1, 0, 0, 0));
    }

    #[test]
    fn json_report_carries_counts_and_schema() {
        let left = store(vec![record("a", 7, 100)]);
        let right = store(vec![record("a", 8, 110)]);
        let doc = LedgerDiff::between(&left, &right).to_json("L", "R");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(DIFF_SCHEMA));
        assert_eq!(doc.get("changed").and_then(Json::as_int), Some(1));
        assert_eq!(doc.get("identical").and_then(Json::as_int), Some(0));
    }
}
