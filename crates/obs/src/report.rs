//! Per-run bottleneck report: blame matrix + critical path + what-if
//! predictions, rendered as markdown (for humans) and JSON (for CI and
//! the differential tests).
//!
//! [`RunReport::analyze`] is the one-call entry point the `gc_report`
//! binary uses: replay the recording into a [`RunModel`], attribute
//! every stall cycle, walk the critical path, and run the what-if
//! predictor. [`RunReport::validate`] re-checks the two exactness
//! invariants (blame rows sum to class totals; critical-path classes
//! partition the run).

use crate::attr::{attribute, BlameReport, RunModel};
use crate::chrome::RunMeta;
use crate::critpath::{critical_path, CritPath};
use crate::host::HostProfiler;
use crate::json::Json;
use crate::probe::Recording;
use crate::whatif::{predict, Prediction, WhatIfInputs};

/// JSON schema tag of [`render_report_json`].
pub const REPORT_SCHEMA: &str = "hwgc-report-v1";

/// Host-performance section of a report: the engine loop counters from
/// a hostprof run of the same workload, with
/// wall-clock quantities kept strictly apart from the deterministic
/// counters (only the latter may appear in goldens).
#[derive(Debug, Clone, Default)]
pub struct HostSection {
    /// Deterministic counters (sorted by key): `engine.*`.
    pub counters: Vec<(String, u64)>,
    /// Wall-clock timers as `(key, count, total_ns)` — nondeterministic.
    pub timers: Vec<(String, u64, u64)>,
}

impl HostSection {
    /// Snapshot a profiler into the report-facing form.
    pub fn from_profiler(prof: &HostProfiler) -> HostSection {
        HostSection {
            counters: prof.counters().map(|(k, v)| (k.to_string(), v)).collect(),
            timers: prof
                .timers()
                .map(|(k, t)| (k.to_string(), t.count, t.total_ns))
                .collect(),
        }
    }
}

/// The complete analysis of one recorded run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload / preset label.
    pub name: String,
    /// GC cores in the run.
    pub n_cores: usize,
    /// Wall-clock cycles.
    pub total_cycles: u64,
    /// Blame attribution (per-class cause rows, contention edges).
    pub blame: BlameReport,
    /// Critical-path partition of the run.
    pub path: CritPath,
    /// What-if resource-relaxation estimates.
    pub predictions: Vec<Prediction>,
    /// Host-performance section (engine loop counters, host time),
    /// present when the harness also ran the workload under a hostprof.
    pub host: Option<HostSection>,
}

impl RunReport {
    /// Analyze a recording end to end. `dram_bandwidth` is the run's
    /// `MemConfig.bandwidth` (the what-if predictor needs it).
    pub fn analyze(recording: &Recording, meta: &RunMeta, dram_bandwidth: u32) -> RunReport {
        let model = RunModel::build(recording, meta);
        let blame = attribute(&model);
        let path = critical_path(&model);
        let predictions = predict(
            &blame,
            &WhatIfInputs {
                total_cycles: meta.total_cycles,
                n_cores: meta.n_cores,
                dram_bandwidth,
            },
        );
        RunReport {
            name: meta.name.clone(),
            n_cores: meta.n_cores,
            total_cycles: meta.total_cycles,
            blame,
            path,
            predictions,
            host: None,
        }
    }

    /// Attach the host-performance section from a hostprof run of the
    /// same workload.
    pub fn with_host(mut self, host: HostSection) -> RunReport {
        self.host = Some(host);
        self
    }

    /// Re-check the exactness invariants.
    pub fn validate(&self) -> Result<(), String> {
        self.blame.validate()?;
        self.path.validate()
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Render the report as markdown.
pub fn render_report_markdown(r: &RunReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Bottleneck report: {} ({} cores, {} cycles)\n",
        r.name, r.n_cores, r.total_cycles
    );

    let _ = writeln!(out, "## Stall blame matrix\n");
    let _ = writeln!(out, "| class | cycles | causes |");
    let _ = writeln!(out, "|---|---:|---|");
    for class in &r.blame.classes {
        let mut causes: Vec<(&String, &u64)> = class.causes.iter().collect();
        causes.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let cells: Vec<String> = causes
            .iter()
            .map(|(cause, n)| format!("{cause} {n} ({:.1}%)", pct(**n, class.total)))
            .collect();
        let _ = writeln!(
            out,
            "| {} | {} | {} |",
            class.name,
            class.total,
            cells.join(", ")
        );
    }

    let _ = writeln!(out, "\n## Core contention graph\n");
    if r.blame.edges.is_empty() {
        let _ = writeln!(out, "(no lock contention recorded)");
    } else {
        let _ = writeln!(out, "| waiter | blocker | cycles |");
        let _ = writeln!(out, "|---:|---:|---:|");
        let mut edges: Vec<(&(u32, u32), &u64)> = r.blame.edges.iter().collect();
        edges.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        for (&(i, j), n) in edges {
            let _ = writeln!(out, "| core{i} | core{j} | {n} |");
        }
    }

    let _ = writeln!(out, "\n## Critical path ({} hops)\n", r.path.hops);
    let _ = writeln!(out, "| class | cycles | % of run |");
    let _ = writeln!(out, "|---|---:|---:|");
    let mut classes: Vec<(&String, &u64)> = r.path.classes.iter().collect();
    classes.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    for (class, n) in classes {
        let _ = writeln!(out, "| {class} | {n} | {:.1}% |", pct(*n, r.path.total));
    }

    let _ = writeln!(out, "\n## What-if predictions\n");
    let _ = writeln!(
        out,
        "| resource | removed cycles (mean/core) | predicted cycles | predicted speedup |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|");
    for p in &r.predictions {
        let n = p.removed_per_core.len().max(1) as u64;
        let mean = p.removed_per_core.iter().sum::<u64>() / n;
        let _ = writeln!(
            out,
            "| {} | {mean} | {} | {:.4}× |",
            p.resource, p.predicted_cycles, p.predicted_speedup
        );
    }

    if let Some(host) = &r.host {
        let _ = writeln!(out, "\n## Host performance\n");
        let _ = writeln!(out, "### Engine loop (deterministic)\n");
        let _ = writeln!(out, "| counter | value |");
        let _ = writeln!(out, "|---|---:|");
        for (k, v) in &host.counters {
            let _ = writeln!(out, "| {k} | {v} |");
        }
        if !host.timers.is_empty() {
            let _ = writeln!(
                out,
                "\n### Host time (wall clock — not comparable across runs)\n"
            );
            let _ = writeln!(out, "| timer | count | total |");
            let _ = writeln!(out, "|---|---:|---:|");
            for (k, count, total_ns) in &host.timers {
                let _ = writeln!(out, "| {k} | {count} | {:.3} ms |", *total_ns as f64 / 1e6);
            }
        }
    }
    out
}

/// Render the report as deterministic JSON (`hwgc-report-v1`).
pub fn render_report_json(r: &RunReport) -> String {
    let classes = r
        .blame
        .classes
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(c.name.to_string())),
                ("total".to_string(), Json::Int(c.total as i128)),
                (
                    "causes".to_string(),
                    Json::Obj(
                        c.causes
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Int(*v as i128)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let edges = r
        .blame
        .edges
        .iter()
        .map(|(&(i, j), &n)| {
            Json::Obj(vec![
                ("waiter".to_string(), Json::Int(i as i128)),
                ("blocker".to_string(), Json::Int(j as i128)),
                ("cycles".to_string(), Json::Int(n as i128)),
            ])
        })
        .collect();
    let path_classes = r
        .path
        .classes
        .iter()
        .map(|(k, v)| (k.clone(), Json::Int(*v as i128)))
        .collect();
    let predictions = r
        .predictions
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("resource".to_string(), Json::Str(p.resource.to_string())),
                (
                    "description".to_string(),
                    Json::Str(p.description.to_string()),
                ),
                (
                    "removed_per_core".to_string(),
                    Json::Arr(
                        p.removed_per_core
                            .iter()
                            .map(|&n| Json::Int(n as i128))
                            .collect(),
                    ),
                ),
                (
                    "predicted_cycles".to_string(),
                    Json::Int(p.predicted_cycles as i128),
                ),
                (
                    "predicted_speedup".to_string(),
                    Json::Float(p.predicted_speedup),
                ),
            ])
        })
        .collect();
    let mut fields = vec![
        ("schema".to_string(), Json::Str(REPORT_SCHEMA.to_string())),
        ("name".to_string(), Json::Str(r.name.clone())),
        ("n_cores".to_string(), Json::Int(r.n_cores as i128)),
        (
            "total_cycles".to_string(),
            Json::Int(r.total_cycles as i128),
        ),
        (
            "blame".to_string(),
            Json::Obj(vec![
                ("classes".to_string(), Json::Arr(classes)),
                ("edges".to_string(), Json::Arr(edges)),
            ]),
        ),
        (
            "critical_path".to_string(),
            Json::Obj(vec![
                ("classes".to_string(), Json::Obj(path_classes)),
                ("hops".to_string(), Json::Int(r.path.hops as i128)),
                ("total".to_string(), Json::Int(r.path.total as i128)),
            ]),
        ),
        ("whatif".to_string(), Json::Arr(predictions)),
    ];
    if let Some(host) = &r.host {
        // The deterministic counters and the wall-clock quantities stay in
        // separate sub-objects; anything under "host_time" must never be
        // compared across runs or committed as a golden.
        fields.push((
            "host".to_string(),
            Json::Obj(vec![
                (
                    "counters".to_string(),
                    Json::Obj(
                        host.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Int(*v as i128)))
                            .collect(),
                    ),
                ),
                (
                    "host_time".to_string(),
                    Json::Obj(vec![(
                        "timers".to_string(),
                        Json::Obj(
                            host.timers
                                .iter()
                                .map(|(k, count, total_ns)| {
                                    (
                                        k.clone(),
                                        Json::Obj(vec![
                                            ("count".to_string(), Json::Int(*count as i128)),
                                            ("total_ns".to_string(), Json::Int(*total_ns as i128)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    )]),
                ),
            ]),
        ));
    }
    Json::Obj(fields).to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::reason_idx;
    use crate::event::OwnedEvent;
    use hwgc_sync::{SbEvent, SbEventRecord};

    fn recording() -> Recording {
        let sb = |cycle, event| (cycle, OwnedEvent::Sb(SbEventRecord { cycle, event }));
        Recording {
            events: vec![
                (
                    2,
                    OwnedEvent::Phase {
                        name: "scan",
                        begin: true,
                    },
                ),
                (
                    3,
                    OwnedEvent::CoreState {
                        core: 0,
                        state: 0,
                        name: "Poll",
                    },
                ),
                (
                    3,
                    OwnedEvent::CoreState {
                        core: 1,
                        state: 0,
                        name: "Poll",
                    },
                ),
                sb(10, SbEvent::AcquireScan { core: 0 }),
                sb(11, SbEvent::FailScan { core: 1 }),
                sb(12, SbEvent::FailScan { core: 1 }),
                sb(13, SbEvent::ReleaseScan { core: 0 }),
                (
                    12,
                    OwnedEvent::StallSpan {
                        core: 1,
                        reason: reason_idx::SCAN_LOCK,
                        name: "scan_lock",
                        since: 11,
                        len: 2,
                    },
                ),
                (
                    18,
                    OwnedEvent::CoreState {
                        core: 0,
                        state: 14,
                        name: "Done",
                    },
                ),
                (
                    20,
                    OwnedEvent::CoreState {
                        core: 1,
                        state: 14,
                        name: "Done",
                    },
                ),
            ],
        }
    }

    fn meta() -> RunMeta {
        RunMeta {
            name: "unit".to_string(),
            n_cores: 2,
            total_cycles: 20,
        }
    }

    #[test]
    fn analyze_produces_valid_report() {
        let report = RunReport::analyze(&recording(), &meta(), 10);
        report.validate().unwrap();
        assert_eq!(report.blame.class_total("scan_lock"), 2);
        assert_eq!(report.path.total, 20);
        assert_eq!(report.predictions.len(), 3);
    }

    #[test]
    fn markdown_contains_all_sections() {
        let report = RunReport::analyze(&recording(), &meta(), 10);
        let md = render_report_markdown(&report);
        for section in [
            "# Bottleneck report: unit (2 cores, 20 cycles)",
            "## Stall blame matrix",
            "## Core contention graph",
            "## Critical path",
            "## What-if predictions",
            "scan_lock",
            "multiport_sb",
            "dram_bandwidth_plus_1",
            "header_fifo_depth",
        ] {
            assert!(md.contains(section), "missing {section:?} in:\n{md}");
        }
    }

    #[test]
    fn json_round_trips_and_carries_schema() {
        let report = RunReport::analyze(&recording(), &meta(), 10);
        let text = render_report_json(&report);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(doc.get("total_cycles").and_then(Json::as_int), Some(20));
        let classes = doc
            .get("blame")
            .and_then(|b| b.get("classes"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(!classes.is_empty());
        // Row sums are exact in the serialized form too.
        for class in classes {
            let total = class.get("total").and_then(Json::as_int).unwrap();
            let causes = match class.get("causes") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(_, v)| v.as_int().unwrap())
                    .sum::<i128>(),
                _ => panic!("causes must be an object"),
            };
            assert_eq!(total, causes);
        }
        let whatif = doc.get("whatif").and_then(Json::as_arr).unwrap();
        assert_eq!(whatif.len(), 3);
    }

    #[test]
    fn host_section_renders_counters_apart_from_wall_clock() {
        let host = HostSection {
            counters: vec![
                ("engine.cycles_executed".to_string(), 1234),
                ("engine.park.body_load".to_string(), 40),
            ],
            timers: vec![("phase.steady".to_string(), 1, 2_500_000)],
        };
        let report = RunReport::analyze(&recording(), &meta(), 10).with_host(host);
        let md = render_report_markdown(&report);
        for section in [
            "## Host performance",
            "### Engine loop (deterministic)",
            "engine.cycles_executed",
            "### Host time (wall clock",
            "phase.steady",
        ] {
            assert!(md.contains(section), "missing {section:?} in:\n{md}");
        }
        let doc = Json::parse(&render_report_json(&report)).unwrap();
        let host_doc = doc.get("host").unwrap();
        assert_eq!(
            host_doc
                .get("counters")
                .and_then(|c| c.get("engine.park.body_load"))
                .and_then(Json::as_int),
            Some(40)
        );
        // Wall clock lives only under host_time.
        assert!(host_doc.get("host_time").is_some());
        assert!(host_doc
            .get("counters")
            .and_then(|c| c.get("phase.steady"))
            .is_none());
    }

    #[test]
    fn empty_recording_reports_cleanly() {
        let report = RunReport::analyze(
            &Recording::default(),
            &RunMeta {
                name: "empty".to_string(),
                n_cores: 1,
                total_cycles: 0,
            },
            10,
        );
        report.validate().unwrap();
        let md = render_report_markdown(&report);
        assert!(md.contains("no lock contention recorded"));
        let _ = render_report_json(&report);
    }
}
