//! `hostprof`: the simulator's self-profiling layer.
//!
//! The simulated-time observability stack (probes, traces, metrics) says
//! where *simulated* cycles go; `hostprof` says where the simulator's own
//! *host* time goes — and why its engines behave as they do. It is the
//! same static-dispatch shape as [`crate::Probe`]: the engine's loops are
//! generic over a [`HostProf`] whose associated `const ACTIVE` guards
//! every emission site, so the default [`NullHostProf`] compiles to
//! nothing and a hostprof-off run keeps the allocation-free hot loop
//! bit for bit (the counting-allocator and differential tests pin this).
//!
//! Two kinds of observation flow into a [`HostProfiler`], and the split
//! is load-bearing:
//!
//! * **deterministic efficacy counters and histograms** — park/wake
//!   tallies by class, all-parked jumps and their length histogram,
//!   fast-forward jumps. These are pure functions of simulation state,
//!   identical on every host, and therefore golden-testable.
//! * **host timings** — wall-clock nanoseconds per phase and `mem.tick`
//!   cost. These are nondeterministic and must never leak into
//!   simulation artifacts:
//!   the JSON schema quarantines them under a separate `"host"` object,
//!   and the ledger prefixes every such field `host_`.
//!
//! Exports: the stable [`HOSTPROF_SCHEMA`] JSON document
//! ([`HostProfiler::to_json`]), its golden-safe deterministic subset
//! ([`HostProfiler::deterministic_json`]) and folded stacks of host time
//! ([`HostProfiler::folded`]).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::folded::FoldedStacks;
use crate::json::Json;
use crate::metrics::Histogram;

/// JSON schema tag of [`HostProfiler::to_json`].
pub const HOSTPROF_SCHEMA: &str = "hwgc-hostprof-v1";

/// Statically-dispatched self-profiling sink, mirroring [`crate::Probe`]:
/// the engine guards every call with `H::ACTIVE`, so the null
/// implementation costs nothing.
pub trait HostProf {
    /// `false` compiles every instrumentation site away.
    const ACTIVE: bool;

    /// Add `delta` to a **deterministic** counter (a pure function of
    /// simulation state — golden-testable).
    fn count(&mut self, key: &'static str, delta: u64);

    /// Record one observation into a **deterministic** histogram.
    fn sample(&mut self, key: &'static str, value: u64);

    /// Attribute `ns` wall-clock nanoseconds to a **nondeterministic**
    /// host timer.
    fn time(&mut self, key: &'static str, ns: u64);

    /// Record a host-time span (listed under `host.spans` in the dump).
    fn span(&mut self, name: &'static str, start_ns: u64, end_ns: u64);

    /// Monotonic nanoseconds since the profiler's epoch; `0` when
    /// inactive (callers gate on `ACTIVE`, so the value is never used).
    fn now(&self) -> u64;
}

/// The no-op profiler: `ACTIVE == false`, so every instrumentation site
/// in the engine compiles away.
pub struct NullHostProf;

impl HostProf for NullHostProf {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn count(&mut self, _key: &'static str, _delta: u64) {}
    #[inline(always)]
    fn sample(&mut self, _key: &'static str, _value: u64) {}
    #[inline(always)]
    fn time(&mut self, _key: &'static str, _ns: u64) {}
    #[inline(always)]
    fn span(&mut self, _name: &'static str, _start_ns: u64, _end_ns: u64) {}
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
}

/// Aggregated wall-clock attribution for one timer key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerAgg {
    /// Number of attributions.
    pub count: u64,
    /// Total nanoseconds.
    pub total_ns: u64,
    /// Largest single attribution.
    pub max_ns: u64,
}

impl TimerAgg {
    fn add(&mut self, ns: u64) {
        self.count = self.count.saturating_add(1);
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }
}

/// One completed host-time span.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    /// Span label.
    pub name: &'static str,
    /// Nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// The collecting [`HostProf`]: deterministic counters/histograms in one
/// set of maps, host timings strictly in another.
pub struct HostProfiler {
    epoch: Instant,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    timers: BTreeMap<&'static str, TimerAgg>,
    spans: Vec<HostSpan>,
}

impl Default for HostProfiler {
    fn default() -> HostProfiler {
        HostProfiler::new()
    }
}

impl HostProf for HostProfiler {
    const ACTIVE: bool = true;

    fn count(&mut self, key: &'static str, delta: u64) {
        let c = self.counters.entry(key).or_insert(0);
        *c = c.saturating_add(delta);
    }

    fn sample(&mut self, key: &'static str, value: u64) {
        self.hists.entry(key).or_default().record(value);
    }

    fn time(&mut self, key: &'static str, ns: u64) {
        self.timers.entry(key).or_default().add(ns);
    }

    fn span(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(HostSpan {
            name,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
        });
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl HostProfiler {
    /// Empty profiler; the epoch for [`HostProf::now`] starts here.
    pub fn new() -> HostProfiler {
        HostProfiler {
            epoch: Instant::now(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            timers: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    /// The named deterministic counter (0 when never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The named deterministic histogram, if touched.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// The named host timer, if touched.
    pub fn timer(&self, key: &str) -> Option<&TimerAgg> {
        self.timers.get(key)
    }

    /// Deterministic counters, sorted by key.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Deterministic histograms, sorted by key.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    /// Host timers, sorted by key. Wall-clock — never golden material.
    pub fn timers(&self) -> impl Iterator<Item = (&str, &TimerAgg)> {
        self.timers.iter().map(|(&k, v)| (k, v))
    }

    /// Sum of all deterministic counters whose key starts with `prefix`
    /// (e.g. every `engine.park.` class).
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// The deterministic section alone — the golden-testable subset.
    /// Contains no wall-clock field by construction.
    pub fn deterministic_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(&k, &v)| (k.to_string(), Json::Int(v as i128)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Json::Obj(
                    self.hists
                        .iter()
                        .map(|(&k, h)| (k.to_string(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// The nondeterministic host section (timers, spans).
    fn host_json(&self) -> Json {
        Json::Obj(vec![
            (
                "timers".to_string(),
                Json::Obj(
                    self.timers
                        .iter()
                        .map(|(&k, t)| {
                            (
                                k.to_string(),
                                Json::Obj(vec![
                                    ("count".to_string(), Json::Int(t.count as i128)),
                                    ("total_ns".to_string(), Json::Int(t.total_ns as i128)),
                                    ("max_ns".to_string(), Json::Int(t.max_ns as i128)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "spans".to_string(),
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::Str(s.name.to_string())),
                                ("start_ns".to_string(), Json::Int(s.start_ns as i128)),
                                ("dur_ns".to_string(), Json::Int(s.dur_ns as i128)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The full [`HOSTPROF_SCHEMA`] document: deterministic section
    /// first, host section quarantined after it.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(HOSTPROF_SCHEMA.to_string())),
            ("deterministic".to_string(), self.deterministic_json()),
            ("host".to_string(), self.host_json()),
        ])
    }

    /// [`HostProfiler::to_json`] as a compact string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Host time as flamegraph-ready folded stacks: each timer key's
    /// dot-separated components become frames (`phase.steady` →
    /// `host;phase;steady total_ns`).
    pub fn folded(&self) -> FoldedStacks {
        let mut f = FoldedStacks::new();
        for (key, agg) in &self.timers {
            let mut frames: Vec<&str> = vec!["host"];
            frames.extend(key.split('.'));
            f.add(&frames, agg.total_ns);
        }
        f
    }
}

/// Validate a [`HOSTPROF_SCHEMA`] document: schema tag, section shape,
/// and — the quarantine invariant — no wall-clock key inside the
/// deterministic section (no key there may start with `host` or end in
/// `_ns`), and nothing but timers/spans inside `host`.
pub fn validate_hostprof_json(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Json::as_str) != Some(HOSTPROF_SCHEMA) {
        return Err(format!("schema is not {HOSTPROF_SCHEMA}"));
    }
    let det = doc.get("deterministic").ok_or("missing deterministic")?;
    let Some(Json::Obj(counters)) = det.get("counters") else {
        return Err("deterministic.counters missing or not an object".to_string());
    };
    for (k, v) in counters {
        if k.starts_with("host") || k.ends_with("_ns") {
            return Err(format!("wall-clock key `{k}` in deterministic section"));
        }
        if v.as_int().is_none() {
            return Err(format!("deterministic counter `{k}` is not an integer"));
        }
    }
    let Some(Json::Obj(hists)) = det.get("histograms") else {
        return Err("deterministic.histograms missing or not an object".to_string());
    };
    for (k, h) in hists {
        if k.starts_with("host") || k.ends_with("_ns") {
            return Err(format!("wall-clock key `{k}` in deterministic section"));
        }
        if Histogram::from_json(h).is_none() {
            return Err(format!("deterministic histogram `{k}` is malformed"));
        }
    }
    let host = doc.get("host").ok_or("missing host section")?;
    for section in ["timers", "spans"] {
        if host.get(section).is_none() {
            return Err(format!("host.{section} missing"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler_with_data() -> HostProfiler {
        let mut p = HostProfiler::new();
        p.count("win.fired", 3);
        p.count("win.veto.retire_bound", 2);
        p.sample("win.len", 64);
        p.sample("win.len", 128);
        p.time("phase.steady", 1_500);
        p.time("phase.steady", 500);
        p.span("root", 100, 2_100);
        p
    }

    #[test]
    fn null_profiler_is_inert() {
        let mut n = NullHostProf;
        const { assert!(!NullHostProf::ACTIVE) };
        n.count("x", 1);
        n.time("x", 1);
        assert_eq!(n.now(), 0);
    }

    #[test]
    fn counters_and_timers_aggregate() {
        let p = profiler_with_data();
        assert_eq!(p.counter("win.fired"), 3);
        assert_eq!(p.counter("missing"), 0);
        assert_eq!(p.counter_prefix_sum("win.veto."), 2);
        assert_eq!(p.hist("win.len").unwrap().count(), 2);
        let t = p.timer("phase.steady").unwrap();
        assert_eq!((t.count, t.total_ns, t.max_ns), (2, 2_000, 1_500));
    }

    #[test]
    fn json_validates_and_quarantines() {
        let p = profiler_with_data();
        let text = p.to_json_string();
        validate_hostprof_json(&text).unwrap();
        // The deterministic subset contains no `ns` anywhere.
        let det = p.deterministic_json().to_string_compact();
        assert!(!det.contains("_ns"), "wall-clock leaked: {det}");
        assert!(!det.contains("host"), "host section leaked: {det}");
    }

    #[test]
    fn validator_rejects_wall_clock_in_deterministic() {
        let bad = r#"{"schema":"hwgc-hostprof-v1",
            "deterministic":{"counters":{"host_tick_ns":5},"histograms":{}},
            "host":{"timers":{},"spans":[]}}"#;
        let err = validate_hostprof_json(bad).unwrap_err();
        assert!(err.contains("wall-clock"), "{err}");
    }

    #[test]
    fn folded_stacks_split_on_dots() {
        let p = profiler_with_data();
        let folded = p.folded().to_folded_string();
        assert!(folded.contains("host;phase;steady 2000"), "{folded}");
    }
}
