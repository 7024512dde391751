//! In-memory span tracing for the traced run: one span around every call
//! the benchmark makes into a layer. Spans nest through a stack, share an
//! op id with the op that caused them, stay in memory during the run and
//! are written out once at the end. A layer's self time is its span minus
//! the part of it its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use hwgc_obs::json::Json;

/// The span every op's layer calls nest under.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a root.
    pub parent: Option<usize>,
    /// The op this span belongs to (0 = set-up and one-off measurements).
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
    ops_started: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            ops_started: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Run one op: a fresh op id and an [`OP`] span around `f`. Spans
    /// recorded between ops (clones, one-off kernels) carry op id 0.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.ops_started += 1;
        self.op = self.ops_started;
        let out = self.span(OP, f);
        self.op = 0;
        out
    }

    /// Close whatever a panicking op left open, so the trace stays a
    /// forest and the next op starts at the root.
    pub fn close_abandoned(&mut self) {
        let now = self.now_ns();
        while let Some(index) = self.open.pop() {
            self.spans[index].end_ns = now;
        }
        self.op = 0;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Totals per span name, largest self time first.
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let own = self.self_ns();
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let row = rows.entry(s.name).or_insert(LayerRow {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += s.dur_ns();
            row.self_ns += self_ns;
        }
        let mut rows: Vec<LayerRow> = rows.into_values().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.self_ns));
        rows
    }

    /// [`Tracer::span`], also returning the span's duration in seconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let index = self.spans.len();
        let out = self.span(name, f);
        (out, self.spans[index].dur_ns() as f64 * 1e-9)
    }

    /// Seconds spent in spans called `name`: one entry per op that has
    /// any (summed within the op), then one per span outside any op.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        let mut per_op: BTreeMap<u32, u64> = BTreeMap::new();
        let mut loose = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if s.op == 0 {
                loose.push(s.dur_ns());
            } else {
                *per_op.entry(s.op).or_default() += s.dur_ns();
            }
        }
        per_op
            .into_values()
            .chain(loose)
            .map(|ns| ns as f64 * 1e-9)
            .collect()
    }

    /// Median of [`Tracer::seconds`]; 0 when no span has that name.
    pub fn median_seconds(&self, name: &str) -> f64 {
        let seconds = self.seconds(name);
        if seconds.is_empty() {
            0.0
        } else {
            crate::stats::median(&seconds)
        }
    }

    /// The share of op time no child span accounts for: the ops' own
    /// self time over their total duration.
    pub fn unattributed_share(&self) -> f64 {
        match self.layer_table().iter().find(|r| r.name == OP) {
            Some(r) if r.total_ns > 0 => r.self_ns as f64 / r.total_ns as f64,
            _ => 0.0,
        }
    }

    /// The first `limit` spans as JSON (a warm sweep records hundreds of
    /// thousands; the layer table is computed over all of them).
    pub fn spans_json(&self, limit: usize) -> Json {
        let int = |v: u64| Json::Int(i128::from(v));
        Json::Arr(
            self.spans
                .iter()
                .take(limit)
                .map(|s| {
                    Json::Obj(vec![
                        ("name".to_string(), Json::Str(s.name.to_string())),
                        ("start_ns".to_string(), int(s.start_ns)),
                        ("end_ns".to_string(), int(s.end_ns)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, |p| int(p as u64)),
                        ),
                        ("op".to_string(), int(u64::from(s.op))),
                    ])
                })
                .collect(),
        )
    }
}
