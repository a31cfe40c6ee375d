//! Spans recorded from the benchmark's side of each layer boundary: name,
//! start, end, parent and op id, kept in memory and written at exit as
//! Chrome trace-event JSON. A layer's self time is its span minus the part
//! its children cover. Wall-clock only — the program's virtual-clock
//! tracer is modeled time and is not a timing source here.

use crate::json::{num, obj, text, Json};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; a span with no parent
    /// starts a new op.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.ops += 1;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op: self.ops,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Time one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, usize) {
        let id = self.begin(name);
        let value = call();
        self.end(id);
        (value, id)
    }

    pub fn micros(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e3
    }

    /// Per span name: (count, total µs, self µs).
    pub fn layer_table(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let row = table.entry(span.name).or_default();
            row.0 += 1;
            row.1 += total as f64 / 1e3;
            row.2 += total.saturating_sub(children) as f64 / 1e3;
        }
        table
    }

    /// Share of top-level op time no child span covers, in percent, over
    /// the ops named `op_name`.
    pub fn unattributed_pct(&self, op_name: &str) -> f64 {
        let (mut whole, mut covered) = (0u64, 0u64);
        for span in &self.spans {
            if span.parent.is_none() && span.name == op_name {
                whole += span.end_ns - span.start_ns;
            } else if let Some(parent) = span.parent {
                let parent = &self.spans[parent];
                if parent.parent.is_none() && parent.name == op_name {
                    covered += span.end_ns - span.start_ns;
                }
            }
        }
        crate::stats::ratio(whole.saturating_sub(covered) as f64, whole as f64) * 100.0
    }

    /// Chrome trace-event JSON, the format the repository already exports.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let mut args = vec![("span_id", num(id as f64)), ("op", num(span.op as f64))];
                if let Some(parent) = span.parent {
                    args.push(("parent", num(parent as f64)));
                }
                obj(vec![
                    ("name", text(span.name)),
                    ("ph", text("X")),
                    ("ts", num(span.start_ns as f64 / 1e3)),
                    ("dur", num((span.end_ns - span.start_ns) as f64 / 1e3)),
                    ("pid", num(1.0)),
                    ("tid", num(0.0)),
                    ("args", obj(args)),
                ])
            })
            .collect();
        obj(vec![
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", text("ms")),
        ])
    }
}
