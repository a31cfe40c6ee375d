//! A bounded, in-memory metrics time-series store.
//!
//! The flight recorder (PR 5) answers "what happened"; this module answers
//! "how fast is it changing". A [`Tsdb`] holds one fixed-capacity ring of
//! [`Sample`]s per series and is fed by an explicit *scrape*: registered
//! sources are read and appended at a caller-supplied virtual-clock
//! timestamp. There is no background thread — scrapes happen at
//! well-defined points (a `system.metrics_history` scan, a benchmark
//! iteration, a test step), the same discipline the [`crate::alerts`]
//! engine uses, so two seeded runs produce byte-identical series.
//!
//! The one windowed query, [`Tsdb::rate`] (per virtual second), looks at
//! the *trailing* end of a series — the window ends at the newest sample,
//! so it needs no clock. It is what rate-over-window alert rules
//! ([`crate::alerts::AlertRule::rate_over_window`]) and the region heat
//! views evaluate — the signals that predict collapse are growth rates
//! (compaction backlog, write-stall time), not instantaneous gauges.
//!
//! Series names follow Prometheus conventions: a bare metric name, or
//! `name{label="value"}` for labeled series. [`Tsdb::series_name`] is the
//! one place such a name is spelled (label values escaped the way the text
//! exposition escapes them) and [`Tsdb::split_series_name`] the one place
//! it is taken apart again — into the `metric` and `labels` columns of the
//! SQL surface, and through [`Labels::get`] into the values that went in.
//!
//! There is one store per cluster (`HBaseCluster::tsdb()`): the store
//! metrics' scrape sources and the heartbeat-fed `region_*` series share
//! it, so a rate alert, `system.metrics_history` and the heat observatory
//! all read the same rings and one liveness mark mutes a dead server
//! everywhere.

use crate::export::TextExporter;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One observation: a value at a virtual-clock millisecond.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub ts_ms: u64,
    pub value: f64,
}

/// A scrape source: returns `(series_name, value)` pairs in a deterministic
/// order. Counter registries, histogram snapshots and computed gauges all
/// fit this shape.
pub type ScrapeFn = Box<dyn Fn() -> Vec<(String, f64)> + Send + Sync>;

/// The `k="v",…` text between a series name's braces (empty for a bare
/// metric name), as [`Tsdb::split_series_name`] returns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Labels<'a>(pub &'a str);

impl Labels<'_> {
    /// The unescaped value of label `key`; `None` when the series does not
    /// carry it.
    pub fn get(&self, key: &str) -> Option<String> {
        let mut rest = self.0;
        while !rest.is_empty() {
            let (name, after) = rest.split_once("=\"")?;
            let mut value = String::new();
            let mut chars = after.char_indices();
            let end = loop {
                match chars.next()? {
                    (i, '"') => break i,
                    (_, '\\') => match chars.next()?.1 {
                        'n' => value.push('\n'),
                        c => value.push(c),
                    },
                    (_, c) => value.push(c),
                }
            };
            if name == key {
                return Some(value);
            }
            rest = &after[end + 1..];
            rest = rest.strip_prefix(',').unwrap_or(rest);
        }
        None
    }
}

/// Bounded per-series ring buffers plus the scrape sources that feed them.
pub struct Tsdb {
    capacity_per_series: usize,
    /// `BTreeMap` so iteration (and therefore every rendered or SQL-visible
    /// ordering) is deterministic.
    series: Mutex<BTreeMap<String, VecDeque<Sample>>>,
    /// Series whose source is known dead (a crashed server). Stale series
    /// keep their history but answer `None` to every windowed query — a
    /// frozen counter must not masquerade as a zero-rate live one. A fresh
    /// [`record`](Self::record) revives the series.
    stale: Mutex<BTreeSet<String>>,
    sources: RwLock<Vec<ScrapeFn>>,
    /// Lifetime samples recorded (including ones the rings later evicted).
    samples_total: AtomicU64,
}

impl Tsdb {
    /// A store keeping at most `capacity_per_series` samples per series
    /// (older samples fall off the ring).
    pub fn new(capacity_per_series: usize) -> Arc<Self> {
        Arc::new(Tsdb {
            capacity_per_series: capacity_per_series.max(2),
            series: Mutex::new(BTreeMap::new()),
            stale: Mutex::new(BTreeSet::new()),
            sources: RwLock::new(Vec::new()),
            samples_total: AtomicU64::new(0),
        })
    }

    /// Register a scrape source. Sources are read in registration order on
    /// every [`scrape`](Self::scrape).
    pub fn add_source(&self, source: impl Fn() -> Vec<(String, f64)> + Send + Sync + 'static) {
        self.sources.write().push(Box::new(source));
    }

    /// Read every source and append its readings at virtual time `now_ms`.
    /// Returns the number of samples appended. A reading at the same
    /// timestamp as a series' newest sample replaces it (re-scraping within
    /// one virtual millisecond must not manufacture zero-width rate
    /// windows).
    pub fn scrape(&self, now_ms: u64) -> usize {
        let sources = self.sources.read();
        let mut appended = 0;
        for source in sources.iter() {
            for (name, value) in source() {
                self.record(&name, now_ms, value);
                appended += 1;
            }
        }
        appended
    }

    /// Append one sample directly (what [`scrape`](Self::scrape) does per
    /// reading). Exposed for layers that produce their own observations.
    pub fn record(&self, series: &str, ts_ms: u64, value: f64) {
        self.stale.lock().remove(series);
        let mut all = self.series.lock();
        let ring = all.entry(series.to_string()).or_default();
        if let Some(last) = ring.back_mut() {
            if last.ts_ms == ts_ms {
                last.value = value;
                return;
            }
        }
        if ring.len() >= self.capacity_per_series {
            ring.pop_front();
        }
        ring.push_back(Sample { ts_ms, value });
        self.samples_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Every series name, sorted.
    pub fn series_names(&self) -> Vec<String> {
        self.series.lock().keys().cloned().collect()
    }

    /// All samples of one series, oldest first.
    pub fn samples(&self, series: &str) -> Vec<Sample> {
        self.series
            .lock()
            .get(series)
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// `(series, samples)` for every series, name-sorted — the backing rows
    /// of `system.metrics_history`.
    pub fn all_series(&self) -> Vec<(String, Vec<Sample>)> {
        self.series
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.iter().copied().collect()))
            .collect()
    }

    /// Newest sample of a series.
    pub fn latest(&self, series: &str) -> Option<Sample> {
        self.series
            .lock()
            .get(series)
            .and_then(|r| r.back().copied())
    }

    /// Mark every series carrying the label `key="value"` stale. The
    /// windowed query ([`rate`](Self::rate)) returns `None` for stale
    /// series until a fresh [`record`](Self::record) revives them. Returns
    /// the number of series newly marked. Typical label: `server`, with the
    /// hostname of a server that missed its heartbeat deadline.
    pub fn mark_stale(&self, key: &str, value: &str) -> usize {
        let all = self.series.lock();
        let mut stale = self.stale.lock();
        all.keys()
            .filter(|name| has_label(name, key, value))
            .filter(|name| stale.insert((*name).clone()))
            .count()
    }

    /// Clear the stale flag on every series carrying the label
    /// `key="value"` (a server came back before writing new samples).
    /// Returns the number of series revived.
    pub fn mark_live(&self, key: &str, value: &str) -> usize {
        let mut stale = self.stale.lock();
        let before = stale.len();
        stale.retain(|name| !has_label(name, key, value));
        before - stale.len()
    }

    /// Whether a series is currently marked stale.
    pub fn is_stale(&self, series: &str) -> bool {
        self.stale.lock().contains(series)
    }

    /// Every stale series name, sorted.
    pub fn stale_series(&self) -> Vec<String> {
        self.stale.lock().iter().cloned().collect()
    }

    /// Samples in the trailing window `[newest.ts - window_ms, newest.ts]`.
    /// Empty for stale series: a dead server's frozen counters have no
    /// meaningful trailing window.
    fn window(&self, series: &str, window_ms: u64) -> Vec<Sample> {
        if self.is_stale(series) {
            return Vec::new();
        }
        let all = self.series.lock();
        let Some(ring) = all.get(series) else {
            return Vec::new();
        };
        let Some(last) = ring.back() else {
            return Vec::new();
        };
        let floor = last.ts_ms.saturating_sub(window_ms);
        ring.iter().filter(|s| s.ts_ms >= floor).copied().collect()
    }

    /// Change per **virtual second** across the trailing window: newest
    /// minus oldest in-window value, divided by the virtual time between
    /// them. `None` with fewer than two samples (a rate needs a slope).
    /// Negative for a draining gauge.
    pub fn rate(&self, series: &str, window_ms: u64) -> Option<f64> {
        let w = self.window(series, window_ms);
        if w.len() < 2 {
            return None;
        }
        let (first, last) = (w[0], w[w.len() - 1]);
        let elapsed_ms = last.ts_ms.saturating_sub(first.ts_ms);
        if elapsed_ms == 0 {
            return None;
        }
        Some((last.value - first.value) / (elapsed_ms as f64 / 1000.0))
    }

    /// Lifetime samples recorded (eviction does not subtract).
    pub fn sample_count(&self) -> u64 {
        self.samples_total.load(Ordering::Relaxed)
    }

    /// Deterministic text dump — one `series ts=.. value=..` line per
    /// sample, series name-sorted, oldest first. Byte-equality of two dumps
    /// is the reproducibility assertion for seeded runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, samples) in self.all_series() {
            for s in samples {
                out.push_str(&format!("{name} ts={} value={}\n", s.ts_ms, s.value));
            }
        }
        out
    }

    /// The series name of `metric` with `labels`, in the given order:
    /// `metric{k="v",…}`, or the bare metric when there are none. Values
    /// are escaped, so a table called `a",b` is one label value, not two
    /// labels.
    pub fn series_name(metric: &str, labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return metric.to_string();
        }
        let pairs: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", TextExporter::escape_label_value(v)))
            .collect();
        format!("{metric}{{{}}}", pairs.join(","))
    }

    /// Split a series name into its metric and its [`Labels`] — the inverse
    /// of [`series_name`](Self::series_name).
    pub fn split_series_name(series: &str) -> (&str, Labels<'_>) {
        match series.split_once('{') {
            Some((metric, rest)) => (metric, Labels(rest.strip_suffix('}').unwrap_or(rest))),
            None => (series, Labels("")),
        }
    }
}

fn has_label(series: &str, key: &str, value: &str) -> bool {
    Tsdb::split_series_name(series).1.get(key).as_deref() == Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_appends_sources_in_order() {
        let tsdb = Tsdb::new(16);
        tsdb.add_source(|| vec![("a".into(), 1.0), ("b".into(), 2.0)]);
        let n = tsdb.scrape(100);
        assert_eq!(n, 2);
        assert_eq!(tsdb.series_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(
            tsdb.latest("a"),
            Some(Sample {
                ts_ms: 100,
                value: 1.0
            })
        );
        assert_eq!(tsdb.sample_count(), 2);
    }

    #[test]
    fn ring_is_bounded_per_series() {
        let tsdb = Tsdb::new(4);
        for t in 0..10u64 {
            tsdb.record("m", t, t as f64);
        }
        let samples = tsdb.samples("m");
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].ts_ms, 6, "oldest samples evicted");
        assert_eq!(tsdb.sample_count(), 10, "lifetime count keeps evictions");
    }

    #[test]
    fn same_timestamp_replaces_newest() {
        let tsdb = Tsdb::new(8);
        tsdb.record("m", 5, 1.0);
        tsdb.record("m", 5, 9.0);
        assert_eq!(tsdb.samples("m").len(), 1);
        assert_eq!(tsdb.latest("m").unwrap().value, 9.0);
    }

    #[test]
    fn rate_over_trailing_window() {
        let tsdb = Tsdb::new(64);
        // Counter rising 10/sample, 500ms apart.
        for i in 0..8u64 {
            tsdb.record("ctr", i * 500, (i * 10) as f64);
        }
        // Full history: 70 over 3.5s = 20/s.
        let r = tsdb.rate("ctr", 10_000).unwrap();
        assert!((r - 20.0).abs() < 1e-9);
        // Trailing 1s window: samples at 2500, 3000, 3500 → 20 over 1s.
        assert!((tsdb.rate("ctr", 1_000).unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn rate_is_negative_for_draining_gauge() {
        let tsdb = Tsdb::new(8);
        tsdb.record("gauge", 0, 100.0);
        tsdb.record("gauge", 1_000, 40.0);
        assert!((tsdb.rate("gauge", 5_000).unwrap() + 60.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_queries_need_enough_samples() {
        let tsdb = Tsdb::new(8);
        assert_eq!(tsdb.rate("missing", 1_000), None);
        tsdb.record("one", 10, 5.0);
        assert_eq!(tsdb.rate("one", 1_000), None, "one sample has no slope");
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let build = || {
            let tsdb = Tsdb::new(8);
            tsdb.record("z_metric", 1, 2.0);
            tsdb.record("a_metric{region=\"3\"}", 1, 7.5);
            tsdb.record("a_metric{region=\"3\"}", 2, 8.5);
            tsdb.render()
        };
        let a = build();
        assert_eq!(a, build(), "same inputs render byte-identically");
        let first = a.lines().next().unwrap();
        assert!(first.starts_with("a_metric{region=\"3\"} ts=1 value=7.5"));
    }

    #[test]
    fn labeled_ring_wraps_and_keeps_newest_window() {
        let tsdb = Tsdb::new(4);
        let series = "region_write_requests{region=\"7\",server=\"1\"}";
        for t in 0..12u64 {
            tsdb.record(series, t * 100, (t * 5) as f64);
        }
        let samples = tsdb.samples(series);
        assert_eq!(samples.len(), 4, "ring bounded after wraparound");
        assert_eq!(samples[0].ts_ms, 800, "oldest evicted in order");
        assert_eq!(samples[3].ts_ms, 1100);
        // Rates still computable over the surviving suffix.
        let r = tsdb.rate(series, 10_000).unwrap();
        assert!((r - 50.0).abs() < 1e-9, "5 per 100ms = 50/s, got {r}");
        assert_eq!(tsdb.sample_count(), 12, "lifetime count keeps evictions");
    }

    #[test]
    fn stale_series_answer_none_until_revived() {
        let tsdb = Tsdb::new(8);
        tsdb.record("reqs{server=\"host-0\"}", 0, 0.0);
        tsdb.record("reqs{server=\"host-0\"}", 1_000, 50.0);
        tsdb.record("reqs{server=\"host-1\"}", 1_000, 10.0);
        assert!(tsdb.rate("reqs{server=\"host-0\"}", 5_000).is_some());

        assert_eq!(tsdb.mark_stale("server", "host-0"), 1);
        assert_eq!(tsdb.mark_stale("server", "host-0"), 0, "idempotent");
        assert!(tsdb.is_stale("reqs{server=\"host-0\"}"));
        assert!(!tsdb.is_stale("reqs{server=\"host-1\"}"));
        assert_eq!(tsdb.rate("reqs{server=\"host-0\"}", 5_000), None);
        // History is retained even while stale.
        assert_eq!(tsdb.samples("reqs{server=\"host-0\"}").len(), 2);

        // A fresh observation (restart heartbeat) revives the series.
        tsdb.record("reqs{server=\"host-0\"}", 2_000, 55.0);
        assert!(!tsdb.is_stale("reqs{server=\"host-0\"}"));
        assert!(tsdb.rate("reqs{server=\"host-0\"}", 5_000).is_some());
        assert!(tsdb.stale_series().is_empty());
    }

    #[test]
    fn mark_live_revives_without_new_samples() {
        let tsdb = Tsdb::new(8);
        tsdb.record("a{server=\"2\"}", 0, 1.0);
        tsdb.record("b{server=\"2\"}", 0, 1.0);
        assert_eq!(tsdb.mark_stale("server", "2"), 2);
        assert_eq!(tsdb.mark_live("server", "2"), 2);
        assert!(tsdb.stale_series().is_empty());
    }

    #[test]
    fn series_name_splits_into_metric_and_labels() {
        assert_eq!(Tsdb::split_series_name("plain"), ("plain", Labels("")));
        assert_eq!(
            Tsdb::split_series_name("m{region=\"7\"}"),
            ("m", Labels("region=\"7\""))
        );
        assert_eq!(Tsdb::series_name("plain", &[]), "plain");
    }

    /// Label values come back exactly as they went in, whatever they hold:
    /// the unescaped form of these used to split on the `",` inside a value.
    #[test]
    fn label_values_round_trip_through_a_series_name() {
        let table = "a\",b=\"c\\\nd{}";
        let series = Tsdb::series_name(
            "region_read_requests",
            &[("region", "7"), ("server", "host-0"), ("table", table)],
        );
        let (metric, labels) = Tsdb::split_series_name(&series);
        assert_eq!(metric, "region_read_requests");
        assert_eq!(labels.get("region").as_deref(), Some("7"));
        assert_eq!(labels.get("server").as_deref(), Some("host-0"));
        assert_eq!(labels.get("table").as_deref(), Some(table));
        assert_eq!(labels.get("b"), None, "a key inside a value is not a label");
        assert_eq!(Labels("").get("server"), None);

        // Liveness matches whole label values, never text inside another.
        let tsdb = Tsdb::new(4);
        tsdb.record(&series, 0, 1.0);
        let decoy = "server=\"host-0\"";
        tsdb.record(&Tsdb::series_name("m", &[("table", decoy)]), 0, 1.0);
        assert_eq!(tsdb.mark_stale("server", "host-0"), 1);
        assert!(tsdb.is_stale(&series));
    }
}
