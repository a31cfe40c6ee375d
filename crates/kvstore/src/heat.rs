//! The region heat observatory: per-region load time series, windowed
//! hotspot scoring, key-distribution sampling, and the advisory
//! split/merge/salt engine.
//!
//! PR 4's load accounting ([`crate::load`]) freezes counters into heartbeat
//! snapshots; nothing observed their *evolution*. This module feeds every
//! heartbeat's per-region counters into the cluster's series store
//! ([`HBaseCluster::tsdb`](crate::cluster::HBaseCluster::tsdb) — the
//! observatory is a window and a set of views over it, with no store of its
//! own) as labeled series
//! (`region_read_requests{region="7",server="host-0",table="default:t"}`,
//! named and taken apart by [`Tsdb::series_name`] /
//! [`Tsdb::split_series_name`]), computes trailing-window rates on the
//! virtual clock, and scores regions by request rate so the hottest region —
//! and the *trend* of its heat — is a query away (`system.region_heat`). A
//! dead server's regions leave every view when
//! [`cluster_status`](crate::cluster::HBaseCluster::cluster_status) marks
//! its series stale.
//!
//! Knowing a region is hot is half the story; acting on it needs to know
//! *where in the key space* the heat concentrates. Each region keeps a
//! deterministic reservoir sample of the row keys written to its memstores
//! ([`KeySampler`]); merged with the store files' sparse block-index keys
//! (position probes into the persisted distribution) this yields a
//! frequency-weighted key sample from which a split key falls out as the
//! weighted median ([`split_key_from_sample`]).
//!
//! The [`advise`] function turns heat + key samples into advisory
//! [`ShardRecommendation`]s — Split (hot and splittable), Salt (hot but the
//! sample names no viable split point: a single hot row or pure sequential
//! append), Merge (two adjacent cold siblings). **Advisory only**: the
//! recommendations are surfaced through `system.shard_advisor` and a
//! heatmap report; the balancer loop that executes them is future work.
//!
//! Everything runs on the virtual clock and seeded hashes, so two same-seed
//! runs produce byte-identical heat reports — the reproducibility contract
//! the rest of the observability stack follows.

use crate::load::ServerLoad;
use bytes::Bytes;
use shc_obs::json::{render, Json};
use shc_obs::Tsdb;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default trailing window for heat rates, in virtual milliseconds.
pub const DEFAULT_HEAT_WINDOW_MS: u64 = 10_000;

/// Default reservoir capacity per region.
pub const KEY_SAMPLE_CAPACITY: usize = 64;

/// Number of time buckets in a rendered heat report grid.
pub const HEAT_REPORT_BUCKETS: usize = 16;

/// Same mixer the fault injector and client jitter use — one deterministic
/// hash family across the simulation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic reservoir sample (Algorithm R) over the row keys a region
/// receives. Seeded by region id, so the same workload always yields the
/// same sample — repeated writes to a hot row appear multiple times, which
/// is exactly what makes the derived split key *load*-weighted rather than
/// merely space-weighted.
#[derive(Debug)]
pub struct KeySampler {
    seed: u64,
    capacity: usize,
    seen: u64,
    keys: Vec<Bytes>,
}

impl KeySampler {
    pub fn new(seed: u64, capacity: usize) -> Self {
        KeySampler {
            seed,
            capacity: capacity.max(1),
            seen: 0,
            keys: Vec::new(),
        }
    }

    /// Offer one observed row key to the reservoir.
    pub fn observe(&mut self, row: &Bytes) {
        self.seen += 1;
        if self.keys.len() < self.capacity {
            self.keys.push(row.clone());
            return;
        }
        // Keep with probability capacity/seen, replacing a uniform slot.
        let j = splitmix64(self.seed ^ self.seen) % self.seen;
        if (j as usize) < self.capacity {
            self.keys[j as usize] = row.clone();
        }
    }

    /// Lifetime observations offered (including ones not retained).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained sample, unsorted, duplicates preserved.
    pub fn keys(&self) -> &[Bytes] {
        &self.keys
    }
}

/// Which way a region's heat is moving: the rate over the most recent half
/// window compared against the rate over the full window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trend {
    Rising,
    Flat,
    Falling,
}

impl Trend {
    pub fn as_str(&self) -> &'static str {
        match self {
            Trend::Rising => "rising",
            Trend::Flat => "flat",
            Trend::Falling => "falling",
        }
    }
}

/// One region's windowed heat, parsed back out of the observatory's series.
#[derive(Clone, Debug)]
pub struct RegionHeat {
    pub region_id: u64,
    /// Fully-qualified table name.
    pub table: String,
    /// Hostname of the server that last reported the region.
    pub server: String,
    /// Read requests per virtual second over the window.
    pub read_rate: f64,
    /// Write requests per virtual second over the window.
    pub write_rate: f64,
    /// Newest reported memstore footprint (bytes).
    pub memstore_bytes: f64,
    /// Newest reported store-file payload (bytes).
    pub store_file_bytes: f64,
    /// The hotspot score: total request rate (reads + writes per virtual
    /// second) over the window. One number, deliberately simple — ranking
    /// and thresholds stay explainable.
    pub heat_score: f64,
    pub trend: Trend,
    /// Window the rates were computed over, virtual ms.
    pub window_ms: u64,
}

/// A region's identity as its series carry it.
struct RegionLabels {
    region_id: u64,
    server: String,
    table: String,
}

impl RegionLabels {
    /// The labels of a `region_*` series; `None` for any other series.
    fn of(labels: shc_obs::Labels<'_>) -> Option<RegionLabels> {
        Some(RegionLabels {
            region_id: labels.get("region")?.parse().ok()?,
            server: labels.get("server")?,
            table: labels.get("table")?,
        })
    }

    fn series(&self, metric: &str) -> String {
        Tsdb::series_name(
            metric,
            &[
                ("region", &self.region_id.to_string()),
                ("server", &self.server),
                ("table", &self.table),
            ],
        )
    }
}

/// Heartbeat-fed labeled time series over per-region load in the cluster's
/// series store, plus the derived views: heat snapshots, the hotspot
/// maximum, and the time × region grid.
pub struct HeatObservatory {
    tsdb: Arc<Tsdb>,
    window_ms: u64,
}

impl HeatObservatory {
    /// An observatory recording into and reading from `tsdb`.
    pub fn new(tsdb: Arc<Tsdb>, window_ms: u64) -> Self {
        HeatObservatory {
            tsdb,
            window_ms: window_ms.max(1),
        }
    }

    /// Record one server heartbeat's per-region counters as labeled samples
    /// at virtual time `now_ms`. Call wherever heartbeats land (the
    /// cluster's heartbeat round) — recording revives any series a crash
    /// had marked stale.
    pub fn observe_server(&self, load: &ServerLoad, now_ms: u64) {
        for region in &load.regions {
            let labels = RegionLabels {
                region_id: region.region_id,
                server: load.hostname.clone(),
                table: region.table.clone(),
            };
            for (metric, value) in [
                ("region_read_requests", region.read_requests),
                ("region_write_requests", region.write_requests),
                ("region_memstore_bytes", region.memstore_bytes),
                ("region_store_file_bytes", region.store_file_bytes),
            ] {
                self.tsdb
                    .record(&labels.series(metric), now_ms, value as f64);
            }
        }
    }

    /// The live `metric` series and whose they are, in series-name order.
    fn live_series(&self, metric: &str) -> Vec<(String, RegionLabels)> {
        let mut out = Vec::new();
        for series in self.tsdb.series_names() {
            let (name, labels) = Tsdb::split_series_name(&series);
            if name != metric || self.tsdb.is_stale(&series) {
                continue;
            }
            if let Some(labels) = RegionLabels::of(labels) {
                out.push((series, labels));
            }
        }
        out
    }

    /// One heat snapshot per live region, sorted by region id. Regions whose
    /// series are stale (dead server) are excluded; regions with fewer than
    /// two in-window samples read as zero-rate.
    pub fn region_heat(&self) -> Vec<RegionHeat> {
        let mut out = Vec::new();
        for (series, labels) in self.live_series("region_read_requests") {
            let write_series = labels.series("region_write_requests");
            let read_rate = self.tsdb.rate(&series, self.window_ms).unwrap_or(0.0);
            let write_rate = self.tsdb.rate(&write_series, self.window_ms).unwrap_or(0.0);
            let heat_score = read_rate + write_rate;
            // Trend: most recent half window vs the full window.
            let short = self.tsdb.rate(&series, self.window_ms / 2).unwrap_or(0.0)
                + self
                    .tsdb
                    .rate(&write_series, self.window_ms / 2)
                    .unwrap_or(0.0);
            let trend = if short > heat_score * 1.25 + 1e-9 {
                Trend::Rising
            } else if short + 1e-9 < heat_score * 0.75 {
                Trend::Falling
            } else {
                Trend::Flat
            };
            let latest = |name: &str| self.tsdb.latest(name).map(|s| s.value).unwrap_or(0.0);
            out.push(RegionHeat {
                memstore_bytes: latest(&labels.series("region_memstore_bytes")),
                store_file_bytes: latest(&labels.series("region_store_file_bytes")),
                region_id: labels.region_id,
                table: labels.table,
                server: labels.server,
                read_rate,
                write_rate,
                heat_score,
                trend,
                window_ms: self.window_ms,
            });
        }
        out.sort_by_key(|h| h.region_id);
        out
    }

    /// The largest heat score across live regions; `None` before any region
    /// has two in-window samples' worth of history.
    pub fn hotspot_score_max(&self) -> Option<f64> {
        self.region_heat()
            .into_iter()
            .map(|h| h.heat_score)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Per-region request totals bucketed over the observed time span:
    /// `(start_ms, bucket_ms, rows)` where each row is one live region's
    /// `(region_id, table, server, per-bucket request deltas)`, sorted by
    /// region id. Empty when no series holds a sample.
    #[allow(clippy::type_complexity)]
    fn request_grid(&self, buckets: usize) -> (u64, u64, Vec<(u64, String, String, Vec<u64>)>) {
        let buckets = buckets.max(1);
        // Merge each region's read+write counter samples into one
        // cumulative total per timestamp.
        let mut regions: BTreeMap<u64, (String, String, BTreeMap<u64, f64>)> = BTreeMap::new();
        let (mut t0, mut t1) = (u64::MAX, 0u64);
        for metric in ["region_read_requests", "region_write_requests"] {
            for (series, labels) in self.live_series(metric) {
                let entry = regions
                    .entry(labels.region_id)
                    .or_insert_with(|| (labels.table, labels.server, BTreeMap::new()));
                for s in self.tsdb.samples(&series) {
                    t0 = t0.min(s.ts_ms);
                    t1 = t1.max(s.ts_ms);
                    *entry.2.entry(s.ts_ms).or_insert(0.0) += s.value;
                }
            }
        }
        if regions.is_empty() || t0 > t1 {
            return (0, 0, Vec::new());
        }
        let bucket_ms = ((t1 - t0) / buckets as u64 + 1).max(1);
        let rows = regions
            .into_iter()
            .map(|(region_id, (table, server, cumulative))| {
                let samples: Vec<(u64, f64)> = cumulative.into_iter().collect();
                // Step function: the counter value in force at the end of
                // each bucket; per-bucket delta against the previous bucket.
                let mut deltas = Vec::with_capacity(buckets);
                let mut prev = samples.first().map(|(_, v)| *v).unwrap_or(0.0);
                let mut cursor = 0usize;
                let mut current = prev;
                for b in 0..buckets {
                    let bucket_end = t0 + (b as u64 + 1) * bucket_ms - 1;
                    while cursor < samples.len() && samples[cursor].0 <= bucket_end {
                        current = samples[cursor].1;
                        cursor += 1;
                    }
                    deltas.push((current - prev).max(0.0).round() as u64);
                    prev = current;
                }
                (region_id, table, server, deltas)
            })
            .collect();
        (t0, bucket_ms, rows)
    }

    /// Deterministic text heatmap: one line per live region, intensity
    /// characters per time bucket, scaled to the grid's hottest bucket.
    /// Byte-identical across same-seed runs.
    pub fn heat_report(&self, buckets: usize) -> String {
        let (start_ms, bucket_ms, rows) = self.request_grid(buckets);
        if rows.is_empty() {
            return "heat-report | empty\n".to_string();
        }
        let max = rows
            .iter()
            .flat_map(|(_, _, _, d)| d.iter().copied())
            .max()
            .unwrap_or(0);
        let mut out = format!(
            "heat-report | start_ms={start_ms} bucket_ms={bucket_ms} regions={} max_bucket={max}\n",
            rows.len()
        );
        const RAMP: &[u8] = b" .:-=+*#%@";
        for (region_id, table, server, deltas) in rows {
            let cells: String = deltas
                .iter()
                .map(|&d| {
                    if max == 0 {
                        ' '
                    } else {
                        let idx = (d * (RAMP.len() as u64 - 1)).div_ceil(max) as usize;
                        RAMP[idx.min(RAMP.len() - 1)] as char
                    }
                })
                .collect();
            let total: u64 = deltas.iter().sum();
            out.push_str(&format!(
                "heat-report | region={region_id} table={table} server={server} total={total} |{cells}|\n"
            ));
        }
        out
    }

    /// The same grid as [`heat_report`](Self::heat_report), as one JSON
    /// object, written by the workspace's one JSON writer.
    pub fn heat_report_json(&self, buckets: usize) -> String {
        let (start_ms, bucket_ms, rows) = self.request_grid(buckets);
        let regions = rows.iter().map(|(region_id, table, server, deltas)| {
            Json::object([
                ("region", Json::from(*region_id)),
                ("table", table.as_str().into()),
                ("server", server.as_str().into()),
                ("buckets", Json::array(deltas.iter().copied())),
            ])
        });
        render(&Json::object([
            ("start_ms", start_ms.into()),
            ("bucket_ms", bucket_ms.into()),
            ("regions", Json::Array(regions.collect())),
        ]))
    }
}

/// Pick a split key from a (sorted or unsorted) key sample: the weighted
/// median of the sample restricted to viable keys — strictly greater than
/// `start_key` and, when `end_key` is bounded, strictly less than it.
/// Returns the key and the fraction of the sample that falls left of it.
/// `None` when the sample names no viable point (fewer than two distinct
/// keys, or every key equals the region start): the "hot but unsplittable"
/// signal the advisor turns into a Salt recommendation.
pub fn split_key_from_sample(
    sample: &[Bytes],
    start_key: &[u8],
    end_key: &[u8],
) -> Option<(Bytes, f64)> {
    if sample.len() < 2 {
        return None;
    }
    let mut sorted: Vec<&Bytes> = sample.iter().collect();
    sorted.sort();
    if sorted.first() == sorted.last() {
        return None; // a single distinct key cannot split
    }
    let median = sorted[sorted.len() / 2];
    // The weighted median, nudged forward past degenerate candidates.
    let candidate =
        if median.as_ref() > start_key && (end_key.is_empty() || median.as_ref() < end_key) {
            median
        } else {
            *sorted
                .iter()
                .find(|k| k.as_ref() > start_key && (end_key.is_empty() || k.as_ref() < end_key))?
        };
    let left = sorted
        .iter()
        .filter(|k| k.as_ref() < candidate.as_ref())
        .count();
    if left == 0 {
        return None; // nothing would move to the left daughter
    }
    Some(((*candidate).clone(), left as f64 / sorted.len() as f64))
}

/// What the advisor suggests doing about a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardAction {
    /// Hot and splittable: divide at the advised key.
    Split,
    /// Two adjacent cold siblings: fold them together.
    Merge,
    /// Hot but the key sample names no viable split point (single hot row
    /// or pure sequential append): salt the row-key prefix instead.
    Salt,
}

impl ShardAction {
    pub fn as_str(&self) -> &'static str {
        match self {
            ShardAction::Split => "split",
            ShardAction::Merge => "merge",
            ShardAction::Salt => "salt",
        }
    }
}

/// One advisory recommendation. Nothing acts on these yet — the balancer
/// loop that executes them is the next stage; this PR only *names* the move
/// and the evidence.
#[derive(Clone, Debug)]
pub struct ShardRecommendation {
    pub action: ShardAction,
    pub region_id: u64,
    pub table: String,
    pub server: String,
    /// The advised split key (Split only).
    pub split_key: Option<Bytes>,
    /// The region's current heat score (requests per virtual second); for
    /// Merge, the pair's combined score.
    pub heat_score: f64,
    /// Expected heat of the hotter daughter after the move (Split), of the
    /// per-server share (Salt), or of the merged region (Merge).
    pub expected_post_score: f64,
    /// Human-readable evidence for the recommendation.
    pub rationale: String,
}

/// Advisor thresholds. Defaults suit the simulation's virtual-clock rates;
/// tests and examples override them to provoke specific recommendations.
#[derive(Clone, Debug)]
pub struct AdvisorConfig {
    /// Heat score at or above which a region should split (req/s).
    pub split_score: f64,
    /// Heat score at or below which adjacent siblings may merge (req/s).
    pub merge_score: f64,
    /// Server count, used to estimate the post-salt per-server share.
    pub num_servers: usize,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            split_score: 50.0,
            merge_score: 1.0,
            num_servers: 5,
        }
    }
}

/// One region's full advisory evidence: its heat plus its key range and
/// key-distribution sample.
#[derive(Clone, Debug)]
pub struct AdvisorInput {
    pub heat: RegionHeat,
    pub start_key: Bytes,
    pub end_key: Bytes,
    /// Sorted-or-not key sample; duplicates carry write frequency.
    pub key_sample: Vec<Bytes>,
}

/// Produce advisory recommendations from heat snapshots + key samples:
/// Split/Salt for every region at or above `split_score` (hottest first),
/// then Merge for adjacent same-table pairs at or below `merge_score`.
/// Pure and deterministic — same inputs, same advice.
pub fn advise(inputs: &[AdvisorInput], config: &AdvisorConfig) -> Vec<ShardRecommendation> {
    let mut recs = Vec::new();

    let mut hot: Vec<&AdvisorInput> = inputs
        .iter()
        .filter(|i| i.heat.heat_score >= config.split_score)
        .collect();
    hot.sort_by(|a, b| {
        b.heat
            .heat_score
            .partial_cmp(&a.heat.heat_score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.heat.region_id.cmp(&b.heat.region_id))
    });
    for input in hot {
        let h = &input.heat;
        match split_key_from_sample(&input.key_sample, &input.start_key, &input.end_key) {
            Some((key, left_frac)) => {
                let heavier = left_frac.max(1.0 - left_frac);
                recs.push(ShardRecommendation {
                    action: ShardAction::Split,
                    region_id: h.region_id,
                    table: h.table.clone(),
                    server: h.server.clone(),
                    split_key: Some(key.clone()),
                    heat_score: h.heat_score,
                    expected_post_score: h.heat_score * heavier,
                    rationale: format!(
                        "heat {:.1} req/s ({:.1} read + {:.1} write, trend {}) over {}ms; \
                         weighted median of {} sampled keys puts {:.0}% of load left of '{}'",
                        h.heat_score,
                        h.read_rate,
                        h.write_rate,
                        h.trend.as_str(),
                        h.window_ms,
                        input.key_sample.len(),
                        left_frac * 100.0,
                        String::from_utf8_lossy(&key),
                    ),
                });
            }
            None => {
                recs.push(ShardRecommendation {
                    action: ShardAction::Salt,
                    region_id: h.region_id,
                    table: h.table.clone(),
                    server: h.server.clone(),
                    split_key: None,
                    heat_score: h.heat_score,
                    expected_post_score: h.heat_score / config.num_servers.max(1) as f64,
                    rationale: format!(
                        "heat {:.1} req/s (trend {}) but the {}-key sample names no viable \
                         split point; salt the row-key prefix across {} servers",
                        h.heat_score,
                        h.trend.as_str(),
                        input.key_sample.len(),
                        config.num_servers,
                    ),
                });
            }
        }
    }

    // Merge: adjacent same-table pairs, both cold, left-to-right without
    // reusing a region in two pairs.
    let mut by_table: BTreeMap<&str, Vec<&AdvisorInput>> = BTreeMap::new();
    for input in inputs {
        by_table.entry(&input.heat.table).or_default().push(input);
    }
    for (_, mut regions) in by_table {
        if regions.len() < 2 {
            continue;
        }
        regions.sort_by(|a, b| a.start_key.cmp(&b.start_key));
        let mut i = 0;
        while i + 1 < regions.len() {
            let (a, b) = (regions[i], regions[i + 1]);
            let adjacent = !a.end_key.is_empty() && a.end_key == b.start_key;
            if adjacent
                && a.heat.heat_score <= config.merge_score
                && b.heat.heat_score <= config.merge_score
            {
                let combined = a.heat.heat_score + b.heat.heat_score;
                recs.push(ShardRecommendation {
                    action: ShardAction::Merge,
                    region_id: a.heat.region_id,
                    table: a.heat.table.clone(),
                    server: a.heat.server.clone(),
                    split_key: None,
                    heat_score: combined,
                    expected_post_score: combined,
                    rationale: format!(
                        "adjacent regions {} and {} are both cold \
                         ({:.1} and {:.1} req/s ≤ {:.1}); fold them together",
                        a.heat.region_id,
                        b.heat.region_id,
                        a.heat.heat_score,
                        b.heat.heat_score,
                        config.merge_score,
                    ),
                });
                i += 2;
            } else {
                i += 1;
            }
        }
    }
    recs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::RegionLoad;

    fn observatory() -> (Arc<Tsdb>, HeatObservatory) {
        let tsdb = Tsdb::new(64);
        (Arc::clone(&tsdb), HeatObservatory::new(tsdb, 10_000))
    }

    fn region_load(id: u64, reads: u64, writes: u64) -> RegionLoad {
        RegionLoad {
            region_id: id,
            table: "default:t".into(),
            read_requests: reads,
            write_requests: writes,
            memstore_bytes: 1024,
            store_file_bytes: 4096,
            ..Default::default()
        }
    }

    fn server_load(host: &str, regions: Vec<RegionLoad>) -> ServerLoad {
        ServerLoad {
            server_id: 0,
            hostname: host.into(),
            regions,
            ..Default::default()
        }
    }

    fn heat(id: u64, score: f64) -> RegionHeat {
        RegionHeat {
            region_id: id,
            table: "default:t".into(),
            server: "host-0".into(),
            read_rate: 0.0,
            write_rate: score,
            memstore_bytes: 0.0,
            store_file_bytes: 0.0,
            heat_score: score,
            trend: Trend::Flat,
            window_ms: DEFAULT_HEAT_WINDOW_MS,
        }
    }

    #[test]
    fn reservoir_is_deterministic_and_bounded() {
        let run = || {
            let mut s = KeySampler::new(7, 8);
            for i in 0..100u32 {
                s.observe(&Bytes::from(format!("row{i:03}")));
            }
            s.keys().to_vec()
        };
        let a = run();
        assert_eq!(a.len(), 8);
        assert_eq!(a, run(), "same seed, same sample");
        assert_ne!(
            a,
            {
                let mut s = KeySampler::new(8, 8);
                for i in 0..100u32 {
                    s.observe(&Bytes::from(format!("row{i:03}")));
                }
                s.keys().to_vec()
            },
            "different seed shuffles the sample"
        );
    }

    #[test]
    fn observe_and_score_region_heat() {
        let (tsdb, obs) = observatory();
        for tick in 0..5u64 {
            let load = server_load("host-0", vec![region_load(1, tick * 40, tick * 10)]);
            obs.observe_server(&load, tick * 1_000);
        }
        let heats = obs.region_heat();
        assert_eq!(heats.len(), 1);
        let h = &heats[0];
        assert_eq!(h.region_id, 1);
        assert_eq!(h.table, "default:t");
        assert_eq!(h.server, "host-0");
        assert!((h.read_rate - 40.0).abs() < 1e-9, "got {}", h.read_rate);
        assert!((h.write_rate - 10.0).abs() < 1e-9);
        assert!((h.heat_score - 50.0).abs() < 1e-9);
        assert_eq!(h.trend, Trend::Flat, "steady rate reads flat");
        assert_eq!(obs.hotspot_score_max(), Some(h.heat_score));
        assert_eq!(tsdb.series_names().len(), 4);
    }

    #[test]
    fn stale_regions_drop_out_of_heat_and_report() {
        let (tsdb, obs) = observatory();
        for tick in 0..3u64 {
            obs.observe_server(
                &server_load("host-0", vec![region_load(1, tick * 10, 0)]),
                tick * 1_000,
            );
            obs.observe_server(
                &server_load("host-1", vec![region_load(2, tick * 10, 0)]),
                tick * 1_000,
            );
        }
        assert_eq!(obs.region_heat().len(), 2);
        assert_eq!(tsdb.mark_stale("server", "host-1"), 4);
        let heats = obs.region_heat();
        assert_eq!(heats.len(), 1);
        assert_eq!(heats[0].region_id, 1);
        assert!(!obs.heat_report(8).contains("region=2"));
    }

    #[test]
    fn heat_report_is_byte_identical_for_same_inputs() {
        let build = || {
            let (_, obs) = observatory();
            for tick in 0..6u64 {
                let load = server_load(
                    "host-0",
                    vec![
                        region_load(1, tick * tick * 10, tick * 3),
                        region_load(2, tick, 0),
                    ],
                );
                obs.observe_server(&load, 1_000 + tick * 500);
            }
            (obs.heat_report(8), obs.heat_report_json(8))
        };
        let (text_a, json_a) = build();
        let (text_b, json_b) = build();
        assert_eq!(text_a, text_b);
        assert_eq!(json_a, json_b);
        assert!(text_a.starts_with("heat-report | start_ms=1000"));
        assert!(json_a.starts_with("{\"start_ms\":1000"));
        assert!(json_a.contains("\"region\":1"));
    }

    /// Quotes, commas, tabs and newlines in a table or host name are label
    /// values like any other: the region stays in every view and the JSON
    /// report stays JSON. (Unescaped, `a",b` split into two labels and the
    /// region vanished; a tab made the report unparseable.)
    #[test]
    fn hostile_table_and_host_names_stay_in_the_views_and_the_report_parses() {
        let (_, obs) = observatory();
        let (table, host) = ("a\",b", "host\t0\nrack\\1");
        for tick in 0..3u64 {
            let mut region = region_load(1, tick * 10, tick);
            region.table = table.into();
            obs.observe_server(&server_load(host, vec![region]), tick * 1_000);
        }
        let heats = obs.region_heat();
        assert_eq!(heats.len(), 1, "the region must not vanish");
        assert_eq!(
            (heats[0].table.as_str(), heats[0].server.as_str()),
            (table, host)
        );
        assert!((heats[0].heat_score - 11.0).abs() < 1e-9);

        let report = shc_obs::json::parse_json(&obs.heat_report_json(4)).expect("valid JSON");
        let region = &report.get("regions").unwrap().as_array().unwrap()[0];
        assert_eq!(region.get_str("table"), Some(table));
        assert_eq!(region.get_str("server"), Some(host));
    }

    #[test]
    fn split_key_is_the_weighted_median() {
        // Hot tail: "k8" written five extra times weights the sample right.
        let mut sample: Vec<Bytes> = (0..10).map(|i| Bytes::from(format!("k{i}"))).collect();
        sample.extend((0..5).map(|_| Bytes::from("k8")));
        let (key, left) = split_key_from_sample(&sample, b"", b"").unwrap();
        // 15 samples, median index 7 → "k7": the cumulative mass crosses
        // half just before the hot key, so the hot key lands right of the
        // split with roughly half the sampled load on each side.
        assert_eq!(key.as_ref(), b"k7");
        assert!(left > 0.4 && left < 0.6, "left fraction {left}");
        // An unweighted sample of the same distinct keys splits earlier.
        let uniform: Vec<Bytes> = (0..10).map(|i| Bytes::from(format!("k{i}"))).collect();
        let (ukey, _) = split_key_from_sample(&uniform, b"", b"").unwrap();
        assert_eq!(ukey.as_ref(), b"k5");
    }

    #[test]
    fn split_key_rejects_degenerate_samples() {
        let single: Vec<Bytes> = vec![Bytes::from("same"); 10];
        assert!(split_key_from_sample(&single, b"", b"").is_none());
        assert!(split_key_from_sample(&[], b"", b"").is_none());
        // All sampled keys equal the region start: nothing moves left.
        let at_start = vec![Bytes::from("a"), Bytes::from("a"), Bytes::from("b")];
        let (key, _) = split_key_from_sample(&at_start, b"a", b"").unwrap();
        assert_eq!(key.as_ref(), b"b");
    }

    #[test]
    fn advisor_splits_hot_salts_unsplittable_merges_cold() {
        let config = AdvisorConfig {
            split_score: 50.0,
            merge_score: 1.0,
            num_servers: 4,
        };
        let inputs = vec![
            // Hot and splittable.
            AdvisorInput {
                heat: heat(1, 120.0),
                start_key: Bytes::new(),
                end_key: Bytes::from("m"),
                key_sample: (0..10).map(|i| Bytes::from(format!("c{i}"))).collect(),
            },
            // Hot, single-key sample → salt.
            AdvisorInput {
                heat: heat(2, 80.0),
                start_key: Bytes::from("m"),
                end_key: Bytes::from("s"),
                key_sample: vec![Bytes::from("mmm"); 6],
            },
            // Two adjacent cold regions → merge.
            AdvisorInput {
                heat: heat(3, 0.2),
                start_key: Bytes::from("s"),
                end_key: Bytes::from("w"),
                key_sample: vec![],
            },
            AdvisorInput {
                heat: heat(4, 0.0),
                start_key: Bytes::from("w"),
                end_key: Bytes::new(),
                key_sample: vec![],
            },
        ];
        let recs = advise(&inputs, &config);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].action, ShardAction::Split);
        assert_eq!(recs[0].region_id, 1);
        assert_eq!(recs[0].split_key.as_deref(), Some(b"c5".as_ref()));
        assert!(recs[0].expected_post_score < recs[0].heat_score);
        assert_eq!(recs[1].action, ShardAction::Salt);
        assert_eq!(recs[1].region_id, 2);
        assert!((recs[1].expected_post_score - 20.0).abs() < 1e-9);
        assert_eq!(recs[2].action, ShardAction::Merge);
        assert_eq!(recs[2].region_id, 3);
        assert!(recs[2].rationale.contains('4'), "names its sibling");
    }

    #[test]
    fn advisor_is_quiet_on_a_warm_balanced_cluster() {
        let config = AdvisorConfig::default();
        let inputs: Vec<AdvisorInput> = (0..4)
            .map(|i| AdvisorInput {
                heat: heat(i, 10.0), // above merge, below split
                start_key: Bytes::from(format!("{i}")),
                end_key: Bytes::from(format!("{}", i + 1)),
                key_sample: vec![],
            })
            .collect();
        assert!(advise(&inputs, &config).is_empty());
    }
}
