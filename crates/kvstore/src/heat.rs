//! The region heat observatory: per-region load time series and windowed
//! hotspot scoring.
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
//! Nothing here acts on the heat. A balancer would start from
//! [`HeatObservatory::region_heat`] (which region) and
//! [`Region::split_point`](crate::region::Region::split_point) (where to
//! cut it).

use crate::load::ServerLoad;
use shc_obs::Tsdb;
use std::sync::Arc;

/// Default trailing window for heat rates, in virtual milliseconds.
pub const DEFAULT_HEAT_WINDOW_MS: u64 = 10_000;

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
/// series store, plus the derived views: heat snapshots and the hotspot
/// maximum.
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

    /// One heat snapshot per live region, sorted by region id. Regions whose
    /// series are stale (dead server) are excluded; regions with fewer than
    /// two in-window samples read as zero-rate.
    pub fn region_heat(&self) -> Vec<RegionHeat> {
        let mut out = Vec::new();
        for series in self.tsdb.series_names() {
            let (name, labels) = Tsdb::split_series_name(&series);
            if name != "region_read_requests" || self.tsdb.is_stale(&series) {
                continue;
            }
            let Some(labels) = RegionLabels::of(labels) else {
                continue;
            };
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
    fn stale_regions_drop_out_of_heat() {
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
    }

    /// Quotes, commas, tabs and newlines in a table or host name are label
    /// values like any other: the region stays in the view under its own
    /// names. (Unescaped, `a",b` split into two labels and the region
    /// vanished.)
    #[test]
    fn hostile_table_and_host_names_stay_in_the_view() {
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
    }
}
