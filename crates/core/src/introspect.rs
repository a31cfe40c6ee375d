//! Cluster introspection as SQL: adapts the kvstore's load accounting
//! ([`ClusterStatus`](shc_kvstore::load::ClusterStatus), `RegionLoad`,
//! `ServerLoad`), both metrics
//! registries, and the engine's query log into live `system.*` virtual
//! tables on a session.
//!
//! The adaptation happens entirely here — the engine never learns kvstore
//! types (it sees closures producing [`Row`]s, the same boundary
//! discipline as span attribution), and the kvstore never learns SQL.
//! Every scan takes a fresh snapshot: `system.regions` triggers a
//! heartbeat round, so the numbers are current as of the query.
//! `system.metrics_history`, `system.region_heat` and the rate alerts all
//! read one series store, the cluster's ([`HBaseCluster::tsdb`]): nothing
//! here builds, owns or hangs a store on the session.
//!
//! | table            | one row per                                    |
//! |------------------|------------------------------------------------|
//! | `system.regions` | region on a live server                        |
//! | `system.servers` | server that ever heartbeated (live or dead)    |
//! | `system.tables`  | table, rolled up over live servers             |
//! | `system.metrics` | scalar metric in either registry, prefixed     |
//! | `system.queries` | retained query-log entry (slow ones flagged)   |
//! | `system.events`  | flight-recorder event (store + query journals) |
//! | `system.alerts`  | alert rule, evaluated at scan time             |
//! | `system.metrics_history` | retained time-series sample (scrapes at scan time) |
//! | `system.task_timeline` | task attempt of a retained query timeline |
//! | `system.stage_stats` | scheduler stage of a retained query timeline, with skew/locality stats |
//! | `system.region_heat` | live region × heat window: request rates, hotspot score, trend |

use parking_lot::Mutex;
use shc_engine::prelude::*;
use shc_engine::source_filter::SourceFilter;
use shc_engine::system::{SystemCatalog, SystemTable};
use shc_kvstore::cluster::HBaseCluster;
use shc_kvstore::load::RegionLoad;
use shc_kvstore::metrics::EXPOSITION_PREFIX as STORE_PREFIX;
use shc_obs::{AlertRule, Comparison, Event, Tsdb};
use std::sync::Arc;

/// Window the default rate alerts look back over, in virtual milliseconds.
const RATE_WINDOW_MS: u64 = 10_000;

/// Heat score (total requests per virtual second against one region) above
/// which `region_hot_sustained` starts its debounce timer.
const HOT_REGION_SCORE_THRESHOLD: f64 = 25.0;

/// How long a region must stay above the threshold before
/// `region_hot_sustained` fires, in virtual milliseconds.
const HOT_REGION_DEBOUNCE_MS: u64 = 2_000;

/// Render a region boundary key for display: UTF-8 where possible, with a
/// leading/trailing empty key shown as the open-interval marker.
fn key_display(key: &[u8]) -> String {
    if key.is_empty() {
        "∅".to_string()
    } else {
        String::from_utf8_lossy(key).into_owned()
    }
}

fn region_row(hostname: &str, r: &RegionLoad) -> Row {
    Row::new(vec![
        Value::Int64(r.region_id as i64),
        Value::Utf8(r.table.clone()),
        Value::Utf8(hostname.to_string()),
        Value::Utf8(key_display(&r.start_key)),
        Value::Utf8(key_display(&r.end_key)),
        Value::Int64(r.read_requests as i64),
        Value::Int64(r.write_requests as i64),
        Value::Int64(r.cells_scanned as i64),
        Value::Int64(r.cells_returned as i64),
        Value::Int64(r.memstore_bytes as i64),
        Value::Int64(r.store_file_count as i64),
        Value::Int64(r.store_file_bytes as i64),
        Value::Int64(r.flush_count as i64),
        Value::Int64(r.compaction_count as i64),
    ])
}

fn regions_schema() -> Schema {
    Schema::new(vec![
        Field::new("region_id", DataType::Int64),
        Field::new("table_name", DataType::Utf8),
        Field::new("server", DataType::Utf8),
        Field::new("start_key", DataType::Utf8),
        Field::new("end_key", DataType::Utf8),
        Field::new("read_requests", DataType::Int64),
        Field::new("write_requests", DataType::Int64),
        Field::new("cells_scanned", DataType::Int64),
        Field::new("cells_returned", DataType::Int64),
        Field::new("memstore_bytes", DataType::Int64),
        Field::new("store_file_count", DataType::Int64),
        Field::new("store_file_bytes", DataType::Int64),
        Field::new("flush_count", DataType::Int64),
        Field::new("compaction_count", DataType::Int64),
    ])
}

fn servers_schema() -> Schema {
    Schema::new(vec![
        Field::new("server_id", DataType::Int64),
        Field::new("hostname", DataType::Utf8),
        Field::new("live", DataType::Boolean),
        Field::new("last_heartbeat_ms", DataType::Int64),
        Field::new("regions", DataType::Int64),
        Field::new("read_requests", DataType::Int64),
        Field::new("write_requests", DataType::Int64),
        Field::new("block_cache_hits", DataType::Int64),
        Field::new("block_cache_misses", DataType::Int64),
        Field::new("open_scanners", DataType::Int64),
    ])
}

fn tables_schema() -> Schema {
    Schema::new(vec![
        Field::new("table_name", DataType::Utf8),
        Field::new("regions", DataType::Int64),
        Field::new("read_requests", DataType::Int64),
        Field::new("write_requests", DataType::Int64),
        Field::new("memstore_bytes", DataType::Int64),
        Field::new("store_file_bytes", DataType::Int64),
    ])
}

fn metrics_schema() -> Schema {
    Schema::new(vec![
        Field::new("name", DataType::Utf8),
        Field::new("value", DataType::Int64),
    ])
}

fn queries_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("sql", DataType::Utf8),
        Field::new("plan_digest", DataType::Utf8),
        Field::new("duration_us", DataType::Int64),
        Field::new("rows_returned", DataType::Int64),
        Field::new("rpc_count", DataType::Int64),
        Field::new("slow", DataType::Boolean),
        Field::new("trace_id", DataType::Utf8),
    ])
}

fn events_schema() -> Schema {
    Schema::new(vec![
        Field::new("source", DataType::Utf8),
        Field::new("seq", DataType::Int64),
        Field::new("timestamp", DataType::Int64),
        Field::new("severity", DataType::Utf8),
        Field::new("category", DataType::Utf8),
        Field::new("trace_id", DataType::Utf8),
        Field::new("message", DataType::Utf8),
    ])
}

fn event_row(source: &str, e: &Event) -> Row {
    Row::new(vec![
        Value::Utf8(source.to_string()),
        Value::Int64(e.seq as i64),
        Value::Int64(e.timestamp as i64),
        Value::Utf8(e.severity.as_str().to_string()),
        Value::Utf8(e.category.to_string()),
        Value::Utf8(format!("{:#x}", e.trace_id)),
        Value::Utf8(e.message.clone()),
    ])
}

fn alerts_schema() -> Schema {
    Schema::new(vec![
        Field::new("name", DataType::Utf8),
        Field::new("state", DataType::Utf8),
        Field::new("comparison", DataType::Utf8),
        Field::new("threshold", DataType::Float64),
        Field::new("value", DataType::Float64),
        Field::new("breaching_since_ms", DataType::Int64),
        Field::new("fired_count", DataType::Int64),
        Field::new("exemplar_trace_id", DataType::Utf8),
    ])
}

fn metrics_history_schema() -> Schema {
    Schema::new(vec![
        Field::new("metric", DataType::Utf8),
        Field::new("ts", DataType::Int64),
        Field::new("value", DataType::Float64),
        Field::new("labels", DataType::Utf8),
    ])
}

fn region_heat_schema() -> Schema {
    Schema::new(vec![
        Field::new("region_id", DataType::Int64),
        Field::new("table_name", DataType::Utf8),
        Field::new("server", DataType::Utf8),
        Field::new("window_ms", DataType::Int64),
        Field::new("read_rate", DataType::Float64),
        Field::new("write_rate", DataType::Float64),
        Field::new("heat_score", DataType::Float64),
        Field::new("trend", DataType::Utf8),
        Field::new("memstore_bytes", DataType::Int64),
        Field::new("store_file_bytes", DataType::Int64),
    ])
}

/// Does a pushed-down predicate set admit this `(metric, labels)` series?
/// Understands the equality/prefix shapes the optimizer can push for
/// `system.metrics_history` (`metric = …`, `labels LIKE 'a%'`, `metric IN
/// (…)`, conjunctions thereof); anything else is conservatively admitted —
/// the engine re-applies every predicate, so this only prunes
/// materialization, never correctness.
fn series_admitted(filters: &[SourceFilter], metric: &str, labels: &str) -> bool {
    filters.iter().all(|f| filter_admits(f, metric, labels))
}

fn filter_admits(filter: &SourceFilter, metric: &str, labels: &str) -> bool {
    let column_value = |col: &str| match col {
        "metric" => Some(metric),
        "labels" => Some(labels),
        _ => None,
    };
    match filter {
        SourceFilter::Eq(col, Value::Utf8(want)) => {
            column_value(col).map(|have| have == want).unwrap_or(true)
        }
        SourceFilter::StringStartsWith(col, prefix) => column_value(col)
            .map(|have| have.starts_with(prefix.as_str()))
            .unwrap_or(true),
        SourceFilter::In(col, values) => column_value(col)
            .map(|have| {
                values
                    .iter()
                    .any(|v| matches!(v, Value::Utf8(s) if s == have))
            })
            .unwrap_or(true),
        SourceFilter::And(a, b) => {
            filter_admits(a, metric, labels) && filter_admits(b, metric, labels)
        }
        // Disjunctions, ranges, other columns: cannot prune safely here.
        _ => true,
    }
}

fn task_timeline_schema() -> Schema {
    Schema::new(vec![
        Field::new("trace_id", DataType::Utf8),
        Field::new("stage_id", DataType::Int64),
        Field::new("stage_label", DataType::Utf8),
        Field::new("task_index", DataType::Int64),
        Field::new("attempt", DataType::Int64),
        Field::new("executor", DataType::Int64),
        Field::new("host", DataType::Utf8),
        Field::new("preferred_host", DataType::Utf8),
        Field::new("local", DataType::Boolean),
        Field::new("queue_wait_us", DataType::Int64),
        Field::new("start_us", DataType::Int64),
        Field::new("end_us", DataType::Int64),
        Field::new("cost_us", DataType::Int64),
        Field::new("rows", DataType::Int64),
        Field::new("bytes", DataType::Int64),
        Field::new("straggler", DataType::Boolean),
        Field::new("winner", DataType::Boolean),
        Field::new("error", DataType::Utf8),
    ])
}

fn stage_stats_schema() -> Schema {
    Schema::new(vec![
        Field::new("trace_id", DataType::Utf8),
        Field::new("stage_id", DataType::Int64),
        Field::new("label", DataType::Utf8),
        Field::new("tasks", DataType::Int64),
        Field::new("rows_min", DataType::Int64),
        Field::new("rows_median", DataType::Int64),
        Field::new("rows_max", DataType::Int64),
        Field::new("bytes_min", DataType::Int64),
        Field::new("bytes_median", DataType::Int64),
        Field::new("bytes_max", DataType::Int64),
        Field::new("skew_ratio", DataType::Float64),
        Field::new("locality_hit_ratio", DataType::Float64),
        Field::new("queue_wait_max_us", DataType::Int64),
        Field::new("run_min_us", DataType::Int64),
        Field::new("run_median_us", DataType::Int64),
        Field::new("run_max_us", DataType::Int64),
        Field::new("stragglers", DataType::Int64),
    ])
}

/// Register the `system.*` virtual tables on `session`, backed by
/// `cluster`; put the cluster's series store ([`HBaseCluster::tsdb`])
/// behind `system.metrics_history`; and add the seven default alert rules
/// (`block_cache_hit_ratio_low`, `task_retry_spike`, `write_stall_rate`,
/// `compaction_backlog_growth`, `stage_skew_high`, `straggler_spike`,
/// `region_hot_sustained`) to the session's alert engine. Returns the
/// registered table names.
///
/// Call once per (session, cluster) pair — typically right after the
/// session's user tables are registered.
pub fn register_system_tables(session: &Arc<Session>, cluster: &Arc<HBaseCluster>) -> Vec<String> {
    register_default_alerts(session, cluster);

    let regions_cluster = Arc::clone(cluster);
    let servers_cluster = Arc::clone(cluster);
    let tables_cluster = Arc::clone(cluster);
    let metrics_cluster = Arc::clone(cluster);
    let query_metrics = Arc::clone(&session.metrics);
    let query_log = Arc::clone(session.query_log());
    let events_cluster = Arc::clone(cluster);
    let session_events = Arc::clone(session.events());
    let alerts_engine = Arc::clone(session.alerts());
    let alerts_cluster = Arc::clone(cluster);
    let history_cluster = Arc::clone(cluster);
    let heat_cluster = Arc::clone(cluster);
    // The timeline tables read back through the session that owns them, so
    // they hold it weakly — a strong closure capture would make the session
    // own a table that owns the session.
    let timeline_session = Arc::downgrade(session);
    let stage_session = Arc::downgrade(session);

    let catalog = SystemCatalog::new()
        .with_table(SystemTable::new(
            "system.regions",
            regions_schema(),
            move || {
                let status = regions_cluster.cluster_status();
                let mut rows = Vec::new();
                for server in status.live_servers() {
                    for region in &server.load.regions {
                        rows.push(region_row(&server.load.hostname, region));
                    }
                }
                rows
            },
        ))
        .with_table(SystemTable::new(
            "system.servers",
            servers_schema(),
            move || {
                servers_cluster
                    .cluster_status()
                    .servers
                    .iter()
                    .map(|s| {
                        Row::new(vec![
                            Value::Int64(s.load.server_id as i64),
                            Value::Utf8(s.load.hostname.clone()),
                            Value::Boolean(s.live),
                            Value::Int64(s.last_heartbeat_ms as i64),
                            Value::Int64(s.load.regions.len() as i64),
                            Value::Int64(s.load.read_requests() as i64),
                            Value::Int64(s.load.write_requests() as i64),
                            Value::Int64(s.load.block_cache_hits as i64),
                            Value::Int64(s.load.block_cache_misses as i64),
                            Value::Int64(s.load.open_scanners as i64),
                        ])
                    })
                    .collect()
            },
        ))
        .with_table(SystemTable::new(
            "system.tables",
            tables_schema(),
            move || {
                tables_cluster
                    .cluster_status()
                    .tables
                    .iter()
                    .map(|t| {
                        Row::new(vec![
                            Value::Utf8(t.table.clone()),
                            Value::Int64(t.regions as i64),
                            Value::Int64(t.read_requests as i64),
                            Value::Int64(t.write_requests as i64),
                            Value::Int64(t.memstore_bytes as i64),
                            Value::Int64(t.store_file_bytes as i64),
                        ])
                    })
                    .collect()
            },
        ))
        .with_table(SystemTable::new(
            "system.metrics",
            metrics_schema(),
            move || {
                let mut rows = Vec::new();
                for (name, value) in metrics_cluster.metrics.snapshot().counter_values() {
                    rows.push(Row::new(vec![
                        Value::Utf8(format!("{STORE_PREFIX}{name}")),
                        Value::Int64(value as i64),
                    ]));
                }
                for (name, value) in query_metrics.snapshot().counter_values() {
                    rows.push(Row::new(vec![
                        Value::Utf8(format!("{}{name}", shc_engine::metrics::EXPOSITION_PREFIX)),
                        Value::Int64(value as i64),
                    ]));
                }
                rows
            },
        ))
        .with_table(SystemTable::new(
            "system.queries",
            queries_schema(),
            move || {
                query_log
                    .entries()
                    .iter()
                    .map(|e| {
                        Row::new(vec![
                            Value::Int64(e.id as i64),
                            Value::Utf8(e.sql.clone()),
                            Value::Utf8(e.plan_digest.clone()),
                            Value::Int64(e.duration_us as i64),
                            Value::Int64(e.rows_returned as i64),
                            Value::Int64(e.rpc_count as i64),
                            Value::Boolean(e.slow),
                            Value::Utf8(format!("{:#x}", e.trace_id)),
                        ])
                    })
                    .collect()
            },
        ))
        .with_table(SystemTable::new(
            "system.events",
            events_schema(),
            move || {
                // Store-layer journal first, then the session's own journal,
                // each in seq order — one flight recorder per layer, merged at
                // the SQL boundary exactly like the metric registries.
                let mut rows = Vec::new();
                for e in events_cluster.events().events() {
                    rows.push(event_row("store", &e));
                }
                for e in session_events.events() {
                    rows.push(event_row("query", &e));
                }
                rows
            },
        ))
        .with_table(SystemTable::new(
            "system.alerts",
            alerts_schema(),
            move || {
                // Scanning the table evaluates the rules at the cluster's
                // current virtual time — the same observe-by-querying contract
                // as the heartbeat round behind `system.regions`.
                alerts_engine.evaluate(alerts_cluster.clock.peek_ms());
                alerts_engine
                    .statuses()
                    .iter()
                    .map(|s| {
                        Row::new(vec![
                            Value::Utf8(s.name.clone()),
                            Value::Utf8(s.state.as_str().to_string()),
                            Value::Utf8(s.comparison.as_str().to_string()),
                            Value::Float64(s.threshold),
                            s.value.map(Value::Float64).unwrap_or(Value::Null),
                            Value::Int64(s.breaching_since_ms as i64),
                            Value::Int64(s.fired_count as i64),
                            Value::Utf8(format!("{:#x}", s.exemplar_trace_id)),
                        ])
                    })
                    .collect()
            },
        ))
        .with_table(SystemTable::new_filtered(
            "system.metrics_history",
            metrics_history_schema(),
            move |filters| {
                // Scanning the table is the collection loop — scrape every
                // source at the cluster's current virtual time, then dump
                // the retained samples — so a run that never looks at
                // history pays nothing for it. Dead servers' series are
                // marked stale first (from the heartbeats the master already
                // has: a scan adds no `region_*` sample) so their frozen
                // counters stop answering windowed queries. Pushed
                // metric/labels predicates prune which series materialize
                // rows (the engine still re-applies every predicate
                // afterwards).
                history_cluster.reported_status();
                let tsdb = history_cluster.tsdb();
                tsdb.scrape(history_cluster.clock.peek_ms());
                let mut rows = Vec::new();
                for (series, samples) in tsdb.all_series() {
                    let (metric, labels) = Tsdb::split_series_name(&series);
                    if !series_admitted(filters, metric, labels.0) {
                        continue;
                    }
                    for s in samples {
                        rows.push(Row::new(vec![
                            Value::Utf8(metric.to_string()),
                            Value::Int64(s.ts_ms as i64),
                            Value::Float64(s.value),
                            Value::Utf8(labels.0.to_string()),
                        ]));
                    }
                }
                rows
            },
        ))
        .with_table(SystemTable::new(
            "system.task_timeline",
            task_timeline_schema(),
            move || {
                let Some(session) = timeline_session.upgrade() else {
                    return Vec::new();
                };
                let mut rows = Vec::new();
                for tl in session.timelines() {
                    let trace_id = format!("{:#x}", tl.trace_id());
                    let labels: std::collections::HashMap<u64, &'static str> =
                        tl.stages().iter().map(|s| (s.stage_id, s.label)).collect();
                    for t in tl.tasks() {
                        for a in &t.attempts {
                            rows.push(Row::new(vec![
                                Value::Utf8(trace_id.clone()),
                                Value::Int64(t.stage_id as i64),
                                Value::Utf8(
                                    labels.get(&t.stage_id).copied().unwrap_or("?").to_string(),
                                ),
                                Value::Int64(t.task_index as i64),
                                Value::Int64(a.attempt as i64),
                                Value::Int64(a.exec as i64),
                                Value::Utf8(a.host.clone()),
                                t.preferred_host
                                    .clone()
                                    .map(Value::Utf8)
                                    .unwrap_or(Value::Null),
                                Value::Boolean(t.local),
                                Value::Int64(t.queue_wait_us as i64),
                                Value::Int64(a.start_us as i64),
                                Value::Int64(a.end_us as i64),
                                Value::Int64(a.cost_us as i64),
                                Value::Int64(t.rows as i64),
                                Value::Int64(t.bytes as i64),
                                Value::Boolean(t.straggler),
                                Value::Boolean(a.winner),
                                a.error.clone().map(Value::Utf8).unwrap_or(Value::Null),
                            ]));
                        }
                    }
                }
                rows
            },
        ))
        .with_table(SystemTable::new(
            "system.stage_stats",
            stage_stats_schema(),
            move || {
                let Some(session) = stage_session.upgrade() else {
                    return Vec::new();
                };
                let mut rows = Vec::new();
                for tl in session.timelines() {
                    let trace_id = format!("{:#x}", tl.trace_id());
                    for s in tl.stage_stats() {
                        rows.push(Row::new(vec![
                            Value::Utf8(trace_id.clone()),
                            Value::Int64(s.stage_id as i64),
                            Value::Utf8(s.label.to_string()),
                            Value::Int64(s.tasks as i64),
                            Value::Int64(s.rows_min as i64),
                            Value::Int64(s.rows_median as i64),
                            Value::Int64(s.rows_max as i64),
                            Value::Int64(s.bytes_min as i64),
                            Value::Int64(s.bytes_median as i64),
                            Value::Int64(s.bytes_max as i64),
                            s.skew_ratio.map(Value::Float64).unwrap_or(Value::Null),
                            s.locality_hit_ratio
                                .map(Value::Float64)
                                .unwrap_or(Value::Null),
                            Value::Int64(s.queue_wait_max_us as i64),
                            Value::Int64(s.run_min_us as i64),
                            Value::Int64(s.run_median_us as i64),
                            Value::Int64(s.run_max_us as i64),
                            Value::Int64(s.stragglers as i64),
                        ]));
                    }
                }
                rows
            },
        ))
        .with_table(SystemTable::new(
            "system.region_heat",
            region_heat_schema(),
            move || {
                // Scanning is the observation loop: a fresh heartbeat round
                // feeds the observatory and liveness marks dead servers'
                // series stale, exactly like `system.regions`. Rates need at
                // least two heartbeats at distinct virtual times.
                heat_cluster.cluster_status();
                heat_cluster
                    .heat()
                    .region_heat()
                    .iter()
                    .map(|h| {
                        Row::new(vec![
                            Value::Int64(h.region_id as i64),
                            Value::Utf8(h.table.clone()),
                            Value::Utf8(h.server.clone()),
                            Value::Int64(h.window_ms as i64),
                            Value::Float64(h.read_rate),
                            Value::Float64(h.write_rate),
                            Value::Float64(h.heat_score),
                            Value::Utf8(h.trend.as_str().to_string()),
                            Value::Int64(h.memstore_bytes as i64),
                            Value::Int64(h.store_file_bytes as i64),
                        ])
                    })
                    .collect()
            },
        ));
    let names = catalog.names();
    catalog.register(session);
    names
}

/// Install the default alert rules on the session's alert engine:
///
/// * `block_cache_hit_ratio_low` — fires when the cluster-wide block-cache
///   hit ratio drops below 0.5 (idle caches read as healthy). Its exemplar
///   is the latest TraceId recorded against the RPC latency histogram, so a
///   firing alert points at a concrete exportable trace.
/// * `task_retry_spike` — fires when scheduler tasks retried since the
///   previous evaluation (a delta, so the alert clears once retries stop).
/// * `write_stall_rate` — fires when `shc_store_write_stall_ms` grows
///   faster than 5 stalled ms per virtual second over the rate window. Its
///   exemplar is the latest TraceId recorded against the write-stall
///   histogram — the query that was blocked.
/// * `compaction_backlog_growth` — fires when the cluster-wide compaction
///   backlog is growing (any positive byte rate over the rate window):
///   flushes are producing files faster than compaction retires them.
/// * `stage_skew_high` — fires when any stage of the most recent query's
///   task timeline has a partition-skew ratio above 2 (hottest partition
///   more than twice the median). Its exemplar is that query's TraceId.
/// * `straggler_spike` — fires when the straggler detector flagged tasks
///   since the previous evaluation (a delta, like `task_retry_spike`). Its
///   exemplar is the latest TraceId recorded against the task run-time
///   histogram — a query that actually contained the slow task.
/// * `region_hot_sustained` — fires when any live region's heat score
///   (total request rate over the observatory window) stays above
///   25 req/virtual-second for 2 000 virtual ms — a *sustained* hotspot,
///   debounced so one bursty heartbeat interval cannot page. Its exemplar
///   is the TraceId of the most recent traced request against the hottest
///   region, so the alert names a concrete offending query.
///
/// The two rate rules read the cluster's series store, so they only have
/// data once something scrapes it (a `system.metrics_history` scan or an
/// explicit [`Tsdb::scrape`]).
fn register_default_alerts(session: &Arc<Session>, cluster: &Arc<HBaseCluster>) {
    let alerts = session.alerts();
    let tsdb = cluster.tsdb();

    let ratio_cluster = Arc::clone(cluster);
    let exemplar_cluster = Arc::clone(cluster);
    alerts.add_rule(
        AlertRule::new(
            "block_cache_hit_ratio_low",
            Comparison::Below,
            0.5,
            0,
            move || ratio_cluster.metrics.snapshot().block_cache_hit_ratio(),
        )
        .with_exemplar(move || {
            exemplar_cluster
                .metrics
                .rpc_latency_us
                .latest_tail_exemplar()
        }),
    );

    let retry_metrics = Arc::clone(&session.metrics);
    let prev_retries = Mutex::new(0u64);
    alerts.add_rule(AlertRule::new(
        "task_retry_spike",
        Comparison::Above,
        0.0,
        0,
        move || {
            let current = retry_metrics.snapshot().task_retries;
            let mut prev = prev_retries.lock();
            let delta = current.saturating_sub(*prev);
            *prev = current;
            Some(delta as f64)
        },
    ));

    let stall_exemplar_cluster = Arc::clone(cluster);
    alerts.add_rule(
        AlertRule::rate_over_window(
            "write_stall_rate",
            Comparison::Above,
            5.0,
            0,
            Arc::clone(tsdb),
            format!("{STORE_PREFIX}write_stall_ms"),
            RATE_WINDOW_MS,
        )
        .with_exemplar(move || {
            stall_exemplar_cluster
                .metrics
                .write_stall_us
                .latest_tail_exemplar()
        }),
    );

    let backlog_exemplar_cluster = Arc::clone(cluster);
    alerts.add_rule(
        AlertRule::rate_over_window(
            "compaction_backlog_growth",
            Comparison::Above,
            0.0,
            0,
            Arc::clone(tsdb),
            format!("{STORE_PREFIX}compaction_backlog_bytes"),
            RATE_WINDOW_MS,
        )
        .with_exemplar(move || {
            backlog_exemplar_cluster
                .metrics
                .compaction_us
                .latest_tail_exemplar()
        }),
    );

    // Weak captures: the rules live on the session's own alert engine.
    let skew_session = Arc::downgrade(session);
    let skew_exemplar_session = Arc::downgrade(session);
    alerts.add_rule(
        AlertRule::new("stage_skew_high", Comparison::Above, 2.0, 0, move || {
            let tl = skew_session.upgrade()?.last_timeline()?;
            tl.stage_stats()
                .iter()
                .filter_map(|s| s.skew_ratio)
                .fold(None, |acc: Option<f64>, r| {
                    Some(acc.map_or(r, |a| a.max(r)))
                })
        })
        .with_exemplar(move || {
            skew_exemplar_session
                .upgrade()
                .and_then(|s| s.last_timeline())
                .map(|tl| tl.trace_id())
                .unwrap_or(0)
        }),
    );

    let straggler_metrics = Arc::clone(session.task_metrics());
    let straggler_exemplar_metrics = Arc::clone(session.task_metrics());
    let prev_stragglers = Mutex::new(0u64);
    alerts.add_rule(
        AlertRule::new("straggler_spike", Comparison::Above, 0.0, 0, move || {
            let current = straggler_metrics.snapshot().stragglers;
            let mut prev = prev_stragglers.lock();
            let delta = current.saturating_sub(*prev);
            *prev = current;
            Some(delta as f64)
        })
        .with_exemplar(move || straggler_exemplar_metrics.run_us.latest_tail_exemplar()),
    );

    let heat_cluster = Arc::clone(cluster);
    let heat_exemplar_cluster = Arc::clone(cluster);
    alerts.add_rule(
        AlertRule::new(
            "region_hot_sustained",
            Comparison::Above,
            HOT_REGION_SCORE_THRESHOLD,
            HOT_REGION_DEBOUNCE_MS,
            move || {
                // cluster_status() heartbeats first, so the observatory sees
                // fresh samples and stale series from dead servers are muted
                // before the hottest score is read.
                heat_cluster.cluster_status();
                heat_cluster.heat().hotspot_score_max()
            },
        )
        .with_exemplar(move || {
            heat_exemplar_cluster
                .master
                .cluster_status()
                .hottest_region
                .map(|h| h.load.last_trace_id)
                .unwrap_or(0)
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_kvstore::prelude::*;

    fn cluster_with_table() -> Arc<HBaseCluster> {
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 2,
            ..Default::default()
        });
        cluster
            .create_table(
                TableDescriptor::new(TableName::default_ns("t"))
                    .with_family(FamilyDescriptor::new("cf")),
            )
            .unwrap();
        cluster
    }

    #[test]
    fn system_tables_register_and_answer_sql() {
        let cluster = cluster_with_table();
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(TableName::default_ns("t"));
        for i in 0..4 {
            table
                .put(Put::new(format!("r{i}")).add("cf", "q", "v"))
                .unwrap();
        }
        let session = Session::new_default();
        let names = register_system_tables(&session, &cluster);
        assert_eq!(
            names,
            [
                "system.regions",
                "system.servers",
                "system.tables",
                "system.metrics",
                "system.queries",
                "system.events",
                "system.alerts",
                "system.metrics_history",
                "system.task_timeline",
                "system.stage_stats",
                "system.region_heat",
            ]
        );

        let rows = session
            .sql("SELECT table_name, SUM(write_requests) FROM system.regions GROUP BY table_name")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).as_str(), Some("default:t"));
        assert_eq!(rows[0].get(1), &Value::Int64(4));

        let servers = session
            .sql("SELECT hostname FROM system.servers WHERE live ORDER BY hostname")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(servers.len(), 2);
        assert_eq!(servers[0].get(0).as_str(), Some("host-0"));

        let metric = session
            .sql("SELECT value FROM system.metrics WHERE name = 'shc_store_rpc_count'")
            .unwrap()
            .collect()
            .unwrap();
        assert!(metric[0].get(0).as_i64().unwrap() >= 4);
    }

    #[test]
    fn system_queries_sees_previous_queries_with_rpc_counts() {
        let cluster = cluster_with_table();
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(TableName::default_ns("t"));
        table.put(Put::new("r1").add("cf", "q", "v")).unwrap();

        let session = Session::new_default();
        register_system_tables(&session, &cluster);
        crate::register_hbase_table(
            &session,
            Arc::clone(&cluster),
            Arc::new(
                crate::catalog::HBaseTableCatalog::parse_simple(
                    r#"{"table":{"namespace":"default","name":"t"},
                        "rowkey":"key",
                        "columns":{
                          "col0":{"cf":"rowkey","col":"key","type":"string"},
                          "col1":{"cf":"cf","col":"q","type":"string"}}}"#,
                )
                .unwrap(),
            ),
            crate::conf::SHCConf::default(),
            "t",
        );
        session
            .sql("SELECT col0 FROM t")
            .unwrap()
            .collect()
            .unwrap();
        let logged = session
            .sql("SELECT sql, rpc_count FROM system.queries")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(logged.len(), 1);
        assert_eq!(logged[0].get(0).as_str(), Some("SELECT col0 FROM t"));
        assert!(logged[0].get(1).as_i64().unwrap() >= 1, "scan issued RPCs");

        // The logged query carries a non-zero trace id, joinable to its
        // events and its exportable trace.
        let traced = session
            .sql("SELECT trace_id FROM system.queries")
            .unwrap()
            .collect()
            .unwrap();
        let trace_id = traced[0].get(0).as_str().unwrap().to_string();
        assert!(trace_id.starts_with("0x") && trace_id != "0x0");
    }

    #[test]
    fn system_events_surfaces_store_journal() {
        let cluster = cluster_with_table();
        // Force a region split so the master journals an event.
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(TableName::default_ns("t"));
        for i in 0..8 {
            table
                .put(Put::new(format!("r{i}")).add("cf", "q", "v"))
                .unwrap();
        }
        let name = TableName::default_ns("t");
        let region_id = cluster.master.regions_of(&name).unwrap()[0].info.region_id;
        cluster.master.split_region(&name, region_id).unwrap();

        let session = Session::new_default();
        register_system_tables(&session, &cluster);
        let rows = session
            .sql("SELECT source, category, message FROM system.events WHERE category = 'region'")
            .unwrap()
            .collect()
            .unwrap();
        assert!(!rows.is_empty(), "split should have journaled an event");
        assert_eq!(rows[0].get(0).as_str(), Some("store"));
        assert!(rows[0].get(2).as_str().unwrap().contains("split region"));
    }

    #[test]
    fn system_alerts_evaluates_default_rules_at_scan_time() {
        let cluster = cluster_with_table();
        let session = Session::new_default();
        register_system_tables(&session, &cluster);
        let rows = session
            .sql("SELECT name, state FROM system.alerts ORDER BY name")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(rows.len(), 7);
        // Nothing has read a block, no task retried or straggled, no query
        // timeline shows skew, and no series has enough samples for a rate:
        // every rule reads healthy.
        let expected = [
            "block_cache_hit_ratio_low",
            "compaction_backlog_growth",
            "region_hot_sustained",
            "stage_skew_high",
            "straggler_spike",
            "task_retry_spike",
            "write_stall_rate",
        ];
        for (row, name) in rows.iter().zip(expected) {
            assert_eq!(row.get(0).as_str(), Some(name));
            assert_eq!(row.get(1).as_str(), Some("ok"), "{name} should be ok");
        }
    }

    #[test]
    fn metrics_history_retains_samples_across_scans() {
        let cluster = cluster_with_table();
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(TableName::default_ns("t"));
        let session = Session::new_default();
        register_system_tables(&session, &cluster);

        // Each scan scrapes once; mutate between scans so the counter series
        // accumulate distinct readings at distinct virtual timestamps.
        for i in 0..3 {
            table
                .put(Put::new(format!("r{i}")).add("cf", "q", "v"))
                .unwrap();
            session
                .sql("SELECT COUNT(*) FROM system.metrics_history")
                .unwrap()
                .collect()
                .unwrap();
        }
        let rows = session
            .sql(
                "SELECT ts, value FROM system.metrics_history \
                 WHERE metric = 'shc_store_rpc_count' ORDER BY ts",
            )
            .unwrap()
            .collect()
            .unwrap();
        assert!(rows.len() >= 3, "three scans retained, got {}", rows.len());
        let first = rows.first().unwrap().get(1).as_f64().unwrap();
        let last = rows.last().unwrap().get(1).as_f64().unwrap();
        assert!(last > first, "rpc_count series must grow across scans");

        // The store behind the table answers window queries directly.
        let tsdb = cluster.tsdb();
        assert!(tsdb.rate("shc_store_rpc_count", u64::MAX).unwrap() > 0.0);
    }

    /// One store behind the table: scraped store metrics and heartbeat-fed
    /// region series come back from the same scan, and pushed-down
    /// `metric = … AND labels LIKE …` still prunes what materializes.
    #[test]
    fn metrics_history_serves_store_and_region_series_from_the_one_store() {
        let cluster = cluster_with_table();
        let conn = Connection::open(Arc::clone(&cluster), None);
        conn.table(TableName::default_ns("t"))
            .put(Put::new("r1").add("cf", "q", "v"))
            .unwrap();
        // One heartbeat round records the `region_*` series; scans add none.
        cluster.cluster_status();
        let session = Session::new_default();
        register_system_tables(&session, &cluster);
        let metrics = session
            .sql("SELECT DISTINCT metric FROM system.metrics_history")
            .unwrap()
            .collect()
            .unwrap();
        let has = |name: &str| metrics.iter().any(|r| r.get(0).as_str() == Some(name));
        assert!(has("shc_store_rpc_count") && has("region_read_requests"));
        assert!(has("shc_store_compaction_backlog_bytes"));

        // The scan hands the engine only the series the pushed-down
        // predicates admit, not the whole store.
        let scanned_before = session.metrics.snapshot().scan_rows;
        let rows = session
            .sql(
                "SELECT labels, value FROM system.metrics_history \
                 WHERE metric = 'region_write_requests' AND labels LIKE 'region=%'",
            )
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(rows.len(), 1, "one region, one heartbeat: scans add none");
        let labels = rows[0].get(0).as_str().unwrap();
        assert!(labels.contains("server=\"host-") && labels.contains("table=\"default:t\""));
        assert_eq!(rows[0].get(1).as_f64(), Some(1.0));
        assert_eq!(session.metrics.snapshot().scan_rows - scanned_before, 1);
        assert!(cluster.tsdb().series_names().len() > 50);

        // The same series, read as heat: more writes to `t`, a second table
        // nobody touches, and the scan's own heartbeat round closes the
        // window — the written-to region leads the view.
        cluster
            .create_table(
                TableDescriptor::new(TableName::default_ns("idle"))
                    .with_family(FamilyDescriptor::new("cf")),
            )
            .unwrap();
        for i in 0..8 {
            conn.table(TableName::default_ns("t"))
                .put(Put::new(format!("h{i}")).add("cf", "q", "v"))
                .unwrap();
        }
        let heat = session
            .sql(
                "SELECT table_name, heat_score, write_rate FROM system.region_heat \
                 ORDER BY heat_score DESC",
            )
            .unwrap()
            .collect()
            .unwrap();
        let tables: Vec<_> = heat.iter().map(|r| r.get(0).as_str()).collect();
        assert_eq!(tables, [Some("default:t"), Some("default:idle")]);
        assert!(heat[0].get(1).as_f64().unwrap() > 0.0);
        assert_eq!(heat[0].get(1), heat[0].get(2), "all of it writes");
        assert_eq!(heat[1].get(1).as_f64(), Some(0.0));
    }
}
