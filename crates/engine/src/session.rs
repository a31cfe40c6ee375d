//! The session: catalog of tables and temp views, configuration, metrics,
//! and the SQL entry point — the `SparkSession` analog.

use crate::analyzer::{analyze, Catalog};
use crate::dataframe::DataFrame;
use crate::datasource::TableProvider;
use crate::error::{EngineError, Result};
use crate::logical::LogicalPlan;
use crate::metrics::{QueryMetrics, ShuffleEdges, TaskMetrics};
use crate::parser::parse;
use crate::physical::ExecContext;
use crate::query_log::{plan_digest, QueryLog, QueryLogEntry};
use crate::scheduler::{ExecutorConfig, SchedulerFaults};
use crate::task_timeline::TaskTimeline;
use parking_lot::{Mutex, RwLock};
use shc_obs::{AlertEngine, EventJournal, Severity, Trace};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-execution measurements handed to [`Session::record_query`]: the
/// virtual duration, result cardinality, and the run's finished trace, whose
/// TraceId and `rpc` spans the log entry records.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExecStats<'a> {
    pub duration_us: u64,
    pub rows_returned: u64,
    pub trace: &'a Trace,
}

/// Session-level configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    pub executors: ExecutorConfig,
    pub broadcast_threshold: usize,
    /// Rows per columnar batch.
    pub batch_size: usize,
    /// Queries whose virtual duration exceeds this many modeled µs are
    /// flagged slow in the query log (and in `system.queries`).
    pub slow_query_threshold_us: u64,
    /// Ring-buffer capacity of the query log. Zero disables query logging
    /// entirely (no per-collect tracer is created). Fixed at session
    /// construction.
    pub query_log_capacity: usize,
    /// Deterministic scheduler fault injection (tests and examples): delay
    /// or fail task attempts by executor host.
    pub scheduler_faults: Option<Arc<SchedulerFaults>>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            executors: ExecutorConfig::default(),
            broadcast_threshold: 512 * 1024,
            batch_size: crate::columnar::DEFAULT_BATCH_ROWS,
            slow_query_threshold_us: 100_000,
            query_log_capacity: 128,
            scheduler_faults: None,
        }
    }
}

/// A query session.
pub struct Session {
    config: RwLock<SessionConfig>,
    tables: RwLock<HashMap<String, Arc<dyn TableProvider>>>,
    views: RwLock<HashMap<String, LogicalPlan>>,
    pub metrics: Arc<QueryMetrics>,
    /// Scheduler task metrics: the straggler counter plus the
    /// `shc_task_run_us` histogram.
    task_metrics: Arc<TaskMetrics>,
    /// Per-exchange-edge shuffle attribution (labeled split of the global
    /// `shuffle_bytes` counter).
    shuffle_edges: Arc<ShuffleEdges>,
    /// The slow-query ring buffer; shared with `system.queries`.
    query_log: Arc<QueryLog>,
    /// TraceId mint: one id per `collect()`, starting at 1 (0 = untraced).
    next_trace_id: AtomicU64,
    /// Query-layer flight recorder (scheduler retries, slow queries, query
    /// errors); `system.events` merges it with the cluster's journal.
    events: Arc<EventJournal>,
    /// Threshold alert rules, evaluated on demand (`system.alerts` scans).
    alerts: Arc<AlertEngine>,
    /// Recent finished runs' traces, oldest first, keyed by TraceId through
    /// [`trace_for`](Self::trace_for) — what makes a slow query's TraceId
    /// resolvable to an exportable Chrome trace. Each one's task timeline,
    /// which backs `system.task_timeline` and `system.stage_stats`, is read
    /// from it ([`TaskTimeline::of`]).
    runs: Mutex<VecDeque<Trace>>,
    /// Flight-recorder dump captured when the most recent query errored or
    /// tripped the slow threshold.
    last_event_dump: Mutex<Option<String>>,
}

impl Session {
    pub fn new(config: SessionConfig) -> Arc<Session> {
        let query_log = Arc::new(QueryLog::new(config.query_log_capacity));
        Arc::new(Session {
            config: RwLock::new(config),
            tables: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
            metrics: QueryMetrics::new(),
            task_metrics: TaskMetrics::new(),
            shuffle_edges: ShuffleEdges::new(),
            query_log,
            next_trace_id: AtomicU64::new(1),
            events: EventJournal::new(1024),
            alerts: AlertEngine::new(),
            runs: Mutex::new(VecDeque::new()),
            last_event_dump: Mutex::new(None),
        })
    }

    pub fn new_default() -> Arc<Session> {
        Session::new(SessionConfig::default())
    }

    pub fn config(&self) -> SessionConfig {
        self.config.read().clone()
    }

    pub fn update_config(&self, f: impl FnOnce(&mut SessionConfig)) {
        f(&mut self.config.write());
    }

    /// Register (or replace) a table provider under a name.
    pub fn register_table(&self, name: impl Into<String>, provider: Arc<dyn TableProvider>) {
        self.tables
            .write()
            .insert(name.into().to_ascii_lowercase(), provider);
    }

    pub fn deregister_table(&self, name: &str) -> bool {
        self.tables
            .write()
            .remove(&name.to_ascii_lowercase())
            .is_some()
    }

    pub fn table_provider(&self, name: &str) -> Option<Arc<dyn TableProvider>> {
        self.tables.read().get(&name.to_ascii_lowercase()).cloned()
    }

    /// Register a temp view (a named logical plan).
    pub fn register_view(&self, name: impl Into<String>, plan: LogicalPlan) {
        self.views
            .write()
            .insert(name.into().to_ascii_lowercase(), plan);
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Parse, analyze and wrap a SQL query as a DataFrame. Execution is
    /// lazy — nothing runs until `collect`.
    pub fn sql(self: &Arc<Self>, query: &str) -> Result<DataFrame> {
        let ast = parse(query)?;
        let plan = analyze(&ast, &SessionCatalog { session: self })?;
        Ok(DataFrame::new(Arc::clone(self), plan).with_sql_text(query))
    }

    /// The session's query log (also backing `system.queries`).
    pub fn query_log(&self) -> &Arc<QueryLog> {
        &self.query_log
    }

    /// This session's flight recorder (also backing `system.events`).
    pub fn events(&self) -> &Arc<EventJournal> {
        &self.events
    }

    /// This session's alert engine (also backing `system.alerts`).
    pub fn alerts(&self) -> &Arc<AlertEngine> {
        &self.alerts
    }

    /// Mint a fresh TraceId for one execution. Deterministic: ids count up
    /// from 1 in collect order.
    pub fn mint_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Remember a finished run's trace so its TraceId stays resolvable
    /// (bounded by the query-log capacity; oldest evicted first).
    pub fn store_run(&self, trace: Trace) {
        let capacity = self.query_log.capacity();
        if capacity == 0 {
            return;
        }
        let mut runs = self.runs.lock();
        if runs.len() == capacity {
            runs.pop_front();
        }
        runs.push_back(trace);
    }

    /// Resolve a TraceId recorded in `system.queries` to its trace.
    pub fn trace_for(&self, trace_id: u64) -> Option<Trace> {
        self.runs
            .lock()
            .iter()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Scheduler task metrics (the straggler counter and the
    /// `shc_task_*` histograms) accumulated across this session's queries.
    pub fn task_metrics(&self) -> &Arc<TaskMetrics> {
        &self.task_metrics
    }

    /// Per-exchange-edge shuffle attribution accumulated across this
    /// session's queries.
    pub fn shuffle_edges(&self) -> &Arc<ShuffleEdges> {
        &self.shuffle_edges
    }

    /// The TraceId of the most recently stored run, if any.
    pub fn last_trace_id(&self) -> Option<u64> {
        self.runs.lock().back().map(|t| t.trace_id)
    }

    /// The task timeline of the most recently stored run, if any.
    pub fn last_timeline(&self) -> Option<TaskTimeline> {
        self.runs.lock().back().map(TaskTimeline::of)
    }

    /// The task timelines of all retained runs, oldest first (backs
    /// `system.task_timeline` and `system.stage_stats`).
    pub fn timelines(&self) -> Vec<TaskTimeline> {
        self.runs.lock().iter().map(TaskTimeline::of).collect()
    }

    /// The flight-recorder dump captured by the most recent slow or errored
    /// query (cleared and re-captured per incident).
    pub fn last_event_dump(&self) -> Option<String> {
        self.last_event_dump.lock().clone()
    }

    /// Journal a failed execution and capture a flight-recorder dump — the
    /// "automatic dump on error" path.
    pub(crate) fn note_query_error(&self, trace_id: u64, duration_us: u64, error: &str) {
        self.events.record_with_trace(
            Severity::Error,
            "query",
            duration_us,
            format!("query failed: {error}"),
            trace_id,
        );
        *self.last_event_dump.lock() = Some(self.events.render());
    }

    /// Append one execution to the query log, flagging it slow when its
    /// virtual duration exceeds the configured threshold. Slow queries are
    /// journaled and trigger an automatic flight-recorder dump.
    pub(crate) fn record_query(&self, sql: Option<&str>, plan: &LogicalPlan, stats: ExecStats) {
        let ExecStats {
            duration_us,
            rows_returned,
            trace,
        } = stats;
        let trace_id = trace.trace_id;
        let rpc_count = trace.spans.iter().filter(|s| s.name == "rpc").count() as u64;
        let slow = duration_us > self.config.read().slow_query_threshold_us;
        let id = self.query_log.record(QueryLogEntry {
            id: 0,
            sql: sql.unwrap_or("<dataframe>").to_string(),
            plan_digest: plan_digest(&plan.explain()),
            duration_us,
            rows_returned,
            rpc_count,
            slow,
            trace_id,
        });
        if slow {
            self.events.record_with_trace(
                Severity::Warn,
                "query",
                duration_us,
                format!("slow query id={id} duration_us={duration_us} rpc_count={rpc_count}"),
                trace_id,
            );
            *self.last_event_dump.lock() = Some(self.events.render());
        }
    }

    /// A DataFrame over a registered table.
    pub fn read_table(self: &Arc<Self>, name: &str) -> Result<DataFrame> {
        let provider = self
            .table_provider(name)
            .ok_or_else(|| EngineError::TableNotFound(name.to_string()))?;
        Ok(DataFrame::new(
            Arc::clone(self),
            LogicalPlan::scan(name.to_string(), name.to_string(), provider, None, vec![]),
        ))
    }

    /// Prometheus-style text exposition of this session's query metrics
    /// (query counters plus task-duration quantiles, the `shc_task_*`
    /// scheduler histograms, and per-exchange-edge shuffle counters),
    /// suitable for scraping or dumping at the end of a run.
    pub fn metrics_exposition(&self) -> String {
        let mut out = self.metrics.exposition();
        out.push_str(&self.task_metrics.exposition());
        out.push_str(
            &self
                .shuffle_edges
                .exposition(crate::metrics::EXPOSITION_PREFIX),
        );
        out
    }

    /// The execution context derived from the current configuration.
    pub fn exec_context(&self) -> ExecContext {
        let cfg = self.config.read();
        ExecContext {
            executors: cfg.executors.clone(),
            metrics: Arc::clone(&self.metrics),
            task_metrics: Arc::clone(&self.task_metrics),
            shuffle_edges: Arc::clone(&self.shuffle_edges),
            broadcast_threshold: cfg.broadcast_threshold,
            batch_size: cfg.batch_size,
            sched_faults: cfg.scheduler_faults.clone(),
        }
    }
}

struct SessionCatalog<'a> {
    session: &'a Arc<Session>,
}

impl Catalog for SessionCatalog<'_> {
    fn table(&self, name: &str) -> Option<Arc<dyn TableProvider>> {
        self.session.table_provider(name)
    }

    fn view(&self, name: &str) -> Option<LogicalPlan> {
        self.session
            .views
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::MemTable;
    use crate::row::Row;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn session_with_data() -> Arc<Session> {
        let session = Session::new_default();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("dept", DataType::Utf8),
            Field::new("score", DataType::Float64),
        ]);
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                Row::new(vec![
                    Value::Int64(i),
                    Value::Utf8(if i < 5 { "a" } else { "b" }.into()),
                    Value::Float64(i as f64),
                ])
            })
            .collect();
        session.register_table("users", Arc::new(MemTable::with_rows(schema, rows, 2)));
        session
    }

    #[test]
    fn sql_end_to_end() {
        let s = session_with_data();
        let df = s.sql("SELECT id FROM users WHERE id >= 8").unwrap();
        let mut rows = df.collect().unwrap();
        rows.sort_by_key(|r| r.get(0).as_i64());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0), &Value::Int64(8));
    }

    #[test]
    fn sql_aggregate_end_to_end() {
        let s = session_with_data();
        let df = s
            .sql("SELECT dept, COUNT(*) AS n, AVG(score) m FROM users GROUP BY dept ORDER BY dept")
            .unwrap();
        let rows = df.collect().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0).as_str(), Some("a"));
        assert_eq!(rows[0].get(1), &Value::Int64(5));
        assert_eq!(rows[0].get(2), &Value::Float64(2.0));
        assert_eq!(rows[1].get(2), &Value::Float64(7.0));
    }

    #[test]
    fn temp_view_is_queryable() {
        let s = session_with_data();
        let df = s
            .sql("SELECT id, score FROM users WHERE score > 5")
            .unwrap();
        df.create_or_replace_temp_view("hot");
        let count = s
            .sql("SELECT COUNT(*) FROM hot")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(count[0].get(0), &Value::Int64(4));
    }

    #[test]
    fn missing_table_is_reported() {
        let s = Session::new_default();
        assert!(matches!(
            s.sql("SELECT a FROM ghosts"),
            Err(EngineError::TableNotFound(_))
        ));
        assert!(s.read_table("ghosts").is_err());
    }

    #[test]
    fn register_and_deregister() {
        let s = session_with_data();
        assert!(s.table_provider("USERS").is_some()); // case-insensitive
        assert!(s.deregister_table("users"));
        assert!(!s.deregister_table("users"));
        assert!(s.table_provider("users").is_none());
    }

    #[test]
    fn query_log_records_sql_and_flags_slow() {
        let s = session_with_data();
        s.update_config(|c| c.slow_query_threshold_us = 0);
        s.sql("SELECT id FROM users").unwrap().collect().unwrap();
        let entries = s.query_log().entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].sql, "SELECT id FROM users");
        assert!(entries[0].slow, "zero threshold flags everything");
        assert!(entries[0].duration_us > 0);
        assert_eq!(entries[0].rows_returned, 10);
        assert_eq!(entries[0].plan_digest.len(), 16);
        // API-built frames log under a placeholder name.
        s.read_table("users").unwrap().collect().unwrap();
        assert_eq!(s.query_log().entries()[1].sql, "<dataframe>");
    }

    #[test]
    fn query_log_can_be_disabled() {
        let s = Session::new(SessionConfig {
            query_log_capacity: 0,
            ..Default::default()
        });
        let schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
        s.register_table(
            "t",
            Arc::new(MemTable::with_rows(
                schema,
                vec![Row::new(vec![Value::Int64(1)])],
                1,
            )),
        );
        s.sql("SELECT id FROM t").unwrap().collect().unwrap();
        assert!(s.query_log().is_empty());
    }

    #[test]
    fn a_failed_explain_analyze_is_recorded_like_a_failed_collect() {
        let s = session_with_data();
        let faults = SchedulerFaults::new();
        s.update_config(|c| {
            c.executors.task_retries = 0;
            c.scheduler_faults = Some(Arc::clone(&faults));
        });
        for (trace_id, analyzed) in [(1, false), (2, true)] {
            faults.fail_once_on_host("localhost", "injected");
            let df = s.sql("SELECT id FROM users").unwrap();
            let err = match analyzed {
                false => df.collect().err(),
                true => df.collect_analyzed().err(),
            };
            let err = err.expect("the injected fault fails the query");
            assert!(err.to_string().contains("injected"), "{err}");
            // A journaled error, a dump holding it, a resolvable trace.
            let dump = s.last_event_dump().expect("an errored query dumps events");
            assert_eq!(dump.matches("query failed").count(), trace_id as usize);
            assert!(s.trace_for(trace_id).is_some_and(|t| !t.is_empty()));
        }
        assert!(s.query_log().is_empty(), "a failed query logs no entry");
    }

    #[test]
    fn config_updates_apply() {
        let s = session_with_data();
        s.update_config(|c| c.broadcast_threshold = 3);
        assert_eq!(s.exec_context().broadcast_threshold, 3);
    }
}
