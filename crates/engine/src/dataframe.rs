//! The DataFrame API: lazily-built logical plans with Spark-style
//! transformations (`select`, `filter`, `join`, `group_by().agg()`, …) that
//! execute through the session's optimizer and physical engine on
//! `collect`.

use crate::aggregate::AggFunc;
use crate::datasource::TableProvider;
use crate::error::Result;
use crate::expr::Expr;
use crate::logical::{AggExpr, JoinType, LogicalPlan};
use crate::optimizer::optimize;
use crate::physical;
use crate::row::Row;
use crate::schema::SchemaRef;
use crate::session::{ExecStats, Session};
use crate::task_timeline::{TaskTimeline, DEFAULT_TIMELINE_CAPACITY};
use std::sync::Arc;

/// Shorthand constructor for a column reference (`col("t.a")`).
pub fn col(name: &str) -> Expr {
    Expr::col(name)
}

/// Shorthand constructor for a literal.
pub fn lit(value: impl Into<crate::value::Value>) -> Expr {
    Expr::lit(value)
}

/// A lazily evaluated, plan-backed table of rows.
#[derive(Clone)]
pub struct DataFrame {
    session: Arc<Session>,
    plan: LogicalPlan,
    /// Original SQL text when this frame came from `Session::sql`; the
    /// query log records it (API-built frames log as `<dataframe>`).
    sql_text: Option<String>,
}

impl DataFrame {
    pub fn new(session: Arc<Session>, plan: LogicalPlan) -> DataFrame {
        DataFrame {
            session,
            plan,
            sql_text: None,
        }
    }

    /// Attach the originating SQL text (recorded by the query log).
    pub fn with_sql_text(mut self, sql: impl Into<String>) -> DataFrame {
        self.sql_text = Some(sql.into());
        self
    }

    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    pub fn schema(&self) -> &SchemaRef {
        self.plan.schema()
    }

    /// Project expressions: `df.select(vec![(col("a"), "a".into())])`.
    pub fn select(&self, exprs: Vec<(Expr, String)>) -> DataFrame {
        self.with_plan(LogicalPlan::projection(exprs, self.plan.clone()))
    }

    /// Project existing columns by name.
    pub fn select_cols(&self, names: &[&str]) -> DataFrame {
        self.select(
            names
                .iter()
                .map(|n| {
                    let e = Expr::col(*n);
                    let out = match &e {
                        Expr::Column { name, .. } => name.clone(),
                        _ => n.to_string(),
                    };
                    (e, out)
                })
                .collect(),
        )
    }

    pub fn filter(&self, predicate: Expr) -> DataFrame {
        self.with_plan(LogicalPlan::filter(predicate, self.plan.clone()))
    }

    /// Equi-join on key pairs.
    pub fn join(&self, right: &DataFrame, on: Vec<(Expr, Expr)>, join_type: JoinType) -> DataFrame {
        self.with_plan(LogicalPlan::join(
            self.plan.clone(),
            right.plan.clone(),
            on,
            join_type,
        ))
    }

    /// Start a grouped aggregation.
    pub fn group_by(&self, keys: Vec<Expr>) -> GroupedData {
        GroupedData {
            df: self.clone(),
            keys,
        }
    }

    /// Global aggregation (no grouping keys).
    pub fn agg(&self, aggs: Vec<(AggExpr, String)>) -> DataFrame {
        self.with_plan(LogicalPlan::aggregate(
            vec![],
            aggs,
            self.plan.clone(),
            Vec::new(),
        ))
    }

    pub fn sort(&self, keys: Vec<(Expr, bool)>) -> DataFrame {
        self.with_plan(LogicalPlan::sort(keys, self.plan.clone()))
    }

    pub fn limit(&self, n: usize) -> DataFrame {
        self.with_plan(LogicalPlan::limit(n, self.plan.clone()))
    }

    /// Re-qualify the output columns (named subquery).
    pub fn alias(&self, alias: &str) -> DataFrame {
        self.with_plan(LogicalPlan::subquery_alias(
            alias.to_string(),
            self.plan.clone(),
        ))
    }

    /// Register this DataFrame's plan as a temp view in the session.
    pub fn create_or_replace_temp_view(&self, name: &str) {
        self.session.register_view(name, self.plan.clone());
    }

    /// The optimized logical plan (what `collect` will run).
    pub fn optimized_plan(&self) -> Result<LogicalPlan> {
        optimize(self.plan.clone())
    }

    pub fn explain(&self) -> Result<String> {
        Ok(format!(
            "== Logical Plan ==\n{}\n== Optimized Plan ==\n{}",
            self.plan.explain(),
            self.optimized_plan()?.explain()
        ))
    }

    /// Optimize and execute, returning all rows. When query logging is
    /// enabled, the run is traced and recorded like
    /// [`collect_analyzed`](Self::collect_analyzed)'s, without a profile.
    pub fn collect(&self) -> Result<Vec<Row>> {
        let plan = self.optimized_plan()?;
        if self.session.query_log().capacity() == 0 {
            return physical::collect(&plan, &self.session.exec_context(), None);
        }
        Ok(self.run_recorded(&plan, None)?.0)
    }

    /// Optimize and execute under a fresh [`shc_obs::Tracer`], recording
    /// per-operator runtime statistics and the full cross-layer span trace
    /// (query → stage → task → RPC). The trace clock is deterministic
    /// (virtual microseconds advanced by modeled costs), so repeated runs of
    /// the same query over the same data produce identical traces.
    pub fn collect_analyzed(&self) -> Result<QueryAnalysis> {
        let plan = self.optimized_plan()?;
        let profile = physical::OpProfile::build(&plan);
        let (rows, trace, timeline) = self.run_recorded(&plan, Some(&profile))?;
        let trace = trace.expect("a profiled run hands its trace back");
        attach_region_attribution(&profile, &trace);
        let (mut subplans_reused, mut dynamic_filters) = (0, 0);
        profile.walk(&mut |p| {
            subplans_reused += p.reused_from.get().is_some() as u64;
            dynamic_filters += p.dynamic_filter_keys.get().is_some() as u64;
        });
        Ok(QueryAnalysis {
            rows,
            profile,
            trace,
            plan,
            timeline,
            subplans_reused,
            dynamic_filters,
        })
    }

    /// Execute `plan` under a fresh tracer and task timeline, profiled into
    /// `profile` when given, and record the run: a query-log entry (its RPC
    /// count the trace's `rpc` spans), or for an error a journaled event and
    /// a flight-recorder dump; either way the trace and timeline stay
    /// resolvable by TraceId. A profiled run also hands a copy of its trace
    /// back; a plain collect, which reads none, is spared the copy.
    fn run_recorded(
        &self,
        plan: &LogicalPlan,
        profile: Option<&Arc<physical::OpProfile>>,
    ) -> Result<(Vec<Row>, Option<shc_obs::Trace>, Arc<TaskTimeline>)> {
        let mut ctx = self.session.exec_context();
        let trace_id = self.session.mint_trace_id();
        let timeline = TaskTimeline::new(trace_id, DEFAULT_TIMELINE_CAPACITY);
        ctx.timeline = Some(Arc::clone(&timeline));
        let tracer = shc_obs::Tracer::with_id(trace_id);
        tracer.attach_journal(Arc::clone(self.session.events()));
        let result = {
            let mut root = tracer.root("query");
            root.annotate("trace_id", format_args!("{trace_id:#x}"));
            physical::collect(plan, &ctx, profile)
        };
        let duration_us = tracer.now_us();
        let trace = tracer.finish();
        match &result {
            Ok(rows) => self.session.record_query(
                self.sql_text.as_deref(),
                plan,
                ExecStats {
                    duration_us,
                    rows_returned: rows.len() as u64,
                    trace: &trace,
                },
            ),
            Err(e) => self
                .session
                .note_query_error(trace_id, duration_us, &e.to_string()),
        }
        let kept = profile.map(|_| trace.clone());
        self.session.store_run(trace, Arc::clone(&timeline));
        Ok((result?, kept, timeline))
    }

    /// Run the query and render the physical plan tree annotated with the
    /// observed per-operator statistics (rows, bytes, partitions, virtual
    /// time) and the decisions each operator took, plus per-region scan
    /// attribution. The EXPLAIN ANALYZE of this engine.
    pub fn explain_analyze(&self) -> Result<String> {
        let analysis = self.collect_analyzed()?;
        let mut out = format!(
            "== Physical Plan (analyzed, {} rows returned) ==\n{}subplans_reused={}\n\
             dynamic_filters={}\n",
            analysis.rows.len(),
            analysis.profile.render(),
            analysis.subplans_reused,
            analysis.dynamic_filters,
        );
        for stats in analysis.timeline.stage_stats() {
            let skew = stats
                .skew_ratio
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "n/a".into());
            let locality = stats
                .locality_hit_ratio
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "n/a".into());
            out.push_str(&format!(
                "skew: stage {} [{}] ratio={} rows={}/{}/{} bytes={}/{}/{}\n",
                stats.stage_id,
                stats.label,
                skew,
                stats.rows_min,
                stats.rows_median,
                stats.rows_max,
                stats.bytes_min,
                stats.bytes_median,
                stats.bytes_max,
            ));
            out.push_str(&format!(
                "locality: stage {} [{}] hit_ratio={} stragglers={}\n",
                stats.stage_id, stats.label, locality, stats.stragglers,
            ));
        }
        Ok(out)
    }

    pub fn count(&self) -> Result<usize> {
        Ok(self.collect()?.len())
    }

    /// Execute and append every result row into a table provider — the
    /// DataFrame write path. Returns bytes written.
    pub fn write_to(&self, provider: &dyn TableProvider) -> Result<u64> {
        let rows = self.collect()?;
        provider.insert(&rows)
    }

    fn with_plan(&self, plan: LogicalPlan) -> DataFrame {
        // A transformed frame no longer corresponds to the original SQL
        // text, so the derived frame logs as `<dataframe>`.
        DataFrame {
            session: Arc::clone(&self.session),
            plan,
            sql_text: None,
        }
    }
}

/// Result of [`DataFrame::collect_analyzed`]: the rows plus everything the
/// run observed about itself.
pub struct QueryAnalysis {
    pub rows: Vec<Row>,
    /// Per-operator observed statistics, mirroring `plan`'s tree.
    pub profile: Arc<physical::OpProfile>,
    /// The merged cross-layer span trace for the whole query.
    pub trace: shc_obs::Trace,
    /// The optimized plan that was executed.
    pub plan: LogicalPlan,
    /// Per-task execution timeline of this run: one [`TaskProfile`]
    /// (placement, queue wait, attempts) per scheduled task, grouped into
    /// stages with skew and locality statistics.
    ///
    /// [`TaskProfile`]: crate::task_timeline::TaskProfile
    pub timeline: Arc<TaskTimeline>,
    /// Operators of this run that were handed an identical subplan's result
    /// instead of executing (the query's share of
    /// `QueryMetrics::subplans_reused`).
    pub subplans_reused: u64,
    /// Scans of this run that were handed the join keys of a filtering
    /// input as one more source filter (the query's share of
    /// `QueryMetrics::dynamic_filters`).
    pub dynamic_filters: u64,
}

/// Copy per-region scan rows out of the trace into the matching scan
/// operators' profiles. `scan_partition` spans carry an `op` annotation with
/// the profile id; their `region_scan` descendants carry region id, server
/// and row count.
fn attach_region_attribution(profile: &Arc<physical::OpProfile>, trace: &shc_obs::Trace) {
    let mut nodes: Vec<&physical::OpProfile> = Vec::new();
    fn index<'a>(p: &'a physical::OpProfile, out: &mut Vec<&'a physical::OpProfile>) {
        out.push(p);
        for c in &p.children {
            index(c, out);
        }
    }
    index(profile, &mut nodes);
    for psp in trace.spans_named("scan_partition") {
        let Some(node) = psp
            .attr("op")
            .and_then(|v| v.parse::<usize>().ok())
            .and_then(|op| nodes.iter().find(|n| n.id == op))
        else {
            continue;
        };
        for rs in trace.descendants(psp.id) {
            if rs.name != "region_scan" {
                continue;
            }
            let region = rs
                .attr("region")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            let server = rs.attr("server").unwrap_or("?");
            let rows = rs
                .attr("rows")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            node.add_region_scan(region, server, rows);
        }
    }
}

/// Builder returned by [`DataFrame::group_by`].
pub struct GroupedData {
    df: DataFrame,
    keys: Vec<Expr>,
}

impl GroupedData {
    /// Finish the aggregation with the given aggregate expressions.
    pub fn agg(self, aggs: Vec<(AggExpr, String)>) -> DataFrame {
        let group = self
            .keys
            .into_iter()
            .map(|e| {
                let name = e.default_name();
                (e, name)
            })
            .collect();
        let plan = LogicalPlan::aggregate(group, aggs, self.df.plan.clone(), Vec::new());
        DataFrame {
            session: self.df.session,
            plan,
            sql_text: None,
        }
    }

    /// Count rows per group.
    pub fn count(self) -> DataFrame {
        self.agg(vec![(AggExpr::count_star(), "count".to_string())])
    }
}

/// Convenience constructors for aggregate expressions.
pub fn avg(e: Expr) -> AggExpr {
    AggExpr::new(AggFunc::Avg, e)
}
pub fn sum(e: Expr) -> AggExpr {
    AggExpr::new(AggFunc::Sum, e)
}
pub fn count(e: Expr) -> AggExpr {
    AggExpr::new(AggFunc::Count, e)
}
pub fn count_star() -> AggExpr {
    AggExpr::count_star()
}
pub fn min(e: Expr) -> AggExpr {
    AggExpr::new(AggFunc::Min, e)
}
pub fn max(e: Expr) -> AggExpr {
    AggExpr::new(AggFunc::Max, e)
}
pub fn stddev(e: Expr) -> AggExpr {
    AggExpr::new(AggFunc::Stddev, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::MemTable;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn session() -> Arc<Session> {
        let s = Session::new_default();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("dept", DataType::Utf8),
            Field::new("score", DataType::Float64),
        ]);
        let rows: Vec<Row> = (0..12)
            .map(|i| {
                Row::new(vec![
                    Value::Int64(i),
                    Value::Utf8(["a", "b", "c"][(i % 3) as usize].into()),
                    Value::Float64((i * i) as f64),
                ])
            })
            .collect();
        s.register_table("t", Arc::new(MemTable::with_rows(schema, rows, 3)));
        s
    }

    #[test]
    fn filter_select_collect() {
        let s = session();
        let df = s
            .read_table("t")
            .unwrap()
            .filter(col("id").gt_eq(lit(10i64)))
            .select_cols(&["id", "score"]);
        let mut rows = df.collect().unwrap();
        rows.sort_by_key(|r| r.get(0).as_i64());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get(1), &Value::Float64(121.0));
    }

    #[test]
    fn group_by_agg() {
        let s = session();
        let df = s
            .read_table("t")
            .unwrap()
            .group_by(vec![col("dept")])
            .agg(vec![
                (count_star(), "n".into()),
                (max(col("score")), "mx".into()),
            ])
            .sort(vec![(col("dept"), true)]);
        let rows = df.collect().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(1), &Value::Int64(4));
        assert_eq!(rows[0].get(2), &Value::Float64(81.0)); // dept a: 0,3,6,9
    }

    #[test]
    fn join_via_api() {
        let s = session();
        let left = s.read_table("t").unwrap().alias("l");
        let right = s.read_table("t").unwrap().alias("r");
        let joined = left
            .join(&right, vec![(col("l.id"), col("r.id"))], JoinType::Inner)
            .filter(col("l.id").lt(lit(3i64)));
        assert_eq!(joined.count().unwrap(), 3);
    }

    #[test]
    fn sort_limit_pipeline() {
        let s = session();
        let df = s
            .read_table("t")
            .unwrap()
            .sort(vec![(col("score"), false)])
            .limit(1);
        let rows = df.collect().unwrap();
        assert_eq!(rows[0].get(2), &Value::Float64(121.0));
    }

    #[test]
    fn write_to_another_table() {
        let s = session();
        let sink = MemTable::new(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("dept", DataType::Utf8),
                Field::new("score", DataType::Float64),
            ]),
            2,
        );
        let bytes = s.read_table("t").unwrap().write_to(&sink).unwrap();
        assert!(bytes > 0);
        assert_eq!(sink.row_count(), 12);
    }

    #[test]
    fn explain_shows_pushdown() {
        let s = session();
        let df = s
            .read_table("t")
            .unwrap()
            .filter(col("id").gt(lit(5i64)))
            .select_cols(&["dept"]);
        let text = df.explain().unwrap();
        assert!(text.contains("Optimized Plan"));
        // After optimization the filter lives in the scan node.
        let optimized = text.split("Optimized Plan").nth(1).unwrap();
        assert!(optimized.contains("filters=(id > 5)"), "{optimized}");
    }

    #[test]
    fn global_agg() {
        let s = session();
        let df = s
            .read_table("t")
            .unwrap()
            .agg(vec![(sum(col("id")), "s".into())]);
        let rows = df.collect().unwrap();
        assert_eq!(rows[0].get(0), &Value::Int64(66));
    }
}
