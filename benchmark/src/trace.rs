//! The traced pass: the same ops again, this time with one span around
//! every call into a layer, plus the probes that time layers a whole
//! query hides (raw scan against connector scan, tracing on against off).

use crate::metrics::Values;
use crate::oracle::Digest;
use crate::spans::Recorder;
use crate::stats::{median, percent_over, ratio, repeat_for};
use crate::workloads::{
    catalog_of, new_session, relation, QueryCycle, QueryEnv, RangeParam, Source,
};
use shc_core::conf::SHCConf;
use shc_core::pruning::plan_pushdown;
use shc_engine::parser;
use shc_engine::session::{Session, SessionConfig};
use shc_engine::source_filter::SourceFilter;
use shc_engine::value::Value;
use shc_kvstore::client::Connection;
use shc_kvstore::cluster::HBaseCluster;
use shc_kvstore::types::{Projection, Scan};
use shc_tpcds::{queries, Table};
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

/// Layer samples of traced query ops, in µs per op (`op_ms` in ms).
#[derive(Default)]
pub struct QuerySpans {
    parse: Vec<f64>,
    analyze: Vec<f64>,
    optimize: Vec<f64>,
    execute: Vec<f64>,
    pub op_ms: Vec<f64>,
    pub result_rows: u64,
}

impl QuerySpans {
    /// Whole cycles of traced query ops until `seconds` have passed: parse →
    /// analyze → optimize → execute called one after another under one op
    /// span, so the four sum to the op. `Session::sql` parses again and
    /// `collect` optimizes again; the layer numbers subtract the repeated
    /// part. Returns the number of failed ops.
    pub fn run(
        &mut self,
        rec: &mut Recorder,
        session: &Arc<Session>,
        cycle: &QueryCycle,
        seconds: f64,
    ) -> u64 {
        let mut failed = 0;
        repeat_for(seconds, || {
            for (sql, expected) in &cycle.queries {
                let op = rec.begin(QUERY_OP);
                let (_, p) = rec.time("engine.parser.parse", || parser::parse(sql));
                let (frame, a) = rec.time("engine.session.sql", || session.sql(sql));
                let (_, o) = rec.time("engine.dataframe.optimized_plan", || {
                    frame.as_ref().map(|df| df.optimized_plan())
                });
                let (rows, e) = rec.time("engine.dataframe.collect", || {
                    frame.and_then(|df| df.collect())
                });
                rec.end(op);
                self.parse.push(rec.micros(p));
                // On a one-table scan analysis is below timer noise and the
                // second parse runs warmer than the first: floor at zero.
                self.analyze.push((rec.micros(a) - rec.micros(p)).max(0.0));
                self.optimize.push(rec.micros(o));
                self.execute.push((rec.micros(e) - rec.micros(o)).max(0.0));
                self.op_ms.push(rec.micros(op) / 1e3);
                match rows {
                    Ok(rows) if cycle.matches(&rows, expected) => {
                        self.result_rows += rows.len() as u64
                    }
                    _ => failed += 1,
                }
            }
        });
        failed
    }

    pub fn record(&self, values: &mut Values) {
        values.set("engine.parser.parse_us", median(&self.parse));
        values.set("engine.analyzer.analyze_us", median(&self.analyze));
        values.set("engine.optimizer.optimize_us", median(&self.optimize));
        values.set("engine.physical.execute_us", median(&self.execute));
    }
}

/// Span name of one traced query op.
pub const QUERY_OP: &str = "op.query";

/// The filters `inventory_range_scan` pushes to its source.
fn range_filters((max_date_sk, min_qty): RangeParam) -> Vec<SourceFilter> {
    vec![
        SourceFilter::LtEq("inv_date_sk".into(), Value::Int64(max_date_sk)),
        SourceFilter::GtEq("inv_quantity_on_hand".into(), Value::Int32(min_qty)),
    ]
}

/// Scan probe over `inventory`: plan the pushdown, run the raw
/// `Table::scan`s that plan implies, then the same predicate as SQL on a
/// one-executor session through each connector. Connector time above the
/// raw store scan it needs, per 1 000 rows it decodes, is its decode cost:
/// SHC decodes what the pushed-down scan returns, the generic source
/// decodes the whole table and leaves filtering to the engine.
pub fn scan_probe(
    rec: &mut Recorder,
    cluster: &Arc<HBaseCluster>,
    params: &[RangeParam],
    seconds: f64,
    values: &mut Values,
) -> u64 {
    let catalog = catalog_of(Table::Inventory);
    let conf = SHCConf::default();
    let table = Connection::open(Arc::clone(cluster), None).table(catalog.table.clone());
    let value_column = catalog
        .column("inv_quantity_on_hand")
        .expect("catalog column");
    let projection = Projection::all().column(
        value_column.family.clone().into_bytes(),
        value_column.qualifier.clone().into_bytes(),
    );
    let sql_session = |source: Source| {
        let session = new_session(Some(cluster), 1, 0);
        session.register_table("inventory", relation(source, cluster, Arc::clone(&catalog)));
        session
    };
    let (shc, generic) = (sql_session(Source::Shc), sql_session(Source::Generic));

    let mut plan_us = Vec::new();
    let (mut pushed_us, mut pushed_cells, mut pushed_rows) = (0.0, 0u64, 0u64);
    let (mut full_us, mut full_rows) = (0.0, 0u64);
    let (mut shc_us, mut generic_us) = (0.0, 0.0);
    let mut failed = 0;
    repeat_for(seconds, || {
        for &param in params {
            let op = rec.begin("probe.scan");
            let filters = range_filters(param);
            let (plan, p) = rec.time("core.pruning.plan_pushdown", || {
                plan_pushdown(&catalog, &conf, &filters)
            });
            plan_us.push(rec.micros(p));
            let scans: Vec<Scan> = plan
                .ranges
                .ranges()
                .iter()
                .map(|range| Scan {
                    start: Bound::Included(range.start.clone()),
                    stop: if range.is_unbounded_stop() {
                        Bound::Unbounded
                    } else {
                        Bound::Excluded(range.stop.clone())
                    },
                    projection: projection.clone(),
                    filter: plan.kv_filter.clone(),
                    max_versions: conf.max_versions,
                    caching: conf.caching,
                    include_empty_rows: true,
                    ..Scan::new()
                })
                .collect();
            let (pushed, s) = rec.time("kvstore.client.scan", || {
                scans
                    .iter()
                    .map(|scan| table.scan(scan))
                    .collect::<Result<Vec<_>, _>>()
            });
            pushed_us += rec.micros(s);
            let (full, f) = rec.time("kvstore.client.scan.full", || table.scan(&Scan::new()));
            full_us += rec.micros(f);
            rec.end(op);

            let sql = queries::inventory_range_scan(param.0, param.1);
            let (via_shc, s) = rec.time("probe.sql.shc", || {
                shc.sql(&sql).and_then(|df| df.collect())
            });
            shc_us += rec.micros(s);
            let (via_generic, g) = rec.time("probe.sql.generic", || {
                generic.sql(&sql).and_then(|df| df.collect())
            });
            generic_us += rec.micros(g);

            // The three routes must agree on the row set.
            match (pushed, full, via_shc, via_generic) {
                (Ok(pushed), Ok(full), Ok(via_shc), Ok(via_generic)) => {
                    let rows: usize = pushed.iter().map(Vec::len).sum();
                    pushed_rows += rows as u64;
                    pushed_cells += pushed
                        .iter()
                        .flatten()
                        .map(|row| row.cells.len() as u64)
                        .sum::<u64>();
                    full_rows += full.len() as u64;
                    let agree = rows == via_shc.len()
                        && Digest::of(&via_shc, false).matches(&Digest::of(&via_generic, false));
                    failed += u64::from(!agree);
                }
                _ => failed += 1,
            }
        }
    });
    values.set("core.pruning.plan_pushdown_us", median(&plan_us));
    values.set(
        "kvstore.client.scan_us_per_kcell",
        ratio(pushed_us * 1e3, pushed_cells as f64),
    );
    values.set(
        "core.relation.scan_decode_us_per_krow",
        ratio((shc_us - pushed_us) * 1e3, pushed_rows as f64),
    );
    values.set(
        "core.generic.scan_decode_us_per_krow",
        ratio((generic_us - full_us) * 1e3, full_rows as f64),
    );
    failed
}

/// What the program's own per-query tracing costs: `collect()` on a
/// session with the default `query_log_capacity` against one with 0,
/// interleaved query by query; the metric compares the two medians.
#[derive(Default)]
pub struct TraceOverhead {
    with_log_ms: Vec<f64>,
    without_log_ms: Vec<f64>,
}

impl TraceOverhead {
    pub fn run(
        &mut self,
        with_log: &Arc<Session>,
        without_log: &Arc<Session>,
        cycle: &QueryCycle,
        seconds: f64,
    ) -> u64 {
        let mut failed = 0;
        repeat_for(seconds, || {
            for (sql, expected) in &cycle.queries {
                for (session, samples) in [
                    (with_log, &mut self.with_log_ms),
                    (without_log, &mut self.without_log_ms),
                ] {
                    let frame = session.sql(sql);
                    let timer = Instant::now();
                    let rows = frame.and_then(|df| df.collect());
                    samples.push(timer.elapsed().as_secs_f64() * 1e3);
                    let ok = rows.is_ok_and(|rows| cycle.matches(&rows, expected));
                    failed += u64::from(!ok);
                }
            }
        });
        failed
    }

    pub fn record(&self, values: &mut Values) {
        values.set(
            "obs.query_trace_overhead_pct",
            percent_over(median(&self.with_log_ms), median(&self.without_log_ms)),
        );
    }
}

/// A second session over the same data with the program's tracing at its
/// default.
pub fn default_traced_session(env: &QueryEnv) -> Arc<Session> {
    let session = new_session(
        env.cluster.as_ref(),
        crate::workloads::EXECUTORS,
        SessionConfig::default().query_log_capacity,
    );
    env.spec.register(
        &session,
        env.spec.source,
        env.cluster.as_ref(),
        &env.generator,
    );
    session
}
