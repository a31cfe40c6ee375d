//! `ingest_durable`: the store's layers used the other way round — WAL,
//! memstore, flush, compaction, manifest, recovery. A run is a series of
//! self-contained cycles on a fresh durable cluster: three rounds of
//! 2 048-row `write_rows` calls over the same keys, read-back range scans,
//! then crash every server, restart, and check every acknowledged row
//! against the benchmark's own `BTreeMap` model. Cycles are identical, so
//! counts repeat exactly and `recovery` gets one sample per cycle.

use crate::layers::{dir_bytes, end_state, Phases};
use crate::metrics::Values;
use crate::oracle::Digest;
use crate::spans::Recorder;
use crate::stats::{median, ratio, repeat_for, SplitMix64};
use crate::trace::{scan_probe, QuerySpans, TraceOverhead};
use crate::workloads::{
    catalog_of, new_session, range_params, relation, QueryCycle, RangeParam, Source, EXECUTORS,
};
use shc_core::catalog::HBaseTableCatalog;
use shc_core::conf::SHCConf;
use shc_core::conn_cache::ConnectionCache;
use shc_core::writer;
use shc_engine::row::Row;
use shc_engine::session::{Session, SessionConfig};
use shc_engine::value::Value;
use shc_kvstore::client::Connection;
use shc_kvstore::cluster::{ClusterConfig, HBaseCluster};
use shc_kvstore::region::RegionConfig;
use shc_tpcds::{queries, Generator, Scale, Table};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "ingest_durable";
pub const WHY: &str = "Cycles of 3 overwrite rounds of 2048-row write_rows into a 2-server durable cluster (64 KiB memstores, inline flush), read-back scans, crash, restart, verify: WAL, flush, compaction, recovery show.";

/// Span name of one traced ingest op.
pub const BATCH_OP: &str = "op.ingest_batch";
/// Rows per `write_rows` call: one client write buffer.
pub const BATCH_ROWS: usize = 2048;
/// 6 144 inventory rows: three full batches per round.
pub const SCALE_GB: f64 = 5.12;
const ROWS: usize = 3 * BATCH_ROWS;
/// Rounds 2–3 overwrite the keys of round 1.
pub const ROUNDS: usize = 3;
/// `write_rows` calls of one full cycle.
pub const BATCHES_PER_CYCLE: usize = ROUNDS * ROWS / BATCH_ROWS;
pub const SERVERS: usize = 2;
/// Small enough that a cycle sees several flushes and size-tiered
/// compactions and bytes written per user byte level off.
pub const MEMSTORE_FLUSH_BYTES: usize = 64 * 1024;
pub const READBACKS: usize = 20;
/// Set-ups per timed run; `setup_s` is their median.
pub const SETUPS: usize = 9;

type Key = (i64, i64, i64);

/// What one run of the workload needs, built once from the seed.
pub struct IngestEnv {
    catalog: Arc<HBaseTableCatalog>,
    /// The rows of each round; the last round is the generator's output.
    rounds: Vec<Vec<Row>>,
    readback_params: Vec<RangeParam>,
    data_root: PathBuf,
    cycles: u64,
}

/// How much of a cycle to run: all of it, or the warm-up's slice.
#[derive(Clone, Copy)]
pub struct Size {
    pub rounds: usize,
    pub rows: usize,
    pub readbacks: usize,
}

/// Samples and counts of one or more cycles.
#[derive(Default)]
pub struct IngestRun {
    pub batch_ms: Vec<f64>,
    pub readback_ms: Vec<f64>,
    pub recovery_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Registry deltas and end state of the latest cycle.
    pub phases: Phases,
    pub space_amp: f64,
}

/// Span-side samples of traced cycles.
#[derive(Default)]
pub struct IngestSpans {
    pub rec: Recorder,
    encode_us: f64,
    put_batch_us: f64,
    probe_rows: u64,
    flush_all_us: Vec<f64>,
    restart_us: Vec<f64>,
    pub batch_op_ms: Vec<f64>,
    pub queries: QuerySpans,
    pub overhead: TraceOverhead,
    pub probe_values: Values,
}

fn key_of(row: &Row) -> Key {
    let part = |i: usize| row.get(i).as_i64().unwrap_or(i64::MIN);
    (part(0), part(1), part(2))
}

fn quantity_of(row: &Row) -> i64 {
    row.get(3).as_i64().unwrap_or(i64::MIN)
}

impl IngestEnv {
    /// Everything `setup_s` covers here: generate the rounds, then one
    /// warm-up cycle of a single batch through every phase.
    pub fn setup(seed: u64, out_dir: &Path) -> IngestEnv {
        let generator = Generator::new(Scale::from_gb(SCALE_GB), seed);
        let base = generator.rows(Table::Inventory);
        assert_eq!(base.len(), ROWS, "SCALE_GB gives whole batches");
        let rounds = (0..ROUNDS)
            .map(|round| {
                let bump = (ROUNDS - 1 - round) as i32;
                base.iter()
                    .map(|row| {
                        let mut values = row.values.clone();
                        values[3] = Value::Int32(quantity_of(row) as i32 + bump);
                        Row::new(values)
                    })
                    .collect()
            })
            .collect();
        let mut env = IngestEnv {
            catalog: catalog_of(Table::Inventory),
            rounds,
            readback_params: range_params(&mut SplitMix64::new(seed), READBACKS),
            data_root: out_dir.join(format!("data-{}", std::process::id())),
            cycles: 0,
        };
        env.cycle(
            Size {
                rounds: 1,
                rows: BATCH_ROWS,
                readbacks: 2,
            },
            &mut IngestRun::default(),
            None,
        );
        env
    }

    pub fn full_size(&self) -> Size {
        Size {
            rounds: ROUNDS,
            rows: ROWS,
            readbacks: READBACKS,
        }
    }

    /// Whole cycles until `seconds` have passed.
    pub fn run_for(&mut self, seconds: f64, mut spans: Option<&mut IngestSpans>) -> IngestRun {
        let mut run = IngestRun::default();
        repeat_for(seconds, || {
            self.cycle(self.full_size(), &mut run, spans.as_deref_mut())
        });
        run
    }

    /// The read-back queries with what the model says they must return.
    fn readback_cycle(&self, model: &BTreeMap<Key, i64>, readbacks: usize) -> QueryCycle {
        let queries = self.readback_params[..readbacks]
            .iter()
            .map(|&(max_date_sk, min_qty)| {
                let expected: Vec<Row> = model
                    .range(..=(max_date_sk, i64::MAX, i64::MAX))
                    .filter(|(_, &qty)| qty >= min_qty as i64)
                    .map(|(key, &qty)| Row::new(vec![Value::Int64(key.1), Value::Int64(qty)]))
                    .collect();
                (
                    queries::inventory_range_scan(max_date_sk, min_qty),
                    Digest::of(&expected, false),
                )
            })
            .collect();
        QueryCycle {
            queries,
            ordered: false,
        }
    }

    /// One cycle on a fresh durable cluster: ingest, read back, recover.
    fn cycle(&mut self, size: Size, run: &mut IngestRun, mut spans: Option<&mut IngestSpans>) {
        self.cycles += 1;
        let dir = self.data_root.join(format!("cycle-{}", self.cycles));
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: SERVERS,
            data_dir: Some(dir.clone()),
            region_config: RegionConfig {
                memstore_flush_size: MEMSTORE_FLUSH_BYTES,
                ..Default::default()
            },
            ..Default::default()
        });
        let session = new_session(Some(&cluster), EXECUTORS, 0);
        session.register_table(
            "inventory",
            relation(Source::Shc, &cluster, Arc::clone(&self.catalog)),
        );
        let mut phases = Phases::default();

        let model = self.ingest(&cluster, size, run, &mut phases, spans.as_deref_mut());
        cluster.metrics.reset();
        self.read_back(
            &cluster,
            &session,
            &self.readback_cycle(&model, size.readbacks),
            run,
            &mut phases,
            spans.as_deref_mut(),
        );
        cluster.metrics.reset();
        recover(&cluster, &session, &model, run, &mut phases, spans);

        end_state(&cluster, &mut phases);
        run.phases = phases;
        drop((session, cluster));
        // Or the connector's connection cache keeps every cycle's cluster
        // alive and memory grows with the number of cycles.
        ConnectionCache::global().evict_idle(Duration::ZERO);
        // The cycle's files are the benchmark's own; a leftover directory
        // only costs space under out/.
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The ingest phase: `size.rounds` rounds of 2 048-row batches. Returns
    /// the model of every acknowledged row. A traced cycle lets
    /// `write_rows` create the table with its first batch and issues every
    /// later batch as the two calls `write_rows` is made of.
    fn ingest(
        &self,
        cluster: &Arc<HBaseCluster>,
        size: Size,
        run: &mut IngestRun,
        phases: &mut Phases,
        mut spans: Option<&mut IngestSpans>,
    ) -> BTreeMap<Key, i64> {
        // As `tpcds::load_into_hbase`: one region per server.
        let conf = SHCConf::default().with_new_table_regions(SERVERS);
        let table = spans
            .is_some()
            .then(|| Connection::open(Arc::clone(cluster), None).table(self.catalog.table.clone()));
        let mut model: BTreeMap<Key, i64> = BTreeMap::new();
        let mut live_bytes = 0;
        for round in &self.rounds[..size.rounds] {
            live_bytes = 0;
            for batch in round[..size.rows].chunks(BATCH_ROWS) {
                let acked = match (spans.as_deref_mut(), &table) {
                    (Some(spans), Some(table)) if !model.is_empty() => {
                        let rec = &mut spans.rec;
                        let op = rec.begin(BATCH_OP);
                        let (puts, e) = rec.time("core.writer.encode_put", || {
                            batch
                                .iter()
                                .map(|row| writer::encode_put(&self.catalog, row))
                                .collect::<Result<Vec<_>, _>>()
                        });
                        let bytes = puts.as_ref().map_or(0, |puts| {
                            puts.iter().map(|p| p.payload_bytes() as u64).sum()
                        });
                        let (result, p) = rec.time("kvstore.client.put_batch", || {
                            puts.map(|puts| table.put_batch(puts))
                        });
                        rec.end(op);
                        spans.encode_us += rec.micros(e);
                        spans.put_batch_us += rec.micros(p);
                        spans.probe_rows += batch.len() as u64;
                        spans.batch_op_ms.push(rec.micros(op) / 1e3);
                        matches!(result, Ok(Ok(()))).then_some(bytes)
                    }
                    _ => {
                        let started = Instant::now();
                        let result = writer::write_rows(cluster, &self.catalog, &conf, batch);
                        run.batch_ms.push(started.elapsed().as_secs_f64() * 1e3);
                        result.ok()
                    }
                };
                run.attempted += 1;
                match acked {
                    Some(bytes) => {
                        live_bytes += bytes;
                        phases.user_bytes += bytes;
                        phases.rows_written += batch.len() as u64;
                        model.extend(batch.iter().map(|row| (key_of(row), quantity_of(row))));
                    }
                    None => run.failed += 1,
                }
            }
        }
        cluster.quiesce();
        phases.write = cluster.metrics.snapshot();
        phases.client = phases.write;
        phases.client_ops = (size.rounds * size.rows.div_ceil(BATCH_ROWS)) as u64;
        let disk_bytes = cluster.storage().map_or(0, |env| dir_bytes(env.root()));
        run.space_amp = ratio(disk_bytes as f64, live_bytes as f64);
        model
    }

    /// The read-back phase: range scans through the connector, checked
    /// against the model; a traced cycle adds the scan probe and the
    /// tracing-overhead probe over the same table.
    fn read_back(
        &self,
        cluster: &Arc<HBaseCluster>,
        session: &Arc<Session>,
        readback: &QueryCycle,
        run: &mut IngestRun,
        phases: &mut Phases,
        spans: Option<&mut IngestSpans>,
    ) {
        run.attempted += readback.queries.len() as u64;
        phases.read_ops = readback.queries.len() as u64;
        phases.result_rows = readback.queries.iter().map(|(_, d)| d.rows()).sum();
        let Some(spans) = spans else {
            run.failed += readback.run(session, &mut run.readback_ms);
            phases.read = cluster.metrics.snapshot();
            phases.engine = session.metrics.snapshot();
            return;
        };
        run.failed += spans.queries.run(&mut spans.rec, session, readback, 0.0);
        phases.read = cluster.metrics.snapshot();
        phases.engine = session.metrics.snapshot();
        run.failed += scan_probe(
            &mut spans.rec,
            cluster,
            &self.readback_params[..readback.queries.len()],
            0.0,
            &mut spans.probe_values,
        );
        let with_log = new_session(
            Some(cluster),
            EXECUTORS,
            SessionConfig::default().query_log_capacity,
        );
        with_log.register_table(
            "inventory",
            relation(Source::Shc, cluster, Arc::clone(&self.catalog)),
        );
        run.failed += spans.overhead.run(&with_log, session, readback, 0.0);
    }
}

/// The recovery phase: crash every server, restart, first complete
/// read-back; then every acknowledged row must be there, at its latest
/// value, and nothing else. A traced cycle ends with `flush_all`, to which
/// the replayed memstores give real work.
fn recover(
    cluster: &Arc<HBaseCluster>,
    session: &Arc<Session>,
    model: &BTreeMap<Key, i64>,
    run: &mut IngestRun,
    phases: &mut Phases,
    mut spans: Option<&mut IngestSpans>,
) {
    let started = Instant::now();
    let servers: Vec<_> = (0..SERVERS as u64)
        .map(|id| cluster.server(id).expect("server exists"))
        .collect();
    servers.iter().for_each(|server| server.crash());
    let restart = || servers.iter().for_each(|server| server.restart());
    match spans.as_deref_mut() {
        Some(spans) => {
            let ((), r) = spans.rec.time("kvstore.region_server.restart", restart);
            spans.restart_us.push(spans.rec.micros(r));
        }
        None => restart(),
    }
    let survivors = read_all(session);
    run.recovery_ms.push(started.elapsed().as_secs_f64() * 1e3);
    phases.recovery = cluster.metrics.snapshot();

    run.attempted += model.len() as u64;
    match survivors {
        Ok(survivors) => {
            let lost_or_stale = model
                .iter()
                .filter(|(key, qty)| survivors.get(key) != Some(qty))
                .count();
            let unexpected = survivors
                .keys()
                .filter(|key| !model.contains_key(key))
                .count();
            run.failed += (lost_or_stale + unexpected) as u64;
        }
        Err(_) => run.failed += model.len() as u64,
    }

    if let Some(spans) = spans {
        let (flushed, f) = spans
            .rec
            .time("kvstore.cluster.flush_all", || cluster.flush_all());
        run.failed += u64::from(flushed.is_err());
        spans.flush_all_us.push(spans.rec.micros(f));
    }
}

impl Drop for IngestEnv {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.data_root);
    }
}

/// The whole table through the connector, keyed like the model.
fn read_all(session: &Arc<Session>) -> Result<BTreeMap<Key, i64>, shc_engine::error::EngineError> {
    let rows = session
        .sql(
            "SELECT inv_date_sk, inv_item_sk, inv_warehouse_sk, inv_quantity_on_hand \
             FROM inventory",
        )?
        .collect()?;
    Ok(rows
        .iter()
        .map(|row| (key_of(row), quantity_of(row)))
        .collect())
}

impl IngestSpans {
    pub fn record(&self, values: &mut Values) {
        let per_krow = |us: f64| ratio(us * 1e3, self.probe_rows as f64);
        values.set("core.writer.encode_us_per_krow", per_krow(self.encode_us));
        values.set(
            "kvstore.client.put_batch_us_per_krow",
            per_krow(self.put_batch_us),
        );
        values.set("kvstore.cluster.flush_all_us", median(&self.flush_all_us));
        values.set("kvstore.region_server.restart_us", median(&self.restart_us));
    }
}
