//! The four query workloads: what each one is, how its environment is
//! built from `--seed`, and the closed loop that times it.

use crate::oracle::Digest;
use crate::stats::{repeat_for, SplitMix64};
use shc_core::catalog::HBaseTableCatalog;
use shc_core::conf::SHCConf;
use shc_core::generic::GenericHBaseRelation;
use shc_core::relation::HBaseRelation;
use shc_core::writer;
use shc_engine::datasource::TableProvider;
use shc_engine::row::Row;
use shc_engine::scheduler::ExecutorConfig;
use shc_engine::session::{Session, SessionConfig};
use shc_kvstore::cluster::{ClusterConfig, HBaseCluster};
use shc_kvstore::network::NetworkSim;
use shc_tpcds::{queries, Generator, Scale, Table};
use std::sync::Arc;
use std::time::Instant;

/// Fixed, not `nproc`: task placement and counts must not depend on the
/// machine.
pub const EXECUTORS: usize = 2;
pub const CODER: &str = "PrimitiveType";
/// Partitions of every in-memory reference table.
const MEM_PARTITIONS: usize = 5;
/// Distinct range-scan parameterisations drawn from the seed; one pass
/// over them is one cycle of `scan_pushdown` (about half a second).
const RANGE_SCAN_PARAMS: usize = 50;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// `tpcds::load_into_memory` MemTables, no cluster at all.
    Memory,
    /// `HBaseRelation`: pruning, pushdown, fusion, locality.
    Shc,
    /// `GenericHBaseRelation`: full-width rows filtered in the engine.
    Generic,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Queries {
    /// q39a/q39b over moy ∈ {1,2,3}; ORDER BY, so results compare in order.
    Q39,
    /// `queries::inventory_range_scan(max_date_sk, min_qty)`.
    RangeScan,
}

pub struct QueryWorkload {
    pub name: &'static str,
    pub why: &'static str,
    pub scale_gb: f64,
    pub source: Source,
    pub queries: Queries,
    pub tables: &'static [Table],
    pub servers: usize,
    pub gigabit: bool,
    pub block_cache_bytes: usize,
    /// The fact table is written in this many parts with a `flush_all()`
    /// after each, so every region holds this many store files.
    pub store_files_per_region: usize,
    /// Set-ups per timed run (`setup_s` is their median): three at least,
    /// more where a set-up is cheap — about 3 s of set-up per run in all.
    pub setups: usize,
}

/// The first three share scale, seed and parameter sequence, so their
/// numbers subtract.
const FIG4_SCALE_GB: f64 = 10.0;

pub const QUERY_WORKLOADS: &[QueryWorkload] = &[
    QueryWorkload {
        name: "fig4_shc",
        why: "The paper's Figure 4 setup: q39a/q39b through HBaseRelation, 5 servers, gigabit NetworkSim, cache fits; RPC count, bytes shipped and locality show here, a CPU win is diluted by modeled waits.",
        scale_gb: FIG4_SCALE_GB,
        source: Source::Shc,
        queries: Queries::Q39,
        tables: &Table::Q39_TABLES,
        servers: 5,
        gigabit: true,
        block_cache_bytes: 8 << 20,
        store_files_per_region: 1,
        setups: 5,
    },
    QueryWorkload {
        name: "fig4_generic",
        why: "Same cluster, data and queries through GenericHBaseRelation: the paper's baseline and the bypass for connector optimisations; core::pruning changes must not move it, engine changes must.",
        scale_gb: FIG4_SCALE_GB,
        source: Source::Generic,
        queries: Queries::Q39,
        tables: &Table::Q39_TABLES,
        servers: 5,
        gigabit: true,
        block_cache_bytes: 8 << 20,
        store_files_per_region: 1,
        setups: 3,
    },
    QueryWorkload {
        name: "engine_mem",
        why: "Same queries over in-memory MemTables, no cluster: the engine does all the work, so operator, expression, shuffle and scheduler changes show undiluted; also the oracle for the others.",
        scale_gb: FIG4_SCALE_GB,
        source: Source::Memory,
        queries: Queries::Q39,
        tables: &Table::Q39_TABLES,
        servers: 0,
        gigabit: false,
        block_cache_bytes: 0,
        store_files_per_region: 0,
        setups: 9,
    },
    QueryWorkload {
        name: "scan_pushdown",
        why: "Seeded inventory range scans, network off, two store files per region, 256 KiB cache (smaller than the table): kvstore read path and core decode do the work, engine almost none; real p99.",
        scale_gb: 60.0,
        source: Source::Shc,
        queries: Queries::RangeScan,
        tables: &[Table::Inventory],
        servers: 5,
        gigabit: false,
        block_cache_bytes: 256 * 1024,
        store_files_per_region: 2,
        setups: 3,
    },
];

/// A session shaped like the benchmark's one analyst: `executors` lanes
/// placed on the cluster's hosts, everything else default.
pub fn new_session(
    cluster: Option<&Arc<HBaseCluster>>,
    executors: usize,
    query_log_capacity: usize,
) -> Arc<Session> {
    let mut config = SessionConfig {
        query_log_capacity,
        ..Default::default()
    };
    config.executors = ExecutorConfig {
        num_executors: executors,
        hosts: match cluster {
            Some(cluster) => cluster.hostnames(),
            None => config.executors.hosts,
        },
        ..config.executors
    };
    Session::new(config)
}

/// The table provider `source` reads a loaded HBase table through.
pub fn relation(
    source: Source,
    cluster: &Arc<HBaseCluster>,
    catalog: Arc<HBaseTableCatalog>,
) -> Arc<dyn TableProvider> {
    match source {
        Source::Generic => GenericHBaseRelation::new(Arc::clone(cluster), catalog),
        _ => HBaseRelation::new(Arc::clone(cluster), catalog, SHCConf::default()),
    }
}

pub fn catalog_of(table: Table) -> Arc<HBaseTableCatalog> {
    Arc::new(
        HBaseTableCatalog::parse_simple(&table.catalog_json(CODER))
            .expect("the tpcds catalogs parse"),
    )
}

/// One (max_date_sk, min_qty) pair for `inventory_range_scan`.
pub type RangeParam = (i64, i32);

/// `n` parameter pairs. Both values step evenly over their ranges
/// (`max_date_sk ∈ [5,60]`, `min_qty ∈ [100,900]`), so every seed asks for
/// the same amount of work; the seed picks which quantity meets which
/// date and the order they run in.
pub fn range_params(rng: &mut SplitMix64, n: usize) -> Vec<RangeParam> {
    let step = |lo: i64, hi: i64, i: usize| lo + (hi - lo) * i as i64 / (n as i64 - 1).max(1);
    let mut quantities: Vec<i32> = (0..n).map(|i| step(100, 900, i) as i32).collect();
    rng.shuffle(&mut quantities);
    let mut params: Vec<RangeParam> = quantities
        .into_iter()
        .enumerate()
        .map(|(i, qty)| (step(5, 60, i), qty))
        .collect();
    rng.shuffle(&mut params);
    params
}

/// One pass of a closed loop: SQL texts with the digest each must return.
pub struct QueryCycle {
    pub queries: Vec<(String, Digest)>,
    /// ORDER BY results compare in order, others as sorted rows.
    pub ordered: bool,
}

impl QueryCycle {
    pub fn matches(&self, rows: &[Row], expected: &Digest) -> bool {
        Digest::of(rows, self.ordered).matches(expected)
    }

    /// One closed-loop pass on `session`: time each `sql(..).collect()`,
    /// check its result outside the timed region. Returns failed ops.
    pub fn run(&self, session: &Arc<Session>, latencies_ms: &mut Vec<f64>) -> u64 {
        let mut failed = 0;
        for (sql, expected) in &self.queries {
            let started = Instant::now();
            let result = session.sql(sql).and_then(|df| df.collect());
            latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
            failed += u64::from(!result.is_ok_and(|rows| self.matches(&rows, expected)));
        }
        failed
    }

    /// Whole passes until `seconds` have passed: op wall times and failed
    /// ops.
    pub fn run_for(&self, session: &Arc<Session>, seconds: f64) -> (Vec<f64>, u64) {
        let (mut latencies_ms, mut failed) = (Vec::new(), 0);
        repeat_for(seconds, || failed += self.run(session, &mut latencies_ms));
        (latencies_ms, failed)
    }
}

/// A loaded environment: the measured session, the cluster behind it (if
/// any), and one cycle of queries with their expected results.
pub struct QueryEnv {
    pub spec: &'static QueryWorkload,
    pub generator: Generator,
    pub cluster: Option<Arc<HBaseCluster>>,
    pub session: Arc<Session>,
    pub cycle: QueryCycle,
    /// Range-scan parameters for the scan probe of the traced pass.
    pub probe_params: Vec<RangeParam>,
}

impl QueryWorkload {
    /// Register this workload's tables with `session` over already-loaded
    /// data.
    pub fn register(
        &self,
        session: &Arc<Session>,
        source: Source,
        cluster: Option<&Arc<HBaseCluster>>,
        generator: &Generator,
    ) {
        let Some(cluster) = cluster.filter(|_| source != Source::Memory) else {
            shc_tpcds::load_into_memory(session, generator, self.tables, MEM_PARTITIONS);
            return;
        };
        for &table in self.tables {
            session.register_table(table.name(), relation(source, cluster, catalog_of(table)));
        }
    }

    /// Start the cluster and move the generated tables into store files
    /// through the connector's write path.
    fn load(&self, generator: &Generator) -> Option<Arc<HBaseCluster>> {
        if self.source == Source::Memory {
            return None;
        }
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: self.servers,
            network: if self.gigabit {
                NetworkSim::gigabit()
            } else {
                NetworkSim::off()
            },
            block_cache_bytes: self.block_cache_bytes,
            ..Default::default()
        });
        for &table in self.tables {
            let rows = generator.rows(table);
            // As `tpcds::load_into_hbase`: fact tables get a region per server.
            let (regions, parts) = if rows.len() > 500 {
                (self.servers.max(2), self.store_files_per_region)
            } else {
                (1, 1)
            };
            let conf = SHCConf::default().with_new_table_regions(regions);
            let catalog = catalog_of(table);
            for part in rows.chunks(rows.len().div_ceil(parts)) {
                writer::write_rows(&cluster, &catalog, &conf, part).expect("load table");
                cluster.flush_all().expect("flush loaded table");
            }
        }
        Some(cluster)
    }

    /// The seeded query cycle, as SQL text.
    fn cycle_sql(&self, rng: &mut SplitMix64) -> Vec<String> {
        match self.queries {
            Queries::Q39 => {
                let mut cycle: Vec<String> = (1..=3)
                    .flat_map(|moy| [queries::q39a(2001, moy), queries::q39b(2001, moy)])
                    .collect();
                // The seed picks the order; the six queries are the set.
                rng.shuffle(&mut cycle);
                cycle
            }
            Queries::RangeScan => range_params(rng, RANGE_SCAN_PARAMS)
                .into_iter()
                .map(|(date, qty)| queries::inventory_range_scan(date, qty))
                .collect(),
        }
    }

    /// Everything `setup_s` covers: generate, load, flush, compute the
    /// oracle on the in-memory reference session, and warm up with one
    /// full cycle.
    pub fn setup(&'static self, seed: u64) -> QueryEnv {
        let generator = Generator::new(Scale::from_gb(self.scale_gb), seed);
        let cluster = self.load(&generator);
        let session = new_session(cluster.as_ref(), EXECUTORS, 0);
        self.register(&session, self.source, cluster.as_ref(), &generator);

        let reference = new_session(None, EXECUTORS, 0);
        self.register(&reference, Source::Memory, None, &generator);
        let mut rng = SplitMix64::new(seed);
        let ordered = self.queries == Queries::Q39;
        let queries = self
            .cycle_sql(&mut rng)
            .into_iter()
            .map(|sql| {
                let rows = reference
                    .sql(&sql)
                    .and_then(|df| df.collect())
                    .expect("reference query runs");
                let expected = Digest::of(&rows, ordered);
                (sql, expected)
            })
            .collect();
        let env = QueryEnv {
            spec: self,
            generator,
            cluster,
            session,
            cycle: QueryCycle { queries, ordered },
            probe_params: range_params(&mut rng, 20),
        };
        // Failures here would repeat in the timed loop, which counts them.
        env.cycle.run(&env.session, &mut Vec::new());
        env
    }
}
