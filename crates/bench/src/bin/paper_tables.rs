//! Regenerate every table and figure of the paper's evaluation (§VII), plus
//! the ablations over the §VI optimizations. This binary is the one figure
//! driver of the repository.
//!
//! ```text
//! paper_tables [--table1] [--fig4] [--fig5] [--fig6] [--fig7] [--table2]
//!              [--ablations] [--metrics] [--all] [--quick]
//! paper_tables --compare <a.json> <b.json>
//! ```
//!
//! The section flags select experiments; with none of them (or with
//! `--all`) every experiment runs. `--quick` selects nothing: it shrinks
//! the sweeps of whatever runs, so `paper_tables --quick` is the whole suite
//! in a few seconds; the full sweeps match the paper's x-axes (5–30 nominal
//! GB, 4–24 executors). Any other argument is an error.
//!
//! `--compare` runs nothing: it reads two records of one workload of the
//! repository benchmark (a committed `records/BENCH_<pr>_<workload>.json`,
//! or a fresh `benchmark/out/<workload>.json`) and prints every metric they
//! share side by side — a, b, the change in percent. It then applies the
//! gate table ([`EXACT`], [`BOUNDS`]) and exits 1 if a gate fails, so
//! `--compare records/BENCH_<pr>_<w>.json benchmark/out/<w>.json` after a
//! traced run is the counter check of a build.
//!
//! Absolute numbers cannot match the paper's physical cluster; the *shape*
//! of each curve — who wins, how the gap scales — is the reproduction
//! target. EXPERIMENTS.md records paper-vs-measured for each panel.

use shc_bench::{
    bench_json, measure, measure_query, measure_write, print_table, session_config, Env, EnvConfig,
    Measurement, System,
};
use shc_core::catalog::HBaseTableCatalog;
use shc_core::conf::SHCConf;
use shc_core::generic::GenericHBaseRelation;
use shc_core::relation::HBaseRelation;
use shc_engine::prelude::{Session, TableProvider};
use shc_kvstore::cluster::{ClusterConfig, HBaseCluster};
use shc_kvstore::network::NetworkSim;
use shc_obs::json::{parse_json, Json};
use shc_tpcds::{queries, Generator, Provider, Scale, Table};
use std::sync::Arc;

/// An experiment: its selection flag and its driver (which takes `quick`).
type Section = (&'static str, fn(bool));

/// Every experiment, in print order.
const SECTIONS: [Section; 8] = [
    ("--table1", |_| table1()),
    ("--fig4", fig4),
    ("--fig5", fig5),
    ("--fig6", fig6),
    ("--fig7", fig7),
    ("--table2", table2),
    ("--ablations", ablations),
    ("--metrics", |_| metrics_dump()),
];

/// What a command line asks for: which sections (indices into
/// [`SECTIONS`], in print order) and whether to shrink their sweeps — or,
/// in place of any experiment, two benchmark records to compare.
#[derive(Debug, PartialEq)]
struct Selection {
    sections: Vec<usize>,
    quick: bool,
    compare: Option<(String, String)>,
}

/// "All" means no section flag was given (or `--all` was); `--quick` only
/// modifies, `--compare` takes two paths and stands alone, and an argument
/// that is none of these is refused.
fn parse_args(args: &[String]) -> Result<Selection, String> {
    if args.first().is_some_and(|arg| arg == "--compare") {
        let [_, a, b] = args else {
            return Err("--compare takes two record files and nothing else".to_string());
        };
        return Ok(Selection {
            sections: Vec::new(),
            quick: false,
            compare: Some((a.clone(), b.clone())),
        });
    }
    let mut picked = vec![false; SECTIONS.len()];
    let (mut quick, mut all) = (false, false);
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--all" => all = true,
            flag => match SECTIONS.iter().position(|(section, _)| *section == flag) {
                Some(i) => picked[i] = true,
                None => return Err(format!("unknown argument {arg:?}")),
            },
        }
    }
    all |= !picked.contains(&true);
    let sections = (0..SECTIONS.len()).filter(|&i| all || picked[i]).collect();
    Ok(Selection {
        sections,
        quick,
        compare: None,
    })
}

/// How a gated metric must stand to its limit.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Limit {
    AtMost(f64),
    AtLeast(f64),
    Equal(f64),
}

use Limit::{AtLeast, AtMost, Equal};

impl Limit {
    fn holds(self, value: f64) -> bool {
        match self {
            AtMost(limit) => value <= limit,
            AtLeast(limit) => value >= limit,
            Equal(limit) => value == limit,
        }
    }
}

impl std::fmt::Display for Limit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtMost(limit) => write!(f, "<= {limit}"),
            AtLeast(limit) => write!(f, ">= {limit}"),
            Equal(limit) => write!(f, "== {limit}"),
        }
    }
}

/// Metrics two traced runs of one seed must agree on exactly, whatever the
/// workload: work the program counts itself, which does not depend on how
/// long a run is or how fast. Byte sizes are among them: a put batch takes
/// its timestamps on the calling thread, in batch order, before its regions'
/// shares apply concurrently, so a load writes the same cells, and the same
/// bytes, every time (`client.rs`
/// `repeated_loads_write_identical_store_files`).
const EXACT: [&str; 41] = [
    "kvstore.client.rpcs_per_op",
    "kvstore.client.scanner_batches_per_op",
    "kvstore.client.connections_per_op",
    "kvstore.client.retries_per_op",
    "kvstore.region.cells_scanned_per_op",
    "kvstore.region.cells_returned_per_op",
    "kvstore.region.cell_yield",
    "kvstore.region.cells_scanned_per_result_row",
    "kvstore.storefile.files_pruned_per_op",
    "kvstore.block_cache.hit_ratio",
    "kvstore.block_cache.misses_per_op",
    "kvstore.block_cache.evictions_per_op",
    "kvstore.wal.bytes_per_user_byte",
    "kvstore.wal.fsyncs_per_krow",
    "kvstore.wal.segments_rotated",
    "kvstore.wal.replayed_records",
    "kvstore.region.flushes",
    "kvstore.region.compactions",
    "kvstore.region.write_stalls",
    "kvstore.region.write_stall_ms",
    "kvstore.region.compaction_backlog_bytes_end",
    "kvstore.client.bytes_shipped_per_op",
    "kvstore.network.modeled_rpc_us_per_op",
    "kvstore.storage.disk_bytes_end",
    "kvstore.region.flush_bytes_per_user_byte",
    "kvstore.region.compaction_bytes_per_user_byte",
    "bench.ingest.write_amp",
    "bench.ingest.space_amp",
    "engine.scan.rows_per_op",
    "engine.scan.bytes_per_op",
    "engine.shuffle.bytes_per_op",
    "engine.shuffle.rows_per_op",
    "engine.shuffle.broadcast_bytes_per_op",
    "engine.scheduler.tasks_per_op",
    "engine.scheduler.locality_ratio",
    "engine.scheduler.task_retries_per_op",
    "engine.columnar.batch_fill",
    "engine.columnar.batches_per_op",
    "engine.physical.peak_bytes",
    "engine.physical.replanned_stages_per_op",
    "bench.error_rate",
];

/// A fixed limit on one workload's metric, and why it is there:
/// `(workload, metric, limit, reason)`. It holds in both records compared,
/// so it catches a regression even when a worse record was committed with
/// it. Every workload has rows; `--compare` refuses one that has none.
type Bound = (&'static str, &'static str, Limit, &'static str);

const CORRECT: &str = "every operation agrees with the oracle";
const GROUP_COMMIT: &str = "group commit: one WAL fsync covers a batch of rows";
const CELL_BLOCKS: &str = "WAL records and store-file blocks are cell blocks: \
                           the disk may not go back to spelling cells out";
const READ_PATH: &str = "the read path may not do more work, nor ship longer \
                         cell blocks, than it does today";
const ONE_RPC: &str = "one RPC per scanner batch: the scanner open carries the first";
const SHARED_SCAN: &str = "q39's month-blocks share one inventory scan, handed \
                           both months' date keys (12186 rows when no key \
                           reaches it); each groups before it joins item and \
                           warehouse, so no inventory-item-warehouse join is \
                           left to share";
const CHARGED: &str = "every reply is one cell block, and its length is what \
                       the network is charged for";
const KERNELS: &str = "a kernel may not buy speed with exchange volume or tasks";
const BASELINE: &str = "the paper's baseline reads the whole table with no \
                        cached connection, but no more of it, nor more RPCs, \
                        cells or bytes, than it does today";
const EXECUTOR: &str = "over MemTables the executor may not shuffle, schedule \
                        or scan more than it does today";
const FULL_BATCHES: &str = "batches stay as full as they are today";
const PEAK: &str = "the largest stage output stays as small as it is today";
const LANES: &str = "lanes hand work around with no retries and no batches \
                     beyond today's; each join and exchange is chosen once, \
                     from observed bytes, so no stage is re-planned";

#[rustfmt::skip]
const BOUNDS: [Bound; 32] = [
    ("ingest_durable", "bench.error_rate", Equal(0.0), CORRECT),
    ("ingest_durable", "kvstore.wal.fsyncs_per_krow", AtMost(10.0), GROUP_COMMIT),
    ("ingest_durable", "kvstore.wal.bytes_per_user_byte", AtMost(2.17), CELL_BLOCKS),
    ("ingest_durable", "kvstore.region.flush_bytes_per_user_byte", AtMost(0.66), CELL_BLOCKS),
    ("scan_pushdown", "bench.error_rate", Equal(0.0), CORRECT),
    ("scan_pushdown", "kvstore.region.cells_scanned_per_op", AtMost(19108.0), READ_PATH),
    ("scan_pushdown", "kvstore.block_cache.misses_per_op", AtMost(296.0), READ_PATH),
    ("scan_pushdown", "kvstore.client.bytes_shipped_per_op", AtMost(91000.0), READ_PATH),
    ("fig4_shc", "bench.error_rate", Equal(0.0), CORRECT),
    ("fig4_shc", "kvstore.client.rpcs_per_op", AtMost(12.0), ONE_RPC),
    ("fig4_shc", "engine.scan.rows_per_op", AtMost(6200.0), SHARED_SCAN),
    ("fig4_shc", "kvstore.client.bytes_shipped_per_op", AtMost(129000.0), CHARGED),
    ("fig4_shc", "kvstore.network.modeled_rpc_us_per_op", AtMost(6000.0), CHARGED),
    ("fig4_shc", "engine.shuffle.bytes_per_op", AtMost(186251.0), KERNELS),
    ("fig4_shc", "engine.scheduler.tasks_per_op", AtMost(17.0), KERNELS),
    ("fig4_generic", "bench.error_rate", Equal(0.0), CORRECT),
    ("fig4_generic", "kvstore.client.rpcs_per_op", AtMost(19.0), BASELINE),
    ("fig4_generic", "kvstore.client.connections_per_op", AtMost(14.0), BASELINE),
    ("fig4_generic", "kvstore.region.cells_scanned_per_op", AtMost(13468.0), BASELINE),
    ("fig4_generic", "engine.scan.rows_per_op", AtMost(12186.0), BASELINE),
    ("fig4_generic", "kvstore.client.bytes_shipped_per_op", AtMost(270000.0), BASELINE),
    ("fig4_generic", "kvstore.network.modeled_rpc_us_per_op", AtMost(11800.0), BASELINE),
    ("engine_mem", "bench.error_rate", Equal(0.0), CORRECT),
    ("engine_mem", "engine.shuffle.bytes_per_op", AtMost(311372.0), EXECUTOR),
    ("engine_mem", "engine.shuffle.rows_per_op", AtMost(4097.0), EXECUTOR),
    ("engine_mem", "engine.scheduler.tasks_per_op", AtMost(17.0), EXECUTOR),
    ("engine_mem", "engine.scan.rows_per_op", AtMost(12186.0), EXECUTOR),
    ("engine_mem", "engine.columnar.batch_fill", AtLeast(0.51), FULL_BATCHES),
    ("engine_mem", "engine.physical.peak_bytes", AtMost(432000.0), PEAK),
    ("engine_mem", "engine.scheduler.task_retries_per_op", Equal(0.0), LANES),
    ("engine_mem", "engine.physical.replanned_stages_per_op", AtMost(0.0), LANES),
    ("engine_mem", "engine.columnar.batches_per_op", AtMost(37.0), LANES),
];

/// What `--compare` found: a table row per metric both records hold
/// (metric, a, b, the change from a to b in percent, its gates), and a line
/// per gate that fails.
struct Comparison {
    rows: Vec<Vec<String>>,
    failures: Vec<String>,
}

/// Every metric of a record, end-to-end pass first: name and value.
fn metric_values(record: &Json) -> Result<Vec<(String, f64)>, String> {
    let mut values = Vec::new();
    for pass in ["end_to_end", "per_layer"] {
        let metrics = record.get(pass).and_then(|p| p.get("metrics"));
        for (name, metric) in metrics.and_then(Json::as_object).unwrap_or_default() {
            match metric.get("value") {
                Some(Json::Number(v)) => values.push((name.clone(), *v)),
                _ => return Err(format!("{pass}.{name} has no numeric value")),
            }
        }
    }
    Ok(values)
}

/// Compare two records of one workload and apply the gates to them: each
/// [`EXACT`] metric must be equal in both, and each of the workload's
/// [`BOUNDS`] rows must hold in both. A gated metric missing from either
/// record fails. Records of two workloads, or of a workload without a
/// [`BOUNDS`] row, are not compared at all.
fn compare_records(a: &str, b: &str) -> Result<Comparison, String> {
    let (a, b) = (parse_json(a), parse_json(b));
    let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
    let named = |record: &Json| {
        record
            .get_str("workload")
            .map(str::to_string)
            .ok_or_else(|| "a record names no workload".to_string())
    };
    let (workload, other) = (named(&a)?, named(&b)?);
    if other != workload {
        return Err(format!(
            "the records are of two workloads, {workload:?} and {other:?}"
        ));
    }
    let bounds: Vec<&Bound> = BOUNDS.iter().filter(|row| row.0 == workload).collect();
    if bounds.is_empty() {
        return Err(format!("no BOUNDS row gates workload {workload:?}"));
    }
    let (a, b) = (metric_values(&a)?, metric_values(&b)?);
    let find = |values: &[(String, f64)], name: &str| {
        values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    };

    let mut gated = EXACT.to_vec();
    gated.extend(
        bounds
            .iter()
            .map(|row| row.1)
            .filter(|m| !EXACT.contains(m)),
    );
    let mut failures: Vec<(&str, String)> = Vec::new();
    for name in gated {
        for (side, values) in [("a", &a), ("b", &b)] {
            if find(values, name).is_none() {
                failures.push((name, format!("missing from {side}")));
            }
        }
    }
    for name in EXACT {
        if let (Some(va), Some(vb)) = (find(&a, name), find(&b, name)) {
            if va != vb {
                failures.push((name, format!("{va} in a, {vb} in b: it must not change")));
            }
        }
    }
    for &&(_, name, limit, reason) in &bounds {
        for (side, values) in [("a", &a), ("b", &b)] {
            if let Some(v) = find(values, name).filter(|&v| !limit.holds(v)) {
                failures.push((name, format!("{v} in {side} breaks {limit}: {reason}")));
            }
        }
    }

    let mut rows = Vec::new();
    for (name, va) in &a {
        let Some(vb) = find(&b, name) else {
            continue;
        };
        let delta = if *va == vb {
            "0.0".to_string()
        } else if *va == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:+.1}", (vb - va) / va.abs() * 100.0)
        };
        let mut gates: Vec<String> = bounds
            .iter()
            .filter(|row| row.1 == name)
            .map(|row| row.2.to_string())
            .collect();
        if EXACT.contains(&name.as_str()) {
            gates.insert(0, "exact".to_string());
        }
        let mut note = gates.join(", ");
        if failures.iter().any(|(failed, _)| failed == name) {
            note = format!("FAILS {note}");
        }
        rows.push(vec![
            name.clone(),
            va.to_string(),
            vb.to_string(),
            delta,
            note,
        ]);
    }
    let failures = failures
        .into_iter()
        .map(|(name, why)| format!("{name}: {why}"))
        .collect();
    Ok(Comparison { rows, failures })
}

/// `--compare`: print the comparison of two record files, then every gate
/// that fails; an error if one does.
fn compare_files(a: &str, b: &str) -> Result<(), String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let Comparison { rows, failures } = compare_records(&read(a)?, &read(b)?)?;
    let header = ["metric", "a", "b", "delta_pct", "gates"];
    print_table(
        &format!("Benchmark records: a = {a}, b = {b}"),
        &header,
        &rows,
    );
    println!();
    for failure in &failures {
        println!("FAIL {failure}");
    }
    if !failures.is_empty() {
        return Err(format!("{} gate(s) fail", failures.len()));
    }
    println!("every gate holds");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selection = parse_args(&args).unwrap_or_else(|message| {
        let flags: Vec<&str> = SECTIONS.iter().map(|(flag, _)| *flag).collect();
        eprintln!(
            "paper_tables: {message}\nusage: paper_tables [{}] [--all] [--quick]\n       \
             paper_tables --compare <record.json> <fresh.json>",
            flags.join("] [")
        );
        std::process::exit(2);
    });
    for &i in &selection.sections {
        SECTIONS[i].1(selection.quick);
    }
    if let Some((a, b)) = selection.compare {
        if let Err(message) = compare_files(&a, &b) {
            eprintln!("paper_tables: {message}");
            std::process::exit(1);
        }
    }
}

/// Run one query and dump both metric registries in Prometheus text
/// exposition format — the scrape-ready counterpart of the tables above.
fn metrics_dump() {
    let env = Env::build(&EnvConfig {
        nominal_gb: 0.5,
        num_servers: 2,
        num_executors: 2,
        ..Default::default()
    });
    measure_query(&env, System::Shc, &queries::q39a(2001, 1));
    println!("\nPrometheus exposition (store + engine):");
    print!("{}", env.cluster.metrics.exposition());
    print!("{}", env.shc.metrics_exposition());
}

/// Sizes for the data sweeps (paper: 5–30 GB).
fn size_sweep(quick: bool) -> Vec<f64> {
    if quick {
        vec![1.0, 2.0, 4.0]
    } else {
        vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    }
}

/// Executor counts (paper: 4–24).
fn executor_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 4, 8]
    } else {
        vec![4, 8, 12, 16, 20, 24]
    }
}

// ----------------------------------------------------------------------
// Table I: feature comparison
// ----------------------------------------------------------------------

fn table1() {
    // The feature matrix is a property of the systems, not a measurement;
    // the concurrency row is demonstrated live below.
    print_table(
        "Table I: Comparison between SHC and other systems",
        &[
            "Feature",
            "SHC",
            "SparkSQL",
            "PhoenixSpark",
            "HuaweiSparkHBase",
        ],
        &[
            vec![
                "SQL".into(),
                "yes".into(),
                "yes".into(),
                "yes".into(),
                "yes".into(),
            ],
            vec![
                "Dataframe API".into(),
                "yes".into(),
                "yes".into(),
                "yes".into(),
                "yes".into(),
            ],
            vec![
                "In-memory".into(),
                "yes".into(),
                "yes".into(),
                "yes".into(),
                "yes".into(),
            ],
            vec![
                "Query planner".into(),
                "yes".into(),
                "yes".into(),
                "yes".into(),
                "yes".into(),
            ],
            vec![
                "Query optimizer".into(),
                "yes".into(),
                "yes".into(),
                "yes".into(),
                "yes".into(),
            ],
            vec![
                "Multiple data coding".into(),
                "yes".into(),
                "yes".into(),
                "no".into(),
                "no".into(),
            ],
            vec![
                "Concurrent query execution".into(),
                "Thread pool".into(),
                "User-level process".into(),
                "User-level process".into(),
                "User-level process".into(),
            ],
        ],
    );
    // Live demonstration of the thread-pool concurrency row: N queries
    // share one in-process executor pool.
    let env = Env::build(&EnvConfig {
        nominal_gb: 0.5,
        num_servers: 2,
        num_executors: 4,
        network: NetworkSim::off(),
        ..Default::default()
    });
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = Arc::clone(&env.shc);
            scope.spawn(move || {
                session
                    .sql("SELECT COUNT(*) FROM inventory")
                    .unwrap()
                    .collect()
                    .unwrap();
            });
        }
    });
    println!(
        "\n  (demo: 4 concurrent queries served by one thread pool in {:.0} ms)",
        started.elapsed().as_secs_f64() * 1000.0
    );
}

// ----------------------------------------------------------------------
// Figures 4–6: q39a / q39b through both systems
// ----------------------------------------------------------------------

/// A panel of Figures 4–6: its letter and its query (year, month → SQL).
type Panel = (&'static str, fn(i32, i32) -> String);

const PANELS: [Panel; 2] = [("a", queries::q39a), ("b", queries::q39b)];

/// One point of Figures 4–6: a fresh environment, the panel's query through
/// both systems (which must agree), one `BENCH` record each.
fn run_point(
    experiment: &str,
    x: &str,
    sql: &str,
    config: EnvConfig,
) -> (Measurement, Measurement) {
    let env = Env::build(&config);
    let shc = measure_query(&env, System::Shc, sql);
    let generic = measure_query(&env, System::SparkSql, sql);
    assert_eq!(shc.rows, generic.rows, "systems must agree");
    bench_json(experiment, x, System::Shc, &shc);
    bench_json(experiment, x, System::SparkSql, &generic);
    (shc, generic)
}

/// Figure 4: query latency vs data size.
fn fig4(quick: bool) {
    for (panel, query_of) in PANELS {
        let mut rows = Vec::new();
        for gb in size_sweep(quick) {
            let x = format!("{gb:.0}");
            let config = EnvConfig {
                nominal_gb: gb,
                ..Default::default()
            };
            let (shc, generic) = run_point(&format!("fig4{panel}"), &x, &query_of(2001, 1), config);
            rows.push(vec![
                x,
                format!("{:.3}", shc.seconds),
                format!("{:.3}", generic.seconds),
                format!("{:.1}x", generic.seconds / shc.seconds.max(1e-9)),
                format!(
                    "{}us/{}us",
                    shc.store.rpc_latency_us.p50(),
                    shc.store.rpc_latency_us.p99()
                ),
                format!("{}", shc.rows),
            ]);
        }
        print_table(
            &format!("Figure 4({panel}): query latency vs data size — TPC-DS q39{panel}"),
            &[
                "GB",
                "SHC (s)",
                "SparkSQL (s)",
                "speedup",
                "SHC RPC p50/p99",
                "result rows",
            ],
            &rows,
        );
    }
}

/// Figure 5: shuffle cost vs data size.
fn fig5(quick: bool) {
    for (panel, query_of) in PANELS {
        let mut rows = Vec::new();
        for gb in size_sweep(quick) {
            let x = format!("{gb:.0}");
            let config = EnvConfig {
                nominal_gb: gb,
                network: NetworkSim::off(), // shuffle volume is size-only
                ..Default::default()
            };
            let (shc, generic) = run_point(&format!("fig5{panel}"), &x, &query_of(2001, 1), config);
            let (shc, generic) = (shc.engine.shuffle_bytes, generic.engine.shuffle_bytes);
            rows.push(vec![
                x,
                format!("{:.1}", shc as f64 / 1024.0),
                format!("{:.1}", generic as f64 / 1024.0),
                format!("{:.2}x", generic as f64 / shc.max(1) as f64),
            ]);
        }
        print_table(
            &format!("Figure 5({panel}): shuffle cost vs data size — TPC-DS q39{panel}"),
            &["GB", "SHC (KB)", "SparkSQL (KB)", "ratio"],
            &rows,
        );
    }
}

/// Figure 6: query time vs number of executors.
fn fig6(quick: bool) {
    for (panel, query_of) in PANELS {
        let mut rows = Vec::new();
        let gb = if quick { 2.0 } else { 10.0 };
        for executors in executor_sweep(quick) {
            let x = format!("{executors}");
            let config = EnvConfig {
                nominal_gb: gb,
                num_executors: executors,
                ..Default::default()
            };
            let (shc, generic) = run_point(&format!("fig6{panel}"), &x, &query_of(2001, 1), config);
            rows.push(vec![
                x,
                format!("{:.3}", shc.seconds),
                format!("{:.3}", generic.seconds),
                format!("{:.0}%", shc.engine.locality_ratio() * 100.0),
            ]);
        }
        print_table(
            &format!("Figure 6({panel}): query time vs executors ({gb:.0} GB) — TPC-DS q39{panel}"),
            &["executors", "SHC (s)", "SparkSQL (s)", "SHC locality"],
            &rows,
        );
    }
}

// ----------------------------------------------------------------------
// Figure 7: write throughput vs data size
// ----------------------------------------------------------------------

fn fig7(quick: bool) {
    for (panel, tables) in [
        ("a: q39a tables", Table::Q39_TABLES.to_vec()),
        (
            "b: q38 tables",
            vec![Table::StoreSales, Table::DateDim, Table::Customer],
        ),
    ] {
        let mut rows = Vec::new();
        for gb in size_sweep(quick) {
            let generator = Generator::new(Scale::from_gb(gb), 2018);
            let cluster = HBaseCluster::start(ClusterConfig {
                num_servers: 5,
                network: NetworkSim::gigabit(),
                ..Default::default()
            });
            let shc = measure_write(
                &cluster,
                &generator,
                &tables,
                "PrimitiveType",
                System::Shc,
                "_shc",
            );
            let generic = measure_write(
                &cluster,
                &generator,
                &tables,
                "PrimitiveType",
                System::SparkSql,
                "_gen",
            );
            rows.push(vec![
                format!("{gb:.0}"),
                format!("{:.3}", shc.seconds),
                format!("{:.3}", generic.seconds),
                format!(
                    "{:.0}%",
                    (generic.seconds / shc.seconds.max(1e-9) - 1.0) * 100.0
                ),
            ]);
        }
        print_table(
            &format!("Figure 7({panel}): write time vs data size"),
            &["GB", "SHC (s)", "SparkSQL (s)", "SHC advantage"],
            &rows,
        );
    }
}

// ----------------------------------------------------------------------
// Table II: data encodings
// ----------------------------------------------------------------------

fn table2(quick: bool) {
    let gb = if quick { 1.0 } else { 5.0 };
    let mut rows = Vec::new();
    for (system, coder) in [
        (System::Shc, "PrimitiveType"),
        (System::Shc, "Phoenix"),
        (System::Shc, "Avro"),
        (System::SparkSql, "PrimitiveType"),
    ] {
        // Fresh cluster per cell: write cost is part of the measurement.
        let generator = Generator::new(Scale::from_gb(gb), 2018);
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 5,
            network: NetworkSim::gigabit(),
            ..Default::default()
        });
        let write = measure_write(
            &cluster,
            &generator,
            &Table::Q39_TABLES,
            coder,
            System::Shc, // both systems read SHC-written data; write coder varies
            "",
        );
        let env_cfg = EnvConfig {
            nominal_gb: gb,
            coder,
            ..Default::default()
        };
        // Rebuild sessions over the already-written cluster; take the best
        // of three runs to damp scheduler noise.
        let env = Env::over(&cluster, &env_cfg);
        let query = (0..3)
            .map(|_| measure_query(&env, system, &queries::q39a(2001, 1)))
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .unwrap();
        rows.push(vec![
            system.label().to_string(),
            coder.to_string(),
            format!("{:.3}", query.seconds),
            format!("{:.3}", write.seconds),
            format!("{:.2}", query.engine.peak_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", query.store.bytes_returned as f64 / 1024.0),
        ]);
    }
    // The paper's unsupported cells.
    rows.push(vec![
        "SparkSQL".into(),
        "Phoenix".into(),
        "x".into(),
        "x".into(),
        "x".into(),
        "x".into(),
    ]);
    rows.push(vec![
        "SparkSQL".into(),
        "Avro".into(),
        "x".into(),
        "x".into(),
        "x".into(),
        "x".into(),
    ]);
    print_table(
        "Table II: performance on different encoding types (q39a workload)",
        &[
            "System",
            "Type",
            "Query (s)",
            "Write (s)",
            "Memory (MB)",
            "Wire (KB)",
        ],
        &rows,
    );
    println!(
        "  ('x' = the generic SparkSQL path cannot interpret Phoenix/Avro bytes, as in the paper)"
    );
}

// ----------------------------------------------------------------------
// Ablations: one §VI optimization off at a time
// ----------------------------------------------------------------------

/// Each §VI optimization DESIGN.md calls out is disabled in isolation and a
/// selective scan (row-key range + value predicate — the query shape every
/// one of them targets) is measured again over the same loaded cluster.
/// Full SHC should be cheapest; each ablation should cost something that
/// its counters name; the generic source bounds the worst case.
fn ablations(quick: bool) {
    let gb = if quick { 1.0 } else { 2.0 };
    let generator = Generator::new(Scale::from_gb(gb), 2018);
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 5,
        network: NetworkSim::gigabit(),
        ..Default::default()
    });
    let session_config = session_config(&cluster, 5);
    shc_tpcds::load_into_hbase(
        &Session::new(session_config.clone()),
        &cluster,
        &generator,
        &[Table::Inventory],
        "PrimitiveType",
        &SHCConf::default(),
        Provider::Shc,
    )
    .expect("load inventory");
    let catalog = Arc::new(
        HBaseTableCatalog::parse_simple(&Table::Inventory.catalog_json("PrimitiveType")).unwrap(),
    );
    let sql = queries::inventory_range_scan(generator.scale().days as i64 / 10, 150);

    let shc = |conf: SHCConf| -> Arc<dyn TableProvider> {
        HBaseRelation::new(Arc::clone(&cluster), Arc::clone(&catalog), conf)
    };
    let variants: [(&str, Arc<dyn TableProvider>); 6] = [
        ("full", shc(SHCConf::default())),
        ("no_pruning", shc(SHCConf::default().without_pruning())),
        ("no_pushdown", shc(SHCConf::default().without_pushdown())),
        ("no_fusion", shc(SHCConf::default().without_fusion())),
        (
            "no_conn_cache",
            shc(SHCConf::default().without_connection_cache()),
        ),
        (
            "generic source",
            GenericHBaseRelation::new(Arc::clone(&cluster), Arc::clone(&catalog)),
        ),
    ];
    let mut rows = Vec::new();
    let mut full_seconds = 0.0;
    for (name, provider) in variants {
        let session = Session::new(session_config.clone());
        session.register_table("inventory", provider);
        // Best of three runs damps scheduler noise; the counters repeat.
        let m = (0..3)
            .map(|_| measure(&session, &cluster, &sql))
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .unwrap();
        if name == "full" {
            full_seconds = m.seconds;
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", m.seconds * 1e3),
            format!("{:.2}x", m.seconds / full_seconds.max(1e-9)),
            format!("{}", m.store.rpc_count),
            format!("{}", m.store.connections_created),
            format!("{}", m.engine.scan_rows),
            format!("{:.1}", m.store.bytes_returned as f64 / 1024.0),
            format!("{}", m.engine.tasks),
            format!("{}", m.rows),
        ]);
    }
    print_table(
        &format!(
            "Ablations: selective inventory scan ({gb:.0} GB), one optimization off at a time"
        ),
        &[
            "variant",
            "time (ms)",
            "vs full",
            "RPCs",
            "connections",
            "rows scanned",
            "wire (KB)",
            "tasks",
            "result rows",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Selection, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn quick_alone_runs_everything_and_an_unknown_flag_is_an_error() {
        let everything: Vec<usize> = (0..SECTIONS.len()).collect();
        for args in [&[][..], &["--all"], &["--fig4", "--all"]] {
            let selection = parse(args).unwrap();
            assert_eq!(
                (selection.sections, selection.quick),
                (everything.clone(), false)
            );
            assert_eq!(selection.compare, None);
        }
        // `--quick` modifies; it selects nothing, so alone it still means all.
        for args in [&["--quick"][..], &["--quick", "--all"]] {
            let selection = parse(args).unwrap();
            assert_eq!(
                (selection.sections, selection.quick),
                (everything.clone(), true)
            );
        }
        // Section flags select, in print order whatever order they came in.
        assert_eq!(
            parse(&["--ablations", "--quick", "--fig4"]).unwrap(),
            Selection {
                sections: vec![1, 6],
                quick: true,
                compare: None,
            }
        );
        assert!(parse(&["--fig8"]).unwrap_err().contains("--fig8"));
        assert!(parse(&["--quick", "quick"]).is_err());
    }

    #[test]
    fn compare_takes_exactly_two_files_and_runs_no_experiment() {
        let selection = parse(&["--compare", "a.json", "b.json"]).unwrap();
        assert_eq!(selection.compare, Some(("a.json".into(), "b.json".into())));
        assert!(selection.sections.is_empty());
        for args in [
            &["--compare"][..],
            &["--compare", "a.json"],
            &["--compare", "a.json", "b.json", "--quick"],
            &["--quick", "--compare", "a.json", "b.json"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }

    /// Every gated metric of `workload` at a value its gates pass: 0, or the
    /// limit of its bound.
    fn passing(workload: &str) -> Vec<(String, f64)> {
        let mut metrics: Vec<(String, f64)> = EXACT.iter().map(|m| (m.to_string(), 0.0)).collect();
        for &(_, name, limit, _) in BOUNDS.iter().filter(|row| row.0 == workload) {
            let (Limit::AtMost(value) | Limit::AtLeast(value) | Limit::Equal(value)) = limit;
            set(&mut metrics, name, value);
        }
        metrics
    }

    fn set(metrics: &mut Vec<(String, f64)>, name: &str, value: f64) {
        match metrics.iter_mut().find(|(n, _)| n == name) {
            Some(metric) => metric.1 = value,
            None => metrics.push((name.to_string(), value)),
        }
    }

    /// A record of `workload` whose traced pass holds `metrics`.
    fn record(workload: &str, metrics: &[(String, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!(r#""{name}":{{"value":{v},"unit":"count"}}"#))
            .collect();
        format!(
            r#"{{"workload":"{workload}","per_layer":{{"metrics":{{{}}}}}}}"#,
            metrics.join(",")
        )
    }

    /// Compare two fig4_shc records whose metrics are `passing` with `a`
    /// and `b` set on top.
    fn compare_fig4_shc(a: &[(&str, f64)], b: &[(&str, f64)]) -> Comparison {
        let side = |changes: &[(&str, f64)]| {
            let mut metrics = passing("fig4_shc");
            for &(name, value) in changes {
                set(&mut metrics, name, value);
            }
            record("fig4_shc", &metrics)
        };
        compare_records(&side(a), &side(b)).unwrap()
    }

    #[test]
    fn compare_fails_on_exact_counters_and_bounds_only() {
        // A timing may move; it does not fail.
        let moved = compare_fig4_shc(
            &[("engine.physical.execute_us", 10000.0)],
            &[("engine.physical.execute_us", 7000.0)],
        );
        assert_eq!(moved.failures, Vec::<String>::new());
        let row = |rows: &[Vec<String>], name: &str| {
            rows.iter().find(|r| r[0] == name).unwrap()[1..].to_vec()
        };
        assert_eq!(
            row(&moved.rows, "engine.physical.execute_us"),
            ["10000", "7000", "-30.0", ""]
        );
        // Nor may a byte count, by however little.
        let more_bytes = compare_fig4_shc(
            &[("kvstore.client.bytes_shipped_per_op", 128679.0)],
            &[("kvstore.client.bytes_shipped_per_op", 128786.0)],
        );
        assert_eq!(
            more_bytes.failures,
            ["kvstore.client.bytes_shipped_per_op: 128679 in a, 128786 in b: it must not change"]
        );
        assert_eq!(
            row(&more_bytes.rows, "kvstore.client.bytes_shipped_per_op"),
            ["128679", "128786", "+0.1", "FAILS exact, <= 129000"]
        );
        assert_eq!(
            row(&moved.rows, "engine.scan.bytes_per_op"),
            ["0", "0", "0.0", "exact"]
        );

        // An exact counter may not move, not even inside its bound.
        let more_rpcs = compare_fig4_shc(
            &[("kvstore.client.rpcs_per_op", 11.0)],
            &[("kvstore.client.rpcs_per_op", 11.5)],
        );
        assert_eq!(
            more_rpcs.failures,
            ["kvstore.client.rpcs_per_op: 11 in a, 11.5 in b: it must not change"]
        );
        assert_eq!(
            row(&more_rpcs.rows, "kvstore.client.rpcs_per_op"),
            ["11", "11.5", "+4.5", "FAILS exact, <= 12"]
        );

        // Equal records still fail a bound they both break, with its reason.
        let wide = [("engine.scan.rows_per_op", 12186.0)];
        let broken = compare_fig4_shc(&wide, &wide);
        assert_eq!(broken.failures.len(), 2, "{:?}", broken.failures);
        let reason = BOUNDS
            .iter()
            .find(|row| row.0 == "fig4_shc" && row.1 == "engine.scan.rows_per_op")
            .unwrap()
            .3;
        for (failure, side) in broken.failures.iter().zip(["a", "b"]) {
            assert_eq!(
                failure,
                &format!("engine.scan.rows_per_op: 12186 in {side} breaks <= 6200: {reason}")
            );
        }
        assert!(compare_records("{}", "{}").is_err());
        assert!(compare_records("not json", "{}").is_err());
    }

    #[test]
    fn compare_fails_when_a_gated_metric_is_missing() {
        let full = passing("engine_mem");
        for name in [
            "engine.scheduler.locality_ratio",
            "engine.columnar.batch_fill",
        ] {
            let short: Vec<(String, f64)> = full.iter().filter(|m| m.0 != name).cloned().collect();
            let comparison =
                compare_records(&record("engine_mem", &full), &record("engine_mem", &short))
                    .unwrap();
            assert_eq!(comparison.failures, [format!("{name}: missing from b")]);
        }
        // A fresh run without `--trace 1` has no per-layer pass at all: every
        // exact metric is missing, and fig4_shc bounds no other.
        let untraced = r#"{"workload":"fig4_shc","end_to_end":{"metrics":{}}}"#;
        let traced = record("fig4_shc", &passing("fig4_shc"));
        let comparison = compare_records(&traced, untraced).unwrap();
        assert_eq!(comparison.failures.len(), EXACT.len());
        assert!(comparison
            .failures
            .iter()
            .all(|f| f.ends_with(": missing from b")));
    }

    #[test]
    fn compare_refuses_records_of_two_workloads() {
        let a = record("fig4_shc", &passing("fig4_shc"));
        let b = record("fig4_generic", &passing("fig4_generic"));
        let error = compare_records(&a, &b).err().unwrap();
        assert!(error.contains("two workloads"), "{error}");
        let unnamed = r#"{"per_layer":{"metrics":{}}}"#;
        assert!(compare_records(&a, unnamed).is_err());
    }

    #[test]
    fn compare_refuses_a_workload_without_bounds() {
        let sixth = record("sixth_workload", &passing("sixth_workload"));
        let error = compare_records(&sixth, &sixth).err().unwrap();
        assert!(error.contains("no BOUNDS row"), "{error}");
    }

    #[test]
    fn gates_name_the_benchmark_s_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let benchmark = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |list: &str| -> Vec<String> {
            let items = benchmark.get(list).and_then(Json::as_array).unwrap();
            items
                .iter()
                .map(|item| item.get_str("name").unwrap().to_string())
                .collect()
        };
        let (workloads, metrics) = (names("workloads"), names("per_layer"));
        for workload in &workloads {
            assert!(BOUNDS.iter().any(|row| row.0 == workload), "{workload}");
        }
        for name in EXACT.iter().chain(BOUNDS.iter().map(|row| &row.1)) {
            assert!(metrics.iter().any(|m| m == name), "{name}");
        }
        for row in BOUNDS {
            assert!(workloads.iter().any(|w| w == row.0), "{row:?}");
        }
    }
}
