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
//! `--compare` runs nothing: it reads two records of the repository
//! benchmark (`benchmark/out/<workload>.json`, or a committed `BENCH_*.json`)
//! and prints every metric they share side by side — a, b, the change in
//! percent — marking each counter (not a timing) that differs.
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

/// The metrics two benchmark records share, pass by pass, as table rows:
/// metric, a, b, the change from a to b in percent, and a mark where a
/// counter differs. A counter is a metric in units the program counts
/// (`count`, `B`, `ratio`) rather than clocks; it repeats exactly for a seed.
fn compare_records(a: &str, b: &str) -> Result<Vec<Vec<String>>, String> {
    let (a, b) = (parse_json(a), parse_json(b));
    let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
    let mut rows = Vec::new();
    for pass in ["end_to_end", "per_layer"] {
        let metrics = |record: &Json| Some(record.get(pass)?.get("metrics")?.as_object()?.to_vec());
        let (Some(a), Some(b)) = (metrics(&a), metrics(&b)) else {
            continue;
        };
        for (name, in_a) in &a {
            let Some((_, in_b)) = b.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let value = |m: &Json| match m.get("value") {
                Some(Json::Number(v)) => Ok(*v),
                _ => Err(format!("{pass}.{name} has no numeric value")),
            };
            let (va, vb) = (value(in_a)?, value(in_b)?);
            let delta = if va == vb {
                "0.0".to_string()
            } else if va == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:+.1}", (vb - va) / va.abs() * 100.0)
            };
            let counted = matches!(in_a.get_str("unit"), Some("count" | "B" | "ratio"));
            let note = if counted && va != vb {
                "COUNTER DIFFERS"
            } else {
                ""
            };
            let text = |v: f64| v.to_string();
            rows.push(vec![name.clone(), text(va), text(vb), delta, note.into()]);
        }
    }
    if rows.is_empty() {
        return Err("the records share no metrics".to_string());
    }
    Ok(rows)
}

/// `--compare`: print the comparison of two record files.
fn compare_files(a: &str, b: &str) -> Result<(), String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let rows = compare_records(&read(a)?, &read(b)?)?;
    let header = ["metric", "a", "b", "delta_pct", "note"];
    print_table(
        &format!("Benchmark records: a = {a}, b = {b}"),
        &header,
        &rows,
    );
    let differing = rows.iter().filter(|row| !row[4].is_empty()).count();
    println!("\n{differing} counter(s) differ");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|selection| {
        for &i in &selection.sections {
            SECTIONS[i].1(selection.quick);
        }
        selection
            .compare
            .map_or(Ok(()), |(a, b)| compare_files(&a, &b))
    });
    if let Err(message) = outcome {
        let flags: Vec<&str> = SECTIONS.iter().map(|(flag, _)| *flag).collect();
        eprintln!(
            "paper_tables: {message}\nusage: paper_tables [{}] [--all] [--quick]\n       \
             paper_tables --compare <a.json> <b.json>",
            flags.join("] [")
        );
        std::process::exit(2);
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

    #[test]
    fn compare_marks_counters_that_differ_and_only_those() {
        let record = |execute_us: f64, tasks: f64, fill: f64| {
            format!(
                r#"{{"workload":"w","per_layer":{{"metrics":{{
                    "engine.physical.execute_us":{{"value":{execute_us},"unit":"us"}},
                    "engine.scheduler.tasks_per_op":{{"value":{tasks},"unit":"count"}},
                    "engine.columnar.batch_fill":{{"value":{fill},"unit":"ratio"}},
                    "only.in.this.one.{execute_us}":{{"value":1,"unit":"count"}}}}}}}}"#
            )
        };
        let rows =
            compare_records(&record(10000.0, 57.0, 0.5), &record(7000.0, 57.0, 0.6)).unwrap();
        let row = |name: &str| rows.iter().find(|r| r[0] == name).unwrap()[1..].to_vec();
        assert_eq!(rows.len(), 3, "metrics of both records");
        assert_eq!(
            row("engine.physical.execute_us"),
            ["10000", "7000", "-30.0", ""]
        );
        assert_eq!(
            row("engine.scheduler.tasks_per_op"),
            ["57", "57", "0.0", ""]
        );
        assert_eq!(
            row("engine.columnar.batch_fill"),
            ["0.5", "0.6", "+20.0", "COUNTER DIFFERS"]
        );
        assert!(compare_records("{}", "{}").is_err());
        assert!(compare_records("not json", "{}").is_err());
    }
}
