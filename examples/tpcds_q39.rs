//! TPC-DS q39 on SHC vs. the generic-source baseline — a miniature of the
//! paper's §VII experiments.
//!
//! Loads the four q39 tables into the HBase substrate, runs q39a and q39b
//! through two sessions (one registered with SHC relations, one with the
//! generic provider), verifies both return identical rows, and prints the
//! latency / scan / shuffle comparison that Figures 4 and 5 plot, plus the
//! RPCs, bytes shipped, rows scanned and regions visited per query: q39's
//! two month-blocks share their scan of the fact table, so each of its
//! regions is scanned at most once per query for either provider. Through
//! SHC, whose catalog declares `item` and `warehouse` unique on their row
//! keys, each block aggregates `inventory ⋈ date_dim` before it joins them,
//! the blocks share the `inventory`, `item` and `warehouse` scans
//! (`subplans_reused = 3`), and the `date_dim` filters and the aggregates
//! hand their keys to those scans (`dynamic_filters = 3`), so `inventory`
//! reads the two months' rows and visits their regions only. The generic
//! source declares no key: its blocks share one `inventory ⋈ item ⋈
//! warehouse` execution (`subplans_reused = 1`) and pass no keys.
//!
//! Run with: `cargo run --release --example tpcds_q39`

use shc::core::error::Result;
use shc::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<()> {
    let nominal_gb = 4.0;
    let generator = Generator::new(Scale::from_gb(nominal_gb), 2018);
    println!(
        "TPC-DS-lite at nominal {nominal_gb} GB: {} inventory rows, {} items, {} warehouses",
        generator.scale().inventory_rows,
        generator.scale().items,
        generator.scale().warehouses
    );

    // One cluster with a simulated Gigabit network; both providers read
    // the same regions.
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 5,
        network: shc::kvstore::network::NetworkSim::gigabit(),
        ..Default::default()
    });
    let session_config = SessionConfig {
        executors: ExecutorConfig {
            num_executors: 5,
            hosts: cluster.hostnames(),
            task_retries: 1,
        },
        ..Default::default()
    };

    let shc_session = Session::new(session_config.clone());
    shc::tpcds::load_into_hbase(
        &shc_session,
        &cluster,
        &generator,
        &Table::Q39_TABLES,
        "PrimitiveType",
        &SHCConf::default(),
        Provider::Shc,
    )?;
    // The generic baseline reads the same HBase tables.
    let generic_session = Session::new(session_config);
    for table in Table::Q39_TABLES {
        let catalog = Arc::new(HBaseTableCatalog::parse_simple(
            &table.catalog_json("PrimitiveType"),
        )?);
        generic_session.register_table(
            table.name(),
            GenericHBaseRelation::new(Arc::clone(&cluster), catalog),
        );
    }
    println!("loaded {} tables into HBase\n", Table::Q39_TABLES.len());

    for (name, sql) in [
        ("q39a", shc::tpcds::queries::q39a(2001, 1)),
        ("q39b", shc::tpcds::queries::q39b(2001, 1)),
    ] {
        /// Rows, seconds, then the deterministic counters of one run.
        struct Run {
            rows: Vec<Row>,
            seconds: f64,
            shuffle_bytes: u64,
            cells_scanned: u64,
            rpcs: u64,
            bytes_shipped: u64,
            subplans_reused: u64,
            dynamic_filters: u64,
            scan_rows: u64,
            regions_visited: usize,
        }
        let region_reads = || -> Vec<u64> {
            let loads = cluster.region_loads();
            loads.iter().map(|(_, load)| load.read_requests).collect()
        };
        let run = |session: &Arc<Session>| -> Result<Run> {
            session.metrics.reset();
            cluster.metrics.reset();
            let reads_before = region_reads();
            let started = Instant::now();
            let rows = session
                .sql(&sql)
                .map_err(shc::core::error::ShcError::from)?
                .collect()
                .map_err(shc::core::error::ShcError::from)?;
            let seconds = started.elapsed().as_secs_f64();
            let engine = session.metrics.snapshot();
            let store = cluster.metrics.snapshot();
            Ok(Run {
                rows,
                seconds,
                shuffle_bytes: engine.shuffle_bytes,
                cells_scanned: store.cells_scanned,
                rpcs: store.rpc_count,
                bytes_shipped: store.bytes_returned,
                subplans_reused: engine.subplans_reused,
                dynamic_filters: engine.dynamic_filters,
                scan_rows: engine.scan_rows,
                regions_visited: region_reads()
                    .iter()
                    .zip(&reads_before)
                    .filter(|(after, before)| after != before)
                    .count(),
            })
        };

        let shc = run(&shc_session)?;
        let generic = run(&generic_session)?;
        assert_eq!(shc.rows, generic.rows, "providers must agree on {name}");

        println!(
            "{name}: {} unstable (warehouse, item) pairs",
            shc.rows.len()
        );
        for (label, r) in [("SHC", &shc), ("SparkSQL", &generic)] {
            println!(
                "  {label:<8} {:>8.3}s  shuffle {:>7} B  cells scanned {:>8}  rpcs {:>3}  \
                 shipped {:>8} B  rows scanned {:>6}  regions visited {:>2}  \
                 subplans_reused {}  dynamic_filters {}",
                r.seconds,
                r.shuffle_bytes,
                r.cells_scanned,
                r.rpcs,
                r.bytes_shipped,
                r.scan_rows,
                r.regions_visited,
                r.subplans_reused,
                r.dynamic_filters
            );
        }
        println!(
            "  speedup {:.1}x, shuffle reduced {:.1}x, server work reduced {:.1}x, \
             bytes shipped reduced {:.1}x\n",
            generic.seconds / shc.seconds.max(1e-9),
            generic.shuffle_bytes as f64 / shc.shuffle_bytes.max(1) as f64,
            generic.cells_scanned as f64 / shc.cells_scanned.max(1) as f64,
            generic.bytes_shipped as f64 / shc.bytes_shipped.max(1) as f64
        );

        if let Some(row) = shc.rows.first() {
            println!(
                "  sample: warehouse={} item={} month={} mean={:.1} stdev={:.1}\n",
                row.get(0),
                row.get(1),
                row.get(2),
                row.get(3).as_f64().unwrap_or(0.0),
                row.get(4).as_f64().unwrap_or(0.0),
            );
        }
    }
    Ok(())
}
