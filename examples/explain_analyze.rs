//! EXPLAIN ANALYZE over a TPC-DS join — the observability tour.
//!
//! Loads the q39 tables into the HBase substrate, runs the q39a join through
//! `DataFrame::explain_analyze()`, and prints:
//!
//! 1. the physical plan tree annotated with *observed* per-operator rows,
//!    bytes, partitions and virtual time, and the decisions each operator
//!    took, plus per-region scan attribution (which region, which server);
//! 2. the latency histogram summaries (RPC round trips, retry backoff)
//!    with p50/p95/p99;
//! 3. both metric registries in Prometheus text exposition format.
//!
//! All span timestamps come from the per-query deterministic clock, so the
//! trace for a given query over given data is reproducible run to run.
//!
//! Run with: `cargo run --release --example explain_analyze`

use shc::core::error::Result;
use shc::prelude::*;

fn main() -> Result<()> {
    let generator = Generator::new(Scale::from_gb(0.5), 2018);
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 3,
        network: shc::kvstore::network::NetworkSim::gigabit(),
        ..Default::default()
    });
    let session = Session::new(SessionConfig {
        executors: ExecutorConfig {
            num_executors: 3,
            hosts: cluster.hostnames(),
            task_retries: 1,
        },
        ..Default::default()
    });
    shc::tpcds::load_into_hbase(
        &session,
        &cluster,
        &generator,
        &Table::Q39_TABLES,
        "PrimitiveType",
        &SHCConf::default(),
        Provider::Shc,
    )?;
    println!(
        "loaded {} TPC-DS tables into {} region servers\n",
        Table::Q39_TABLES.len(),
        cluster.num_servers()
    );

    // Reset so the histograms below cover exactly this query.
    session.metrics.reset();
    cluster.metrics.reset();

    let sql = shc::tpcds::queries::q39a(2001, 1);
    let df = session
        .sql(&sql)
        .map_err(shc::core::error::ShcError::from)?;
    let annotated = df
        .explain_analyze()
        .map_err(shc::core::error::ShcError::from)?;
    println!("{annotated}");

    let store = cluster.metrics.snapshot();
    println!(
        "RPC round-trip latency:   {}",
        store.rpc_latency_us.summary()
    );
    println!(
        "Retry backoff:            {}",
        store.retry_backoff_us.summary()
    );

    println!("\nPrometheus exposition (store + engine):");
    print!("{}", cluster.metrics.exposition());
    print!("{}", session.metrics_exposition());
    Ok(())
}
