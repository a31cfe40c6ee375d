//! Streaming scan: scanner RPCs, the server block cache, and bounded
//! batch memory, end to end.
//!
//! A full-table query no longer materializes each region in one RPC: the
//! client opens a server-side scanner per region and pulls
//! `hbase.spark.query.caching` rows per round trip (the open returns the
//! first batch, each `next_batch` the next) while a prefetch thread keeps
//! one batch in flight. Store-file blocks read along
//! the way land in each region server's block cache, so a repeated scan is
//! served mostly from memory — visible below as a non-zero hit ratio and
//! zero new evictions.
//!
//! Run with: `cargo run --example streaming_scan`

use shc::core::error::Result;
use shc::prelude::*;
use std::sync::Arc;

fn main() -> Result<()> {
    // ------------------------------------------------------------------
    // 1. Cluster + data: 3 servers, 3 pre-split regions, flushed to
    //    store files so every read goes through blocks (and the cache).
    // ------------------------------------------------------------------
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 3,
        block_cache_bytes: 4 << 20,
        ..Default::default()
    });
    let catalog = Arc::new(HBaseTableCatalog::parse_simple(actives_catalog_json())?);
    let rows: Vec<Row> = (0..2000)
        .map(|i| {
            Row::new(vec![
                Value::Utf8(format!("row{i:04}")),
                Value::Int8((i % 128) as i8),
                Value::Utf8(format!("/products/{}", i % 17)),
                Value::Float64((i % 60) as f64 + 0.5),
                Value::Timestamp(1_500_000_000_000 + i as i64),
            ])
        })
        .collect();
    let conf = SHCConf::default().with_new_table_regions(3);
    write_rows(&cluster, &catalog, &conf, &rows)?;
    cluster.flush_all().map_err(ShcError::from)?;
    println!("wrote and flushed {} rows across 3 regions", rows.len());

    // ------------------------------------------------------------------
    // 2. Register with a small scanner-caching value so one region takes
    //    several round trips (the batches are what bound memory).
    // ------------------------------------------------------------------
    let session = Session::new(SessionConfig {
        executors: ExecutorConfig {
            num_executors: 3,
            hosts: cluster.hostnames(),
            task_retries: 1,
        },
        ..Default::default()
    });
    let shc_conf = SHCConf {
        caching: 100,
        ..Default::default()
    };
    register_hbase_table(
        &session,
        Arc::clone(&cluster),
        Arc::clone(&catalog),
        shc_conf,
        "actives",
    );

    // ------------------------------------------------------------------
    // 3. Cold scan: every block comes off "disk" and is inserted into
    //    the region servers' block caches.
    // ------------------------------------------------------------------
    let before = cluster.metrics.snapshot();
    let cold = session
        .sql("SELECT col0, `visit-pages` FROM actives")
        .map_err(ShcError::from)?
        .collect()
        .map_err(ShcError::from)?;
    let cold_delta = cluster.metrics.snapshot().delta_since(&before);
    println!("\ncold scan: {} rows", cold.len());
    println!(
        "  scanner RPCs: {} opens, {} batches (one round trip each)",
        cold_delta.scanner_opens, cold_delta.scanner_batches
    );
    println!(
        "  block cache: {} hits, {} misses, {} evictions",
        cold_delta.block_cache_hits,
        cold_delta.block_cache_misses,
        cold_delta.block_cache_evictions
    );
    assert!(
        cold_delta.scanner_batches > cold_delta.scanner_opens,
        "a full region must take several batch RPCs"
    );

    // ------------------------------------------------------------------
    // 4. Warm scan: same query again — the blocks are already cached.
    // ------------------------------------------------------------------
    let before = cluster.metrics.snapshot();
    let warm = session
        .sql("SELECT col0, `visit-pages` FROM actives")
        .map_err(ShcError::from)?
        .collect()
        .map_err(ShcError::from)?;
    let warm_delta = cluster.metrics.snapshot().delta_since(&before);
    let warm_reads = warm_delta.block_cache_hits + warm_delta.block_cache_misses;
    println!("\nwarm scan: {} rows", warm.len());
    println!(
        "  block cache: {} hits / {} block reads (hit ratio {:.2})",
        warm_delta.block_cache_hits,
        warm_reads,
        warm_delta.block_cache_hits as f64 / warm_reads.max(1) as f64
    );
    assert!(
        warm_delta.block_cache_hits > 0,
        "the repeated scan must hit the block cache"
    );

    // ------------------------------------------------------------------
    // 5. The same story, scrape-ready: cumulative counters in Prometheus
    //    text exposition (shc_store_block_cache_*, shc_store_scanner_*,
    //    shc_store_scan_batch_peak_bytes).
    // ------------------------------------------------------------------
    println!("\nPrometheus exposition (store):");
    print!("{}", cluster.metrics.exposition());
    Ok(())
}
