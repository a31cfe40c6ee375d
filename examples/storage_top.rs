//! The storage-observability tour — a `top(1)` for the LSM layer:
//!
//! 1. a seeded ingest against a durable cluster in synchronous flush mode,
//!    with injected slow store-file writes, so every memstore watermark
//!    crossing *stalls* the writer and gets metered (count, stalled ms,
//!    per-stall histogram with the blocked workload's TraceId as exemplar);
//! 2. compaction kept deliberately lazy, so flushed files pile into a
//!    compaction backlog that the scrape loop watches grow;
//! 3. `system.metrics_history` — scanning the table *is* the scrape: each
//!    scan samples every store counter, histogram quantile, and backlog
//!    gauge at the cluster's virtual time into a bounded time-series store;
//! 4. rate-over-window queries on that store, and the two default rate
//!    alerts (`write_stall_rate`, `compaction_backlog_growth`) firing off
//!    the same series;
//! 5. a second cluster with the *background* flusher on: flush work rides
//!    its own span trees and journals with cause attribution at the
//!    enqueue timestamp, then `flush_quiesced` records the drain.
//!
//! Run with: `cargo run --release --example storage_top`

use shc::core::error::{Result, ShcError};
use shc::kvstore::prelude::*;
use shc::prelude::*;
use std::sync::Arc;

fn main() -> Result<()> {
    // 1. One durable server, tiny memstore, lazy compaction, slow disk.
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        fault_seed: 0x57a1_2026,
        region_config: RegionConfig {
            memstore_flush_size: 2 * 1024,
            compact_at_file_count: 64,
            tier_min_files: 32,
            tier_size_ratio: 8.0,
            ..RegionConfig::default()
        },
        ..ClusterConfig::durable_temp()
    });
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns("ledger"))
                .with_family(FamilyDescriptor::new("cf")),
        )
        .map_err(ShcError::from)?;
    let session = Session::new_default();
    register_system_tables(&session, &cluster);
    let sql = |q: &str| {
        session
            .sql(q)
            .map_err(ShcError::from)?
            .collect()
            .map_err(ShcError::from)
    };

    // The first eight store-file writes each take an extra 500 virtual ms —
    // the slow disk that turns watermark flushes into expensive stalls.
    cluster.faults().add_file_rule(
        FileFaultRule::new(FileFaultKind::SlowWrite(500_000))
            .on_op(FileOp::StoreFileWrite)
            .times(8),
    );
    println!("cluster up: 1 durable server, 2KB memstore watermark, slow disk armed");

    // 2+3. The ingest runs under a tracer (so stall exemplars carry its
    // TraceId); after every batch a history scan scrapes the metrics.
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("ledger"));
    let payload = "v".repeat(256);
    let tracer = shc::obs::Tracer::with_id(0x1a7e);
    {
        let mut root = tracer.root("ingest");
        root.annotate("example", "storage_top");
        for i in 0..48 {
            table
                .put(Put::new(format!("row{i:05}")).add("cf", "bal", payload.clone()))
                .map_err(ShcError::from)?;
            if i % 8 == 7 {
                sql("SELECT COUNT(*) FROM system.metrics_history")?;
                let snap = cluster.metrics.snapshot();
                let (backlog_bytes, backlog_files) = cluster.compaction_backlog();
                println!(
                    "storage-top | t={} stalls={} stall_ms={} backlog_bytes={} backlog_files={} \
                     flushes(memstore={} wal={} explicit={})",
                    cluster.clock.peek_ms(),
                    snap.write_stalls,
                    snap.write_stall_ms,
                    backlog_bytes,
                    backlog_files,
                    snap.flushes_memstore_pressure,
                    snap.flushes_wal_pressure,
                    snap.flushes_explicit,
                );
            }
        }
    }

    // The retained history, as SQL rows.
    println!("\nmetrics history (SELECT ... FROM system.metrics_history):");
    for row in sql(
        "SELECT metric, ts, value, labels FROM system.metrics_history \
         WHERE metric = 'shc_store_write_stall_ms' \
            OR metric = 'shc_store_compaction_backlog_bytes' ORDER BY metric, ts",
    )? {
        println!(
            "system.metrics_history | metric={} ts={} value={} labels={}",
            row.get(0).as_str().unwrap_or("?"),
            row.get(1).as_i64().unwrap_or(0),
            row.get(2),
            row.get(3).as_str().unwrap_or(""),
        );
    }

    // 4a. Rate-over-window queries straight off the time-series store.
    let tsdb = cluster.tsdb();
    println!(
        "\nrates over the run: write_stall_ms={:.3}/s compaction_backlog_bytes={:.3}/s",
        tsdb.rate("shc_store_write_stall_ms", u64::MAX)
            .unwrap_or(0.0),
        tsdb.rate("shc_store_compaction_backlog_bytes", u64::MAX)
            .unwrap_or(0.0),
    );

    // 4b. Scanning system.alerts evaluates the rules at the cluster's
    // virtual time: both rate alerts are breaching while the window still
    // covers the stall episode and the backlog ramp.
    println!("\nalerts during the stall episode (SELECT ... FROM system.alerts):");
    for row in sql(
        "SELECT name, state, threshold, value, fired_count, exemplar_trace_id \
         FROM system.alerts ORDER BY name",
    )? {
        println!(
            "system.alerts | name={} state={} threshold={} value={:?} fired={} exemplar={}",
            row.get(0).as_str().unwrap_or("?"),
            row.get(1).as_str().unwrap_or("?"),
            row.get(2),
            row.get(3),
            row.get(4).as_i64().unwrap_or(0),
            row.get(5).as_str().unwrap_or("?"),
        );
    }

    // The stalls were journaled on the writer thread, cause-attributed.
    println!("\nwrite-stall journal entries:");
    for line in cluster.events().render().lines() {
        if line.contains("write stall") {
            println!("{line}");
        }
    }

    // 5. Background flush mode: same watermark pressure, but the flush work
    // runs on the flusher thread — journaled at the enqueue timestamp with
    // a deterministic background TraceId, then quiesced.
    let bg = HBaseCluster::start(ClusterConfig {
        num_servers: 1,
        background_flush: true,
        region_config: RegionConfig {
            memstore_flush_size: 2 * 1024,
            ..RegionConfig::default()
        },
        ..ClusterConfig::durable_temp()
    });
    bg.create_table(
        TableDescriptor::new(TableName::default_ns("bg")).with_family(FamilyDescriptor::new("cf")),
    )
    .map_err(ShcError::from)?;
    let bg_conn = Connection::open(Arc::clone(&bg), None);
    let bg_table = bg_conn.table(TableName::default_ns("bg"));
    for i in 0..24 {
        bg_table
            .put(Put::new(format!("row{i:05}")).add("cf", "bal", payload.clone()))
            .map_err(ShcError::from)?;
    }
    while !bg.flushes_idle() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    bg.quiesce();
    println!("\nbackground flusher journal (cause-attributed, enqueue-stamped):");
    for line in bg.events().render().lines() {
        if line.contains("background flush") || line.contains("flush_quiesced") {
            println!("{line}");
        }
    }
    let traces = bg.background_flush_traces();
    println!(
        "background flush traces retained: {} (first trace {:#x}, {} spans)",
        traces.len(),
        traces.first().map(|t| t.trace_id).unwrap_or(0),
        traces.first().map(|t| t.spans.len()).unwrap_or(0),
    );
    Ok(())
}
