//! The LSM storage engine end to end on the disk every cluster has (a temp
//! root here; `ClusterConfig::data_dir` names a lasting one): an
//! overwrite-heavy workload that drives WAL rotation, memstore flushes
//! (inline on the writer, each one a write stall) and size-tiered
//! compaction, then a hard crash and a restart that recovers every
//! acknowledged write from the manifest + WAL tail.
//!
//! ```bash
//! cargo run --example durable_lsm
//! ```

use shc::kvstore::prelude::*;
use shc::obs::json::{render, Json};
use std::sync::Arc;

const ROWS: usize = 400;
const ROUNDS: usize = 6;

fn count_rows(cluster: &Arc<HBaseCluster>) -> usize {
    let conn = Connection::open(Arc::clone(cluster), None);
    let table = conn.table(TableName::default_ns("ledger"));
    table.scan(&Scan::new()).unwrap().len()
}

fn main() {
    // Small thresholds so the whole LSM lifecycle fires within seconds:
    // memstores flush at 16 KiB, WAL segments rotate at 32 KiB, and four
    // similarly-sized files trigger a size-tiered merge.
    let cluster = HBaseCluster::start(ClusterConfig {
        num_servers: 2,
        region_config: RegionConfig {
            memstore_flush_size: 16 * 1024,
            compact_at_file_count: 6,
            wal_flush_trigger_bytes: 128 * 1024,
            ..RegionConfig::default()
        },
        wal_segment_bytes: 32 * 1024,
        ..Default::default()
    });
    println!(
        "cluster rooted at {}",
        cluster.storage().unwrap().root().display()
    );
    cluster
        .create_table(
            TableDescriptor::new(TableName::default_ns("ledger"))
                .with_family(FamilyDescriptor::new("cf")),
        )
        .unwrap();

    // Overwrite-heavy load: every round rewrites the same key space, so
    // flushed files overlap heavily and compaction has real work to do.
    let conn = Connection::open(Arc::clone(&cluster), None);
    let table = conn.table(TableName::default_ns("ledger"));
    for round in 0..ROUNDS {
        for i in 0..ROWS {
            let value = format!("round-{round:02} value-{i:04} {}", "x".repeat(96));
            table
                .put(Put::new(format!("acct{i:05}")).add("cf", "balance", value))
                .unwrap();
        }
    }
    cluster.flush_all().unwrap();

    let before = count_rows(&cluster);
    assert_eq!(before, ROWS);

    // A few more writes that stay in the memstores, then pull the plug on
    // every server. The memstores die; the fsynced WAL tail survives.
    for i in 0..50 {
        table
            .put(Put::new(format!("acct{i:05}")).add("cf", "balance", "post-flush overwrite"))
            .unwrap();
    }
    for id in 0..cluster.num_servers() as u64 {
        cluster.server(id).unwrap().crash();
    }
    for id in 0..cluster.num_servers() as u64 {
        cluster.server(id).unwrap().restart();
    }

    let after = count_rows(&cluster);
    assert_eq!(after, before, "every acknowledged row survives the crash");

    let snap = cluster.metrics.snapshot();
    let write_amp = snap
        .write_amplification()
        .expect("workload wrote physical bytes");
    println!(
        "rows={after} write_stalls={} wal_segments: rotated={} archived={} deleted={}",
        snap.write_stalls,
        snap.wal_segments_rotated,
        snap.wal_segments_archived,
        snap.wal_segments_deleted,
    );
    println!(
        "write_amplification={write_amp:.2} (wal={}B flush={}B compaction={}B / logical={}B)",
        snap.wal_bytes_written,
        snap.flush_bytes_written,
        snap.compaction_bytes_rewritten,
        snap.bytes_written,
    );
    println!(
        "recovery: wal_replayed_records={} torn_bytes_dropped={} orphans_removed={}",
        snap.wal_replayed_records, snap.wal_torn_bytes_dropped, snap.storefile_orphans_removed,
    );
    assert!(write_amp > 1.0, "WAL + flush always exceed logical bytes");
    assert!(
        snap.wal_replayed_records > 0,
        "restart replayed the WAL tail"
    );

    // One scrape of the cluster's series store: the samples behind
    // `system.metrics_history`, counted for real.
    cluster.tsdb().scrape(cluster.clock.peek_ms());
    let record = Json::object([
        ("experiment", Json::from("durable_lsm")),
        ("x", "crash_restart".into()),
        ("system", "SHC".into()),
        ("rows", (after as u64).into()),
        ("write_amplification", write_amp.into()),
        ("wal_replayed_records", snap.wal_replayed_records.into()),
        ("wal_segments_rotated", snap.wal_segments_rotated.into()),
        (
            "compaction_bytes_rewritten",
            snap.compaction_bytes_rewritten.into(),
        ),
        (
            "flush_cause",
            Json::object([
                ("memstore", Json::from(snap.flushes_memstore_pressure)),
                ("wal", snap.flushes_wal_pressure.into()),
                ("explicit", snap.flushes_explicit.into()),
            ]),
        ),
        ("write_stall_ms", snap.write_stall_ms.into()),
        (
            "compaction_backlog_bytes",
            cluster.compaction_backlog().0.into(),
        ),
        ("tsdb_samples", cluster.tsdb().sample_count().into()),
    ]);
    println!("BENCH {}", render(&record));
}
