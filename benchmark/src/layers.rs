//! Per-layer counts: the two public registries, read at phase boundaries
//! and turned into the named per-op numbers. Everything here is a count
//! the program made itself, so for one seed it repeats exactly.

use crate::metrics::Values;
use crate::stats::ratio;
use shc_engine::metrics::QueryMetricsSnapshot;
use shc_engine::session::SessionConfig;
use shc_kvstore::cluster::HBaseCluster;
use shc_kvstore::metrics::MetricsSnapshot;
use std::path::Path;

/// Registry deltas over the phases of one workload. A query workload has
/// one phase and passes the same snapshot three times; `ingest_durable`
/// resets the registries between ingest, read-back and recovery.
#[derive(Default)]
pub struct Phases {
    /// Store counters over the phase whose op the workload times, and the
    /// number of those ops.
    pub client: MetricsSnapshot,
    pub client_ops: u64,
    /// Store and engine counters over the phase that runs queries.
    pub read: MetricsSnapshot,
    pub engine: QueryMetricsSnapshot,
    pub read_ops: u64,
    pub result_rows: u64,
    /// Store counters over the phase that writes, and what it wrote.
    pub write: MetricsSnapshot,
    pub user_bytes: u64,
    pub rows_written: u64,
    /// Store counters over crash → restart.
    pub recovery: MetricsSnapshot,
    pub backlog_bytes_end: u64,
    pub disk_bytes_end: u64,
}

/// Bytes in regular files under `root`.
pub fn dir_bytes(root: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What is left on the cluster when a phase ends.
pub fn end_state(cluster: &HBaseCluster, phases: &mut Phases) {
    phases.backlog_bytes_end = cluster.compaction_backlog().0;
    phases.disk_bytes_end = cluster.storage().map_or(0, |env| dir_bytes(env.root()));
}

pub fn record(phases: &Phases, values: &mut Values) {
    let per = |count: u64, ops: u64| ratio(count as f64, ops as f64);

    let c = &phases.client;
    let ops = phases.client_ops;
    values.set("kvstore.client.rpcs_per_op", per(c.rpc_count, ops));
    values.set(
        "kvstore.client.bytes_shipped_per_op",
        per(c.bytes_returned, ops),
    );
    values.set(
        "kvstore.client.scanner_batches_per_op",
        per(c.scanner_batches, ops),
    );
    values.set(
        "kvstore.client.connections_per_op",
        per(c.connections_created, ops),
    );
    values.set("kvstore.client.retries_per_op", per(c.client_retries, ops));
    values.set(
        "kvstore.network.modeled_rpc_us_per_op",
        per(c.rpc_latency_us.sum, ops),
    );

    let r = &phases.read;
    let ops = phases.read_ops;
    values.set(
        "kvstore.region.cells_scanned_per_op",
        per(r.cells_scanned, ops),
    );
    values.set(
        "kvstore.region.cells_returned_per_op",
        per(r.cells_returned, ops),
    );
    values.set(
        "kvstore.region.cell_yield",
        per(r.cells_returned, r.cells_scanned),
    );
    values.set(
        "kvstore.region.cells_scanned_per_result_row",
        per(r.cells_scanned, phases.result_rows),
    );
    values.set(
        "kvstore.storefile.files_pruned_per_op",
        per(r.files_pruned, ops),
    );
    values.set(
        "kvstore.block_cache.hit_ratio",
        r.block_cache_hit_ratio().unwrap_or(0.0),
    );
    values.set(
        "kvstore.block_cache.misses_per_op",
        per(r.block_cache_misses, ops),
    );
    values.set(
        "kvstore.block_cache.evictions_per_op",
        per(r.block_cache_evictions, ops),
    );

    let e = &phases.engine;
    values.set("engine.scan.rows_per_op", per(e.scan_rows, ops));
    values.set("engine.scan.bytes_per_op", per(e.scan_bytes, ops));
    values.set("engine.shuffle.bytes_per_op", per(e.shuffle_bytes, ops));
    values.set("engine.shuffle.rows_per_op", per(e.shuffle_rows, ops));
    values.set(
        "engine.shuffle.broadcast_bytes_per_op",
        per(e.broadcast_bytes, ops),
    );
    values.set("engine.scheduler.tasks_per_op", per(e.tasks, ops));
    values.set(
        "engine.scheduler.locality_ratio",
        per(e.local_tasks, e.preferred_tasks),
    );
    values.set(
        "engine.scheduler.task_retries_per_op",
        per(e.task_retries, ops),
    );
    let batch_rows = SessionConfig::default().batch_size as u64;
    values.set(
        "engine.columnar.batch_fill",
        per(e.batch_rows, e.batches_built * batch_rows),
    );
    values.set("engine.columnar.batches_per_op", per(e.batches_built, ops));
    values.set("engine.physical.peak_bytes", e.peak_bytes as f64);
    values.set(
        "engine.physical.replanned_stages_per_op",
        per(e.replanned_stages, ops),
    );

    let w = &phases.write;
    values.set(
        "kvstore.wal.bytes_per_user_byte",
        per(w.wal_bytes_written, phases.user_bytes),
    );
    values.set(
        "kvstore.wal.fsyncs_per_krow",
        per(w.wal_fsyncs * 1000, phases.rows_written),
    );
    values.set(
        "kvstore.wal.segments_rotated",
        w.wal_segments_rotated as f64,
    );
    values.set(
        "kvstore.region.flush_bytes_per_user_byte",
        per(w.flush_bytes_written, phases.user_bytes),
    );
    values.set(
        "kvstore.region.compaction_bytes_per_user_byte",
        per(w.compaction_bytes_rewritten, phases.user_bytes),
    );
    values.set(
        "kvstore.region.flushes",
        (w.flushes_memstore_pressure + w.flushes_wal_pressure + w.flushes_explicit) as f64,
    );
    values.set(
        "kvstore.region.compactions",
        w.compaction_bytes.count as f64,
    );
    values.set("kvstore.region.write_stalls", w.write_stalls as f64);
    values.set("kvstore.region.write_stall_ms", w.write_stall_ms as f64);
    values.set(
        "bench.ingest.write_amp",
        per(
            w.wal_bytes_written + w.flush_bytes_written + w.compaction_bytes_rewritten,
            phases.user_bytes,
        ),
    );

    values.set(
        "kvstore.wal.replayed_records",
        phases.recovery.wal_replayed_records as f64,
    );
    values.set(
        "kvstore.region.compaction_backlog_bytes_end",
        phases.backlog_bytes_end as f64,
    );
    values.set(
        "kvstore.storage.disk_bytes_end",
        phases.disk_bytes_end as f64,
    );
}
