//! Cluster-wide counters and latency histograms. The paper's experiments are
//! mostly expressed in these terms: RPC round-trips, cells scanned
//! server-side vs. cells shipped to the client, and connection-creation
//! churn (the motivation for SHC's connection cache).
//!
//! The registry (struct + snapshot + snapshot/reset/delta/exposition) is
//! generated by [`shc_obs::metrics_registry!`], so a newly added counter can
//! never silently miss `snapshot()`/`reset()`, and `delta_since` saturates
//! instead of panicking when a `reset()` lands between two snapshots.

shc_obs::metrics_registry! {
    /// Shared, thread-safe counters for one cluster.
    pub struct ClusterMetrics => snapshot MetricsSnapshot {
        counters {
            /// Client→server round trips (scans are one RPC per batch).
            rpc_count,
            /// Heavy-weight connection objects created (ZooKeeper + meta lookups).
            connections_created,
            /// Cells visited by region-server merges.
            cells_scanned,
            /// Cells included in responses.
            cells_returned,
            /// Response payload bytes shipped to clients.
            bytes_returned,
            /// Mutation payload bytes received from clients.
            bytes_written,
            /// Store files skipped via pruning (row range, time range, bloom).
            files_pruned,
            /// Scans/Gets that executed with a pushed-down server-side filter.
            filtered_scans,
            /// Client-side retries of transient RPC failures.
            client_retries,
            /// Faults fired by the fault injector (drops, delays, forced errors).
            faults_injected,
            /// Regions rebuilt from the write-ahead log after a server restart or
            /// master-driven failover.
            wal_replays,
            /// Region-location cache invalidations performed by clients.
            location_invalidations,
            /// Regions reassigned to a new server by master failover handling.
            regions_reassigned,
            /// Store-file blocks served from a region server's block cache.
            block_cache_hits,
            /// Store-file blocks read from "disk" (not found in the cache).
            block_cache_misses,
            /// Blocks evicted from a block cache to stay within its byte capacity.
            block_cache_evictions,
            /// Server-side scanners opened via `open_scanner`.
            scanner_opens,
            /// Scan batches served: the one each `open_scanner` carries, then
            /// one per `next_batch`.
            scanner_batches,
            /// Scanners discarded because their lease expired between batches.
            scanner_lease_expirations,
            /// Bytes appended to durable write-ahead logs (records + block
            /// padding); the first term of write amplification.
            wal_bytes_written,
            /// WAL fsyncs issued by durable appends.
            wal_fsyncs,
            /// WAL segments sealed and replaced by a fresh active segment.
            wal_segments_rotated,
            /// Sealed WAL segments moved to the archive directory once every
            /// memstore holding their edits had flushed.
            wal_segments_archived,
            /// Archived WAL segments deleted on a later cleanup pass
            /// (deletion is delayed one cycle past archival).
            wal_segments_deleted,
            /// WAL records re-applied to memstores during crash recovery.
            wal_replayed_records,
            /// Bytes of torn/unsynced WAL tail discarded by recovery because
            /// they failed CRC or length validation.
            wal_torn_bytes_dropped,
            /// Store-file bytes written to disk by memstore flushes.
            flush_bytes_written,
            /// Store-file bytes rewritten to disk by compactions (minor
            /// tiered merges and major rewrites).
            compaction_bytes_rewritten,
            /// Region manifest commits (flush/compaction publication points).
            manifest_writes,
            /// Orphaned store files deleted at recovery: written by a flush
            /// or compaction whose manifest commit never happened.
            storefile_orphans_removed,
            /// Flushes triggered by the memstore-size watermark.
            flushes_memstore_pressure,
            /// Flushes triggered by the WAL retained-bytes watermark.
            flushes_wal_pressure,
            /// Flushes requested explicitly (flush_all, splits, tests).
            flushes_explicit,
            /// Writes that blocked on a watermark-triggered flush: every
            /// automatic flush runs inline on the writer.
            write_stalls,
            /// Total virtual milliseconds writers spent blocked in stalls.
            write_stall_ms,
            /// Virtual µs of injected slow-write fault delay applied at the
            /// storage layer (attributes fault cost to flush/compaction work).
            storage_slow_write_us,
        }
        watermarks {
            /// Largest response payload of a single scanner batch, in bytes —
            /// the server-side memory high-water mark of the streaming read
            /// path (bounded by `scan.caching`, not by region size).
            scan_batch_peak_bytes,
            /// Largest compaction backlog observed on any single region, in
            /// bytes a pending compaction would have to rewrite.
            compaction_backlog_peak_bytes,
        }
        histograms {
            /// Modeled RPC round-trip latency in µs: the deterministic network
            /// transfer cost of each RPC, plus any injected fault delay.
            rpc_latency_us,
            /// Retry backoff waits in µs (exponential backoff with jitter).
            retry_backoff_us,
            /// Store-file bytes written per memstore flush.
            flush_bytes,
            /// Modeled duration of each memstore flush in virtual µs
            /// (write-throughput model plus injected slow-write delay).
            flush_us,
            /// Bytes rewritten per compaction (minor tier merge or major
            /// rewrite pass).
            compaction_bytes,
            /// Modeled duration of each compaction in virtual µs.
            compaction_us,
            /// Virtual µs each stalled write spent blocked on its flush.
            write_stall_us,
        }
    }
}

/// Prometheus-style metric-name prefix for cluster metrics.
pub const EXPOSITION_PREFIX: &str = "shc_store_";

impl ClusterMetrics {
    /// Render the current state as Prometheus-style text exposition.
    pub fn exposition(&self) -> String {
        self.snapshot().exposition(EXPOSITION_PREFIX)
    }
}

impl MetricsSnapshot {
    /// Write amplification of the LSM: physical bytes written to disk (WAL +
    /// flushes + compaction rewrites) per logical byte of user mutation
    /// payload. `None` when no user writes happened — an idle engine has no
    /// amplification, which is not the same as a perfect 1.0.
    pub fn write_amplification(&self) -> Option<f64> {
        let physical =
            self.wal_bytes_written + self.flush_bytes_written + self.compaction_bytes_rewritten;
        if physical == 0 || self.bytes_written == 0 {
            None
        } else {
            Some(physical as f64 / self.bytes_written as f64)
        }
    }

    /// Fraction of block reads served from the block cache. `None` when no
    /// blocks were read at all (an idle cache is not a cold cache).
    pub fn block_cache_hit_ratio(&self) -> Option<f64> {
        let total = self.block_cache_hits + self.block_cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.block_cache_hits as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = ClusterMetrics::new();
        m.add(&m.rpc_count, 3);
        m.add(&m.cells_scanned, 100);
        m.add(&m.cells_returned, 10);
        let s = m.snapshot();
        assert_eq!(s.rpc_count, 3);
        assert_eq!(s.cells_scanned, 100);
    }

    #[test]
    fn delta_since_subtracts() {
        let m = ClusterMetrics::new();
        m.add(&m.rpc_count, 5);
        let before = m.snapshot();
        m.add(&m.rpc_count, 7);
        let delta = m.snapshot().delta_since(&before);
        assert_eq!(delta.rpc_count, 7);
    }

    #[test]
    fn delta_since_saturates_across_reset() {
        let m = ClusterMetrics::new();
        m.add(&m.rpc_count, 5);
        let before = m.snapshot();
        m.reset(); // previously panicked in debug builds via `later - earlier`
        m.add(&m.rpc_count, 2);
        assert_eq!(m.snapshot().delta_since(&before).rpc_count, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = ClusterMetrics::new();
        m.add(&m.bytes_written, 42);
        m.rpc_latency_us.record(123);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn block_cache_hit_ratio_counts_hits_over_reads() {
        let m = ClusterMetrics::new();
        assert_eq!(m.snapshot().block_cache_hit_ratio(), None);
        m.add(&m.block_cache_hits, 3);
        m.add(&m.block_cache_misses, 1);
        assert!((m.snapshot().block_cache_hit_ratio().unwrap() - 0.75).abs() < 1e-9);
        let text = m.exposition();
        assert!(text.contains("shc_store_block_cache_hits 3\n"));
        assert!(text.contains("shc_store_block_cache_misses 1\n"));
        assert!(text.contains("shc_store_block_cache_evictions 0\n"));
    }

    #[test]
    fn exposition_covers_counters_and_histograms() {
        let m = ClusterMetrics::new();
        m.add(&m.rpc_count, 9);
        m.rpc_latency_us.record(800);
        let text = m.exposition();
        assert!(text.contains("shc_store_rpc_count 9\n"));
        assert!(text.contains("# TYPE shc_store_rpc_latency_us summary\n"));
        assert!(text.contains("shc_store_rpc_latency_us_count 1\n"));
        assert!(text.contains("shc_store_retry_backoff_us_count 0\n"));
    }
}
