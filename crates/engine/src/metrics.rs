//! Per-query execution metrics. Figures 5 and 6 and Table II of the paper
//! are read directly off these counters: shuffle bytes, task locality, and
//! peak materialized memory.
//!
//! The registry (struct + snapshot + snapshot/reset/delta/exposition) is
//! generated by [`shc_obs::metrics_registry!`]; `peak_bytes` is declared as
//! a watermark so its delta keeps the high-water mark, and all counter
//! deltas saturate instead of underflowing across a `reset()`.

use std::sync::atomic::Ordering;

shc_obs::metrics_registry! {
    /// Thread-safe counters shared by all operators of one session.
    pub struct QueryMetrics => snapshot QueryMetricsSnapshot {
        counters {
            /// Rows produced by scans (post source-side filtering).
            scan_rows,
            /// Bytes produced by scans.
            scan_bytes,
            /// Rows moved through exchanges.
            shuffle_rows,
            /// Serialized bytes moved through exchanges — the paper's Fig. 5 metric.
            shuffle_bytes,
            /// Bytes shipped by broadcast joins (not counted as shuffle).
            broadcast_bytes,
            /// Tasks launched.
            tasks,
            /// Tasks that carried a locality preference (scan tasks).
            preferred_tasks,
            /// Preferred tasks that actually ran on their preferred host.
            local_tasks,
            /// Failed task attempts that were re-run on another executor.
            task_retries,
            /// Rows held by the batches counted in `batches_built`.
            batch_rows,
            /// Columnar batches constructed by operators.
            batches_built,
            /// Never incremented: each join strategy and exchange partition
            /// count is chosen once, from observed bytes, so no stage is
            /// re-planned. Kept because the benchmark reports it
            /// (`engine.physical.replanned_stages_per_op`).
            replanned_stages,
            /// Operators that were handed the result of an identical
            /// subplan executed earlier in the same query instead of running.
            subplans_reused,
            /// Scans that were handed the join keys of a small, filtered
            /// input from the other side of a join as one more source filter.
            dynamic_filters,
        }
        watermarks {
            /// Bytes of the largest single stage output materialized (a
            /// memory-usage proxy): what `record_materialized` keeps.
            peak_bytes,
        }
        histograms {
            /// Scheduler task durations in virtual µs (recorded only while a
            /// query trace is active, since task time is measured on the
            /// deterministic trace clock).
            task_duration_us,
        }
    }
}

shc_obs::metrics_registry! {
    /// Scheduler task-execution metrics shared by all stages of one
    /// session: straggler detections and the queue-wait / run-time
    /// histograms behind `system.stage_stats`.
    pub struct TaskMetrics => snapshot TaskMetricsSnapshot {
        counters {
            /// Tasks whose running time exceeded `k ×` the stage median.
            stragglers,
        }
        watermarks {
        }
        histograms {
            /// Virtual µs a task spent queued behind earlier work on its
            /// executor lane before its first attempt started (recorded
            /// only while a query trace is active).
            queue_wait_us,
            /// Virtual µs of modeled cost charged by a task's winning
            /// attempt (recorded only while a query trace is active).
            run_us,
        }
    }
}

/// Prometheus-style metric-name prefix for per-session query metrics.
pub const EXPOSITION_PREFIX: &str = "shc_query_";

/// Prometheus-style metric-name prefix for scheduler task metrics
/// (`shc_task_queue_wait_us`, `shc_task_run_us`, …).
pub const TASK_EXPOSITION_PREFIX: &str = "shc_task_";

impl TaskMetrics {
    /// Render the current state as Prometheus-style text exposition.
    pub fn exposition(&self) -> String {
        self.snapshot().exposition(TASK_EXPOSITION_PREFIX)
    }
}

/// One labeled exchange edge: the bytes/rows a specific join or aggregate
/// moved through its exchange, keyed by a deterministic label derived from
/// the operator's plan position (e.g. `join#4:probe`, `agg#2`). Splits the
/// global `shuffle_bytes` counter so skewed edges are attributable; the
/// global counter stays the sum of all edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeStat {
    pub label: String,
    pub bytes: u64,
    pub rows: u64,
}

/// Per-exchange-edge shuffle attribution for one session. Edges accumulate
/// across queries like the other session counters and reset with them.
#[derive(Debug, Default)]
pub struct ShuffleEdges {
    edges: parking_lot::Mutex<Vec<EdgeStat>>,
}

impl ShuffleEdges {
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::default())
    }

    /// Add volume to the edge labeled `label`, creating it on first use.
    pub fn record(&self, label: &str, bytes: u64, rows: u64) {
        let mut edges = self.edges.lock();
        match edges.iter_mut().find(|e| e.label == label) {
            Some(e) => {
                e.bytes += bytes;
                e.rows += rows;
            }
            None => edges.push(EdgeStat {
                label: label.to_string(),
                bytes,
                rows,
            }),
        }
    }

    /// Every edge seen so far, sorted by label for deterministic output.
    pub fn snapshot(&self) -> Vec<EdgeStat> {
        let mut out = self.edges.lock().clone();
        out.sort_by(|a, b| a.label.cmp(&b.label));
        out
    }

    pub fn reset(&self) {
        self.edges.lock().clear();
    }

    /// Prometheus-style labeled exposition lines for every edge.
    pub fn exposition(&self, prefix: &str) -> String {
        let mut out = String::new();
        for e in self.snapshot() {
            for (metric, value) in [
                ("shuffle_edge_bytes", e.bytes),
                ("shuffle_edge_rows", e.rows),
            ] {
                let name = format!("{prefix}{metric}");
                let sample = shc_obs::Tsdb::series_name(&name, &[("edge", &e.label)]);
                out.push_str(&format!("{sample} {value}\n"));
            }
        }
        out
    }
}

impl QueryMetrics {
    /// Record a stage output materializing `bytes` at once; keeps the
    /// largest.
    pub fn record_materialized(&self, bytes: u64) {
        self.peak_bytes.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Render the current state as Prometheus-style text exposition.
    pub fn exposition(&self) -> String {
        self.snapshot().exposition(EXPOSITION_PREFIX)
    }
}

impl QueryMetricsSnapshot {
    /// Fraction of locality-preferring tasks that ran data-local.
    pub fn locality_ratio(&self) -> f64 {
        if self.preferred_tasks == 0 {
            0.0
        } else {
            self.local_tasks as f64 / self.preferred_tasks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_peak() {
        let m = QueryMetrics::new();
        m.add(&m.shuffle_bytes, 100);
        m.record_materialized(500);
        m.record_materialized(200);
        let s = m.snapshot();
        assert_eq!(s.shuffle_bytes, 100);
        assert_eq!(s.peak_bytes, 500);
    }

    #[test]
    fn locality_ratio() {
        let m = QueryMetrics::new();
        m.add(&m.tasks, 10);
        m.add(&m.preferred_tasks, 4);
        m.add(&m.local_tasks, 3);
        assert!((m.snapshot().locality_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(QueryMetricsSnapshot::default().locality_ratio(), 0.0);
    }

    #[test]
    fn reset_clears() {
        let m = QueryMetrics::new();
        m.add(&m.tasks, 9);
        m.task_duration_us.record(77);
        m.reset();
        assert_eq!(m.snapshot(), QueryMetricsSnapshot::default());
    }

    #[test]
    fn delta_since_saturates_across_reset() {
        let m = QueryMetrics::new();
        m.add(&m.tasks, 6);
        m.record_materialized(900);
        let before = m.snapshot();
        m.reset(); // previously panicked in debug builds via `later - earlier`
        m.add(&m.tasks, 1);
        let delta = m.snapshot().delta_since(&before);
        assert_eq!(delta.tasks, 0);
        // Watermark delta keeps the high-water mark across the window.
        assert_eq!(delta.peak_bytes, 900);
    }

    #[test]
    fn exposition_covers_counters_and_histograms() {
        let m = QueryMetrics::new();
        m.add(&m.scan_rows, 4);
        m.task_duration_us.record(10);
        let text = m.exposition();
        assert!(text.contains("shc_query_scan_rows 4\n"));
        assert!(text.contains("shc_query_peak_bytes 0\n"));
        assert!(text.contains("shc_query_task_duration_us_count 1\n"));
    }

    #[test]
    fn task_metrics_expose_with_task_prefix() {
        let m = TaskMetrics::new();
        m.add(&m.stragglers, 1);
        m.queue_wait_us.record(5);
        m.run_us.record_with_exemplar(40, 0x2a);
        let text = m.exposition();
        assert!(text.contains("shc_task_stragglers 1\n"));
        assert!(text.contains("shc_task_queue_wait_us_count 1\n"));
        assert!(text.contains("shc_task_run_us_count 1\n"));
        assert_eq!(m.run_us.latest_tail_exemplar(), 0x2a);
    }

    #[test]
    fn shuffle_edges_merge_by_label_and_sort() {
        let e = ShuffleEdges::new();
        e.record("join#4:probe", 100, 10);
        e.record("agg#2", 30, 3);
        e.record("join#4:probe", 50, 5);
        let snap = e.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].label, "agg#2");
        assert_eq!(snap[1].bytes, 150);
        assert_eq!(snap[1].rows, 15);
        let text = e.exposition("shc_query_");
        assert!(text.contains("shc_query_shuffle_edge_bytes{edge=\"join#4:probe\"} 150\n"));
        e.reset();
        assert!(e.snapshot().is_empty());
    }
}
