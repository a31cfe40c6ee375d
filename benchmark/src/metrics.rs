//! The metric tables: every name the benchmark reports, with unit and
//! good direction. `BENCHMARK.json` at the repository root lists the same
//! names; `--workload all` fails if the two disagree.

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A wall-clock or memory measurement: repeats within its bound.
    Measured,
    /// A count made by the program with one client and inline flushes:
    /// repeats bit for bit for one seed.
    Exact,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
}

const fn measured(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Measured,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Exact,
    }
}

/// Reported with `--trace 0`, by every workload. An *op* is one
/// `Session::sql(..).collect()` on the four query workloads and one
/// 2 048-row `writer::write_rows` call on `ingest_durable`.
pub const END_TO_END: &[Def] = &[
    measured("op_ms_p50", "ms", "lower"),
    measured("peak_rss_mb", "MiB", "lower"),
    measured("setup_s", "s", "lower"),
];

/// Reported with `--trace 1`, by every workload; 0 where the workload
/// does not exercise the layer.
pub const PER_LAYER: &[Def] = &[
    // Timed from outside, one span per call into a public function.
    measured("engine.parser.parse_us", "us", "lower"),
    measured("engine.analyzer.analyze_us", "us", "lower"),
    measured("engine.optimizer.optimize_us", "us", "lower"),
    measured("engine.physical.execute_us", "us", "lower"),
    measured("core.pruning.plan_pushdown_us", "us", "lower"),
    measured("kvstore.client.scan_us_per_kcell", "us", "lower"),
    measured("core.relation.scan_decode_us_per_krow", "us", "lower"),
    measured("core.generic.scan_decode_us_per_krow", "us", "lower"),
    measured("core.writer.encode_us_per_krow", "us", "lower"),
    measured("kvstore.client.put_batch_us_per_krow", "us", "lower"),
    measured("kvstore.cluster.flush_all_us", "us", "lower"),
    measured("kvstore.region_server.restart_us", "us", "lower"),
    measured("obs.query_trace_overhead_pct", "%", "lower"),
    measured("bench.unattributed_pct", "%", "lower"),
    measured("bench.trace_overhead_pct", "%", "lower"),
    // End-to-end numbers that only some workloads have (the contract wants
    // one list for all workloads) or that this sandbox cannot repeat within
    // any bound (means and tail percentiles), so they stay out of
    // END_TO_END.
    measured("bench.ops_per_s", "1/s", "higher"),
    measured("bench.op_ms_p90", "ms", "lower"),
    measured("bench.op_ms_p99", "ms", "lower"),
    measured("bench.ingest.rows_per_s", "rows/s", "higher"),
    measured("bench.ingest.recovery_ms", "ms", "lower"),
    measured("bench.ingest.readback_ms_p50", "ms", "lower"),
    measured("bench.ingest.readback_ms_p90", "ms", "lower"),
    exact("bench.ingest.write_amp", "ratio", "lower"),
    exact("bench.ingest.space_amp", "ratio", "lower"),
    exact("bench.error_rate", "ratio", "lower"),
    // Counts read from the two public registries at phase boundaries.
    exact("kvstore.client.rpcs_per_op", "count", "lower"),
    exact("kvstore.client.bytes_shipped_per_op", "B", "lower"),
    exact("kvstore.client.scanner_batches_per_op", "count", "lower"),
    exact("kvstore.client.connections_per_op", "count", "lower"),
    exact("kvstore.client.retries_per_op", "count", "lower"),
    exact("kvstore.network.modeled_rpc_us_per_op", "us", "lower"),
    exact("kvstore.region.cells_scanned_per_op", "count", "lower"),
    exact("kvstore.region.cells_returned_per_op", "count", "lower"),
    exact("kvstore.region.cell_yield", "ratio", "higher"),
    exact(
        "kvstore.region.cells_scanned_per_result_row",
        "count",
        "lower",
    ),
    exact("kvstore.storefile.files_pruned_per_op", "count", "higher"),
    exact("kvstore.block_cache.hit_ratio", "ratio", "higher"),
    exact("kvstore.block_cache.misses_per_op", "count", "lower"),
    exact("kvstore.block_cache.evictions_per_op", "count", "lower"),
    exact("kvstore.wal.bytes_per_user_byte", "ratio", "lower"),
    exact("kvstore.wal.fsyncs_per_krow", "count", "lower"),
    exact("kvstore.wal.segments_rotated", "count", "lower"),
    exact("kvstore.wal.replayed_records", "count", "lower"),
    exact("kvstore.region.flush_bytes_per_user_byte", "ratio", "lower"),
    exact(
        "kvstore.region.compaction_bytes_per_user_byte",
        "ratio",
        "lower",
    ),
    exact("kvstore.region.flushes", "count", "lower"),
    exact("kvstore.region.compactions", "count", "lower"),
    exact("kvstore.region.write_stalls", "count", "lower"),
    exact("kvstore.region.write_stall_ms", "ms", "lower"),
    exact("kvstore.region.compaction_backlog_bytes_end", "B", "lower"),
    exact("kvstore.storage.disk_bytes_end", "B", "lower"),
    exact("engine.scan.rows_per_op", "count", "lower"),
    exact("engine.scan.bytes_per_op", "B", "lower"),
    exact("engine.shuffle.bytes_per_op", "B", "lower"),
    exact("engine.shuffle.rows_per_op", "count", "lower"),
    exact("engine.shuffle.broadcast_bytes_per_op", "B", "lower"),
    exact("engine.scheduler.tasks_per_op", "count", "lower"),
    exact("engine.scheduler.locality_ratio", "ratio", "higher"),
    exact("engine.scheduler.task_retries_per_op", "count", "lower"),
    exact("engine.columnar.batch_fill", "ratio", "higher"),
    exact("engine.columnar.batches_per_op", "count", "lower"),
    exact("engine.physical.peak_bytes", "B", "lower"),
    exact("engine.physical.replanned_stages_per_op", "count", "lower"),
];

/// Values gathered during a run, keyed by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn merge(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    /// The value of every metric in `defs`, in table order. A name the run
    /// never set is a layer the workload does not touch: 0.
    pub fn in_order<'a>(&'a self, defs: &'a [Def]) -> impl Iterator<Item = (&'a Def, f64)> + 'a {
        for name in self.0.keys() {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not in the table"
            );
        }
        defs.iter()
            .map(|d| (d, self.0.get(d.name).copied().unwrap_or(0.0)))
    }
}
