//! Vectorized scan + aggregation: columnar batches end to end.
//!
//! A grouped aggregation over a seeded in-memory table runs twice. The table
//! holds its rows as typed column batches, so either run's scan costs only
//! `Arc` clones. Both runs flow through selection bitmaps and typed
//! accumulator loops, and the per-run batch statistics — rows/sec through
//! batches and average batch fill — are printed as a `BENCH` JSON line per
//! run.
//!
//! Run with: `cargo run --example vectorized_scan`

use shc::engine::error::Result;
use shc::engine::metrics::QueryMetricsSnapshot;
use shc::obs::json::{render, Json};
use shc::prelude::*;
use std::sync::Arc;
use std::time::Instant;

// The predicate is arithmetic on purpose: it cannot be translated to a
// source filter, so it stays an engine-side Filter operator and exercises
// the selection-bitmap path (visible as `selectivity:` in the plan).
const SQL: &str = "SELECT dept, COUNT(*) AS n, AVG(score) AS avg_score, SUM(id) AS id_sum \
     FROM t WHERE score * 2.0 >= 100.0 GROUP BY dept";

/// Average fraction of `batch_size` that constructed batches actually
/// carried (None when the run built no batches at all).
fn batch_fill(delta: &QueryMetricsSnapshot, batch_size: usize) -> Option<f64> {
    if delta.batches_built == 0 {
        return None;
    }
    Some(delta.batch_rows as f64 / delta.batches_built as f64 / batch_size as f64)
}

fn run(session: &Arc<Session>, label: &str) -> Result<()> {
    let before = session.metrics.snapshot();
    let start = Instant::now();
    let rows = session.sql(SQL)?.collect()?;
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    let delta = session.metrics.snapshot().delta_since(&before);

    let batch_size = session.config().batch_size;
    let fill = batch_fill(&delta, batch_size);
    println!(
        "\n{label} run: {} groups in {:.3} ms",
        rows.len(),
        seconds * 1e3
    );
    println!(
        "  batches: {} built, {} rows through them (avg {:.1} rows/batch)",
        delta.batches_built,
        delta.batch_rows,
        delta.batch_rows as f64 / delta.batches_built.max(1) as f64
    );
    assert!(
        delta.batches_built > 0,
        "operators must move rows in columnar batches"
    );
    let record = Json::object([
        ("experiment", Json::from("vectorized_scan")),
        ("x", label.into()),
        ("system", "SHC".into()),
        ("rows", delta.scan_rows.into()),
        (
            "batch_rows_per_sec",
            (delta.batch_rows as f64 / seconds).into(),
        ),
        ("avg_batch_fill", fill.into()),
    ]);
    println!("BENCH {}", render(&record));
    Ok(())
}

fn main() -> Result<()> {
    // Seeded data: 64k rows over 32 departments, 4 partitions.
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("dept", DataType::Utf8),
        Field::new("score", DataType::Float64),
    ]);
    let mut state = 0x5eedu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows: Vec<Row> = (0..64_000)
        .map(|i| {
            Row::new(vec![
                Value::Int64(i),
                Value::Utf8(format!("department-{:04}", next() % 32)),
                Value::Float64((next() % 1000) as f64 / 10.0),
            ])
        })
        .collect();
    let n_rows = rows.len();

    let session = Session::new_default();
    session.register_table("t", Arc::new(MemTable::with_rows(schema, rows, 4)));
    println!(
        "registered {n_rows} rows across 4 partitions (batch_size={})",
        session.config().batch_size
    );

    // The same query twice: the second run shows what the first paid to warm up.
    run(&session, "cold")?;
    run(&session, "warm")?;

    // The plan side of the story: per-operator batch counts and the
    // filter's selection-bitmap selectivity.
    let analyzed = session.sql(SQL)?.explain_analyze()?;
    println!("\n{analyzed}");
    assert!(analyzed.contains("selectivity:"), "{analyzed}");
    assert!(analyzed.contains("batches="), "{analyzed}");
    Ok(())
}
