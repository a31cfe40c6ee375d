//! Shuffle (exchange): hash-repartition batches by key across N partitions,
//! charging the serialized bytes to the query metrics. This is the cost the
//! paper measures in Figure 5 — SHC's pushdown shrinks what reaches the
//! exchange.

use crate::columnar::{Column, Partition};
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::key_table::{hash_rows_with, key_columns};
use crate::metrics::{QueryMetrics, ShuffleEdges};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::Arc;

/// Optional per-exchange-edge attribution: the [`ShuffleEdges`] registry to
/// credit plus this exchange's deterministic label (e.g. `join#4:left`).
/// The global `shuffle_bytes`/`shuffle_rows` counters are always recorded;
/// the edge, when given, receives the same volume under its label.
pub type EdgeSink<'a> = Option<(&'a ShuffleEdges, &'a str)>;

/// The partition hash of a key tuple: a key goes to partition
/// `hash_key(key) % n` of an exchange. Consistent with `Value::group_eq`.
/// It is SipHash (`DefaultHasher`), and is kept apart from the lookup hash
/// of the key tables (`key_table::KeyHasher`): which partition a key lands
/// in shows in batch counts, skew and timelines, so changing this hash is a
/// plan change.
pub fn hash_key(values: &[crate::value::Value]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for v in values {
        v.group_hash(&mut hasher);
    }
    hasher.finish()
}

/// [`hash_key`] of each of the `n` rows of the key `cols` make, into `out`.
pub(crate) fn partition_hash_rows(cols: &[Arc<Column>], n: usize, out: &mut Vec<u64>) {
    hash_rows_with::<DefaultHasher>(cols, n, out);
}

/// Repartition `partitions` into `num_output` partitions by the hash of the
/// key expressions, recording shuffle volume in row-equivalent bytes. A
/// batch's key columns are hashed in one pass (`partition_hash_rows`,
/// [`hash_key`] of each row; a key that is not a column is evaluated into
/// one first), per-target index lists drive a single `gather` per (batch,
/// target), and rows never materialize.
pub fn shuffle_batches_by_key(
    partitions: Vec<Partition>,
    keys: &[BoundExpr],
    num_output: usize,
    metrics: &Arc<QueryMetrics>,
    edge: EdgeSink,
) -> Result<Vec<Partition>> {
    let num_output = num_output.max(1);
    let mut out: Vec<Partition> = vec![Vec::new(); num_output];
    let mut bytes = 0u64;
    let mut rows = 0u64;
    let mut hashes = Vec::new();

    for batch in partitions.into_iter().flatten() {
        let n = batch.num_rows();
        partition_hash_rows(&key_columns(keys, &batch)?, n, &mut hashes);
        let mut targets: Vec<Vec<u32>> = vec![Vec::new(); num_output];
        for (i, hash) in hashes.iter().enumerate() {
            targets[(hash % num_output as u64) as usize].push(i as u32);
        }
        rows += n as u64;
        for (target, idx) in targets.into_iter().enumerate() {
            if idx.is_empty() {
                continue;
            }
            let sub = batch.gather(&idx);
            bytes += sub.byte_size() as u64;
            metrics.add(&metrics.batches_built, 1);
            metrics.add(&metrics.batch_rows, sub.num_rows() as u64);
            out[target].push(sub);
        }
    }
    metrics.add(&metrics.shuffle_bytes, bytes);
    metrics.add(&metrics.shuffle_rows, rows);
    if let Some((edges, label)) = edge {
        edges.record(label, bytes, rows);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{gather_rows, rows_to_batches};
    use crate::row::{rows_byte_size, Row};
    use crate::value::{DataType, Value};

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int64(i % 5), Value::Int64(i)]))
            .collect()
    }

    /// `rows(n)` as one partition of 16-row batches.
    fn batches(n: i64) -> Vec<Partition> {
        vec![rows_to_batches(
            &[DataType::Int64, DataType::Int64],
            &rows(n),
            16,
        )]
    }

    fn key0() -> BoundExpr {
        BoundExpr::Column(0, DataType::Int64)
    }

    #[test]
    fn every_row_lands_in_the_partition_its_key_hashes_to() {
        // A key column, and the same key as an expression that has to be
        // evaluated row by row.
        let computed = BoundExpr::BinaryOp {
            left: Box::new(key0()),
            op: crate::expr::BinaryOp::Plus,
            right: Box::new(BoundExpr::Literal(Value::Int64(0))),
        };
        for key in [key0(), computed] {
            let metrics = QueryMetrics::new();
            let parts = shuffle_batches_by_key(batches(100), &[key], 4, &metrics, None).unwrap();
            assert_eq!(parts.len(), 4);
            let mut seen = 0;
            for (target, part) in parts.into_iter().enumerate() {
                for row in gather_rows(vec![part]) {
                    let want = hash_key(&[row.get(0).clone()]) % 4;
                    assert_eq!(want as usize, target, "{row:?}");
                    seen += 1;
                }
            }
            assert_eq!(seen, 100);
        }
    }

    #[test]
    fn shuffle_records_row_equivalent_bytes_and_rows() {
        let metrics = QueryMetrics::new();
        shuffle_batches_by_key(batches(10), &[key0()], 2, &metrics, None).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.shuffle_rows, 10);
        assert_eq!(snap.shuffle_bytes, 10 * (8 + 8 + 8));
        assert_eq!(snap.shuffle_bytes, rows_byte_size(&rows(10)) as u64);
    }

    #[test]
    fn edge_sink_receives_same_volume_as_globals() {
        let metrics = QueryMetrics::new();
        let edges = ShuffleEdges::new();
        shuffle_batches_by_key(
            batches(10),
            &[key0()],
            2,
            &metrics,
            Some((&edges, "join#1:left")),
        )
        .unwrap();
        let snap = metrics.snapshot();
        let edge = &edges.snapshot()[0];
        assert_eq!(edge.label, "join#1:left");
        assert_eq!(edge.bytes, snap.shuffle_bytes);
        assert_eq!(edge.rows, snap.shuffle_rows);
    }

    #[test]
    fn single_output_partition_and_empty_inputs() {
        let metrics = QueryMetrics::new();
        let parts = shuffle_batches_by_key(batches(7), &[key0()], 1, &metrics, None).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(gather_rows(parts).len(), 7);
        let empty = vec![Vec::new(), Vec::new()];
        let parts = shuffle_batches_by_key(empty, &[key0()], 3, &metrics, None).unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(Vec::is_empty));
    }

    #[test]
    fn hash_key_consistency_across_widths() {
        assert_eq!(hash_key(&[Value::Int32(5)]), hash_key(&[Value::Int64(5)]));
    }

    /// `hash_key(key) % n` for n = 2..=8 is where an exchange of n
    /// partitions sends a key. A change of the partition hash moves keys
    /// between tasks, which shows in batch counts, skew and timelines; it
    /// fails here first.
    #[test]
    fn keys_land_in_the_partitions_they_always_landed_in() {
        let five = [1, 1, 1, 1, 1, 0, 1];
        let golden: [(Value, [u64; 7]); 13] = [
            (Value::Int8(5), five),
            (Value::Int16(5), five),
            (Value::Int32(5), five),
            (Value::Int64(5), five),
            (Value::Timestamp(5), five),
            (Value::Float64(5.0), five),
            (Value::Int64(-1), [0, 1, 0, 1, 4, 0, 4]),
            (Value::Int64(1 << 40), [0, 0, 2, 4, 0, 2, 2]),
            (Value::Float64(2.5), [1, 0, 3, 2, 3, 1, 3]),
            (
                Value::Utf8("AAAAAAAABAAAAAAA".into()),
                [1, 1, 3, 3, 1, 0, 3],
            ),
            (Value::Utf8("x".into()), [1, 0, 1, 3, 3, 5, 5]),
            (Value::Boolean(true), [0, 0, 0, 0, 0, 6, 0]),
            (Value::Null, [1, 2, 3, 2, 5, 6, 3]),
        ];
        for (key, partitions) in golden {
            let hash = hash_key(std::slice::from_ref(&key));
            let got: Vec<u64> = (2..=8).map(|n| hash % n).collect();
            assert_eq!(got, partitions, "{key:?}");
        }
    }
}
