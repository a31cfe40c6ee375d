//! Property tests for the columnar batch layer (satellite of the
//! vectorized-execution PR): converting rows to [`ColumnarBatch`]es and
//! back must be lossless for every value variant, every null pattern, and
//! dictionary-encoded string columns, and batch byte accounting must match
//! the row-based accounting exactly (the metrics invariance the shuffle
//! and scan counters rely on).

use proptest::prelude::*;
use shc_engine::columnar::rows_to_batches;
use shc_engine::prelude::{ColumnarBatch, Row};
use shc_engine::row::rows_byte_size;
use shc_engine::value::{DataType, Value};

/// Debug-render rows: exact-variant comparison (NaN-safe, and `Int32(5)` ≠
/// `Int64(5)` — losslessness means the variant survives, not just the
/// number).
fn render(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// Build one row per index from parallel value/null streams. A qualifier
/// pool of 4 strings makes the Utf8 column dictionary-friendly, and the
/// null byte drives per-column null patterns.
fn build_rows(ints: &[i64], floats: &[f64], quals: &[String], nulls: &[u8]) -> Vec<Row> {
    let n = ints
        .len()
        .min(floats.len())
        .min(quals.len())
        .min(nulls.len());
    (0..n)
        .map(|i| {
            let null = nulls[i];
            Row::new(vec![
                if null & 1 != 0 {
                    Value::Null
                } else {
                    Value::Int64(ints[i])
                },
                if null & 2 != 0 {
                    Value::Null
                } else {
                    Value::Float64(floats[i])
                },
                if null & 4 != 0 {
                    Value::Null
                } else {
                    Value::Utf8(quals[i].clone())
                },
            ])
        })
        .collect()
}

const DTYPES: [DataType; 3] = [DataType::Int64, DataType::Float64, DataType::Utf8];

proptest! {
    /// rows → batch → rows is exact for arbitrary values and null patterns.
    #[test]
    fn batch_roundtrip_is_lossless(
        ints in prop::collection::vec(any::<i64>(), 1..64),
        floats in prop::collection::vec(any::<f64>(), 1..64),
        quals in prop::collection::vec("cf:[abcd]", 1..64),
        nulls in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let rows = build_rows(&ints, &floats, &quals, &nulls);
        let batch = ColumnarBatch::from_rows(&DTYPES, &rows);
        prop_assert_eq!(batch.num_rows(), rows.len());
        prop_assert_eq!(render(&batch.to_rows()), render(&rows));
    }

    /// Splitting the same rows into small fixed-size batches loses nothing
    /// either, and dictionary-encoded qualifier columns rebuild the exact
    /// strings.
    #[test]
    fn batched_roundtrip_preserves_order_and_values(
        ints in prop::collection::vec(any::<i64>(), 1..64),
        floats in prop::collection::vec(any::<f64>(), 1..64),
        quals in prop::collection::vec("cf:[abcd]", 1..64),
        nulls in prop::collection::vec(any::<u8>(), 1..64),
        capacity in 1usize..9,
    ) {
        let rows = build_rows(&ints, &floats, &quals, &nulls);
        let batches = rows_to_batches(&DTYPES, &rows, capacity);
        let total: usize = batches.iter().map(ColumnarBatch::num_rows).sum();
        prop_assert_eq!(total, rows.len());
        let rebuilt: Vec<Row> = batches.iter().flat_map(|b| b.to_rows()).collect();
        prop_assert_eq!(render(&rebuilt), render(&rows));
    }

    /// Batch byte accounting equals row byte accounting — the invariance
    /// that keeps scan/shuffle byte metrics independent of how rows are cut
    /// into batches.
    #[test]
    fn batch_byte_size_matches_row_accounting(
        ints in prop::collection::vec(any::<i64>(), 1..64),
        floats in prop::collection::vec(any::<f64>(), 1..64),
        quals in prop::collection::vec("cf:[abcd]", 1..64),
        nulls in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let rows = build_rows(&ints, &floats, &quals, &nulls);
        let batch = ColumnarBatch::from_rows(&DTYPES, &rows);
        prop_assert_eq!(batch.byte_size(), rows_byte_size(&rows));
    }

    /// A column declared one type but fed other variants degrades instead
    /// of coercing: the original variants come back exactly.
    #[test]
    fn mixed_variant_columns_stay_lossless(
        picks in prop::collection::vec(any::<u8>(), 1..48),
        ints in prop::collection::vec(any::<i64>(), 1..48),
    ) {
        let n = picks.len().min(ints.len());
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let v = match picks[i] % 4 {
                    0 => Value::Int64(ints[i]),
                    1 => Value::Int32(ints[i] as i32),
                    2 => Value::Utf8(format!("v{}", ints[i] as u8)),
                    _ => Value::Null,
                };
                Row::new(vec![v])
            })
            .collect();
        let batch = ColumnarBatch::from_rows(&[DataType::Int64], &rows);
        prop_assert_eq!(render(&batch.to_rows()), render(&rows));
    }
}
