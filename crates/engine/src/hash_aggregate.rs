//! Two-phase hash aggregation over a [`KeyTable`]: group keys stay in typed
//! columns and accumulators in one flat vector (`group × n_aggs + k`), from
//! the first input row to the output batch.
//!
//! 1. **Partial**, per input partition: a batch's key columns are hashed in
//!    one pass, each row finds or opens its group, and every aggregate then
//!    folds its argument column in — typed, where column and accumulator
//!    allow.
//! 2. **Exchange**: a partial group goes to partition `hash % n` by its
//!    partition hash ([`partition_hash_rows`], one per group, not per row;
//!    into one partition, no hash is worked out) and is merged ([`Accumulator::merge`]) into that partition's table,
//!    found there by the lookup hash it already carries. Its cost is the
//!    row-equivalent size of its key cells plus a fixed size per state.
//! 3. **Final**: the key builders are finished into columns and each
//!    aggregate appends one value per group.
//!
//! Groups come out in the order they were first seen, partition by
//! partition, so two runs over one input agree on it.

use crate::aggregate::Accumulator;
use crate::columnar::{eval_column, Column, ColumnBuilder, ColumnarBatch, Partition};
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::key_table::{hash_rows, key_columns, KeyTable};
use crate::shuffle::partition_hash_rows;
use crate::value::{DataType, Value};
use std::sync::Arc;

/// An aggregate of the operator, bound to its input.
pub(crate) struct BoundAgg {
    pub template: Accumulator,
    /// `None` is COUNT(*): every row counts.
    pub arg: Option<BoundExpr>,
}

/// The groups of one partition and, flat, their states.
struct Groups {
    keys: KeyTable,
    states: Vec<Accumulator>,
}

/// What the exchange of an aggregate moved.
pub(crate) struct Exchanged {
    pub bytes: u64,
    pub rows: u64,
}

/// Aggregate `input` by `group` into `n_out` partitions of batches typed
/// `dtypes` (group columns, then one per aggregate). A global aggregate
/// (no group columns) over no rows is still one row.
pub(crate) fn hash_aggregate(
    input: Vec<Partition>,
    group: &[BoundExpr],
    aggs: &[BoundAgg],
    dtypes: &[DataType],
    n_out: usize,
    batch_size: usize,
) -> Result<(Vec<Partition>, Exchanged)> {
    let key_dtypes = &dtypes[..group.len()];
    let new_groups = || Groups {
        keys: KeyTable::new(key_dtypes.iter().copied()),
        states: Vec::new(),
    };

    let mut targets: Vec<Groups> = (0..n_out).map(|_| new_groups()).collect();
    let mut moved = Exchanged { bytes: 0, rows: 0 };
    let mut parts = Vec::new();
    for batches in input {
        let mut partial = new_groups();
        for batch in &batches {
            partial.update(batch, group, aggs)?;
        }
        let (keys, hashes) = partial.keys.finish();
        let key_bytes: usize = keys.iter().map(|c| c.byte_size()).sum();
        moved.bytes += (key_bytes + hashes.len() * (aggs.len() * 24 + 8)) as u64;
        moved.rows += hashes.len() as u64;
        if n_out > 1 {
            partition_hash_rows(&keys, hashes.len(), &mut parts);
        }
        let mut states = partial.states.into_iter();
        for (row, &hash) in hashes.iter().enumerate() {
            let part = if n_out == 1 {
                0
            } else {
                parts[row] % n_out as u64
            };
            let target = &mut targets[part as usize];
            let (group, new) = target.keys.find_or_insert(hash, &keys, row);
            let mine = states.by_ref().take(aggs.len());
            if new {
                target.states.extend(mine);
            } else {
                let into = &mut target.states[group * aggs.len()..];
                for (state, other) in into.iter_mut().zip(mine) {
                    state.merge(&other)?;
                }
            }
        }
    }
    if group.is_empty() && targets.iter().all(|t| t.keys.len() == 0) {
        targets[0].open(0, &[], 0, aggs);
    }
    let out = targets
        .into_iter()
        .map(|groups| groups.finish(&dtypes[group.len()..], batch_size))
        .collect();
    Ok((out, moved))
}

impl Groups {
    /// The group of row `row` of `keys`, opened with fresh states if new.
    fn open(&mut self, hash: u64, keys: &[Arc<Column>], row: usize, aggs: &[BoundAgg]) -> usize {
        let (group, new) = self.keys.find_or_insert(hash, keys, row);
        if new {
            self.states.extend(aggs.iter().map(|a| a.template.clone()));
        }
        group
    }

    /// Fold one batch in.
    fn update(
        &mut self,
        batch: &ColumnarBatch,
        group: &[BoundExpr],
        aggs: &[BoundAgg],
    ) -> Result<()> {
        let n = batch.num_rows();
        let keys = key_columns(group, batch)?;
        let mut hashes = Vec::new();
        hash_rows(&keys, n, &mut hashes);
        let groups: Vec<usize> = (0..n)
            .map(|row| self.open(hashes[row], &keys, row, aggs))
            .collect();
        for (k, agg) in aggs.iter().enumerate() {
            let state_of = |row: usize| groups[row] * aggs.len() + k;
            let typed = agg.template.supports_typed_update();
            let Some(arg) = &agg.arg else {
                for row in 0..n {
                    let state = &mut self.states[state_of(row)];
                    if typed {
                        state.update_i64(1);
                    } else {
                        state.update(&Value::Int64(1))?;
                    }
                }
                continue;
            };
            let arg = eval_column(arg, DataType::Binary, batch)?;
            let rows = (0..n).filter(|&row| !arg.is_null(row));
            match (typed, arg.i64_slice(), arg.f64_slice()) {
                (true, Some(v), _) => {
                    rows.for_each(|row| self.states[state_of(row)].update_i64(v[row]))
                }
                (true, _, Some(v)) => {
                    rows.for_each(|row| self.states[state_of(row)].update_f64(v[row]))
                }
                _ => {
                    for row in rows {
                        self.states[state_of(row)].update(&arg.value(row))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// One partition of output: key columns, then a finished value per
    /// aggregate and group, cut into batches of `batch_size` rows.
    fn finish(self, agg_dtypes: &[DataType], batch_size: usize) -> Partition {
        let n = self.keys.len();
        let (mut columns, _) = self.keys.finish();
        for (k, &dtype) in agg_dtypes.iter().enumerate() {
            let mut values = ColumnBuilder::new(dtype);
            let states = self.states.iter().skip(k).step_by(agg_dtypes.len());
            states.for_each(|state| values.push(&state.finish()));
            columns.push(Arc::new(values.finish()));
        }
        let all = ColumnarBatch::with_row_count(columns, n);
        if n <= batch_size {
            return if n == 0 { Vec::new() } else { vec![all] };
        }
        let rows: Vec<u32> = (0..n as u32).collect();
        rows.chunks(batch_size).map(|c| all.gather(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{gather_rows, rows_to_batches};
    use crate::row::Row;
    use crate::shuffle::hash_key;

    #[test]
    fn every_group_lands_in_the_partition_its_key_hashes_to() {
        // Two input partitions that share keys, so partial groups merge.
        let rows = |from: i64| -> Vec<Row> {
            (from..from + 300)
                .map(|i| {
                    Row::new(vec![
                        Value::Int64(i % 97),
                        Value::Utf8(format!("k{}", i % 5)),
                    ])
                })
                .collect()
        };
        let dtypes = [DataType::Int64, DataType::Utf8];
        let input = vec![
            rows_to_batches(&dtypes, &rows(0), 64),
            rows_to_batches(&dtypes, &rows(150), 64),
        ];
        let group = [
            BoundExpr::Column(0, DataType::Int64),
            BoundExpr::Column(1, DataType::Utf8),
        ];
        let count = BoundAgg {
            template: Accumulator::Count { n: 0 },
            arg: None,
        };
        let out_dtypes = [DataType::Int64, DataType::Utf8, DataType::Int64];
        let (out, _) = hash_aggregate(input, &group, &[count], &out_dtypes, 3, 1024).unwrap();
        let mut counted = 0;
        for (target, part) in out.into_iter().enumerate() {
            for row in gather_rows(vec![part]) {
                let key = [row.get(0).clone(), row.get(1).clone()];
                assert_eq!((hash_key(&key) % 3) as usize, target, "{row:?}");
                counted += row.get(2).as_i64().unwrap();
            }
        }
        assert_eq!(counted, 600);
    }

    #[test]
    fn one_output_takes_every_group_in_first_seen_order() {
        let rows = |from: i64| -> Vec<Row> {
            (from..from + 200)
                .map(|i| Row::new(vec![Value::Int64(i * 7 % 61)]))
                .collect()
        };
        let dtypes = [DataType::Int64];
        let input = || {
            vec![
                rows_to_batches(&dtypes, &rows(0), 64),
                rows_to_batches(&dtypes, &rows(90), 64),
            ]
        };
        let group = [BoundExpr::Column(0, DataType::Int64)];
        let count = || BoundAgg {
            template: Accumulator::Count { n: 0 },
            arg: None,
        };
        let out_dtypes = [DataType::Int64, DataType::Int64];
        let run = |n_out| hash_aggregate(input(), &group, &[count()], &out_dtypes, n_out, 1024);
        let (one, one_moved) = run(1).unwrap();
        let (three, three_moved) = run(3).unwrap();

        // Groups in the order their keys first occur, partition by partition.
        let mut first_seen: Vec<(i64, i64)> = Vec::new();
        for row in rows(0).iter().chain(&rows(90)) {
            let key = row.get(0).as_i64().unwrap();
            match first_seen.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => first_seen.push((key, 1)),
            }
        }
        let groups = |parts: Vec<Partition>| -> Vec<(i64, i64)> {
            gather_rows(parts)
                .iter()
                .map(|r| (r.get(0).as_i64().unwrap(), r.get(1).as_i64().unwrap()))
                .collect()
        };
        assert_eq!(one.len(), 1);
        assert_eq!(groups(one), first_seen);
        let mut spread = groups(three);
        spread.sort_unstable();
        first_seen.sort_unstable();
        assert_eq!(spread, first_seen);
        assert_eq!(
            (one_moved.bytes, one_moved.rows),
            (three_moved.bytes, three_moved.rows)
        );
    }
}
