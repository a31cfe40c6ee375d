//! Two-phase hash aggregation over a [`KeyTable`]: group keys stay in typed
//! columns and accumulators in one flat vector (`group × n_aggs + k`), from
//! the first input row to the output batch.
//!
//! 1. **Partial**, per input partition: a batch's key columns are hashed in
//!    one pass, each row finds or opens its group, and every aggregate then
//!    folds its argument column in — typed, where column and accumulator
//!    allow.
//! 2. **Exchange**: a partial group goes to partition `hash % n` by the hash
//!    it already carries and is merged ([`Accumulator::merge`]) into that
//!    partition's table. Its cost is the row-equivalent size of its key
//!    cells plus a fixed size per state.
//! 3. **Final**: the key builders are finished into columns and each
//!    aggregate appends one value per group.
//!
//! Groups come out in the order they were first seen, partition by
//! partition, so two runs over one input agree on it.

use crate::aggregate::Accumulator;
use crate::columnar::{Column, ColumnBuilder, ColumnarBatch, Partition};
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::key_table::{expr_column, hash_rows, key_columns, KeyTable};
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
    for batches in input {
        let mut partial = new_groups();
        for batch in &batches {
            partial.update(batch, group, aggs)?;
        }
        let (keys, hashes) = partial.keys.finish();
        let key_bytes: usize = keys.iter().map(|c| c.byte_size()).sum();
        moved.bytes += (key_bytes + hashes.len() * (aggs.len() * 24 + 8)) as u64;
        moved.rows += hashes.len() as u64;
        let mut states = partial.states.into_iter();
        for (row, &hash) in hashes.iter().enumerate() {
            let target = &mut targets[(hash % n_out as u64) as usize];
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
            let arg = expr_column(arg, batch)?;
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
