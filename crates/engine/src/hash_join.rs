//! The hash join's two kernels: build a table over one input, probe it with
//! the batches of the other.
//!
//! The build side stays columnar: its batches are concatenated once, its
//! distinct non-NULL keys go into a [`KeyTable`], and each key heads a
//! chain of build row positions. A build key of one integer column whose
//! values are dense also gets a [`DenseIndex`] from key value to chain, so
//! a probe by an integer column subtracts where it would hash and search.
//! Otherwise a probe hashes a batch's key columns a column at a time. It
//! collects `(probe row, build row)` pairs, and materialises both
//! sides of the output with [`Column::gather`] — no `Row`, no `Vec` per row,
//! and a dictionary's strings are shared, not copied. Which side is built,
//! and whether the inputs were shuffled first, is `physical`'s choice.
//!
//! [`Column::gather`]: crate::columnar::Column::gather

use crate::columnar::{Bitmap, Column, ColumnarBatch, Partition, NULL_ROW};
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::key_table::{hash_rows, key_columns, KeyTable};
use crate::value::DataType;
use std::sync::Arc;

/// One input of a join, ready to be probed.
pub(crate) struct JoinTable {
    /// Every row of the build side, in partition then batch order.
    build: ColumnarBatch,
    /// The distinct keys among them; rows with a NULL in their key match
    /// nothing and are in no chain.
    keys: KeyTable,
    /// Per key, its first build row.
    head: Vec<u32>,
    /// Per build row, the next row with the same key; [`NULL_ROW`] ends a
    /// chain. Chains ascend, so matches come out in build order.
    next: Vec<u32>,
    /// The chains' heads indexed by key value, where the build key is one
    /// integer column whose values are dense.
    dense: Option<DenseIndex>,
}

/// A dense index spans at most this many key values per build row. It
/// costs 4 bytes a value, so at most 16 bytes a build row: the order of
/// what the build side holds a row already (an 8-byte key cell, a 4-byte
/// chain link) and of the [`KeyTable`] beside it a key (an 8-byte hash,
/// the key, two or more 4-byte slots at its load factor of one half).
const DENSE_VALUES_PER_ROW: u64 = 4;

/// A perfect hash for integer keys: the first build row of key `k` is
/// `heads[k - min]`, or [`NULL_ROW`] where no build row has key `k`.
struct DenseIndex {
    min: i64,
    heads: Vec<u32>,
}

impl DenseIndex {
    /// Over the build rows' integer `keys`, NULL where `nulls` says; `None`
    /// when no key is non-NULL or their span is wider than
    /// [`DENSE_VALUES_PER_ROW`] per row.
    fn over(keys: &[i64], nulls: &Bitmap) -> Option<DenseIndex> {
        let valid = || (0..keys.len()).filter(|&row| !nulls.get(row));
        let min = valid().map(|row| keys[row]).min()?;
        let max = valid().map(|row| keys[row]).max()?;
        // `max - min` as u64 is exact whatever the signs.
        let span = (max as u64).wrapping_sub(min as u64);
        if span >= DENSE_VALUES_PER_ROW.saturating_mul(keys.len() as u64) {
            return None;
        }
        let mut index = DenseIndex {
            min,
            heads: vec![NULL_ROW; span as usize + 1],
        };
        // Last row first, so each head ends at its key's first row.
        for row in valid().rev() {
            let at = index.offset(keys[row]) as usize;
            index.heads[at] = row as u32;
        }
        Some(index)
    }

    /// `key - min`, wrapped: a key below `min` lands far above any head.
    fn offset(&self, key: i64) -> u64 {
        (key as u64).wrapping_sub(self.min as u64)
    }

    /// The first build row of each of `keys`: a subtraction, a bound check
    /// and a load per key, NULLs aside.
    fn heads_of(&self, keys: &[i64], nulls: &Bitmap, out: &mut Vec<u32>) {
        let len = self.heads.len() as u64;
        out.extend(keys.iter().map(|&key| match self.offset(key) {
            at if at < len => self.heads[at as usize],
            _ => NULL_ROW,
        }));
        if nulls.count_ones() > 0 {
            nulls
                .indices()
                .into_iter()
                .for_each(|i| out[i as usize] = NULL_ROW);
        }
    }
}

/// How one probe stage reads its batches and lays out what it emits.
pub(crate) struct Probe {
    pub keys: Vec<BoundExpr>,
    /// The build side's columns come first in the output.
    pub build_is_left: bool,
    /// A probe row without a match is emitted with NULLs for the build
    /// side (the preserved side of a left join).
    pub emit_unmatched: bool,
    pub batch_size: usize,
}

impl JoinTable {
    /// Over the rows of `parts`, keyed by `keys`; `dtypes` are the build
    /// side's column types, for an input without batches.
    pub(crate) fn build(
        parts: Vec<Partition>,
        keys: &[BoundExpr],
        dtypes: &[DataType],
    ) -> Result<JoinTable> {
        let batches: Vec<ColumnarBatch> = parts.into_iter().flatten().collect();
        let build = if batches.is_empty() {
            ColumnarBatch::from_rows(dtypes, &[])
        } else {
            ColumnarBatch::concat(&batches)
        };
        let key_cols = key_columns(keys, &build)?;
        let n = build.num_rows();
        let mut hashes = Vec::new();
        hash_rows(&key_cols, n, &mut hashes);
        let dense = match key_cols.as_slice() {
            [col] => col
                .i64_slice()
                .and_then(|keys| DenseIndex::over(keys, col.nulls())),
            _ => None,
        };
        let mut table = JoinTable {
            build,
            keys: KeyTable::new(key_cols.iter().map(|c| c.data_type())),
            head: Vec::new(),
            next: vec![NULL_ROW; n],
            dense,
        };
        // Last row first, each pushed on the front of its chain.
        for row in (0..n).rev() {
            if key_cols.iter().any(|c| c.is_null(row)) {
                continue;
            }
            let (key, new) = table.keys.find_or_insert(hashes[row], &key_cols, row);
            if new {
                table.head.push(NULL_ROW);
            }
            table.next[row] = std::mem::replace(&mut table.head[key], row as u32);
        }
        Ok(table)
    }

    /// Join one partition's batches against the table. Output batches hold
    /// `batch_size` rows, whatever the sizes of the probe batches, but the
    /// last.
    pub(crate) fn probe(&self, batches: Partition, probe: &Probe) -> Result<Partition> {
        let mut out = Output {
            table: self,
            probe,
            pending: Vec::new(),
            pending_rows: 0,
            done: Vec::new(),
        };
        let (mut hashes, mut heads) = (Vec::new(), Vec::new());
        let (mut probe_rows, mut build_rows) = (Vec::new(), Vec::new());
        for batch in &batches {
            let key_cols = key_columns(&probe.keys, batch)?;
            self.heads_of(&key_cols, batch.num_rows(), &mut hashes, &mut heads);
            probe_rows.clear();
            build_rows.clear();
            for (i, &head) in heads.iter().enumerate() {
                if head == NULL_ROW && probe.emit_unmatched {
                    probe_rows.push(i as u32);
                    build_rows.push(NULL_ROW);
                }
                let mut row = head;
                while row != NULL_ROW {
                    probe_rows.push(i as u32);
                    build_rows.push(row);
                    row = self.next[row as usize];
                }
            }
            out.push(batch, &probe_rows, &build_rows);
        }
        out.flush();
        Ok(out.done)
    }

    /// Into `out`, the first build row matching each of the `n` rows of the
    /// probe key `cols`, or [`NULL_ROW`] (a NULL key matches nothing). An
    /// integer column probes the dense index where there is one; any other
    /// key is hashed into `hashes` and searched for in the key table.
    fn heads_of(&self, cols: &[Arc<Column>], n: usize, hashes: &mut Vec<u64>, out: &mut Vec<u32>) {
        out.clear();
        if let (Some(dense), [col]) = (&self.dense, cols) {
            if let Some(keys) = col.i64_slice() {
                return dense.heads_of(keys, col.nulls(), out);
            }
        }
        hash_rows(cols, n, hashes);
        let nullable = cols.iter().any(|c| c.null_count() > 0);
        out.extend(hashes.iter().enumerate().map(|(i, &hash)| {
            if nullable && cols.iter().any(|c| c.is_null(i)) {
                return NULL_ROW;
            }
            let key = self.keys.find(hash, cols, i);
            key.map_or(NULL_ROW, |key| self.head[key])
        }));
    }
}

/// The joined rows of one probe, cut into batches.
struct Output<'a> {
    table: &'a JoinTable,
    probe: &'a Probe,
    /// Gathered pieces of the batch being filled, `pending_rows` together.
    pending: Vec<ColumnarBatch>,
    pending_rows: usize,
    done: Partition,
}

impl Output<'_> {
    /// Emit the pairs `(probe_rows[k], build_rows[k])`, probe rows from
    /// `batch`.
    fn push(&mut self, batch: &ColumnarBatch, probe_rows: &[u32], build_rows: &[u32]) {
        let mut at = 0;
        while at < probe_rows.len() {
            let room = self.probe.batch_size - self.pending_rows;
            let end = probe_rows.len().min(at + room);
            let probe_side = batch.gather(&probe_rows[at..end]);
            let build = &self.table.build;
            let build_side: Vec<_> = if self.probe.emit_unmatched {
                let cols = build.columns().iter();
                cols.map(|c| Arc::new(c.gather_or_null(&build_rows[at..end])))
                    .collect()
            } else {
                build.gather(&build_rows[at..end]).columns().to_vec()
            };
            let probe_side = probe_side.columns().iter().cloned();
            let columns = if self.probe.build_is_left {
                build_side.into_iter().chain(probe_side).collect()
            } else {
                probe_side.chain(build_side).collect()
            };
            self.pending
                .push(ColumnarBatch::with_row_count(columns, end - at));
            self.pending_rows += end - at;
            at = end;
            if self.pending_rows == self.probe.batch_size {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        if self.pending_rows > 0 {
            self.done.push(ColumnarBatch::concat(&self.pending));
            self.pending.clear();
            self.pending_rows = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::value::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Batches of `(key, tag)` rows, the key typed `dtype`, cut at random.
    fn batches(rng: &mut StdRng, dtype: DataType, keys: &[Value]) -> Partition {
        let rows: Vec<Row> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Row::new(vec![k.clone(), Value::Int64(i as i64)]))
            .collect();
        let size = rng.gen_range(1..40usize);
        rows.chunks(size)
            .map(|c| ColumnarBatch::from_rows(&[dtype, DataType::Int64], c))
            .collect()
    }

    /// Both sides join on their first column.
    fn on_first() -> Vec<BoundExpr> {
        vec![BoundExpr::Column(0, DataType::Int64)]
    }

    fn table(build: &Partition) -> JoinTable {
        let dtypes = [DataType::Int64, DataType::Int64];
        JoinTable::build(vec![build.clone()], &on_first(), &dtypes).unwrap()
    }

    fn random_probe(rng: &mut StdRng) -> Probe {
        Probe {
            keys: on_first(),
            build_is_left: rng.gen_bool(0.5),
            emit_unmatched: rng.gen_bool(0.5),
            batch_size: rng.gen_range(1..50usize),
        }
    }

    /// `probe` joined with `build` through its table as built, and through
    /// the same table with its dense index taken away: the two must agree
    /// batch for batch and row for row, value variants included.
    fn join_both_ways(build: &Partition, probe: Partition, how: &Probe) -> Vec<Row> {
        let indexed = table(build).probe(probe.clone(), how).unwrap();
        let hashed = JoinTable {
            dense: None,
            ..table(build)
        };
        let hashed = hashed.probe(probe, how).unwrap();
        assert_eq!(indexed.len(), hashed.len(), "batches");
        for (a, b) in indexed.iter().zip(&hashed) {
            let (a, b) = (a.to_rows(), b.to_rows());
            assert_eq!(a.len(), b.len(), "rows in a batch");
            for (x, y) in a.iter().zip(&b) {
                let same =
                    x.values.iter().zip(&y.values).all(|(x, y)| {
                        std::mem::discriminant(x) == std::mem::discriminant(y) && x == y
                    });
                assert!(same, "{x:?} vs {y:?}");
            }
        }
        indexed.iter().flat_map(|b| b.to_rows()).collect()
    }

    #[test]
    fn the_dense_index_finds_what_the_key_table_finds_in_the_same_order() {
        let mut rng = StdRng::seed_from_u64(52);
        let int = |rng: &mut StdRng, dtype: DataType, lo: i64, hi: i64| match rng.gen_range(lo..hi)
        {
            _ if rng.gen_bool(0.1) => Value::Null,
            k if dtype == DataType::Int32 => Value::Int32(k as i32),
            k => Value::Int64(k),
        };
        for _ in 0..300 {
            let (build_type, probe_type) = match rng.gen_range(0..3usize) {
                0 => (DataType::Int64, DataType::Int64),
                1 => (DataType::Int32, DataType::Int64),
                _ => (DataType::Int64, DataType::Int32),
            };
            // Negative or not, duplicates and NULLs among them, dense or
            // (few rows over a wide span) not.
            let lo = rng.gen_range(-50..50i64);
            let n = rng.gen_range(1..40usize);
            let keys: Vec<Value> = (0..n)
                .map(|_| int(&mut rng, build_type, lo, lo + 20))
                .collect();
            let build = batches(&mut rng, build_type, &keys);
            let ints = keys.iter().filter_map(Value::as_i64);
            let span = ints
                .clone()
                .max()
                .zip(ints.min())
                .map(|(max, min)| max - min);
            let dense = span.is_some_and(|span| (span as usize) < 4 * n);
            assert_eq!(table(&build).dense.is_some(), dense, "{keys:?}");
            let m = rng.gen_range(0..80usize);
            let mut probe: Vec<Value> = (0..m)
                .map(|_| int(&mut rng, probe_type, lo - 10, lo + 30))
                .collect();
            if probe_type == DataType::Int64 {
                probe.extend([Value::Int64(i64::MIN), Value::Int64(i64::MAX)]);
            }
            let how = random_probe(&mut rng);
            join_both_ways(&build, batches(&mut rng, probe_type, &probe), &how);
        }
    }

    #[test]
    fn extreme_and_float_probe_keys_and_a_sparse_build_side_match_as_the_key_table_does() {
        let mut rng = StdRng::seed_from_u64(53);
        let ints = |keys: &[i64]| keys.iter().map(|&k| Value::Int64(k)).collect::<Vec<_>>();
        let extremes = ints(&[i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1, -6, 5, 0]);
        // Next to a dense range below, across and above zero and at either
        // end of i64, the wrapped difference of an extreme key lands inside
        // it only where the key is in it.
        for lo in [-9, -5, 0, i64::MAX - 9, i64::MIN] {
            let keys = ints(&(0..10).map(|k| lo + k).collect::<Vec<_>>());
            let build = batches(&mut rng, DataType::Int64, &keys);
            assert!(table(&build).dense.is_some());
            let how = Probe {
                emit_unmatched: true,
                ..random_probe(&mut rng)
            };
            let probe = batches(&mut rng, DataType::Int64, &extremes);
            let rows = join_both_ways(&build, probe, &how);
            let build_key = |r: &Row| r.values[if how.build_is_left { 0 } else { 2 }].clone();
            let matched = rows.iter().filter(|r| !build_key(r).is_null()).count();
            let want = extremes.iter().filter(|k| keys.contains(k)).count();
            assert_eq!(matched, want, "keys from {lo}");
        }

        // A Float64 probe column takes the key table: 5.0 finds both 5s.
        let build = batches(&mut rng, DataType::Int64, &ints(&[3, 4, 5, 5, 6]));
        assert!(table(&build).dense.is_some());
        let floats = [5.0, 5.5, -0.0, f64::NAN, 3.0].map(Value::Float64);
        let how = Probe {
            emit_unmatched: false,
            build_is_left: false,
            ..random_probe(&mut rng)
        };
        let probe = batches(&mut rng, DataType::Float64, &floats);
        let rows = join_both_ways(&build, probe, &how);
        let found: Vec<Value> = rows.iter().map(|r| r.values[0].clone()).collect();
        assert_eq!(found, [5.0, 5.0, 3.0].map(Value::Float64));

        // A sparse build side has no index.
        let sparse = batches(&mut rng, DataType::Int64, &ints(&[0, 1 << 20, 7]));
        assert!(table(&sparse).dense.is_none());
        let how = random_probe(&mut rng);
        let probe = batches(&mut rng, DataType::Int64, &extremes);
        assert!(
            !join_both_ways(&sparse, probe, &how).is_empty(),
            "0 is a key"
        );
    }
}
