//! The key table both hash operators run on: the distinct keys of a join's
//! build side, or the groups of an aggregate, held as typed columns.
//!
//! A key is looked up by its [`KeyHasher`] hash, computed once where it is
//! first read off a batch ([`hash_rows`]); the `u64` then travels with it —
//! into the table, out of a partial aggregate, into the table that merges
//! it. Where a key goes is a different hash: an exchange sends it to
//! partition `hash % n` of [`crate::shuffle::partition_hash_rows`], which
//! stays SipHash so that placement does not move with the lookup hash. Both
//! hashes are fed by [`Column::group_hash_into`], so `Int32(5)`,
//! `Int64(5)` and `Float64(5.0)` are one key under either. Equality is
//! [`ColumnBuilder::group_eq_at`], i.e. [`crate::value::Value::group_eq`]
//! read off typed storage; neither a `Value` nor a `Vec` is made per row.

use crate::columnar::{Column, ColumnBuilder, ColumnarBatch};
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::value::DataType;
use std::hash::Hasher;
use std::sync::Arc;

/// `expr` over `batch` as a column: a column reference is the batch's own
/// column, anything else is evaluated row by row into a boxed one, which
/// hands back exactly the values it was given.
pub(crate) fn expr_column(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Arc<Column>> {
    if let BoundExpr::Column(c, _) = expr {
        return Ok(Arc::clone(&batch.columns()[*c]));
    }
    let mut builder = ColumnBuilder::new(DataType::Binary);
    for i in 0..batch.num_rows() {
        builder.push(&expr.eval(&batch.row_at(i))?);
    }
    Ok(Arc::new(builder.finish()))
}

/// The key `exprs` make over `batch`, a column each.
pub(crate) fn key_columns(exprs: &[BoundExpr], batch: &ColumnarBatch) -> Result<Vec<Arc<Column>>> {
    exprs.iter().map(|e| expr_column(e, batch)).collect()
}

/// The lookup hash: a seedless word hasher. Each 8-byte word is mixed in
/// with a multiply and a rotate, and `finish` applies a 64-bit finalizer, so
/// both the upper half a [`KeyTable`] indexes its slots by and the lower bits
/// are well mixed. No placement depends on its values, so it can change
/// without moving a key between exchange partitions.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        // The tail, zero-padded, with its length in the top byte.
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    /// MurmurHash3's `fmix64`.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The lookup hash of each of the `n` rows of the key `cols` make, into
/// `out`.
pub(crate) fn hash_rows(cols: &[Arc<Column>], n: usize, out: &mut Vec<u64>) {
    hash_rows_with::<KeyHasher>(cols, n, out);
}

/// The `H` hash of each of the `n` rows of the key `cols` make, into `out`.
pub(crate) fn hash_rows_with<H: Hasher + Default>(
    cols: &[Arc<Column>],
    n: usize,
    out: &mut Vec<u64>,
) {
    out.clear();
    out.extend((0..n).map(|i| {
        let mut state = H::default();
        for col in cols {
            col.group_hash_into(i, &mut state);
        }
        state.finish()
    }));
}

/// Distinct keys in the order they were first seen, each with its hash.
/// Entry `e` is cell `e` of every key column.
pub(crate) struct KeyTable {
    keys: Vec<ColumnBuilder>,
    hashes: Vec<u64>,
    /// Open addressing with linear probing over a power-of-two length:
    /// `entry + 1`, or 0 for a free slot. Indexed by the hash's upper half.
    slots: Vec<u32>,
}

impl KeyTable {
    pub(crate) fn new(dtypes: impl IntoIterator<Item = DataType>) -> KeyTable {
        KeyTable {
            keys: dtypes.into_iter().map(ColumnBuilder::new).collect(),
            hashes: Vec::new(),
            slots: vec![0; 16],
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    fn slot_of(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.slots.len() - 1)
    }

    /// The entry, or else the free slot, the search for row `row` of `cols`
    /// ends at.
    fn search(
        &self,
        hash: u64,
        cols: &[Arc<Column>],
        row: usize,
    ) -> std::result::Result<usize, usize> {
        let mut slot = self.slot_of(hash);
        loop {
            let Some(entry) = (self.slots[slot] as usize).checked_sub(1) else {
                return Err(slot);
            };
            let same = self.hashes[entry] == hash
                && self
                    .keys
                    .iter()
                    .zip(cols)
                    .all(|(key, col)| key.group_eq_at(entry, col, row));
            if same {
                return Ok(entry);
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
    }

    /// The entry whose key is row `row` of `cols`, which hashes to `hash`.
    pub(crate) fn find(&self, hash: u64, cols: &[Arc<Column>], row: usize) -> Option<usize> {
        self.search(hash, cols, row).ok()
    }

    /// [`find`](Self::find), entering the key when it is new: the entry and
    /// whether this call made it.
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        cols: &[Arc<Column>],
        row: usize,
    ) -> (usize, bool) {
        let slot = match self.search(hash, cols, row) {
            Ok(entry) => return (entry, false),
            Err(slot) => slot,
        };
        let entry = self.hashes.len();
        self.hashes.push(hash);
        for (key, col) in self.keys.iter_mut().zip(cols) {
            key.append_from(col, row);
        }
        self.slots[slot] = entry as u32 + 1;
        if self.hashes.len() * 2 > self.slots.len() {
            self.grow();
        }
        (entry, true)
    }

    /// Twice the slots, every entry placed again by the hash it carries.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        for (entry, &hash) in self.hashes.iter().enumerate() {
            let mut slot = self.slot_of(hash);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (self.slots.len() - 1);
            }
            self.slots[slot] = entry as u32 + 1;
        }
    }

    /// The keys as columns and their hashes, entry by entry.
    pub(crate) fn finish(self) -> (Vec<Arc<Column>>, Vec<u64>) {
        let keys = self.keys.into_iter().map(|k| Arc::new(k.finish()));
        (keys.collect(), self.hashes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::{hash_key, partition_hash_rows};
    use crate::value::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A column of `n` cells of one kind, drawn from few enough values that
    /// cells repeat — within the column and across kinds (`3`, `3.0`).
    /// `kind` 6 is a boxed column holding a little of everything.
    fn random_column(rng: &mut StdRng, kind: usize, n: usize) -> (DataType, Vec<Value>) {
        let floats = [-0.0, 0.0, 3.0, 2.5, -1.0, f64::NAN, 1e300, 7.0];
        let mut cell = |kind: usize| match kind {
            _ if rng.gen_bool(0.15) => Value::Null,
            0 => Value::Int32(rng.gen_range(-1..8i32)),
            1 => Value::Int64(rng.gen_range(-1..8i64)),
            2 => Value::Float64(floats[rng.gen_range(0..floats.len())]),
            3 => Value::Float32(floats[rng.gen_range(0..floats.len())] as f32),
            4 => Value::Utf8(format!("s{}", rng.gen_range(0..4u32))),
            _ => Value::Boolean(rng.gen_bool(0.5)),
        };
        let dtype = [
            DataType::Int32,
            DataType::Int64,
            DataType::Float64,
            DataType::Float32,
            DataType::Utf8,
            DataType::Boolean,
            DataType::Binary,
        ][kind];
        let values = (0..n)
            .map(|i| if kind == 6 { cell(i % 6) } else { cell(kind) })
            .collect();
        (dtype, values)
    }

    fn column(dtype: DataType, values: &[Value]) -> (ColumnBuilder, Arc<Column>) {
        let mut builder = ColumnBuilder::new(dtype);
        let mut same = ColumnBuilder::new(dtype);
        for v in values {
            builder.push(v);
            same.push(v);
        }
        (builder, Arc::new(same.finish()))
    }

    /// The hash `H` gives a key of these values through
    /// [`Value::group_hash`].
    fn value_hash<H: Hasher + Default>(values: &[Value]) -> u64 {
        let mut state = H::default();
        values.iter().for_each(|v| v.group_hash(&mut state));
        state.finish()
    }

    /// `hash` over random columns of every kind, one column and two (the
    /// second continues the first's hasher), and a key of no columns, is
    /// `want` of the values the cells hold.
    fn check_row_hashes(
        seed: u64,
        hash: fn(&[Arc<Column>], usize, &mut Vec<u64>),
        want: fn(&[Value]) -> u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hashes = Vec::new();
        for _ in 0..40 {
            let n = rng.gen_range(1..40usize);
            let kind = rng.gen_range(0..7usize);
            let (dtype, a) = random_column(&mut rng, kind, n);
            let col = column(dtype, &a).1;
            hash(std::slice::from_ref(&col), n, &mut hashes);
            for (i, x) in a.iter().enumerate() {
                assert_eq!(hashes[i], want(std::slice::from_ref(x)), "{x:?}");
            }
            hash(&[Arc::clone(&col), col], n, &mut hashes);
            for (i, x) in a.iter().enumerate() {
                assert_eq!(hashes[i], want(&[x.clone(), x.clone()]), "{x:?}");
            }
        }
        let mut hashes = vec![7];
        hash(&[], 2, &mut hashes);
        assert_eq!(hashes, vec![want(&[]); 2], "a key of no columns");
    }

    #[test]
    fn cell_equality_and_lookup_hash_are_those_of_the_values_the_cells_hold() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..40 {
            let (n, m) = (rng.gen_range(1..40usize), rng.gen_range(1..40usize));
            let (kind_a, kind_b) = (rng.gen_range(0..7usize), rng.gen_range(0..7usize));
            let (dtype_a, a) = random_column(&mut rng, kind_a, n);
            let (dtype_b, b) = random_column(&mut rng, kind_b, m);
            let (built, _) = column(dtype_a, &a);
            let (_, col_b) = column(dtype_b, &b);
            for (e, x) in a.iter().enumerate() {
                for (i, y) in b.iter().enumerate() {
                    assert_eq!(
                        built.group_eq_at(e, &col_b, i),
                        x.group_eq(y),
                        "{x:?} and {y:?}"
                    );
                }
            }
        }
        check_row_hashes(21, hash_rows, value_hash::<KeyHasher>);
    }

    #[test]
    fn the_partition_hash_of_a_row_is_hash_key_of_its_values() {
        check_row_hashes(22, partition_hash_rows, hash_key);
    }

    /// The longest run of occupied slots in `table`: the most slots a
    /// lookup can probe.
    fn longest_run(table: &KeyTable) -> usize {
        let (mut longest, mut run) = (0, 0);
        // Twice round, so that a run wrapping past the end counts whole.
        for &slot in table.slots.iter().chain(&table.slots) {
            run = if slot == 0 { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        longest
    }

    #[test]
    fn sequential_integers_and_short_strings_spread_over_slots_and_partitions() {
        const N: usize = 100_000;
        let ints: Vec<Value> = (0..N as i64).map(Value::Int64).collect();
        let strings: Vec<Value> = (0..N).map(|i| Value::Utf8(format!("k{i}"))).collect();
        for (dtype, values) in [(DataType::Int64, ints), (DataType::Utf8, strings)] {
            let cols = [column(dtype, &values).1];
            let mut hashes = Vec::new();
            hash_rows(&cols, N, &mut hashes);
            let mut table = KeyTable::new([dtype]);
            for (row, &hash) in hashes.iter().enumerate() {
                assert!(
                    table.find_or_insert(hash, &cols, row).1,
                    "{:?}",
                    values[row]
                );
            }
            let longest = longest_run(&table);
            assert!(
                longest <= 64,
                "{dtype:?}: a run of {longest} occupied slots"
            );

            let mut parts = Vec::new();
            partition_hash_rows(&cols, N, &mut parts);
            for n in 2..=8u64 {
                for (name, hashes) in [("lookup", &hashes), ("partition", &parts)] {
                    let mut counts = vec![0usize; n as usize];
                    hashes.iter().for_each(|h| counts[(h % n) as usize] += 1);
                    let fair = N / n as usize;
                    assert!(
                        counts.iter().all(|&c| c.abs_diff(fair) * 20 < fair),
                        "{dtype:?}, {name} hash % {n}: {counts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_table_finds_what_was_inserted_through_growth_and_equal_keys_of_other_widths() {
        let ints: Vec<Value> = (0..500).map(|i| Value::Int32(i % 200)).collect();
        let tags: Vec<Value> = (0..500)
            .map(|i| match i % 3 {
                0 => Value::Null,
                t => Value::Utf8(format!("t{t}")),
            })
            .collect();
        let cols = [
            column(DataType::Int32, &ints).1,
            column(DataType::Utf8, &tags).1,
        ];
        let mut hashes = Vec::new();
        hash_rows(&cols, 500, &mut hashes);
        let mut table = KeyTable::new([DataType::Int32, DataType::Utf8]);
        let mut first_seen = std::collections::HashMap::new();
        for (row, &hash) in hashes.iter().enumerate() {
            let (entry, new) = table.find_or_insert(hash, &cols, row);
            let key = (row % 200, row % 3);
            assert_eq!(new, !first_seen.contains_key(&key), "row {row}");
            assert_eq!(entry, *first_seen.entry(key).or_insert(entry));
        }
        // (i % 200, i % 3) takes 200 × 3 values over 600 rows; 500 see 500.
        assert_eq!(table.len(), first_seen.len());

        // The same keys as Float64 and boxed strings are the same keys.
        let floats: Vec<Value> = (0..500).map(|i| Value::Float64((i % 200) as f64)).collect();
        let other = [
            column(DataType::Float64, &floats).1,
            column(DataType::Binary, &tags).1,
        ];
        hash_rows(&other, 500, &mut hashes);
        for (row, &hash) in hashes.iter().enumerate() {
            let entry = table.find(hash, &other, row);
            assert_eq!(entry, Some(first_seen[&(row % 200, row % 3)]), "row {row}");
        }
        let absent = [
            column(DataType::Int64, &[Value::Int64(200)]).1,
            column(DataType::Utf8, &[Value::Null]).1,
        ];
        hash_rows(&absent, 1, &mut hashes);
        assert_eq!(table.find(hashes[0], &absent, 0), None);

        let (keys, kept) = table.finish();
        assert_eq!(kept.len(), first_seen.len());
        assert_eq!(keys[0].value(0), Value::Int32(0), "first seen, first out");
        assert_eq!(keys[1].dict_size(), Some(2));
    }
}
