//! Columnar execution batches: fixed-size batches of typed column vectors
//! (i64/f64/bool), null bitmaps, and dictionary-encoded strings, plus the
//! vectorized predicate kernels that evaluate filters to selection bitmaps.
//!
//! The execution currency of the physical layer is [`Partition`]: a run of
//! [`ColumnarBatch`]es. Every operator takes and returns partitions; rows
//! are materialized once, by [`gather_rows`], when `collect` hands the
//! result to the caller.
//!
//! **Losslessness contract**: `ColumnarBatch::from_rows` followed by
//! `to_rows` reproduces the input exactly, down to the `Value` variant.
//! Typed storage is only used while every non-null value matches the
//! column's declared type; the first mismatch degrades that column to boxed
//! `Value` storage instead of silently coercing.

use crate::error::Result;
use crate::expr::{BinaryOp, BoundExpr};
use crate::row::Row;
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Default number of rows per columnar batch.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Dictionary code stored in null slots; never dereferenced (the null
/// bitmap is checked first).
const NULL_CODE: u32 = u32::MAX;

// ----------------------------------------------------------------------
// Bitmap
// ----------------------------------------------------------------------

/// A fixed-length bitset. Used both as a null bitmap (bit set = NULL) and
/// as a selection bitmap (bit set = row selected).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zero bitmap of `len` bits.
    pub fn new(len: usize) -> Bitmap {
        Bitmap {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        if v {
            self.bits[i / 64] |= 1 << (i % 64);
        } else {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }

    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.bits.push(0);
        }
        let i = self.len;
        self.len += 1;
        if v {
            self.bits[i / 64] |= 1 << (i % 64);
        }
    }

    /// Append every bit of `other`.
    pub fn extend_from(&mut self, other: &Bitmap) {
        if other.count_ones() == 0 {
            self.len += other.len;
            self.bits.resize(self.len.div_ceil(64), 0);
        } else {
            (0..other.len).for_each(|i| self.push(other.get(i)));
        }
    }

    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Bitwise AND with an equally long bitmap.
    pub fn and_in_place(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// Bitwise OR with an equally long bitmap.
    pub fn or_in_place(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Positions of set bits, ascending.
    pub fn indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (w, word) in self.bits.iter().enumerate() {
            let mut word = *word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                out.push((w * 64 + bit) as u32);
                word &= word - 1;
            }
        }
        out
    }
}

// ----------------------------------------------------------------------
// Column
// ----------------------------------------------------------------------

/// Physical storage of one column's values. Null slots hold an arbitrary
/// placeholder; the owning [`Column`]'s null bitmap is authoritative.
#[derive(Clone, Debug)]
enum ColumnData {
    /// All integer widths and timestamps, widened to `i64`; the declared
    /// [`DataType`] reconstructs the exact variant.
    Int64(Vec<i64>),
    /// `Float32` (exactly representable in `f64`) and `Float64`.
    Float64(Vec<f64>),
    Bool(Vec<bool>),
    /// Dictionary-encoded strings; the dictionary is shared (`Arc`) so
    /// gathers and slices stay cheap.
    Dict {
        dict: Arc<Vec<String>>,
        codes: Vec<u32>,
    },
    /// Fallback: boxed values (binary columns, or any column whose values
    /// did not all match the declared type).
    Other(Vec<Value>),
}

/// A typed column vector with a null bitmap. Immutable once built, so its
/// row-equivalent byte size is worked out at most once.
#[derive(Clone, Debug)]
pub struct Column {
    dtype: DataType,
    nulls: Bitmap,
    data: ColumnData,
    byte_size: OnceLock<usize>,
}

/// Row position [`Column::gather_or_null`] reads as "no row": a NULL.
pub const NULL_ROW: u32 = u32::MAX;

impl Column {
    fn new(dtype: DataType, nulls: Bitmap, data: ColumnData) -> Column {
        Column {
            dtype,
            nulls,
            data,
            byte_size: OnceLock::new(),
        }
    }

    pub fn data_type(&self) -> DataType {
        self.dtype
    }

    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.get(i)
    }

    pub fn null_count(&self) -> usize {
        self.nulls.count_ones()
    }

    pub fn nulls(&self) -> &Bitmap {
        &self.nulls
    }

    /// Dictionary size when this column is dictionary-encoded.
    pub fn dict_size(&self) -> Option<usize> {
        match &self.data {
            ColumnData::Dict { dict, .. } => Some(dict.len()),
            _ => None,
        }
    }

    /// The raw `i64` vector when integer/timestamp-typed storage is in use.
    pub fn i64_slice(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// The raw `f64` vector when float-typed storage is in use.
    pub fn f64_slice(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float64(v) => Some(v),
            _ => None,
        }
    }

    /// Reconstruct the exact [`Value`] at `i`.
    pub fn value(&self, i: usize) -> Value {
        if self.nulls.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int64(v) => match self.dtype {
                DataType::Int8 => Value::Int8(v[i] as i8),
                DataType::Int16 => Value::Int16(v[i] as i16),
                DataType::Int32 => Value::Int32(v[i] as i32),
                DataType::Timestamp => Value::Timestamp(v[i]),
                _ => Value::Int64(v[i]),
            },
            ColumnData::Float64(v) => match self.dtype {
                DataType::Float32 => Value::Float32(v[i] as f32),
                _ => Value::Float64(v[i]),
            },
            ColumnData::Bool(v) => Value::Boolean(v[i]),
            ColumnData::Dict { dict, codes } => Value::Utf8(dict[codes[i] as usize].clone()),
            ColumnData::Other(v) => v[i].clone(),
        }
    }

    /// Row-equivalent byte accounting: exactly what the same values would
    /// cost as `Value`s inside `Row`s (minus the per-row overhead, charged
    /// by [`ColumnarBatch::byte_size`]). Keeps shuffle/broadcast/memory
    /// metrics invariant under the columnar refactor.
    pub fn byte_size(&self) -> usize {
        *self.byte_size.get_or_init(|| self.compute_byte_size())
    }

    fn compute_byte_size(&self) -> usize {
        let n = self.len();
        let null_count = self.null_count();
        let non_null = n - null_count;
        match &self.data {
            ColumnData::Int64(_) => {
                let width = match self.dtype {
                    DataType::Int8 => 1,
                    DataType::Int16 => 2,
                    DataType::Int32 => 4,
                    _ => 8,
                };
                non_null * width + null_count
            }
            ColumnData::Float64(_) => {
                let width = if self.dtype == DataType::Float32 {
                    4
                } else {
                    8
                };
                non_null * width + null_count
            }
            ColumnData::Bool(_) => n,
            ColumnData::Dict { dict, codes } => {
                let cell = |c: u32| dict[c as usize].len() + 4;
                if null_count == 0 {
                    codes.iter().map(|&c| cell(c)).sum()
                } else {
                    let valid = codes
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !self.nulls.get(*i));
                    null_count + valid.map(|(_, &c)| cell(c)).sum::<usize>()
                }
            }
            // Null slots hold `Value::Null` (1 byte), so a plain sum is
            // already row-equivalent.
            ColumnData::Other(vals) => vals.iter().map(Value::byte_size).sum(),
        }
    }

    /// Take the listed positions, in order (a column-wise tight loop; the
    /// dictionary is shared, not copied).
    pub fn gather(&self, idx: &[u32]) -> Column {
        let nulls = if self.null_count() == 0 {
            Bitmap::new(idx.len())
        } else {
            let mut nulls = Bitmap::default();
            for &i in idx {
                nulls.push(self.nulls.get(i as usize));
            }
            nulls
        };
        self.take(idx, nulls, |i| i as usize)
    }

    /// [`gather`](Self::gather) where the position [`NULL_ROW`] yields a
    /// NULL: the build side of a left join's output.
    pub fn gather_or_null(&self, idx: &[u32]) -> Column {
        let mut nulls = Bitmap::default();
        for &i in idx {
            nulls.push(i == NULL_ROW || self.nulls.get(i as usize));
        }
        if self.is_empty() {
            // Nothing to read a placeholder from: every position is NULL.
            let mut builder = ColumnBuilder::new(self.dtype);
            idx.iter().for_each(|_| builder.push_null());
            return builder.finish();
        }
        // A NULL slot's payload is never read; row 0's stands in.
        self.take(idx, nulls, |i| if i == NULL_ROW { 0 } else { i as usize })
    }

    fn take(&self, idx: &[u32], nulls: Bitmap, at: impl Fn(u32) -> usize) -> Column {
        let data = match &self.data {
            ColumnData::Int64(v) => ColumnData::Int64(idx.iter().map(|&i| v[at(i)]).collect()),
            ColumnData::Float64(v) => ColumnData::Float64(idx.iter().map(|&i| v[at(i)]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(idx.iter().map(|&i| v[at(i)]).collect()),
            ColumnData::Dict { dict, codes } => ColumnData::Dict {
                dict: Arc::clone(dict),
                codes: idx.iter().map(|&i| codes[at(i)]).collect(),
            },
            ColumnData::Other(v) => ColumnData::Other(
                idx.iter()
                    .zip(0..)
                    .map(|(&i, out)| {
                        if nulls.get(out) {
                            Value::Null
                        } else {
                            v[at(i)].clone()
                        }
                    })
                    .collect(),
            ),
        };
        Column::new(self.dtype, nulls, data)
    }

    /// Feed the grouping hash of the value at `i` into `state`, exactly as
    /// [`Value::group_hash`] would — without materializing the `Value`.
    pub fn group_hash_into(&self, i: usize, state: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        if self.nulls.get(i) {
            0u8.hash(state);
            return;
        }
        match &self.data {
            ColumnData::Int64(v) => (4u8, v[i]).hash(state),
            ColumnData::Float64(v) => {
                let f = v[i];
                if f.fract() == 0.0 && f.abs() < 9e15 {
                    (4u8, f as i64).hash(state);
                } else {
                    (5u8, f.to_bits()).hash(state);
                }
            }
            ColumnData::Bool(v) => (1u8, v[i]).hash(state),
            ColumnData::Dict { dict, codes } => (2u8, dict[codes[i] as usize].as_str()).hash(state),
            ColumnData::Other(v) => v[i].group_hash(state),
        }
    }
}

// ----------------------------------------------------------------------
// Builders
// ----------------------------------------------------------------------

enum BuilderData {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Bool(Vec<bool>),
    Dict {
        dict: Vec<String>,
        index: HashMap<String, u32>,
        codes: Vec<u32>,
        /// The dictionary cells were last appended from, and the code each
        /// of its entries has here ([`NULL_CODE`] until first asked for):
        /// appending from one column again and again is a table lookup.
        from: Option<(Arc<Vec<String>>, Vec<u32>)>,
    },
    Other(Vec<Value>),
}

/// The code of `s` in a builder's dictionary, entered if new.
fn intern(dict: &mut Vec<String>, index: &mut HashMap<String, u32>, s: &str) -> u32 {
    if let Some(&code) = index.get(s) {
        return code;
    }
    let code = dict.len() as u32;
    dict.push(s.to_string());
    index.insert(s.to_string(), code);
    code
}

/// Incremental [`Column`] builder. Starts in typed storage chosen from the
/// declared type and degrades to boxed-`Value` storage on the first value
/// whose variant does not match — preserving exact round-trips.
pub struct ColumnBuilder {
    dtype: DataType,
    nulls: Bitmap,
    data: BuilderData,
}

impl ColumnBuilder {
    pub fn new(dtype: DataType) -> ColumnBuilder {
        let data = match dtype {
            DataType::Int8
            | DataType::Int16
            | DataType::Int32
            | DataType::Int64
            | DataType::Timestamp => BuilderData::Int64(Vec::new()),
            DataType::Float32 | DataType::Float64 => BuilderData::Float64(Vec::new()),
            DataType::Boolean => BuilderData::Bool(Vec::new()),
            DataType::Utf8 => BuilderData::Dict {
                dict: Vec::new(),
                index: HashMap::new(),
                codes: Vec::new(),
                from: None,
            },
            DataType::Binary => BuilderData::Other(Vec::new()),
        };
        ColumnBuilder {
            dtype,
            nulls: Bitmap::default(),
            data,
        }
    }

    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push_null(&mut self) {
        match &mut self.data {
            BuilderData::Int64(v) => v.push(0),
            BuilderData::Float64(v) => v.push(0.0),
            BuilderData::Bool(v) => v.push(false),
            BuilderData::Dict { codes, .. } => codes.push(NULL_CODE),
            BuilderData::Other(v) => v.push(Value::Null),
        }
        self.nulls.push(true);
    }

    pub fn push(&mut self, value: &Value) {
        if value.is_null() {
            self.push_null();
            return;
        }
        let matched = match (&mut self.data, value) {
            (BuilderData::Int64(v), Value::Int8(x)) if self.dtype == DataType::Int8 => {
                v.push(*x as i64);
                true
            }
            (BuilderData::Int64(v), Value::Int16(x)) if self.dtype == DataType::Int16 => {
                v.push(*x as i64);
                true
            }
            (BuilderData::Int64(v), Value::Int32(x)) if self.dtype == DataType::Int32 => {
                v.push(*x as i64);
                true
            }
            (BuilderData::Int64(v), Value::Int64(x)) if self.dtype == DataType::Int64 => {
                v.push(*x);
                true
            }
            (BuilderData::Int64(v), Value::Timestamp(x)) if self.dtype == DataType::Timestamp => {
                v.push(*x);
                true
            }
            (BuilderData::Float64(v), Value::Float32(x)) if self.dtype == DataType::Float32 => {
                // f32 -> f64 is exact, so the round-trip back to f32 is too.
                v.push(*x as f64);
                true
            }
            (BuilderData::Float64(v), Value::Float64(x)) if self.dtype == DataType::Float64 => {
                v.push(*x);
                true
            }
            (BuilderData::Bool(v), Value::Boolean(b)) if self.dtype == DataType::Boolean => {
                v.push(*b);
                true
            }
            (
                BuilderData::Dict {
                    dict, index, codes, ..
                },
                Value::Utf8(s),
            ) if self.dtype == DataType::Utf8 => {
                codes.push(intern(dict, index, s));
                true
            }
            (BuilderData::Other(v), value) => {
                v.push(value.clone());
                true
            }
            _ => false,
        };
        if matched {
            self.nulls.push(false);
        } else {
            self.degrade();
            self.push(value);
        }
    }

    /// Append position `i` of `col`, staying typed when the storages line
    /// up (the join-output fast path) and falling back to `push` otherwise.
    pub fn append_from(&mut self, col: &Column, i: usize) {
        if col.is_null(i) {
            self.push_null();
            return;
        }
        match (&mut self.data, &col.data) {
            (BuilderData::Int64(dst), ColumnData::Int64(src)) if self.dtype == col.dtype => {
                dst.push(src[i]);
                self.nulls.push(false);
            }
            (BuilderData::Float64(dst), ColumnData::Float64(src)) if self.dtype == col.dtype => {
                dst.push(src[i]);
                self.nulls.push(false);
            }
            (BuilderData::Bool(dst), ColumnData::Bool(src)) if self.dtype == col.dtype => {
                dst.push(src[i]);
                self.nulls.push(false);
            }
            (
                BuilderData::Dict {
                    dict,
                    index,
                    codes,
                    from,
                },
                ColumnData::Dict {
                    dict: sdict,
                    codes: scodes,
                },
            ) if self.dtype == DataType::Utf8 && col.dtype == DataType::Utf8 => {
                if from.as_ref().is_some_and(|(d, _)| !Arc::ptr_eq(d, sdict)) {
                    *from = None;
                }
                let (_, known) =
                    from.get_or_insert_with(|| (Arc::clone(sdict), vec![NULL_CODE; sdict.len()]));
                let source = scodes[i] as usize;
                if known[source] == NULL_CODE {
                    known[source] = intern(dict, index, &sdict[source]);
                }
                let code = known[source];
                codes.push(code);
                self.nulls.push(false);
            }
            _ => self.push(&col.value(i)),
        }
    }

    /// Append every row of `col`: whole vectors at once where the storages
    /// line up, cell by cell otherwise.
    pub fn extend_from(&mut self, col: &Column) {
        match (&mut self.data, &col.data) {
            (BuilderData::Int64(dst), ColumnData::Int64(src)) if self.dtype == col.dtype => {
                dst.extend_from_slice(src)
            }
            (BuilderData::Float64(dst), ColumnData::Float64(src)) if self.dtype == col.dtype => {
                dst.extend_from_slice(src)
            }
            (BuilderData::Bool(dst), ColumnData::Bool(src)) if self.dtype == col.dtype => {
                dst.extend_from_slice(src)
            }
            _ => return (0..col.len()).for_each(|i| self.append_from(col, i)),
        }
        self.nulls.extend_from(&col.nulls);
    }

    /// Whether cell `e` built so far and cell `i` of `col` belong to one
    /// group or join key: [`Value::group_eq`] on the values they hold (NULL
    /// with NULL, a number with every number of its value whatever the
    /// width, strings by content), read off the typed storage.
    pub fn group_eq_at(&self, e: usize, col: &Column, i: usize) -> bool {
        match (self.nulls.get(e), col.nulls.get(i)) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        match (&self.data, &col.data) {
            (BuilderData::Int64(a), ColumnData::Int64(b)) => a[e] == b[i],
            (BuilderData::Float64(a), ColumnData::Float64(b)) => a[e] == b[i],
            (BuilderData::Int64(a), ColumnData::Float64(b)) => a[e] as f64 == b[i],
            (BuilderData::Float64(a), ColumnData::Int64(b)) => a[e] == b[i] as f64,
            (BuilderData::Bool(a), ColumnData::Bool(b)) => a[e] == b[i],
            (
                BuilderData::Dict { dict, codes, .. },
                ColumnData::Dict {
                    dict: other,
                    codes: other_codes,
                },
            ) => dict[codes[e] as usize] == other[other_codes[i] as usize],
            (BuilderData::Other(_), _) | (_, ColumnData::Other(_)) => {
                self.value_at(e).group_eq(&col.value(i))
            }
            // Typed storages of different kinds: a string, a boolean and a
            // number never compare equal.
            _ => false,
        }
    }

    /// The exact [`Value`] of cell `e`.
    fn value_at(&self, e: usize) -> Value {
        if self.nulls.get(e) {
            return Value::Null;
        }
        match &self.data {
            BuilderData::Int64(v) => match self.dtype {
                DataType::Int8 => Value::Int8(v[e] as i8),
                DataType::Int16 => Value::Int16(v[e] as i16),
                DataType::Int32 => Value::Int32(v[e] as i32),
                DataType::Timestamp => Value::Timestamp(v[e]),
                _ => Value::Int64(v[e]),
            },
            BuilderData::Float64(v) => match self.dtype {
                DataType::Float32 => Value::Float32(v[e] as f32),
                _ => Value::Float64(v[e]),
            },
            BuilderData::Bool(v) => Value::Boolean(v[e]),
            BuilderData::Dict { dict, codes, .. } => Value::Utf8(dict[codes[e] as usize].clone()),
            BuilderData::Other(v) => v[e].clone(),
        }
    }

    /// Switch to boxed-`Value` storage, re-materializing what was pushed so
    /// far so nothing already accepted is coerced.
    fn degrade(&mut self) {
        self.data = BuilderData::Other((0..self.nulls.len()).map(|e| self.value_at(e)).collect());
    }

    pub fn finish(self) -> Column {
        let data = match self.data {
            BuilderData::Int64(v) => ColumnData::Int64(v),
            BuilderData::Float64(v) => ColumnData::Float64(v),
            BuilderData::Bool(v) => ColumnData::Bool(v),
            BuilderData::Dict { dict, codes, .. } => ColumnData::Dict {
                dict: Arc::new(dict),
                codes,
            },
            BuilderData::Other(v) => ColumnData::Other(v),
        };
        Column::new(self.dtype, self.nulls, data)
    }
}

// ----------------------------------------------------------------------
// ColumnarBatch
// ----------------------------------------------------------------------

/// A fixed-capacity batch of rows in columnar layout. Columns are shared
/// (`Arc`), so projection is a pointer copy, not a data copy.
#[derive(Clone, Debug)]
pub struct ColumnarBatch {
    columns: Vec<Arc<Column>>,
    num_rows: usize,
}

impl ColumnarBatch {
    pub fn new(columns: Vec<Arc<Column>>) -> ColumnarBatch {
        let num_rows = columns.first().map_or(0, |c| c.len());
        ColumnarBatch::with_row_count(columns, num_rows)
    }

    /// Like [`new`](Self::new) with an explicit row count — required for
    /// zero-column batches (e.g. a `COUNT(*)` scan with an empty projection
    /// pushed down), whose cardinality cannot be derived from the columns.
    pub fn with_row_count(columns: Vec<Arc<Column>>, num_rows: usize) -> ColumnarBatch {
        debug_assert!(columns.iter().all(|c| c.len() == num_rows));
        ColumnarBatch { columns, num_rows }
    }

    /// Columnarize a run of rows. `dtypes` declares each column's type;
    /// mismatching values degrade their column to boxed storage, so the
    /// conversion is always lossless.
    pub fn from_rows(dtypes: &[DataType], rows: &[Row]) -> ColumnarBatch {
        let mut builders: Vec<ColumnBuilder> =
            dtypes.iter().map(|&d| ColumnBuilder::new(d)).collect();
        for row in rows {
            for (c, b) in builders.iter_mut().enumerate() {
                match row.values.get(c) {
                    Some(v) => b.push(v),
                    None => b.push_null(),
                }
            }
        }
        ColumnarBatch::with_row_count(
            builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            rows.len(),
        )
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    pub fn dtypes(&self) -> Vec<DataType> {
        self.columns.iter().map(|c| c.dtype).collect()
    }

    /// Materialize row `i`.
    pub fn row_at(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.num_rows).map(|i| self.row_at(i)).collect()
    }

    /// Row-equivalent byte accounting (see [`Column::byte_size`]).
    pub fn byte_size(&self) -> usize {
        8 * self.num_rows + self.columns.iter().map(|c| c.byte_size()).sum::<usize>()
    }

    /// Take the listed row positions from every column.
    pub fn gather(&self, idx: &[u32]) -> ColumnarBatch {
        ColumnarBatch {
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.gather(idx)))
                .collect(),
            num_rows: idx.len(),
        }
    }

    /// The rows of `batches`, which have one schema, as one batch; none at
    /// all is a batch without columns. Typed vectors are copied whole;
    /// dictionaries are merged entry by entry, not cell by cell.
    pub fn concat(batches: &[ColumnarBatch]) -> ColumnarBatch {
        let [first, rest @ ..] = batches else {
            return ColumnarBatch::with_row_count(Vec::new(), 0);
        };
        if rest.is_empty() {
            return first.clone();
        }
        let columns = (0..first.num_columns())
            .map(|c| {
                let mut builder = ColumnBuilder::new(first.column(c).dtype);
                batches
                    .iter()
                    .for_each(|b| builder.extend_from(b.column(c)));
                Arc::new(builder.finish())
            })
            .collect();
        ColumnarBatch::with_row_count(columns, batches_num_rows(batches))
    }

    /// Apply a selection bitmap; a full mask is a cheap `Arc` clone.
    pub fn select(&self, mask: &Bitmap) -> ColumnarBatch {
        if mask.all_set() {
            self.clone()
        } else {
            self.gather(&mask.indices())
        }
    }

    /// Keep only the listed columns, in order — a pointer copy per column.
    pub fn project(&self, indices: &[usize]) -> ColumnarBatch {
        ColumnarBatch {
            columns: indices
                .iter()
                .map(|&i| Arc::clone(&self.columns[i]))
                .collect(),
            num_rows: self.num_rows,
        }
    }
}

/// Builds fixed-size [`ColumnarBatch`]es from a stream of rows, emitting a
/// full batch every `capacity` rows.
pub struct BatchBuilder {
    dtypes: Vec<DataType>,
    capacity: usize,
    builders: Vec<ColumnBuilder>,
    len: usize,
    batches: Vec<ColumnarBatch>,
}

impl BatchBuilder {
    pub fn new(dtypes: Vec<DataType>, capacity: usize) -> BatchBuilder {
        let builders = dtypes.iter().map(|&d| ColumnBuilder::new(d)).collect();
        BatchBuilder {
            dtypes,
            capacity: capacity.max(1),
            builders,
            len: 0,
            batches: Vec::new(),
        }
    }

    pub fn push_row(&mut self, row: &Row) {
        self.push_values(&row.values);
    }

    /// Append one row given as its values in column order; columns past
    /// the end of `values` get NULL. A source that decodes into a reused
    /// buffer appends without building a [`Row`].
    pub fn push_values(&mut self, values: &[Value]) {
        for (c, b) in self.builders.iter_mut().enumerate() {
            match values.get(c) {
                Some(v) => b.push(v),
                None => b.push_null(),
            }
        }
        self.len += 1;
        if self.len >= self.capacity {
            self.flush();
        }
    }

    /// Seal the in-progress rows into a batch even if under capacity.
    pub fn flush(&mut self) {
        if self.len == 0 {
            return;
        }
        let builders = std::mem::replace(
            &mut self.builders,
            self.dtypes.iter().map(|&d| ColumnBuilder::new(d)).collect(),
        );
        self.batches.push(ColumnarBatch::with_row_count(
            builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            self.len,
        ));
        self.len = 0;
    }

    /// Take the batches completed so far (streaming consumption).
    pub fn drain_completed(&mut self) -> Vec<ColumnarBatch> {
        std::mem::take(&mut self.batches)
    }

    /// [`push_row`](Self::push_row), handing the batch it completes, if
    /// any, to `sink`: how a source that decodes rows streams them out in
    /// batches cut at `capacity`, whatever the size of its reads.
    pub fn push_row_to(
        &mut self,
        row: &Row,
        sink: &mut dyn FnMut(ColumnarBatch) -> Result<()>,
    ) -> Result<()> {
        self.push_values_to(&row.values, sink)
    }

    /// [`push_values`](Self::push_values), handing the batch it completes,
    /// if any, to `sink`.
    pub fn push_values_to(
        &mut self,
        values: &[Value],
        sink: &mut dyn FnMut(ColumnarBatch) -> Result<()>,
    ) -> Result<()> {
        self.push_values(values);
        self.drain_completed().into_iter().try_for_each(sink)
    }

    /// Seal the rows still in progress and hand them to `sink`.
    pub fn finish_to(self, sink: &mut dyn FnMut(ColumnarBatch) -> Result<()>) -> Result<()> {
        self.finish().into_iter().try_for_each(sink)
    }

    pub fn finish(mut self) -> Vec<ColumnarBatch> {
        self.flush();
        self.batches
    }
}

/// Convenience: columnarize rows into `capacity`-sized batches.
pub fn rows_to_batches(dtypes: &[DataType], rows: &[Row], capacity: usize) -> Vec<ColumnarBatch> {
    let mut builder = BatchBuilder::new(dtypes.to_vec(), capacity);
    for row in rows {
        builder.push_row(row);
    }
    builder.finish()
}

// ----------------------------------------------------------------------
// Partition: the physical layer's execution currency
// ----------------------------------------------------------------------

/// One partition's worth of data between two physical operators: a run of
/// batches. No batch is a partition without rows.
pub type Partition = Vec<ColumnarBatch>;

/// Rows held by a run of batches.
pub fn batches_num_rows(batches: &[ColumnarBatch]) -> usize {
    batches.iter().map(ColumnarBatch::num_rows).sum()
}

/// Row-equivalent bytes of a run of batches (see [`Column::byte_size`]).
pub fn batches_byte_size(batches: &[ColumnarBatch]) -> usize {
    batches.iter().map(ColumnarBatch::byte_size).sum()
}

/// Total row-equivalent bytes across partitions.
pub fn partitions_byte_size(parts: &[Partition]) -> usize {
    parts.iter().map(|p| batches_byte_size(p)).sum()
}

/// Materialize partitions as one row vector, in partition then batch order:
/// the driver-side gather `collect` ends with, and what the sort, the one
/// operator that works on whole rows, starts from.
pub fn gather_rows(parts: Vec<Partition>) -> Vec<Row> {
    let total: usize = parts.iter().map(|p| batches_num_rows(p)).sum();
    let mut out = Vec::with_capacity(total);
    for batch in parts.iter().flatten() {
        out.extend((0..batch.num_rows()).map(|i| batch.row_at(i)));
    }
    out
}

// ----------------------------------------------------------------------
// Vectorized predicate kernels
// ----------------------------------------------------------------------

/// Evaluate `expr` as a SQL predicate over a whole batch, producing a
/// selection bitmap (bit set = row passes; NULL counts as false, matching
/// [`BoundExpr::eval_predicate`]). Comparisons over typed columns run as
/// tight loops; `AND`/`OR` compose selection masks bitwise, which is sound
/// because predicate-truth (NULL→false) distributes over both. `NOT` is
/// deliberately row-wise: `NOT NULL` is NULL (false as a predicate), so
/// inverting a selection mask would wrongly select NULL rows.
pub fn eval_predicate_mask(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Bitmap> {
    if let Some(mask) = eval_mask_vectorized(expr, batch)? {
        return Ok(mask);
    }
    let n = batch.num_rows();
    let mut mask = Bitmap::new(n);
    for i in 0..n {
        if expr.eval_predicate(&batch.row_at(i))? {
            mask.set(i, true);
        }
    }
    Ok(mask)
}

fn eval_mask_vectorized(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Option<Bitmap>> {
    match expr {
        BoundExpr::BinaryOp {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut mask = eval_predicate_mask(left, batch)?;
            mask.and_in_place(&eval_predicate_mask(right, batch)?);
            Ok(Some(mask))
        }
        BoundExpr::BinaryOp {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let mut mask = eval_predicate_mask(left, batch)?;
            mask.or_in_place(&eval_predicate_mask(right, batch)?);
            Ok(Some(mask))
        }
        BoundExpr::BinaryOp { left, op, right } if op.is_comparison() => {
            Ok(match (&**left, &**right) {
                (BoundExpr::Column(ci, _), BoundExpr::Literal(v)) => {
                    cmp_column_literal(batch.column(*ci), *op, v)
                }
                (BoundExpr::Literal(v), BoundExpr::Column(ci, _)) => {
                    cmp_column_literal(batch.column(*ci), flip_comparison(*op), v)
                }
                (BoundExpr::Column(a, _), BoundExpr::Column(b, _)) => {
                    cmp_column_column(batch.column(*a), batch.column(*b), *op)
                }
                _ => None,
            })
        }
        BoundExpr::IsNull(e) => Ok(match &**e {
            BoundExpr::Column(ci, _) => {
                let col = batch.column(*ci);
                let mut mask = Bitmap::new(col.len());
                for i in 0..col.len() {
                    if col.is_null(i) {
                        mask.set(i, true);
                    }
                }
                Some(mask)
            }
            _ => None,
        }),
        BoundExpr::IsNotNull(e) => Ok(match &**e {
            BoundExpr::Column(ci, _) => {
                let col = batch.column(*ci);
                let mut mask = Bitmap::new(col.len());
                for i in 0..col.len() {
                    if !col.is_null(i) {
                        mask.set(i, true);
                    }
                }
                Some(mask)
            }
            _ => None,
        }),
        _ => Ok(None),
    }
}

/// `lit op col` rewritten as `col flip(op) lit`.
fn flip_comparison(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

fn ord_matches(op: BinaryOp, o: Ordering) -> bool {
    match op {
        BinaryOp::Eq => o == Ordering::Equal,
        BinaryOp::NotEq => o != Ordering::Equal,
        BinaryOp::Lt => o == Ordering::Less,
        BinaryOp::LtEq => o != Ordering::Greater,
        BinaryOp::Gt => o == Ordering::Greater,
        BinaryOp::GtEq => o != Ordering::Less,
        _ => false,
    }
}

/// Column-vs-literal comparison kernel; `None` means no typed kernel
/// applies (caller falls back to row-wise evaluation). Semantics mirror
/// [`Value::sql_cmp`]: integers compare exactly, any float promotes both
/// sides to `f64`, NULL never matches.
fn cmp_column_literal(col: &Column, op: BinaryOp, lit: &Value) -> Option<Bitmap> {
    let n = col.len();
    if lit.is_null() {
        // Comparison with NULL is NULL — selects nothing.
        return Some(Bitmap::new(n));
    }
    let mut mask = Bitmap::new(n);
    match &col.data {
        ColumnData::Int64(vals) => match lit {
            Value::Float32(_) | Value::Float64(_) => {
                let rhs = lit.as_f64()?;
                for (i, v) in vals.iter().enumerate() {
                    if !col.nulls.get(i) {
                        if let Some(o) = (*v as f64).partial_cmp(&rhs) {
                            if ord_matches(op, o) {
                                mask.set(i, true);
                            }
                        }
                    }
                }
            }
            _ => {
                let rhs = lit.as_i64()?;
                for (i, v) in vals.iter().enumerate() {
                    if !col.nulls.get(i) && ord_matches(op, v.cmp(&rhs)) {
                        mask.set(i, true);
                    }
                }
            }
        },
        ColumnData::Float64(vals) => {
            let rhs = lit.as_f64()?;
            for (i, v) in vals.iter().enumerate() {
                if !col.nulls.get(i) {
                    if let Some(o) = v.partial_cmp(&rhs) {
                        if ord_matches(op, o) {
                            mask.set(i, true);
                        }
                    }
                }
            }
        }
        ColumnData::Dict { dict, codes } => {
            let rhs = lit.as_str()?;
            // One comparison per distinct value, then a code-indexed map.
            let hits: Vec<bool> = dict
                .iter()
                .map(|d| ord_matches(op, d.as_str().cmp(rhs)))
                .collect();
            for (i, &c) in codes.iter().enumerate() {
                if !col.nulls.get(i) && hits[c as usize] {
                    mask.set(i, true);
                }
            }
        }
        ColumnData::Bool(vals) => {
            let rhs = lit.as_bool()?;
            for (i, v) in vals.iter().enumerate() {
                if !col.nulls.get(i) && ord_matches(op, v.cmp(&rhs)) {
                    mask.set(i, true);
                }
            }
        }
        ColumnData::Other(_) => return None,
    }
    Some(mask)
}

/// Column-vs-column comparison kernel for same-family typed storages.
fn cmp_column_column(a: &Column, b: &Column, op: BinaryOp) -> Option<Bitmap> {
    if a.len() != b.len() {
        return None;
    }
    let n = a.len();
    let mut mask = Bitmap::new(n);
    match (&a.data, &b.data) {
        (ColumnData::Int64(x), ColumnData::Int64(y)) => {
            for i in 0..n {
                if !a.nulls.get(i) && !b.nulls.get(i) && ord_matches(op, x[i].cmp(&y[i])) {
                    mask.set(i, true);
                }
            }
        }
        (ColumnData::Float64(x), ColumnData::Float64(y)) => {
            for i in 0..n {
                if !a.nulls.get(i) && !b.nulls.get(i) {
                    if let Some(o) = x[i].partial_cmp(&y[i]) {
                        if ord_matches(op, o) {
                            mask.set(i, true);
                        }
                    }
                }
            }
        }
        (ColumnData::Int64(x), ColumnData::Float64(y)) => {
            for i in 0..n {
                if !a.nulls.get(i) && !b.nulls.get(i) {
                    if let Some(o) = (x[i] as f64).partial_cmp(&y[i]) {
                        if ord_matches(op, o) {
                            mask.set(i, true);
                        }
                    }
                }
            }
        }
        (ColumnData::Float64(x), ColumnData::Int64(y)) => {
            for i in 0..n {
                if !a.nulls.get(i) && !b.nulls.get(i) {
                    if let Some(o) = x[i].partial_cmp(&(y[i] as f64)) {
                        if ord_matches(op, o) {
                            mask.set(i, true);
                        }
                    }
                }
            }
        }
        (
            ColumnData::Dict {
                dict: da,
                codes: ca,
            },
            ColumnData::Dict {
                dict: db,
                codes: cb,
            },
        ) => {
            for i in 0..n {
                if !a.nulls.get(i)
                    && !b.nulls.get(i)
                    && ord_matches(op, da[ca[i] as usize].cmp(&db[cb[i] as usize]))
                {
                    mask.set(i, true);
                }
            }
        }
        (ColumnData::Bool(x), ColumnData::Bool(y)) => {
            for i in 0..n {
                if !a.nulls.get(i) && !b.nulls.get(i) && ord_matches(op, x[i].cmp(&y[i])) {
                    mask.set(i, true);
                }
            }
        }
        _ => return None,
    }
    Some(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::{Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("dept", DataType::Utf8),
            Field::new("score", DataType::Float64),
        ])
    }

    fn sample_rows() -> Vec<Row> {
        (0..10)
            .map(|i| {
                Row::new(vec![
                    Value::Int64(i),
                    if i == 3 {
                        Value::Null
                    } else {
                        Value::Utf8(if i % 2 == 0 { "even" } else { "odd" }.into())
                    },
                    if i == 7 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64 / 2.0)
                    },
                ])
            })
            .collect()
    }

    fn dtypes() -> Vec<DataType> {
        vec![DataType::Int64, DataType::Utf8, DataType::Float64]
    }

    #[test]
    fn bitmap_push_get_and_ops() {
        let mut b = Bitmap::default();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(129));
        assert_eq!(b.count_ones(), 44);
        let idx = b.indices();
        assert_eq!(idx.len(), 44);
        assert_eq!(idx[0], 0);
        assert_eq!(idx[1], 3);

        let mut a = Bitmap::new(130);
        a.set(0, true);
        a.set(4, true);
        a.and_in_place(&b);
        assert!(a.get(0));
        assert!(!a.get(4));
        a.or_in_place(&b);
        assert_eq!(a.count_ones(), 44);
    }

    #[test]
    fn roundtrip_is_exact() {
        let rows = sample_rows();
        let batch = ColumnarBatch::from_rows(&dtypes(), &rows);
        assert_eq!(batch.num_rows(), 10);
        // Dictionary encoding engaged for the string column: 2 distinct.
        assert_eq!(batch.column(1).dict_size(), Some(2));
        let back = batch.to_rows();
        assert_eq!(rows.len(), back.len());
        for (a, b) in rows.iter().zip(&back) {
            // Compare debug strings for exact-variant equality (Value's
            // PartialEq coerces across numeric widths).
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn mismatched_variant_degrades_not_coerces() {
        // Declared Int32, but an Int64 value arrives mid-column.
        let rows = vec![
            Row::new(vec![Value::Int32(1)]),
            Row::new(vec![Value::Int64(2)]),
            Row::new(vec![Value::Int32(3)]),
        ];
        let batch = ColumnarBatch::from_rows(&[DataType::Int32], &rows);
        let back = batch.to_rows();
        assert_eq!(format!("{:?}", back[0].get(0)), "Int32(1)");
        assert_eq!(format!("{:?}", back[1].get(0)), "Int64(2)");
        assert_eq!(format!("{:?}", back[2].get(0)), "Int32(3)");
    }

    #[test]
    fn byte_size_matches_row_accounting() {
        let rows = sample_rows();
        let batch = ColumnarBatch::from_rows(&dtypes(), &rows);
        assert_eq!(batch.byte_size(), crate::row::rows_byte_size(&rows));
    }

    #[test]
    fn gather_and_project() {
        let batch = ColumnarBatch::from_rows(&dtypes(), &sample_rows());
        let g = batch.gather(&[1, 3, 5]);
        assert_eq!(g.num_rows(), 3);
        assert_eq!(g.row_at(0).get(0), &Value::Int64(1));
        assert!(g.row_at(1).get(1).is_null());
        let p = batch.project(&[2, 0]);
        assert_eq!(p.num_columns(), 2);
        assert_eq!(p.row_at(4).get(1), &Value::Int64(4));
    }

    #[test]
    fn concat_and_gather_or_null_hold_exactly_the_rows_they_were_given() {
        let exact = |rows: &[Row]| format!("{rows:?}");
        let rows = sample_rows();
        // Three batches, a dictionary each.
        let whole = ColumnarBatch::concat(&rows_to_batches(&dtypes(), &rows, 4));
        assert_eq!(exact(&whole.to_rows()), exact(&rows));
        assert_eq!(whole.byte_size(), crate::row::rows_byte_size(&rows));
        assert_eq!(
            whole.column(1).dict_size(),
            Some(2),
            "one merged dictionary"
        );
        // Pieces of one batch; a single piece is handed back as it is.
        let pieces = [whole.gather(&[0, 1]), whole.gather(&[]), whole.gather(&[5])];
        let picked = [rows[0].clone(), rows[1].clone(), rows[5].clone()];
        assert_eq!(
            exact(&ColumnarBatch::concat(&pieces).to_rows()),
            exact(&picked)
        );
        assert_eq!(ColumnarBatch::concat(&pieces[..1]).num_rows(), 2);
        assert_eq!(ColumnarBatch::concat(&[]).num_columns(), 0);
        // A typed column and a boxed one of the same values, either first.
        let boxed = ColumnarBatch::from_rows(&[DataType::Binary; 3], &rows[..2]);
        for pair in [[boxed.clone(), whole.clone()], [whole.clone(), boxed]] {
            let both = ColumnarBatch::concat(&pair);
            assert_eq!(both.num_rows(), 12);
            assert_eq!(
                exact(&both.to_rows()),
                exact(&gather_rows(vec![pair.to_vec()]))
            );
        }

        for c in 0..3 {
            let col = whole.column(c);
            let taken = col.gather_or_null(&[2, NULL_ROW, 3, 7]);
            let expect = [col.value(2), Value::Null, col.value(3), col.value(7)];
            let got: Vec<Value> = (0..4).map(|i| taken.value(i)).collect();
            assert_eq!(format!("{got:?}"), format!("{expect:?}"));
            let bytes: usize = expect.iter().map(Value::byte_size).sum();
            assert_eq!(taken.byte_size(), bytes);
            assert_eq!(taken.byte_size(), bytes, "asked twice, answered the same");
            let none = col.gather(&[]).gather_or_null(&[NULL_ROW, NULL_ROW]);
            assert_eq!((none.len(), none.null_count()), (2, 2));
        }
    }

    #[test]
    fn predicate_mask_matches_row_eval() {
        let schema = schema();
        let batch = ColumnarBatch::from_rows(&dtypes(), &sample_rows());
        let exprs = vec![
            Expr::col("id").gt_eq(Expr::lit(4i64)),
            Expr::col("dept").eq(Expr::lit("even")),
            Expr::col("score").lt(Expr::lit(3.0)),
            Expr::col("id")
                .gt(Expr::lit(2i64))
                .and(Expr::col("dept").eq(Expr::lit("odd"))),
            Expr::col("dept")
                .eq(Expr::lit("even"))
                .or(Expr::col("score").gt(Expr::lit(4.0))),
            // NOT over a nullable column — must go through the row-wise
            // path and still match.
            Expr::Not(Box::new(Expr::col("dept").eq(Expr::lit("even")))),
            Expr::col("dept").is_null(),
            Expr::col("score").is_not_null(),
            Expr::lit(1i64).lt(Expr::col("id")),
        ];
        for expr in exprs {
            let bound = expr.bind(&schema).unwrap();
            let mask = eval_predicate_mask(&bound, &batch).unwrap();
            for i in 0..batch.num_rows() {
                let expect = bound.eval_predicate(&batch.row_at(i)).unwrap();
                assert_eq!(mask.get(i), expect, "{expr:?} row {i}");
            }
        }
    }

    #[test]
    fn partitions_count_rows_and_bytes_like_their_rows_and_gather_in_order() {
        let rows = sample_rows();
        let batches = rows_to_batches(&dtypes(), &rows, 4);
        assert_eq!(batches.len(), 3); // 4 + 4 + 2
        assert_eq!(batches[2].num_rows(), 2);
        assert_eq!(batches_num_rows(&batches), 10);
        assert_eq!(
            batches_byte_size(&batches),
            crate::row::rows_byte_size(&rows)
        );
        let (head, tail) = batches.split_at(1);
        let parts = vec![head.to_vec(), Vec::new(), tail.to_vec()];
        assert_eq!(
            partitions_byte_size(&parts),
            crate::row::rows_byte_size(&rows)
        );
        assert_eq!(gather_rows(parts), rows);
    }

    #[test]
    fn a_builder_hands_its_sink_full_batches_then_the_rest_and_stops_on_error() {
        let rows = sample_rows();
        let mut seen = Vec::new();
        let mut builder = BatchBuilder::new(dtypes(), 4);
        for row in &rows {
            builder
                .push_row_to(row, &mut |b| {
                    seen.push(b.num_rows());
                    Ok(())
                })
                .unwrap();
        }
        assert_eq!(seen, vec![4, 4]);
        builder
            .finish_to(&mut |b| {
                seen.push(b.num_rows());
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, vec![4, 4, 2]);

        let mut builder = BatchBuilder::new(dtypes(), 1);
        let refused = builder.push_row_to(&rows[0], &mut |_| {
            Err(crate::error::EngineError::Execution("sink full".into()))
        });
        assert!(refused.unwrap_err().to_string().contains("sink full"));
    }

    #[test]
    fn group_hash_matches_value_group_hash() {
        use std::hash::Hasher;
        let batch = ColumnarBatch::from_rows(&dtypes(), &sample_rows());
        for c in 0..batch.num_columns() {
            let col = batch.column(c);
            for i in 0..col.len() {
                let mut h1 = std::collections::hash_map::DefaultHasher::new();
                col.group_hash_into(i, &mut h1);
                let mut h2 = std::collections::hash_map::DefaultHasher::new();
                col.value(i).group_hash(&mut h2);
                assert_eq!(h1.finish(), h2.finish(), "col {c} row {i}");
            }
        }
    }
}
