//! An in-memory table provider — the engine's native source, standing in
//! for Hive/Parquet tables in the experiments. Rows go to the partitions
//! round-robin and are held once, as typed columns (Shark's columnar memory
//! store). Consecutive partitions whose rows fit one batch between them
//! form a run, which scans as one task, as Spark packs small files into one
//! split, and is the storage unit: full-width batches of
//! [`DEFAULT_BATCH_ROWS`] rows, shared with the scans that saw them. A scan
//! emits what building its kept rows into `batch_size` batches would. A
//! table may declare a unique key, which it then enforces.

use crate::columnar::{eval_predicate_mask, BatchBuilder, ColumnarBatch, DEFAULT_BATCH_ROWS};
use crate::datasource::{ScanPartition, TableProvider};
use crate::error::{EngineError, Result};
use crate::expr::{BoundExpr, Expr};
use crate::row::Row;
use crate::schema::{Schema, SchemaRef};
use crate::source_filter::SourceFilter;
use crate::value::{DataType, Value};
use parking_lot::RwLock;
use std::ops::Range;
use std::sync::Arc;

/// A run of consecutive table partitions: the rows of `parts`, partition
/// by partition, as batches of [`DEFAULT_BATCH_ROWS`] rows.
struct Run {
    parts: Range<usize>,
    batches: Vec<ColumnarBatch>,
}

/// What a table holds: the row count of each partition and the runs that
/// store them, shared with the scans that saw them.
struct Stored {
    lens: Vec<usize>,
    runs: Vec<Arc<Run>>,
}

impl Stored {
    /// The run of partitions `parts`: each one's stored rows, then the rows
    /// `added` to it.
    fn build(&self, parts: Range<usize>, added: &[Vec<&Row>], dtypes: &[DataType]) -> Run {
        let mut builder = BatchBuilder::new(dtypes.to_vec(), DEFAULT_BATCH_ROWS);
        for part in parts.clone() {
            for run in self.runs.iter().filter(|run| run.parts.contains(&part)) {
                let start: usize = self.lens[run.parts.start..part].iter().sum();
                for k in start..start + self.lens[part] {
                    builder.push_from(&run.batches[k / DEFAULT_BATCH_ROWS], k % DEFAULT_BATCH_ROWS);
                }
            }
            added[part].iter().for_each(|row| builder.push_row(row));
        }
        let batches = builder.finish();
        Run { parts, batches }
    }
}

/// The runs partitions of `lens` rows pack into: a run grows while its
/// rows fit one default-sized batch (a larger partition is a run of its
/// own).
fn pack(lens: &[usize]) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for (part, &len) in lens.iter().enumerate() {
        match runs.last_mut() {
            Some(run) if lens[run.clone()].iter().sum::<usize>() + len <= DEFAULT_BATCH_ROWS => {
                run.end = part + 1
            }
            _ => runs.push(part..part + 1),
        }
    }
    runs
}

/// An in-memory, partitioned table.
pub struct MemTable {
    schema: SchemaRef,
    /// The declared unique key, by position in `schema`: no two rows share
    /// a non-NULL value of it, checked when it is declared and on every
    /// insert.
    unique_key: Option<usize>,
    stored: RwLock<Stored>,
}

impl MemTable {
    pub fn new(schema: Schema, num_partitions: usize) -> Self {
        // Partitions without rows pack into one run.
        let parts = 0..num_partitions.max(1);
        let lens = vec![0; parts.len()];
        let runs = vec![Arc::new(Run {
            parts,
            batches: Vec::new(),
        })];
        MemTable {
            schema: Arc::new(schema),
            unique_key: None,
            stored: RwLock::new(Stored { lens, runs }),
        }
    }

    /// A table holding `rows`, which it columnarizes and drops.
    pub fn with_rows(schema: Schema, rows: Vec<Row>, num_partitions: usize) -> Self {
        let table = MemTable::new(schema, num_partitions);
        table.insert(&rows).expect("insert into fresh memtable");
        table
    }

    /// Declare `column` the table's unique key (see
    /// [`TableProvider::unique_key`]). Fails if the column does not exist or
    /// two rows already share a value of it; from then on an insert that
    /// would is refused whole.
    pub fn with_unique_key(mut self, column: &str) -> Result<Self> {
        let key = self.schema.resolve(None, column)?;
        check_unique(&self.schema, key, &self.stored.read(), &[])?;
        self.unique_key = Some(key);
        Ok(self)
    }

    pub fn row_count(&self) -> usize {
        self.stored.read().lens.iter().sum()
    }
}

/// Refuse `added` if a non-NULL value of column `key` would then occur twice
/// among the `stored` rows and `added`.
fn check_unique(schema: &Schema, key: usize, stored: &Stored, added: &[Row]) -> Result<()> {
    let columns = stored
        .runs
        .iter()
        .flat_map(|run| &run.batches)
        .map(|b| b.column(key));
    let mut values: Vec<Value> = columns
        .flat_map(|col| (0..col.len()).map(|i| col.value(i)))
        .chain(added.iter().map(|row| row.get(key).clone()))
        .filter(|v| !v.is_null())
        .collect();
    values.sort_by(|a, b| a.sort_cmp(b));
    match values.windows(2).find(|pair| pair[0].group_eq(&pair[1])) {
        Some(pair) => Err(EngineError::Execution(format!(
            "duplicate value {} of unique key {}",
            pair[0],
            schema.field(key).name
        ))),
        None => Ok(()),
    }
}

/// One scan task: a run as the scan saw it.
struct MemPartition {
    run: Arc<Run>,
    projection: Option<Arc<[usize]>>,
    /// The scan's filters as one predicate bound to the table's schema;
    /// `None` keeps every row.
    filter: Option<Arc<BoundExpr>>,
}

impl ScanPartition for MemPartition {
    /// A stored batch every row of which the filter keeps goes out as it is
    /// (projected) when it is a whole output batch by itself; other rows are
    /// copied, the kept ones only, into batches cut at `batch_size`.
    fn execute(
        &self,
        _running_on: &str,
        batch_size: usize,
        on_batch: &mut dyn FnMut(ColumnarBatch) -> Result<()>,
    ) -> Result<()> {
        let project = |batch: &ColumnarBatch| match &self.projection {
            Some(indices) => batch.project(indices),
            None => batch.clone(),
        };
        let Some(first) = self.run.batches.first() else {
            return Ok(());
        };
        let mut builder = BatchBuilder::new(project(first).dtypes(), batch_size);
        let last = self.run.batches.len() - 1;
        for (b, batch) in self.run.batches.iter().enumerate() {
            let mask = (self.filter.as_deref())
                .map(|filter| eval_predicate_mask(filter, batch))
                .transpose()?;
            let rows = batch.num_rows();
            let whole = rows == batch_size || (b == last && rows < batch_size);
            if builder.is_empty() && whole && mask.as_ref().is_none_or(|m| m.all_set()) {
                on_batch(project(batch))?;
                continue;
            }
            let kept = mask.map_or_else(|| (0..rows as u32).collect(), |mask| mask.indices());
            let batch = project(batch);
            kept.iter()
                .for_each(|&i| builder.push_from(&batch, i as usize));
            builder
                .drain_completed()
                .into_iter()
                .try_for_each(&mut *on_batch)?;
        }
        builder.finish_to(on_batch)
    }

    fn describe(&self) -> String {
        let rows: usize = self.run.batches.iter().map(ColumnarBatch::num_rows).sum();
        format!("mem[{rows} rows]")
    }
}

impl TableProvider for MemTable {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// MemTable applies every filter it is handed.
    fn unhandled_filters(&self, _filters: &[SourceFilter]) -> Vec<SourceFilter> {
        Vec::new()
    }

    fn unique_key(&self) -> Option<String> {
        self.unique_key
            .map(|key| self.schema.field(key).name.clone())
    }

    /// One scan partition per run.
    fn scan(
        &self,
        projection: Option<&[usize]>,
        filters: &[SourceFilter],
    ) -> Result<Vec<Arc<dyn ScanPartition>>> {
        let projection: Option<Arc<[usize]>> = projection.map(Arc::from);
        let filter = (filters.iter().map(|f| f.to_expr(&self.schema)))
            .reduce(Expr::and)
            .map(|expr| expr.bind(&self.schema).map(Arc::new))
            .transpose()?;
        Ok(self
            .stored
            .read()
            .runs
            .iter()
            .map(|run| {
                Arc::new(MemPartition {
                    run: Arc::clone(run),
                    projection: projection.clone(),
                    filter: filter.clone(),
                }) as Arc<dyn ScanPartition>
            })
            .collect())
    }

    /// Rows go to the partitions round-robin, starting from the current
    /// total. Each run whose partitions receive rows, or that packs
    /// differently now, is rebuilt from its partitions' stored rows followed
    /// by their new ones; the others are kept as they are. An insert of at
    /// least as many rows as there are partitions thus copies the whole
    /// table: load a table in one insert, not in a loop of small ones.
    fn insert(&self, rows: &[Row]) -> Result<u64> {
        let mut stored = self.stored.write();
        if let Some(key) = self.unique_key {
            check_unique(&self.schema, key, &stored, rows)?;
        }
        let n = stored.lens.len();
        let offset: usize = stored.lens.iter().sum();
        let mut added: Vec<Vec<&Row>> = vec![Vec::new(); n];
        for (i, row) in rows.iter().enumerate() {
            added[(offset + i) % n].push(row);
        }
        let lens: Vec<usize> = stored
            .lens
            .iter()
            .zip(&added)
            .map(|(len, new)| len + new.len())
            .collect();
        let dtypes = self.schema.data_types();
        let runs = pack(&lens)
            .into_iter()
            .map(
                |parts| match stored.runs.iter().find(|run| run.parts == parts) {
                    Some(run) if added[parts.clone()].iter().all(Vec::is_empty) => Arc::clone(run),
                    _ => Arc::new(stored.build(parts, &added, &dtypes)),
                },
            )
            .collect();
        *stored = Stored { lens, runs };
        Ok(rows.iter().map(|row| row.byte_size() as u64).sum())
    }

    fn name(&self) -> String {
        "memory".to_string()
    }
}

/// A [`MemTable`] that declares it prunes partitions on one of its columns
/// and remembers every filter list `scan` was offered: the stand-in for a
/// row-key-partitioned source in the engine's own tests.
#[cfg(test)]
pub(crate) struct KeyedTable {
    pub table: MemTable,
    pub key: &'static str,
    pub offered: parking_lot::Mutex<Vec<Vec<SourceFilter>>>,
}

#[cfg(test)]
impl KeyedTable {
    pub fn new(table: MemTable, key: &'static str) -> Arc<KeyedTable> {
        Arc::new(KeyedTable {
            table,
            key,
            offered: parking_lot::Mutex::new(Vec::new()),
        })
    }
}

#[cfg(test)]
impl TableProvider for KeyedTable {
    fn schema(&self) -> SchemaRef {
        self.table.schema()
    }

    fn unhandled_filters(&self, filters: &[SourceFilter]) -> Vec<SourceFilter> {
        self.table.unhandled_filters(filters)
    }

    fn prunes_partitions_on(&self, column: &str) -> bool {
        column == self.key
    }

    fn scan(
        &self,
        projection: Option<&[usize]>,
        filters: &[SourceFilter],
    ) -> Result<Vec<Arc<dyn ScanPartition>>> {
        self.offered.lock().push(filters.to_vec());
        self.table.scan(projection, filters)
    }

    fn name(&self) -> String {
        format!("keyed:{}", self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn table() -> MemTable {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]);
        let rows: Vec<Row> = (0..10)
            .map(|i| Row::new(vec![Value::Int64(i), Value::Utf8(format!("name{i}"))]))
            .collect();
        MemTable::with_rows(schema, rows, 3)
    }

    fn collect(parts: Vec<Arc<dyn ScanPartition>>) -> Vec<Row> {
        parts
            .into_iter()
            .flat_map(|p| crate::datasource::partition_rows(&*p, "host").unwrap())
            .collect()
    }

    #[test]
    fn small_partitions_scan_as_one_task() {
        let t = table();
        let parts = t.scan(None, &[]).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].describe(), "mem[10 rows]");
        assert_eq!(collect(parts).len(), 10);
        assert_eq!(t.row_count(), 10);
    }

    #[test]
    fn partitions_pack_while_their_rows_fit_one_batch() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int64)]);
        let rows: Vec<Row> = (0..2100).map(|i| Row::new(vec![Value::Int64(i)])).collect();
        // Five partitions of 420 rows: two fit a 1024-row batch, three do not.
        let t = MemTable::with_rows(schema, rows, 5);
        let parts = t.scan(None, &[]).unwrap();
        let sizes: Vec<String> = parts.iter().map(|p| p.describe()).collect();
        assert_eq!(sizes, ["mem[840 rows]", "mem[840 rows]", "mem[420 rows]"]);
        let mut ids: Vec<i64> = collect(t.scan(None, &[]).unwrap())
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..2100).collect::<Vec<_>>());
    }

    #[test]
    fn a_declared_key_is_checked_at_declaration_and_on_insert() {
        let row = |id: i64| Row::new(vec![Value::Int64(id), Value::Utf8(format!("name{id}"))]);
        let t = table().with_unique_key("id").unwrap();
        assert_eq!(t.unique_key().as_deref(), Some("id"));
        assert_eq!(table().unique_key(), None);

        // A duplicate within the batch or against a stored row refuses the
        // whole insert; NULLs never collide.
        let err = t.insert(&[row(10), row(3)]).unwrap_err();
        assert!(
            err.to_string()
                .contains("duplicate value 3 of unique key id"),
            "{err}"
        );
        assert!(t.insert(&[row(11), row(11)]).is_err());
        assert_eq!(t.row_count(), 10);
        let null = Row::new(vec![Value::Null, Value::Utf8("none".into())]);
        t.insert(&[row(10), null.clone(), null]).unwrap();
        assert_eq!(t.row_count(), 13);

        // Declaring a key the rows already break, or no column at all, fails.
        let mut rows: Vec<Row> = (0..4).map(row).collect();
        rows.push(row(2));
        let schema = Schema::clone(&table().schema());
        let err = |table: MemTable, key: &str| table.with_unique_key(key).err().unwrap();
        let dup = MemTable::with_rows(schema.clone(), rows, 2);
        assert!(err(dup, "id").to_string().contains("duplicate value 2"));
        assert!(err(MemTable::new(schema, 1), "nope")
            .to_string()
            .contains("nope"));
    }

    #[test]
    fn projection_pushdown_narrows_rows() {
        let t = table();
        let rows = collect(t.scan(Some(&[1]), &[]).unwrap());
        assert!(rows.iter().all(|r| r.len() == 1));
        assert!(matches!(rows[0].get(0), Value::Utf8(_)));
    }

    #[test]
    fn filter_pushdown_applies() {
        let t = table();
        let rows = collect(
            t.scan(None, &[SourceFilter::Gt("id".into(), Value::Int64(6))])
                .unwrap(),
        );
        assert_eq!(rows.len(), 3);
        assert!(t.unhandled_filters(&[]).is_empty());
    }

    #[test]
    fn compound_filters() {
        let t = table();
        let f = SourceFilter::Or(
            Box::new(SourceFilter::Eq("id".into(), Value::Int64(1))),
            Box::new(SourceFilter::StringStartsWith(
                "name".into(),
                "name9".into(),
            )),
        );
        let rows = collect(t.scan(None, &[f]).unwrap());
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn not_in_excludes() {
        let t = table();
        let f = SourceFilter::NotIn(
            "id".into(),
            vec![Value::Int64(0), Value::Int64(1), Value::Int64(2)],
        );
        let rows = collect(t.scan(None, &[f]).unwrap());
        assert_eq!(rows.len(), 7);
    }

    #[test]
    fn a_null_cell_passes_is_null_and_no_other_test() {
        // A NULL cell's storage holds a placeholder (0, 0.0, a code no
        // string has), which no test may read as a value.
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]);
        let zero = Row::new(vec![
            Value::Int64(0),
            Value::Float64(0.0),
            Value::Utf8(String::new()),
        ]);
        let t = MemTable::with_rows(schema, vec![Row::new(vec![Value::Null; 3]), zero], 1);
        let kept = |f: SourceFilter| collect(t.scan(None, &[f]).unwrap()).len();
        let (x, f, s) = (|| "x".to_string(), || "f".to_string(), || "s".to_string());
        for filter in [
            SourceFilter::In(x(), vec![Value::Int64(0)]),
            SourceFilter::In(x(), vec![Value::Float64(0.0)]),
            SourceFilter::NotIn(x(), vec![Value::Int64(1)]),
            SourceFilter::Eq(x(), Value::Int64(0)),
            SourceFilter::LtEq(f(), Value::Int64(0)),
            SourceFilter::In(f(), vec![Value::Int64(0)]),
            SourceFilter::StringStartsWith(s(), String::new()),
            SourceFilter::In(s(), vec![Value::Utf8(String::new())]),
            SourceFilter::NotIn(s(), vec![Value::Utf8("a".into())]),
            SourceFilter::IsNull(x()),
            SourceFilter::IsNotNull(s()),
        ] {
            assert_eq!(kept(filter.clone()), 1, "{filter:?}");
        }
    }

    #[test]
    fn a_scan_keeps_the_rows_it_saw_across_an_insert() {
        let t = table();
        let before = t.scan(None, &[]).unwrap();
        t.insert(&[Row::new(vec![Value::Int64(100), Value::Utf8("new".into())])])
            .unwrap();
        let after = t.scan(None, &[]).unwrap();
        let ids = |parts| -> Vec<Value> {
            let mut ids: Vec<Value> = collect(parts).iter().map(|r| r.get(0).clone()).collect();
            ids.sort_by(|a, b| a.sql_cmp(b).unwrap());
            ids
        };
        let old: Vec<Value> = (0..10).map(Value::Int64).collect();
        assert_eq!(ids(before), old);
        assert_eq!(ids(after), [old, vec![Value::Int64(100)]].concat());
    }

    #[test]
    fn insert_appends_round_robin() {
        let t = table();
        let added = t
            .insert(&[Row::new(vec![Value::Int64(100), Value::Utf8("new".into())])])
            .unwrap();
        assert!(added > 0);
        assert_eq!(t.row_count(), 11);
    }

    // ------------------------------------------------------------------
    // Seeded random scans against the rows they were built from.
    // ------------------------------------------------------------------

    use crate::columnar::rows_to_batches;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    /// The filter read row by row against the full schema: what every scan
    /// must keep.
    fn reference_matches(filter: &SourceFilter, row: &Row, schema: &Schema) -> bool {
        let col = |name: &str| schema.resolve(None, name).ok().map(|i| row.get(i).clone());
        let cmp = |c: &str, v: &Value, ok: fn(Ordering) -> bool| {
            col(c).is_some_and(|x| x.sql_cmp(v).is_some_and(ok))
        };
        let eq = |x: &Value, v: &Value| x.sql_cmp(v) == Some(Ordering::Equal);
        match filter {
            SourceFilter::Eq(c, v) => cmp(c, v, Ordering::is_eq),
            SourceFilter::Gt(c, v) => cmp(c, v, Ordering::is_gt),
            SourceFilter::GtEq(c, v) => cmp(c, v, Ordering::is_ge),
            SourceFilter::Lt(c, v) => cmp(c, v, Ordering::is_lt),
            SourceFilter::LtEq(c, v) => cmp(c, v, Ordering::is_le),
            SourceFilter::In(c, vs) => col(c).is_some_and(|x| vs.iter().any(|v| eq(&x, v))),
            SourceFilter::NotIn(c, vs) => {
                col(c).is_some_and(|x| !x.is_null() && !vs.iter().any(|v| eq(&x, v)))
            }
            SourceFilter::StringStartsWith(c, p) => {
                col(c).is_some_and(|x| x.as_str().is_some_and(|s| s.starts_with(p.as_str())))
            }
            SourceFilter::IsNull(c) => col(c).is_some_and(|x| x.is_null()),
            SourceFilter::IsNotNull(c) => col(c).is_some_and(|x| !x.is_null()),
            SourceFilter::And(a, b) => {
                reference_matches(a, row, schema) && reference_matches(b, row, schema)
            }
            SourceFilter::Or(a, b) => {
                reference_matches(a, row, schema) || reference_matches(b, row, schema)
            }
        }
    }

    const COLUMNS: [&str; 5] = ["id", "qty", "name", "price", "mixed"];

    fn wide_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("qty", DataType::Int32),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
            // Mostly strings, now and then an integer: a column some of
            // whose batches are stored as boxed values.
            Field::new("mixed", DataType::Utf8),
        ])
    }

    fn random_row(rng: &mut StdRng, id: i64) -> Row {
        let mut maybe = |v: Value| {
            if rng.gen_range(0u32..6) == 0 {
                Value::Null
            } else {
                v
            }
        };
        let qty = maybe(Value::Int32((id % 17) as i32 - 3));
        let name = maybe(Value::Utf8(format!("n{}", id % 7)));
        let price = maybe(Value::Float64((id % 11) as f64 / 2.0));
        let mixed = if id % 97 == 5 {
            Value::Int64(id)
        } else {
            maybe(Value::Utf8(format!("m{}", id % 3)))
        };
        Row::new(vec![Value::Int64(id), qty, name, price, mixed])
    }

    fn random_literal(rng: &mut StdRng) -> Value {
        match rng.gen_range(0u32..6) {
            0 => Value::Int64(rng.gen_range(-4i64..20)),
            1 => Value::Int32(rng.gen_range(-4i32..20)),
            2 => Value::Float64(rng.gen_range(-4i32..20) as f64 / 2.0),
            3 => Value::Utf8(format!("n{}", rng.gen_range(0u32..8))),
            4 => Value::Utf8(format!("m{}", rng.gen_range(0u32..4))),
            _ => Value::Boolean(rng.gen_range(0u32..2) == 1),
        }
    }

    fn random_filter(rng: &mut StdRng, depth: u32) -> SourceFilter {
        // Now and then a column the table does not have: no row passes.
        let c = if rng.gen_range(0u32..20) == 0 {
            "nope".to_string()
        } else {
            COLUMNS[rng.gen_range(0..COLUMNS.len())].to_string()
        };
        // Half the lists hold integers only.
        let list = |rng: &mut StdRng| {
            let ints = rng.gen_range(0u32..2) == 0;
            (0..rng.gen_range(0u32..5))
                .map(|_| match ints {
                    true => Value::Int64(rng.gen_range(-4i64..14)),
                    false => random_literal(rng),
                })
                .collect()
        };
        let sub = |rng: &mut StdRng| Box::new(random_filter(rng, depth + 1));
        match rng.gen_range(0u32..if depth < 2 { 12 } else { 10 }) {
            0 => SourceFilter::Eq(c, random_literal(rng)),
            1 => SourceFilter::Gt(c, random_literal(rng)),
            2 => SourceFilter::GtEq(c, random_literal(rng)),
            3 => SourceFilter::Lt(c, random_literal(rng)),
            4 => SourceFilter::LtEq(c, random_literal(rng)),
            5 => SourceFilter::In(c, list(rng)),
            6 => SourceFilter::NotIn(c, list(rng)),
            7 => SourceFilter::StringStartsWith(
                c,
                ["n", "m1", "n3", ""][rng.gen_range(0usize..4)].to_string(),
            ),
            8 => SourceFilter::IsNull(c),
            9 => SourceFilter::IsNotNull(c),
            10 => SourceFilter::And(sub(rng), sub(rng)),
            _ => SourceFilter::Or(sub(rng), sub(rng)),
        }
    }

    /// The runs `lens` packs into, as the module doc states the rule.
    fn expected_runs(lens: &[usize]) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        let mut start = 0;
        while start < lens.len() {
            let mut end = start + 1;
            while end < lens.len() && lens[start..=end].iter().sum::<usize>() <= DEFAULT_BATCH_ROWS
            {
                end += 1;
            }
            runs.push(start..end);
            start = end;
        }
        runs
    }

    /// Each scan partition's batches equal the reference rows of its run,
    /// filtered and projected, cut by `rows_to_batches`: same rows, same
    /// boundaries, same byte sizes.
    fn check_scan(
        parts: &[Arc<dyn ScanPartition>],
        reference: &[Vec<Row>],
        schema: &Schema,
        projection: Option<&[usize]>,
        filters: &[SourceFilter],
        batch_size: usize,
    ) {
        let lens: Vec<usize> = reference.iter().map(Vec::len).collect();
        let runs = expected_runs(&lens);
        assert_eq!(parts.len(), runs.len(), "runs of {lens:?}");
        let out_schema = match projection {
            Some(p) => schema.project(p),
            None => schema.clone(),
        };
        for (part, run) in parts.iter().zip(runs) {
            let kept: Vec<Row> = reference[run]
                .iter()
                .flatten()
                .filter(|row| filters.iter().all(|f| reference_matches(f, row, schema)))
                .map(|row| match projection {
                    Some(p) => row.project(p),
                    None => row.clone(),
                })
                .collect();
            let expected = rows_to_batches(&out_schema.data_types(), &kept, batch_size);
            let mut got = Vec::new();
            part.execute("host", batch_size, &mut |b| {
                got.push(b);
                Ok(())
            })
            .unwrap();
            let shape = |batches: &[ColumnarBatch]| -> Vec<(usize, usize, String)> {
                batches
                    .iter()
                    .map(|b| (b.num_rows(), b.byte_size(), format!("{:?}", b.to_rows())))
                    .collect()
            };
            assert_eq!(
                shape(&got),
                shape(&expected),
                "{filters:?} {projection:?} batch {batch_size}"
            );
        }
    }

    #[test]
    fn scans_equal_rows_to_batches_over_the_reference_rows() {
        let schema = wide_schema();
        let mut rng = StdRng::seed_from_u64(44);
        for case in 0..64 {
            let n = rng.gen_range(1usize..=6);
            // Small tables pack several partitions into a run, large ones
            // store each partition as a run of several batches.
            let total = if case % 3 == 0 {
                rng.gen_range(1100i64..2600)
            } else {
                rng.gen_range(0i64..900)
            };
            let first: Vec<Row> = (0..total).map(|id| random_row(&mut rng, id)).collect();
            let table = MemTable::new(schema.clone(), n);
            let mut reference: Vec<Vec<Row>> = vec![Vec::new(); n];
            let insert = |table: &MemTable, reference: &mut Vec<Vec<Row>>, rows: &[Row]| {
                let offset: usize = reference.iter().map(Vec::len).sum();
                for (i, row) in rows.iter().enumerate() {
                    reference[(offset + i) % n].push(row.clone());
                }
                table.insert(rows).unwrap();
            };
            insert(&table, &mut reference, &first);

            let projection: Option<Vec<usize>> = match rng.gen_range(0u32..4) {
                0 => None,
                1 => Some(Vec::new()),
                _ => Some(
                    (0..rng.gen_range(1u32..4))
                        .map(|_| rng.gen_range(0usize..5))
                        .collect(),
                ),
            };
            let filters: Vec<SourceFilter> = (0..rng.gen_range(0u32..3))
                .map(|_| random_filter(&mut rng, 0))
                .collect();
            let batch_size = [1, 7, DEFAULT_BATCH_ROWS, 2048][rng.gen_range(0usize..4)];
            let held = table.scan(projection.as_deref(), &filters).unwrap();
            let before = reference.clone();

            // Rows inserted while a scan is held change later scans only.
            let more: Vec<Row> = (total..total + rng.gen_range(0i64..300))
                .map(|id| random_row(&mut rng, id))
                .collect();
            insert(&table, &mut reference, &more);
            let after = table.scan(projection.as_deref(), &filters).unwrap();
            for batch_size in [batch_size, DEFAULT_BATCH_ROWS] {
                check_scan(
                    &held,
                    &before,
                    &schema,
                    projection.as_deref(),
                    &filters,
                    batch_size,
                );
                check_scan(
                    &after,
                    &reference,
                    &schema,
                    projection.as_deref(),
                    &filters,
                    batch_size,
                );
            }
            assert_eq!(table.row_count(), total as usize + more.len());
        }
    }
}
