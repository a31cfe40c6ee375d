//! An in-memory table provider — the engine's native source, standing in
//! for Hive/Parquet tables in the experiments. Fully supports projection
//! and filter pushdown, and serves unfiltered scans from a cached columnar
//! representation (built lazily on the first such scan, invalidated by
//! writes). Consecutive partitions whose rows fit one batch between them
//! scan as one task, the way Spark packs small files into one split. A
//! table may declare a unique key, which it then enforces.

use crate::columnar::{BatchBuilder, ColumnarBatch, DEFAULT_BATCH_ROWS};
use crate::datasource::{ScanPartition, TableProvider};
use crate::error::{EngineError, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::source_filter::SourceFilter;
use crate::value::Value;
use parking_lot::RwLock;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Cached full-width columnar batches, keyed by (index of a scan
/// partition's first table partition, batch size). Entries are only valid
/// for the data version they were built against — writes bump the table
/// version, orphaning stale entries; within a version the packing of
/// partitions into scan partitions is fixed.
type ColumnarCache = HashMap<(usize, usize), (u64, Arc<Vec<ColumnarBatch>>)>;

/// An in-memory, partitioned table.
pub struct MemTable {
    schema: Schema,
    /// The declared unique key, by position in `schema`: no two rows share
    /// a non-NULL value of it, checked when it is declared and on every
    /// insert.
    unique_key: Option<usize>,
    /// Each partition's rows, shared with the scan partitions built from
    /// them: a write copies a partition only while a scan still holds it.
    partitions: RwLock<Vec<Arc<Vec<Row>>>>,
    /// Lazily built columnar form of each scan partition, shared with
    /// in-flight scan partitions (hence the inner `Arc`).
    columnar: Arc<RwLock<ColumnarCache>>,
    /// Data version, bumped by every write; guards the columnar cache.
    version: AtomicU64,
}

impl MemTable {
    pub fn new(schema: Schema, num_partitions: usize) -> Self {
        MemTable {
            schema,
            unique_key: None,
            partitions: RwLock::new((0..num_partitions.max(1)).map(|_| Arc::default()).collect()),
            columnar: Arc::new(RwLock::new(HashMap::new())),
            version: AtomicU64::new(0),
        }
    }

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
        check_unique(&self.schema, key, &self.partitions.read(), &[])?;
        self.unique_key = Some(key);
        Ok(self)
    }

    pub fn row_count(&self) -> usize {
        self.partitions.read().iter().map(|rows| rows.len()).sum()
    }
}

/// Refuse `added` if a non-NULL value of column `key` would then occur twice
/// among `partitions` and `added`.
fn check_unique(
    schema: &Schema,
    key: usize,
    partitions: &[Arc<Vec<Row>>],
    added: &[Row],
) -> Result<()> {
    let mut values: Vec<&Value> = partitions
        .iter()
        .flat_map(|rows| rows.iter())
        .chain(added)
        .map(|row| row.get(key))
        .filter(|v| !v.is_null())
        .collect();
    values.sort_by(|a, b| a.sort_cmp(b));
    match values.windows(2).find(|pair| pair[0].group_eq(pair[1])) {
        Some(pair) => Err(EngineError::Execution(format!(
            "duplicate value {} of unique key {}",
            pair[0],
            schema.field(key).name
        ))),
        None => Ok(()),
    }
}

/// Evaluate a source filter directly against a row of the full schema.
fn filter_matches(filter: &SourceFilter, row: &Row, schema: &Schema) -> bool {
    let col = |name: &str| -> Option<Value> {
        schema.resolve(None, name).ok().map(|i| row.get(i).clone())
    };
    match filter {
        SourceFilter::Eq(c, v) => col(c).is_some_and(|x| x.sql_cmp(v) == Some(Ordering::Equal)),
        SourceFilter::Gt(c, v) => col(c).is_some_and(|x| x.sql_cmp(v) == Some(Ordering::Greater)),
        SourceFilter::GtEq(c, v) => col(c)
            .is_some_and(|x| matches!(x.sql_cmp(v), Some(Ordering::Greater | Ordering::Equal))),
        SourceFilter::Lt(c, v) => col(c).is_some_and(|x| x.sql_cmp(v) == Some(Ordering::Less)),
        SourceFilter::LtEq(c, v) => {
            col(c).is_some_and(|x| matches!(x.sql_cmp(v), Some(Ordering::Less | Ordering::Equal)))
        }
        SourceFilter::In(c, vs) => {
            col(c).is_some_and(|x| vs.iter().any(|v| x.sql_cmp(v) == Some(Ordering::Equal)))
        }
        SourceFilter::NotIn(c, vs) => col(c).is_some_and(|x| {
            !x.is_null() && vs.iter().all(|v| x.sql_cmp(v) != Some(Ordering::Equal))
        }),
        SourceFilter::StringStartsWith(c, p) => col(c)
            .and_then(|x| x.as_str().map(|s| s.starts_with(p.as_str())))
            .unwrap_or(false),
        SourceFilter::IsNull(c) => col(c).is_some_and(|x| x.is_null()),
        SourceFilter::IsNotNull(c) => col(c).is_some_and(|x| !x.is_null()),
        SourceFilter::And(a, b) => filter_matches(a, row, schema) && filter_matches(b, row, schema),
        SourceFilter::Or(a, b) => filter_matches(a, row, schema) || filter_matches(b, row, schema),
    }
}

/// One scan task: a run of consecutive table partitions.
struct MemPartition {
    parts: Vec<Arc<Vec<Row>>>,
    schema: Schema,
    projection: Option<Vec<usize>>,
    filters: Vec<SourceFilter>,
    /// The owning table's columnar cache plus this snapshot's identity in
    /// it (index of its first table partition and data version at scan
    /// time).
    cache: Arc<RwLock<ColumnarCache>>,
    index: usize,
    version: u64,
}

impl MemPartition {
    fn rows(&self) -> impl Iterator<Item = &Row> {
        self.parts.iter().flat_map(|rows| rows.iter())
    }
}

impl ScanPartition for MemPartition {
    /// Unfiltered partitions are served from the table's columnar cache:
    /// cold scans columnarize this partition once (full width, so every
    /// projection shares the build), warm scans only clone column `Arc`s.
    /// Projection is applied per batch as a pointer copy. Source filters
    /// evaluate row-wise against the full schema, so a filtered scan
    /// batches the rows it keeps.
    fn execute(
        &self,
        _running_on: &str,
        batch_size: usize,
        on_batch: &mut dyn FnMut(ColumnarBatch) -> Result<()>,
    ) -> Result<()> {
        if !self.filters.is_empty() {
            let dtypes = match &self.projection {
                Some(indices) => self.schema.project(indices).data_types(),
                None => self.schema.data_types(),
            };
            let mut builder = BatchBuilder::new(dtypes, batch_size);
            for row in self.rows() {
                if self
                    .filters
                    .iter()
                    .all(|f| filter_matches(f, row, &self.schema))
                {
                    match &self.projection {
                        Some(indices) => builder.push_row_to(&row.project(indices), on_batch)?,
                        None => builder.push_row_to(row, on_batch)?,
                    }
                }
            }
            return builder.finish_to(on_batch);
        }
        let key = (self.index, batch_size);
        let cached = self
            .cache
            .read()
            .get(&key)
            .filter(|(version, _)| *version == self.version)
            .map(|(_, batches)| Arc::clone(batches));
        let batches = match cached {
            Some(batches) => batches,
            None => {
                let mut builder = BatchBuilder::new(self.schema.data_types(), batch_size);
                self.rows().for_each(|row| builder.push_row(row));
                let built = Arc::new(builder.finish());
                self.cache
                    .write()
                    .insert(key, (self.version, Arc::clone(&built)));
                built
            }
        };
        for batch in batches.iter() {
            on_batch(match &self.projection {
                Some(indices) => batch.project(indices),
                None => batch.clone(),
            })?;
        }
        Ok(())
    }

    fn describe(&self) -> String {
        format!("mem[{} rows]", self.rows().count())
    }
}

impl TableProvider for MemTable {
    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn estimated_row_count(&self) -> Option<u64> {
        Some(self.row_count() as u64)
    }

    /// MemTable applies every filter it is handed.
    fn unhandled_filters(&self, _filters: &[SourceFilter]) -> Vec<SourceFilter> {
        Vec::new()
    }

    fn unique_key(&self) -> Option<String> {
        self.unique_key
            .map(|key| self.schema.field(key).name.clone())
    }

    /// One scan partition per run of consecutive table partitions whose
    /// rows fit one default-sized batch between them (a larger partition
    /// is a run of its own).
    fn scan(
        &self,
        projection: Option<&[usize]>,
        filters: &[SourceFilter],
    ) -> Result<Vec<Arc<dyn ScanPartition>>> {
        let partitions = self.partitions.read();
        let version = self.version.load(AtomicOrdering::Acquire);
        let mut scan: Vec<Arc<dyn ScanPartition>> = Vec::new();
        let mut start = 0;
        while start < partitions.len() {
            let mut end = start + 1;
            let mut rows = partitions[start].len();
            while end < partitions.len() && rows + partitions[end].len() <= DEFAULT_BATCH_ROWS {
                rows += partitions[end].len();
                end += 1;
            }
            scan.push(Arc::new(MemPartition {
                parts: partitions[start..end].to_vec(),
                schema: self.schema.clone(),
                projection: projection.map(|p| p.to_vec()),
                filters: filters.to_vec(),
                cache: Arc::clone(&self.columnar),
                index: start,
                version,
            }));
            start = end;
        }
        Ok(scan)
    }

    fn insert(&self, rows: &[Row]) -> Result<u64> {
        let mut partitions = self.partitions.write();
        if let Some(key) = self.unique_key {
            check_unique(&self.schema, key, &partitions, rows)?;
        }
        // Orphan cached columnar batches built against the old contents.
        // The version bump happens under the partition write lock, so a
        // concurrent scan sees either (old rows, old version) or (new rows,
        // new version) — never a stale cache hit.
        self.version.fetch_add(1, AtomicOrdering::AcqRel);
        self.columnar.write().clear();
        let n = partitions.len();
        let mut bytes = 0u64;
        // Round-robin starting from the current total, for even spread.
        let offset = partitions.iter().map(|rows| rows.len()).sum::<usize>();
        let mut partitions: Vec<&mut Vec<Row>> = partitions.iter_mut().map(Arc::make_mut).collect();
        for (i, row) in rows.iter().enumerate() {
            bytes += row.byte_size() as u64;
            partitions[(offset + i) % n].push(row.clone());
        }
        Ok(bytes)
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
    fn schema(&self) -> Schema {
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
        // Cold (columnarized) and warm (cached) scans see the same rows.
        for _ in 0..2 {
            let mut ids: Vec<i64> = collect(t.scan(None, &[]).unwrap())
                .iter()
                .map(|r| r.get(0).as_i64().unwrap())
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..2100).collect::<Vec<_>>());
        }
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
        let schema = table().schema();
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
}
