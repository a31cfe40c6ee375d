//! Virtual "system" tables: live, read-only tables whose rows are computed
//! by a closure at scan time. The engine knows nothing about what backs
//! them — the kvstore adapter (or anything else) hands over a schema and a
//! row producer, and the table becomes queryable SQL like any other
//! (`SELECT server, SUM(read_requests) FROM system.regions GROUP BY
//! server`), including under EXPLAIN.
//!
//! Providers report `supports_projection() == false` and leave every filter
//! unhandled: the tables are tiny, so the engine's own projection/filter
//! operators do the work and the row producer stays a plain closure.
//!
//! One refinement for tables that *derive* many rows from a large backing
//! store (`system.metrics_history` dumps every retained sample of every
//! series): [`SystemTable::new_filtered`] hands the pushed-down
//! [`SourceFilter`]s to the row producer as a **materialization hint**.
//! Because the provider still reports every filter unhandled, the engine
//! re-applies the predicates over whatever comes back — the closure may
//! use the hints to skip building rows it can prove won't survive, and may
//! just as correctly ignore them.

use crate::columnar::{BatchBuilder, ColumnarBatch};
use crate::datasource::{ScanPartition, TableProvider};
use crate::error::Result;
use crate::row::Row;
use crate::schema::{Schema, SchemaRef};
use crate::session::Session;
use crate::source_filter::SourceFilter;
use crate::value::DataType;
use std::sync::Arc;

/// The row producer: called once per scan with the scan's pushed-down
/// filters (a pruning hint — the engine re-applies every predicate).
pub type RowsFn = Arc<dyn Fn(&[SourceFilter]) -> Vec<Row> + Send + Sync>;

/// A live virtual table backed by a row-producing closure.
pub struct SystemTable {
    name: String,
    schema: SchemaRef,
    rows: RowsFn,
}

impl SystemTable {
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        rows: impl Fn() -> Vec<Row> + Send + Sync + 'static,
    ) -> Self {
        SystemTable {
            name: name.into(),
            schema: Arc::new(schema),
            rows: Arc::new(move |_filters| rows()),
        }
    }

    /// A table whose row producer sees the scan's pushed-down filters and
    /// may use them to avoid materializing rows that cannot match. The
    /// filters remain unhandled from the engine's point of view, so acting
    /// on them is purely an optimization — correctness never depends on it.
    pub fn new_filtered(
        name: impl Into<String>,
        schema: Schema,
        rows: impl Fn(&[SourceFilter]) -> Vec<Row> + Send + Sync + 'static,
    ) -> Self {
        SystemTable {
            name: name.into(),
            schema: Arc::new(schema),
            rows: Arc::new(rows),
        }
    }

    pub fn table_name(&self) -> &str {
        &self.name
    }
}

struct SystemPartition {
    rows: Vec<Row>,
    dtypes: Vec<DataType>,
}

impl ScanPartition for SystemPartition {
    fn execute(
        &self,
        _running_on: &str,
        batch_size: usize,
        on_batch: &mut dyn FnMut(ColumnarBatch) -> Result<()>,
    ) -> Result<()> {
        let mut builder = BatchBuilder::new(self.dtypes.clone(), batch_size);
        for row in &self.rows {
            builder.push_row_to(row, on_batch)?;
        }
        builder.finish_to(on_batch)
    }

    fn describe(&self) -> String {
        format!("system({} rows)", self.rows.len())
    }
}

impl TableProvider for SystemTable {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn supports_projection(&self) -> bool {
        false
    }

    fn scan(
        &self,
        _projection: Option<&[usize]>,
        filters: &[SourceFilter],
    ) -> Result<Vec<Arc<dyn ScanPartition>>> {
        // Snapshot at scan time: one partition, rows frozen here so every
        // partition of one query sees a consistent view. Filters pass
        // through as a pruning hint only — they all stay unhandled.
        Ok(vec![Arc::new(SystemPartition {
            rows: (self.rows)(filters),
            dtypes: self.schema.data_types(),
        })])
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

/// A batch of [`SystemTable`]s destined for one session — collect with
/// [`with_table`](Self::with_table), then [`register`](Self::register)
/// them all under their dotted names.
#[derive(Default)]
pub struct SystemCatalog {
    tables: Vec<SystemTable>,
}

impl SystemCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_table(mut self, table: SystemTable) -> Self {
        self.tables.push(table);
        self
    }

    /// Registered table names, in insertion order.
    pub fn names(&self) -> Vec<String> {
        self.tables.iter().map(|t| t.name.clone()).collect()
    }

    pub fn register(self, session: &Session) {
        for table in self.tables {
            let name = table.name.clone();
            session.register_table(name, Arc::new(table));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasource::partition_rows;
    use crate::schema::Field;
    use crate::value::{DataType, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn counter_table(counter: Arc<AtomicU64>) -> SystemTable {
        SystemTable::new(
            "system.ticks",
            Schema::new(vec![Field::new("value", DataType::Int64)]),
            move || {
                vec![Row::new(vec![Value::Int64(
                    counter.load(Ordering::Relaxed) as i64,
                )])]
            },
        )
    }

    #[test]
    fn rows_are_computed_at_scan_time() {
        let counter = Arc::new(AtomicU64::new(0));
        let table = counter_table(Arc::clone(&counter));
        counter.store(7, Ordering::Relaxed);
        let parts = table.scan(None, &[]).unwrap();
        let rows = partition_rows(&*parts[0], "anywhere").unwrap();
        assert_eq!(rows[0].get(0), &Value::Int64(7));
        counter.store(9, Ordering::Relaxed);
        let rows = partition_rows(&*table.scan(None, &[]).unwrap()[0], "x").unwrap();
        assert_eq!(rows[0].get(0), &Value::Int64(9));
    }

    #[test]
    fn filtered_table_sees_pushed_predicates_and_engine_reapplies() {
        let session = Session::new_default();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::<SourceFilter>::new()));
        let seen_in_closure = Arc::clone(&seen);
        let table = SystemTable::new_filtered(
            "system.filtered",
            Schema::new(vec![Field::new("value", DataType::Int64)]),
            move |filters| {
                seen_in_closure.lock().extend(filters.iter().cloned());
                // Deliberately ignore the hint: the engine must still
                // enforce the predicate on the returned rows.
                (0..5).map(|i| Row::new(vec![Value::Int64(i)])).collect()
            },
        );
        SystemCatalog::new().with_table(table).register(&session);
        let rows = session
            .sql("SELECT value FROM system.filtered WHERE value = 3")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(rows.len(), 1, "engine re-applied the unhandled filter");
        assert_eq!(rows[0].get(0), &Value::Int64(3));
        assert!(
            seen.lock()
                .contains(&SourceFilter::Eq("value".into(), Value::Int64(3))),
            "closure received the pushed filter: {:?}",
            seen.lock()
        );
    }

    #[test]
    fn dotted_name_is_queryable_via_sql() {
        let session = Session::new_default();
        let counter = Arc::new(AtomicU64::new(42));
        SystemCatalog::new()
            .with_table(counter_table(counter))
            .register(&session);
        let rows = session
            .sql("SELECT value FROM system.ticks WHERE value > 10")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int64(42));
    }
}
