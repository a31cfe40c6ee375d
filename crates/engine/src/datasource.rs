//! The data source API — the engine-side contract SHC plugs into.
//!
//! This mirrors Spark's `PrunedFilteredScan` + `unhandledFilters`
//! (SPARK-3247): the engine offers a projection and a set of translated
//! filters; the provider returns partitioned scan tasks (with preferred
//! hosts for locality) and declares which filters it did NOT fully apply so
//! the engine can re-apply exactly those.
//!
//! A scan task has one way to run: [`ScanPartition::execute`] streams the
//! partition as columnar batches. A provider that decodes rows feeds them
//! through a [`BatchBuilder`](crate::columnar::BatchBuilder)
//! (`push_row_to` / `finish_to`); callers that want rows back — tests,
//! examples — use [`partition_rows`].

use crate::columnar::{ColumnarBatch, DEFAULT_BATCH_ROWS};
use crate::error::Result;
use crate::row::Row;
use crate::schema::Schema;
use crate::source_filter::SourceFilter;
use std::sync::Arc;

/// One partition of a source scan: an independently executable unit with an
/// optional preferred host. SHC emits one of these per (pruned) HBase
/// region, fusing all Scans/Gets that target the same region server.
pub trait ScanPartition: Send + Sync {
    /// Host this partition would rather run on (region-server hostname).
    fn preferred_host(&self) -> Option<&str> {
        None
    }

    /// Execute the partition, handing its rows to `on_batch` as batches of
    /// at most `batch_size` rows, in the scan's column order, with every
    /// filter the provider claimed and the pushed projection already
    /// applied. `running_on` is the hostname of the executor actually
    /// running the task; providers use it for locality-aware I/O. Batches
    /// are cut at `batch_size`, not at the provider's read boundaries, and
    /// delivered as they fill, so a streaming provider holds one batch per
    /// partition; an error from `on_batch` ends the scan and is returned.
    fn execute(
        &self,
        running_on: &str,
        batch_size: usize,
        on_batch: &mut dyn FnMut(ColumnarBatch) -> Result<()>,
    ) -> Result<()>;

    /// Short description for plan explanations.
    fn describe(&self) -> String {
        "partition".to_string()
    }
}

/// Run one partition to completion and materialize its rows.
pub fn partition_rows(part: &dyn ScanPartition, running_on: &str) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    part.execute(running_on, DEFAULT_BATCH_ROWS, &mut |batch| {
        rows.extend(batch.to_rows());
        Ok(())
    })?;
    Ok(rows)
}

/// A table that can be scanned through the data source API.
pub trait TableProvider: Send + Sync {
    /// Full schema of the table.
    fn schema(&self) -> Schema;

    /// Can this provider honor column projection at the source? Providers
    /// that return `false` (the paper's "general data source" baseline)
    /// always produce full-width rows and the engine keeps the full schema
    /// on the scan node.
    fn supports_projection(&self) -> bool {
        true
    }

    /// Which of the pushed filters the provider will NOT fully apply.
    /// Default: all of them (the engine re-applies everything). This is
    /// Spark's `unhandledFilters` contract.
    fn unhandled_filters(&self, filters: &[SourceFilter]) -> Vec<SourceFilter> {
        filters.to_vec()
    }

    /// Does a filter on `column` (a name in `schema()`) let this provider
    /// skip whole partitions rather than read and drop rows? For such a
    /// column the executor may append to `scan`'s filters one
    /// [`SourceFilter::In`] holding the keys a join's other input produced.
    /// That filter is a hint like any other: the join still tests every
    /// row, and `unhandled_filters` is never asked about it.
    fn prunes_partitions_on(&self, _column: &str) -> bool {
        false
    }

    /// A column of `schema()` no two rows of a scan share a non-NULL value
    /// of, whatever the projection and filters: an equi-join on it matches
    /// each row of the other input at most once. The optimizer moves an
    /// aggregate below such a join (eager aggregation), so a provider only
    /// declares a key it guarantees. Default: none.
    fn unique_key(&self) -> Option<String> {
        None
    }

    /// Build scan partitions. `projection` holds indices into `schema()`
    /// (already ignored by providers that don't support projection).
    /// `filters` are best-effort hints: correctness never depends on the
    /// provider applying them.
    fn scan(
        &self,
        projection: Option<&[usize]>,
        filters: &[SourceFilter],
    ) -> Result<Vec<Arc<dyn ScanPartition>>>;

    /// Append rows (the write path). Returns bytes written. Providers that
    /// are read-only may keep the default error.
    fn insert(&self, _rows: &[Row]) -> Result<u64> {
        Err(crate::error::EngineError::Plan(
            "table provider is read-only".to_string(),
        ))
    }

    /// Provider name for plan explanations.
    fn name(&self) -> String {
        "table".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::BatchBuilder;
    use crate::schema::Field;
    use crate::value::{DataType, Value};

    struct OnePartition;
    impl ScanPartition for OnePartition {
        fn execute(
            &self,
            _running_on: &str,
            batch_size: usize,
            on_batch: &mut dyn FnMut(ColumnarBatch) -> Result<()>,
        ) -> Result<()> {
            let mut builder = BatchBuilder::new(vec![DataType::Int32], batch_size);
            builder.push_row_to(&Row::new(vec![Value::Int32(1)]), on_batch)?;
            builder.finish_to(on_batch)
        }
    }

    struct Fixed;
    impl TableProvider for Fixed {
        fn schema(&self) -> Schema {
            Schema::new(vec![Field::new("x", DataType::Int32)])
        }
        fn scan(
            &self,
            _projection: Option<&[usize]>,
            _filters: &[SourceFilter],
        ) -> Result<Vec<Arc<dyn ScanPartition>>> {
            Ok(vec![Arc::new(OnePartition)])
        }
    }

    #[test]
    fn default_unhandled_is_everything() {
        let p = Fixed;
        let filters = vec![SourceFilter::Eq("x".into(), Value::Int32(1))];
        assert_eq!(p.unhandled_filters(&filters), filters);
        assert!(p.supports_projection());
        assert_eq!(p.unique_key(), None);
    }

    #[test]
    fn default_insert_is_readonly() {
        assert!(Fixed.insert(&[]).is_err());
    }

    #[test]
    fn partitions_execute() {
        let parts = Fixed.scan(None, &[]).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].preferred_host(), None);
        let rows = partition_rows(&*parts[0], "anywhere").unwrap();
        assert_eq!(rows, vec![Row::new(vec![Value::Int32(1)])]);
    }
}
