//! The comparison baseline: HBase accessed as a *general* data source.
//!
//! This models the paper's "Spark SQL" competitor — a `HadoopRDD` +
//! `TableInputFormat` path that "fails to understand the schema of data and
//! performs redundant data processing while scanning tables" (§III.C):
//!
//! * **no filter pushdown** — every scan reads every region end to end and
//!   the engine re-applies all predicates;
//! * **no column pruning** — `supports_projection()` is false, so the scan
//!   always decodes and ships full-width rows;
//! * **no partition pruning** — one task per region, always;
//! * **no data locality** — partitions carry no preferred host;
//! * **no connection caching** — every task opens a fresh heavy-weight
//!   connection, the behaviour SHC's cache (§V.B.1) was built to fix.
//!
//! It reads the scanner's reply blocks through the connector's one block
//! reader (`BlockColumns`), over every column and keeping every row, so
//! results always match the SHC path — only the work differs.

use crate::catalog::HBaseTableCatalog;
use crate::relation::{BlockColumns, RowDecoder, RowsOut};
use shc_engine::columnar::ColumnarBatch;
use shc_engine::datasource::{ScanPartition, TableProvider};
use shc_engine::error::{EngineError, Result as EngineResult};
use shc_engine::schema::SchemaRef;
use shc_engine::source_filter::SourceFilter;
use shc_kvstore::client::Connection;
use shc_kvstore::cluster::HBaseCluster;
use shc_kvstore::master::RegionLocation;
use shc_kvstore::types::Scan;
use std::sync::Arc;

/// The generic-source baseline provider.
pub struct GenericHBaseRelation {
    pub catalog: Arc<HBaseTableCatalog>,
    /// The catalog's relational schema, built with the relation.
    schema: SchemaRef,
    cluster: Arc<HBaseCluster>,
}

impl GenericHBaseRelation {
    pub fn new(
        cluster: Arc<HBaseCluster>,
        catalog: Arc<HBaseTableCatalog>,
    ) -> Arc<GenericHBaseRelation> {
        Arc::new(GenericHBaseRelation {
            schema: Arc::new(catalog.schema()),
            cluster,
            catalog,
        })
    }
}

impl TableProvider for GenericHBaseRelation {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// A generic source cannot prune columns at the store.
    fn supports_projection(&self) -> bool {
        false
    }

    // unhandled_filters: default — everything unhandled.

    fn scan(
        &self,
        _projection: Option<&[usize]>,
        _filters: &[SourceFilter],
    ) -> EngineResult<Vec<Arc<dyn ScanPartition>>> {
        // Every column, always: a catalog that contradicts its row key is
        // an error here, at plan time.
        let every_column: Vec<usize> = (0..self.catalog.columns.len()).collect();
        let decoder = Arc::new(RowDecoder::new(&self.catalog, &every_column)?);
        let connection = Connection::open(Arc::clone(&self.cluster), None);
        let regions = connection
            .locate_regions(&self.catalog.table)
            .map_err(|e| EngineError::DataSource(e.to_string()))?;
        Ok(regions
            .into_iter()
            .map(|location| {
                Arc::new(GenericScanPartition {
                    cluster: Arc::clone(&self.cluster),
                    catalog: Arc::clone(&self.catalog),
                    decoder: Arc::clone(&decoder),
                    location,
                }) as Arc<dyn ScanPartition>
            })
            .collect())
    }

    fn name(&self) -> String {
        format!("generic-hbase:{}", self.catalog.table)
    }
}

struct GenericScanPartition {
    cluster: Arc<HBaseCluster>,
    catalog: Arc<HBaseTableCatalog>,
    decoder: Arc<RowDecoder>,
    location: RegionLocation,
}

impl ScanPartition for GenericScanPartition {
    // No preferred_host: the generic path has no locality information.

    fn execute(
        &self,
        _running_on: &str,
        batch_size: usize,
        on_batch: &mut dyn FnMut(ColumnarBatch) -> EngineResult<()>,
    ) -> EngineResult<()> {
        // A fresh connection per task: the costly pattern SHC's cache
        // eliminates.
        let connection = Connection::open(Arc::clone(&self.cluster), None);
        let table = connection.table(self.catalog.table.clone());
        let mut region_sp = shc_obs::trace::span("region_scan");
        if region_sp.is_active() {
            region_sp.annotate("region", self.location.info.region_id);
            region_sp.annotate("server", &self.location.hostname);
        }
        // Full, unfiltered, unprojected region scan; `from_host: None`
        // charges the remote-read penalty.
        let mut scanner = table.region_scanner(&self.location, &Scan::new(), None);
        let mut rows_out = RowsOut::new(&self.decoder, batch_size, on_batch);
        let mut columns = BlockColumns::default();
        let mut rows = 0;
        while let Some(block) = scanner
            .next_block()
            .map_err(|e| EngineError::DataSource(e.to_string()))?
        {
            rows += columns.read(&self.decoder, &block, |_| true, &mut rows_out)?;
        }
        if region_sp.is_active() {
            region_sp.annotate("rows", rows);
        }
        rows_out.finish()
    }

    fn describe(&self) -> String {
        format!("generic-hbase[region {}]", self.location.info.region_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::actives_catalog_json;
    use crate::conf::SHCConf;
    use crate::relation::HBaseRelation;
    use crate::writer::write_rows;
    use shc_engine::datasource::partition_rows;
    use shc_engine::row::Row;
    use shc_engine::value::Value;
    use shc_kvstore::cluster::ClusterConfig;
    use shc_kvstore::types::Get;

    fn setup() -> (
        Arc<HBaseCluster>,
        Arc<GenericHBaseRelation>,
        Arc<HBaseRelation>,
    ) {
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 3,
            ..Default::default()
        });
        let catalog = Arc::new(HBaseTableCatalog::parse_simple(actives_catalog_json()).unwrap());
        let rows: Vec<Row> = (0..30)
            .map(|i| {
                Row::new(vec![
                    Value::Utf8(format!("row{i:02}")),
                    Value::Int8(i as i8),
                    Value::Utf8(format!("/p/{i}")),
                    Value::Float64(i as f64),
                    Value::Timestamp(i as i64),
                ])
            })
            .collect();
        let conf = SHCConf::default().with_new_table_regions(3);
        write_rows(&cluster, &catalog, &conf, &rows).unwrap();
        let generic = GenericHBaseRelation::new(Arc::clone(&cluster), Arc::clone(&catalog));
        let shc = HBaseRelation::new(Arc::clone(&cluster), catalog, SHCConf::default());
        (cluster, generic, shc)
    }

    #[test]
    fn generic_reports_everything_unhandled_and_unprunable() {
        let (_c, generic, _shc) = setup();
        let filters = vec![SourceFilter::Eq("col0".into(), Value::Utf8("row05".into()))];
        assert_eq!(generic.unhandled_filters(&filters), filters);
        assert!(!generic.supports_projection());
    }

    #[test]
    fn generic_scans_every_region_regardless_of_filter() {
        let (_c, generic, shc) = setup();
        let filters = vec![SourceFilter::Eq("col0".into(), Value::Utf8("row05".into()))];
        let generic_parts = generic.scan(None, &filters).unwrap();
        let shc_parts = shc.scan(None, &filters).unwrap();
        assert_eq!(generic_parts.len(), 3); // one per region, no pruning
        assert_eq!(shc_parts.len(), 1); // pruned to the owning server
        assert!(generic_parts[0].preferred_host().is_none());
    }

    #[test]
    fn generic_and_shc_agree_on_results() {
        let (_c, generic, shc) = setup();
        let collect = |parts: Vec<Arc<dyn ScanPartition>>| {
            let mut rows: Vec<Row> = parts
                .into_iter()
                .flat_map(|p| partition_rows(&*p, "host-0").unwrap())
                .collect();
            rows.sort_by(|a, b| a.get(0).as_str().cmp(&b.get(0).as_str()));
            rows
        };
        let g = collect(generic.scan(None, &[]).unwrap());
        let s = collect(shc.scan(None, &[]).unwrap());
        assert_eq!(g.len(), 30);
        assert_eq!(g, s);
    }

    #[test]
    fn generic_does_far_more_server_work_for_selective_queries() {
        let (cluster, generic, shc) = setup();
        let filters = vec![SourceFilter::Eq("col0".into(), Value::Utf8("row05".into()))];
        let run = |parts: Vec<Arc<dyn ScanPartition>>| {
            for p in parts {
                partition_rows(&*p, "host-0").unwrap();
            }
        };
        let before = cluster.metrics.snapshot();
        run(shc.scan(None, &filters).unwrap());
        let shc_delta = cluster.metrics.snapshot().delta_since(&before);

        let before = cluster.metrics.snapshot();
        run(generic.scan(None, &filters).unwrap());
        let generic_delta = cluster.metrics.snapshot().delta_since(&before);

        assert!(
            generic_delta.cells_scanned > 10 * shc_delta.cells_scanned.max(1),
            "generic {} vs shc {}",
            generic_delta.cells_scanned,
            shc_delta.cells_scanned
        );
        // What crossed the network is the blocks each source asked for:
        // every row of every region from the generic source, the blocks of
        // a full scan of each region; row05 alone from SHC, the block of a
        // get of it.
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(generic.catalog.table.clone());
        let shipped = |read: &dyn Fn()| {
            let before = cluster.metrics.snapshot();
            read();
            cluster
                .metrics
                .snapshot()
                .delta_since(&before)
                .bytes_returned
        };
        let region_blocks = shipped(&|| {
            for loc in conn.locate_regions(table.name()).unwrap() {
                let mut scanner = table.region_scanner(&loc, &Scan::new(), None);
                while scanner.next_block().unwrap().is_some() {}
            }
        });
        let row05 = shipped(&|| drop(table.get(Get::new("row05")).unwrap()));
        assert_eq!(generic_delta.bytes_returned, region_blocks);
        assert_eq!(shc_delta.bytes_returned, row05);
    }

    #[test]
    fn a_catalog_that_contradicts_its_row_key_fails_the_plan_not_a_task() {
        let (cluster, generic, _) = setup();
        // `col0` is stored in the key but no longer one of its dimensions.
        let mut catalog = (*generic.catalog).clone();
        catalog.row_key.clear();
        let broken = GenericHBaseRelation::new(cluster, Arc::new(catalog));
        let err = broken.scan(None, &[]).err().expect("scan must fail");
        assert!(
            err.to_string().contains("not one of its dimensions"),
            "{err}"
        );
    }

    #[test]
    fn generic_creates_connections_per_task() {
        let (cluster, generic, _) = setup();
        let before = cluster.metrics.snapshot().connections_created;
        let parts = generic.scan(None, &[]).unwrap();
        for p in &parts {
            partition_rows(&**p, "host-0").unwrap();
        }
        let created = cluster.metrics.snapshot().connections_created - before;
        // One at planning + one per task.
        assert!(created > parts.len() as u64);
    }
}
