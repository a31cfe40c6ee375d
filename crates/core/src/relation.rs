//! `HBaseRelation`: the connector's table provider — the plug-in that SHC
//! registers with the engine's data source API.
//!
//! The scan path implements the full §VI pipeline:
//!
//! 1. pushed filters → [`crate::pruning::plan_pushdown`] → row-key ranges +
//!    server-side filters + the handled/unhandled split;
//! 2. ranges are clipped against region boundaries; regions left with no
//!    range get **no task** (partition pruning);
//! 3. the per-region work (range scans and point gets) is **fused** into
//!    one task per region server (§VI.4), whose preferred host is that
//!    server's hostname (§VI.2 data locality);
//! 4. each task acquires its connection through the connection cache
//!    (§V.B.1) and a security token through the credentials manager
//!    (§V.B.2), issues Scans/BulkGets, and reads every reply block
//!    straight into engine columns using the catalog's codecs
//!    (`BlockColumns`, the one decode path of the connector).
//!
//! A task keeps the region layout it was planned with. When that layout
//! goes stale (a split, a move, a failover), the store client re-locates
//! each failed RPC from the master's meta under its recovery rule; an error
//! the client gives up on fails the task, and the engine's scheduler re-runs
//! the task from scratch. The connector itself never reruns work.

use crate::catalog::HBaseTableCatalog;
use crate::conf::{PruningMode, SHCConf};
use crate::conn_cache::ConnectionCache;
use crate::credentials::SHCCredentialsManager;
use crate::error::{Result as ShcResult, ShcError};
use crate::pruning::plan_pushdown;
use crate::ranges::RangeSet;
use crate::rowkey::decode_rowkey_into;
use shc_engine::columnar::{BatchBuilder, ColumnarBatch};
use shc_engine::datasource::{ScanPartition, TableProvider};
use shc_engine::error::{EngineError, Result as EngineResult};
use shc_engine::row::Row;
use shc_engine::schema::SchemaRef;
use shc_engine::source_filter::SourceFilter;
use shc_engine::value::{DataType, Value};
use shc_kvstore::cellblock;
use shc_kvstore::client::Connection;
use shc_kvstore::cluster::HBaseCluster;
use shc_kvstore::filter::{Filter, RowRange};
use shc_kvstore::master::RegionLocation;
use shc_kvstore::security::AuthToken;
use shc_kvstore::types::{Get, Projection, Scan};
use std::ops::{Bound, Range};
use std::sync::Arc;

/// The SHC table provider.
pub struct HBaseRelation {
    pub catalog: Arc<HBaseTableCatalog>,
    /// The catalog's relational schema, built with the relation.
    schema: SchemaRef,
    pub conf: SHCConf,
    cluster: Arc<HBaseCluster>,
    cache: Arc<ConnectionCache>,
    credentials: Arc<SHCCredentialsManager>,
}

impl HBaseRelation {
    pub fn new(
        cluster: Arc<HBaseCluster>,
        catalog: Arc<HBaseTableCatalog>,
        conf: SHCConf,
    ) -> Arc<HBaseRelation> {
        Arc::new(HBaseRelation {
            schema: Arc::new(catalog.schema()),
            catalog,
            conf,
            cluster,
            cache: ConnectionCache::global(),
            credentials: SHCCredentialsManager::new_default(),
        })
    }

    /// Use explicit cache/credentials instances (tests, ablations).
    pub fn with_services(
        cluster: Arc<HBaseCluster>,
        catalog: Arc<HBaseTableCatalog>,
        conf: SHCConf,
        cache: Arc<ConnectionCache>,
        credentials: Arc<SHCCredentialsManager>,
    ) -> Arc<HBaseRelation> {
        Arc::new(HBaseRelation {
            schema: Arc::new(catalog.schema()),
            catalog,
            conf,
            cluster,
            cache,
            credentials,
        })
    }

    pub fn cluster(&self) -> &Arc<HBaseCluster> {
        &self.cluster
    }

    pub fn credentials(&self) -> &Arc<SHCCredentialsManager> {
        &self.credentials
    }

    fn token(&self) -> ShcResult<Option<AuthToken>> {
        match &self.conf.security {
            Some(sec) => self.credentials.get_token_for_cluster(&self.cluster, sec),
            None => {
                if self.cluster.security.is_some() {
                    Err(ShcError::Security(
                        "cluster is secure but connector security is disabled \
                         (set spark.hbase.connector.security.credentials.enabled)"
                            .into(),
                    ))
                } else {
                    Ok(None)
                }
            }
        }
    }

    fn acquire_connection(&self, token: Option<AuthToken>) -> ConnectionLease {
        ConnectionLease::acquire(&self.cache, &self.cluster, token, &self.conf)
    }

    /// Columns selected by an engine projection (indices into the catalog
    /// schema); `None` selects everything.
    fn projected_indices(&self, projection: Option<&[usize]>) -> Vec<usize> {
        match projection {
            Some(indices) => indices.to_vec(),
            None => (0..self.catalog.columns.len()).collect(),
        }
    }
}

/// A connection lease: cached (ref-counted) or private.
pub(crate) enum ConnectionLease {
    Cached(crate::conn_cache::CachedConnection),
    Fresh(Arc<Connection>),
}

impl ConnectionLease {
    /// Through `cache` unless `conf` turns connection caching off.
    pub(crate) fn acquire(
        cache: &Arc<ConnectionCache>,
        cluster: &Arc<HBaseCluster>,
        token: Option<AuthToken>,
        conf: &SHCConf,
    ) -> ConnectionLease {
        if conf.use_connection_cache {
            ConnectionLease::Cached(cache.acquire(cluster, token))
        } else {
            ConnectionLease::Fresh(Connection::open(Arc::clone(cluster), token))
        }
    }

    pub(crate) fn connection(&self) -> &Arc<Connection> {
        match self {
            ConnectionLease::Cached(lease) => lease.connection(),
            ConnectionLease::Fresh(conn) => conn,
        }
    }
}

impl TableProvider for HBaseRelation {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn supports_projection(&self) -> bool {
        true
    }

    /// Spark's `unhandledFilters`: everything the pushdown plan does not
    /// fully absorb must be re-applied by the engine (§VI.3's second
    /// filtering layer).
    fn unhandled_filters(&self, filters: &[SourceFilter]) -> Vec<SourceFilter> {
        plan_pushdown(&self.catalog, &self.conf, filters).unhandled(filters)
    }

    /// Only first-dimension predicates become row-key ranges (§VI.1), and
    /// only while pushdown and pruning are on and the dimension's encoding
    /// keeps its order.
    fn prunes_partitions_on(&self, column: &str) -> bool {
        let first = self.catalog.first_key_column();
        first.name == column
            && first.codec.order_preserving()
            && self.conf.predicate_pushdown
            && self.conf.partition_pruning != PruningMode::Disabled
    }

    /// A single-column row key: a scan visits each row key once, one row
    /// per key whatever the conf's versions or time range (they select
    /// cells within the row), and the codec gives every value one
    /// encoding. Not a float key, whose `0.0` and `-0.0` are two row keys
    /// that join as one value.
    fn unique_key(&self) -> Option<String> {
        let [key] = self.catalog.row_key[..] else {
            return None;
        };
        let column = &self.catalog.columns[key];
        let float = matches!(column.data_type, DataType::Float32 | DataType::Float64);
        (!float).then(|| column.name.clone())
    }

    fn scan(
        &self,
        projection: Option<&[usize]>,
        filters: &[SourceFilter],
    ) -> EngineResult<Vec<Arc<dyn ScanPartition>>> {
        let plan = plan_pushdown(&self.catalog, &self.conf, filters);
        if plan.ranges.is_empty() {
            return Ok(Vec::new()); // provably empty result
        }
        let token = self.token().map_err(EngineError::from)?;
        let lease = self.acquire_connection(token.clone());
        let regions = lease
            .connection()
            .locate_regions(&self.catalog.table)
            .map_err(|e| EngineError::DataSource(e.to_string()))?;

        // Clip ranges per region; prune regions with no remaining range.
        let mut per_region: Vec<(RegionLocation, RangeSet)> = Vec::new();
        for location in regions {
            let clipped = if self.conf.partition_pruning == PruningMode::Disabled {
                RangeSet::from_range(RowRange {
                    start: location.info.start_key.clone(),
                    stop: location.info.end_key.clone(),
                })
            } else {
                plan.ranges
                    .clip(&location.info.start_key, &location.info.end_key)
            };
            if clipped.is_empty() {
                continue; // §VI.1: no task for this region
            }
            per_region.push((location, clipped));
        }

        let projected = self.projected_indices(projection);
        let decoder = Arc::new(RowDecoder::new(&self.catalog, &projected)?);
        let kv_projection = build_kv_projection(&self.catalog, &projected, &plan.kv_filter);

        // §VI.4 operator fusion: group regions by hosting server so each
        // server receives exactly one task.
        let mut partitions: Vec<Arc<dyn ScanPartition>> = Vec::new();
        if self.conf.operator_fusion {
            type ServerGroup = (u64, String, Vec<(RegionLocation, RangeSet)>);
            let mut by_server: Vec<ServerGroup> = Vec::new();
            for (location, ranges) in per_region {
                match by_server
                    .iter_mut()
                    .find(|(sid, _, _)| *sid == location.server_id)
                {
                    Some((_, _, group)) => group.push((location, ranges)),
                    None => by_server.push((
                        location.server_id,
                        location.hostname.clone(),
                        vec![(location, ranges)],
                    )),
                }
            }
            for (_, hostname, group) in by_server {
                partitions.push(Arc::new(HBaseScanPartition {
                    relation: self.clone_handle(),
                    token: token.clone(),
                    hostname,
                    work: group,
                    kv_filter: plan.kv_filter.clone(),
                    kv_projection: kv_projection.clone(),
                    decoder: Arc::clone(&decoder),
                }));
            }
        } else {
            // One task per (region, range) — the unfused baseline the
            // paper describes as wasteful.
            for (location, ranges) in per_region {
                for range in ranges.ranges() {
                    partitions.push(Arc::new(HBaseScanPartition {
                        relation: self.clone_handle(),
                        token: token.clone(),
                        hostname: location.hostname.clone(),
                        work: vec![(location.clone(), RangeSet::from_range(range.clone()))],
                        kv_filter: plan.kv_filter.clone(),
                        kv_projection: kv_projection.clone(),
                        decoder: Arc::clone(&decoder),
                    }));
                }
            }
        }
        Ok(partitions)
    }

    fn insert(&self, rows: &[Row]) -> EngineResult<u64> {
        crate::writer::write_rows(&self.cluster, &self.catalog, &self.conf, rows)
            .map_err(EngineError::from)
    }

    fn name(&self) -> String {
        format!("shc:{}", self.catalog.table)
    }
}

impl HBaseRelation {
    /// A cheap handle for partitions (shares the Arc'd services).
    fn clone_handle(&self) -> Arc<HBaseRelation> {
        Arc::new(HBaseRelation {
            catalog: Arc::clone(&self.catalog),
            schema: Arc::clone(&self.schema),
            conf: self.conf.clone(),
            cluster: Arc::clone(&self.cluster),
            cache: Arc::clone(&self.cache),
            credentials: Arc::clone(&self.credentials),
        })
    }
}

/// Column-family projection sent to the store: projected value columns
/// plus any columns the server-side filter needs to see.
fn build_kv_projection(
    catalog: &HBaseTableCatalog,
    projected: &[usize],
    kv_filter: &Option<Filter>,
) -> Projection {
    let mut projection = Projection::all();
    let mut any_value_column = false;
    for &idx in projected {
        let col = &catalog.columns[idx];
        if !col.is_rowkey() {
            any_value_column = true;
            projection = projection.column(col.family.clone(), col.qualifier.clone());
        }
    }
    if let Some(filter) = kv_filter {
        collect_filter_columns(filter, &mut projection, &mut any_value_column);
    }
    if !any_value_column {
        // Key-only projection: fetch one designated cell per row so rows
        // materialize (the FirstKeyOnly idiom).
        if let Some(col) = catalog.value_columns().first() {
            projection = projection.column(col.family.clone(), col.qualifier.clone());
        }
    }
    projection
}

fn collect_filter_columns(filter: &Filter, projection: &mut Projection, any: &mut bool) {
    match filter {
        Filter::ColumnValue {
            family, qualifier, ..
        }
        | Filter::ColumnPrefix {
            family, qualifier, ..
        } => {
            *any = true;
            *projection = projection.clone().column(family.clone(), qualifier.clone());
        }
        Filter::And(children) | Filter::Or(children) => {
            for c in children {
                collect_filter_columns(c, projection, any);
            }
        }
        _ => {}
    }
}

// ----------------------------------------------------------------------
// Row decoding
// ----------------------------------------------------------------------

/// Decodes store rows into engine rows for a fixed projection.
pub(crate) struct RowDecoder {
    catalog: Arc<HBaseTableCatalog>,
    /// Projected catalog columns in output order, each with where its value
    /// comes from.
    columns: Vec<(usize, Slot)>,
    /// The distinct stored cells the projection reads, as the catalog
    /// column that first names each.
    cells: Vec<usize>,
    /// Does any projected column come from the row key?
    needs_rowkey: bool,
}

/// Where an output column's value comes from.
#[derive(Clone, Copy)]
enum Slot {
    /// This row-key dimension.
    Dim(usize),
    /// This entry of [`RowDecoder::cells`].
    Cell(usize),
}

impl RowDecoder {
    /// Fails when the catalog marks a projected column as part of the row
    /// key without listing it among the key's dimensions.
    pub(crate) fn new(
        catalog: &Arc<HBaseTableCatalog>,
        projected: &[usize],
    ) -> ShcResult<RowDecoder> {
        let mut cells: Vec<usize> = Vec::new();
        let columns = projected
            .iter()
            .map(|&idx| {
                let col = &catalog.columns[idx];
                if !col.is_rowkey() {
                    let same_cell = |&c: &usize| {
                        let other = &catalog.columns[c];
                        (&other.family, &other.qualifier) == (&col.family, &col.qualifier)
                    };
                    let cell = cells.iter().position(same_cell).unwrap_or_else(|| {
                        cells.push(idx);
                        cells.len() - 1
                    });
                    return Ok((idx, Slot::Cell(cell)));
                }
                match catalog.row_key.iter().position(|&k| k == idx) {
                    Some(dim) => Ok((idx, Slot::Dim(dim))),
                    None => Err(ShcError::Catalog(format!(
                        "column {} is stored in the row key but is not one of its dimensions",
                        col.name
                    ))),
                }
            })
            .collect::<ShcResult<Vec<_>>>()?;
        Ok(RowDecoder {
            catalog: Arc::clone(catalog),
            needs_rowkey: columns.iter().any(|(_, slot)| matches!(slot, Slot::Dim(_))),
            columns,
            cells,
        })
    }

    /// The declared types of the decoded columns, in output order.
    fn dtypes(&self) -> Vec<DataType> {
        self.columns
            .iter()
            .map(|&(idx, _)| self.catalog.columns[idx].data_type)
            .collect()
    }

    /// The entry of [`cells`](Self::cells) stored under these names, if the
    /// projection reads them.
    fn cell_named(&self, family: &[u8], qualifier: &[u8]) -> Option<usize> {
        self.cells.iter().position(|&idx| {
            let col = &self.catalog.columns[idx];
            col.family.as_bytes() == family && col.qualifier.as_bytes() == qualifier
        })
    }

    /// Decode a row into `out` (cleared first), one value per output column:
    /// the dimensions from `key`, decoded into the reused `dims`; the rest
    /// from `cell(i)`, the bytes of entry `i` of [`cells`](Self::cells), an
    /// absent one being SQL NULL.
    fn decode_into<'v>(
        &self,
        key: &[u8],
        cell: impl Fn(usize) -> Option<&'v [u8]>,
        dims: &mut Vec<Value>,
        out: &mut Vec<Value>,
    ) -> ShcResult<()> {
        if self.needs_rowkey {
            decode_rowkey_into(&self.catalog, key, dims)?;
        }
        out.clear();
        for &(idx, slot) in &self.columns {
            let col = &self.catalog.columns[idx];
            out.push(match slot {
                // `decode_rowkey_into` yields every dimension or fails.
                Slot::Dim(dim) => dims[dim].clone(),
                Slot::Cell(i) => match cell(i) {
                    Some(bytes) => col.codec.decode(bytes, col.data_type)?,
                    None => Value::Null,
                },
            });
        }
        Ok(())
    }
}

/// The connector's one reader of reply blocks — scanner batches, bulk-get
/// replies and the generic source's full-width region scans alike: it reads
/// each block straight into the engine's columns, with no decoded store
/// row, no [`Row`] and no per-row value vector, only buffers reused from
/// row to row.
#[derive(Default)]
pub(crate) struct BlockColumns {
    /// Per entry of the current block's (family, qualifier) dictionary, the
    /// decoder's cell it holds, if any — resolved the first time the block
    /// uses it (outer `None` = not yet).
    slots: Vec<Option<Option<usize>>>,
    /// Per decoder cell, where the current row's value of it sits in the
    /// block: the first, newest, version.
    found: Vec<Option<Range<usize>>>,
    dims: Vec<Value>,
    values: Vec<Value>,
}

impl BlockColumns {
    /// Decode every row of `block` the `keep` test passes into `rows_out`;
    /// returns how many rows that was. Rows `keep` refuses are dropped by
    /// key, before anything of them is decoded.
    pub(crate) fn read(
        &mut self,
        decoder: &RowDecoder,
        block: &[u8],
        keep: impl Fn(&[u8]) -> bool,
        rows_out: &mut RowsOut<'_>,
    ) -> ShcResult<usize> {
        self.slots.clear();
        let mut rows = 0;
        cellblock::visit_rows(block, |key, cells| {
            if !keep(key) {
                return Ok(());
            }
            self.found.clear();
            self.found.resize(decoder.cells.len(), None);
            for cell in cells {
                if self.slots.len() <= cell.column {
                    self.slots.resize(cell.column + 1, None);
                }
                let slot = *self.slots[cell.column].get_or_insert_with(|| {
                    decoder.cell_named(&block[cell.family.clone()], &block[cell.qualifier.clone()])
                });
                if let Some(found) = slot.map(|i| &mut self.found[i]) {
                    found.get_or_insert_with(|| cell.value.clone());
                }
            }
            let found = &self.found;
            let cell = |i: usize| found[i].clone().map(|value| &block[value]);
            decoder.decode_into(key, cell, &mut self.dims, &mut self.values)?;
            rows_out.push(&self.values)?;
            rows += 1;
            Ok::<_, ShcError>(())
        })?;
        Ok(rows)
    }
}

// ----------------------------------------------------------------------
// Scan partition
// ----------------------------------------------------------------------

/// Scanners one task opens on one region at most, whatever the number of
/// disjoint key ranges it was given there.
const MAX_SCANNERS_PER_REGION: usize = 4;

/// Is this range a single-row point (`[k, k ‖ 0x00)`)?
fn point_row(range: &RowRange) -> Option<bytes::Bytes> {
    if !range.is_unbounded_stop()
        && range.stop.len() == range.start.len() + 1
        && range.stop.last() == Some(&0)
        && range.stop[..range.start.len()] == range.start[..]
    {
        Some(range.start.clone())
    } else {
        None
    }
}

/// One fused task: all the scans and bulk-gets targeting one region
/// server.
struct HBaseScanPartition {
    relation: Arc<HBaseRelation>,
    token: Option<AuthToken>,
    hostname: String,
    /// (region, clipped ranges) pairs served by this server.
    work: Vec<(RegionLocation, RangeSet)>,
    kv_filter: Option<Filter>,
    kv_projection: Projection,
    decoder: Arc<RowDecoder>,
}

impl HBaseScanPartition {
    fn run_work(
        &self,
        table: &shc_kvstore::client::Table,
        running_on: &str,
        rows_out: &mut RowsOut<'_>,
    ) -> ShcResult<()> {
        let conf = &self.relation.conf;
        let mut columns = BlockColumns::default();
        for (location, ranges) in &self.work {
            // One attribution span per region visited. Rows are counted as
            // scanned (before engine-side residual filtering), so retried
            // visits show the work actually performed. The scanner runs on
            // this thread, so its per-batch `rpc` spans nest under this
            // region span.
            let mut region_sp = shc_obs::trace::span("region_scan");
            if region_sp.is_active() {
                region_sp.annotate("region", location.info.region_id);
                region_sp.annotate("server", &location.hostname);
            }
            let mut region_rows = 0usize;
            // Fuse point lookups into one BulkGet per region.
            let mut gets: Vec<Get> = Vec::new();
            let mut spans: Vec<RowRange> = Vec::new();
            for range in ranges.ranges() {
                match point_row(range) {
                    Some(row_key) => {
                        let mut get = Get::new(row_key);
                        get.projection = self.kv_projection.clone();
                        get.time_range = conf.time_range();
                        get.max_versions = conf.max_versions;
                        get.filter = self.kv_filter.clone();
                        get.include_empty_rows = true;
                        gets.push(get);
                    }
                    None => spans.push(range.clone()),
                }
            }
            // A key set scattered over the region (an IN list, a join's
            // keys) must not cost one scanner open per key: the smallest
            // gaps are read through, and the rows in them dropped here,
            // before they are decoded.
            let spans = RangeSet::from_ranges(spans);
            let scans = spans.coalesced(MAX_SCANNERS_PER_REGION);
            let reads_gaps = scans.len() < spans.len();
            for range in scans.ranges() {
                let scan = Scan {
                    start: Bound::Included(range.start.clone()),
                    stop: if range.is_unbounded_stop() {
                        Bound::Unbounded
                    } else {
                        Bound::Excluded(range.stop.clone())
                    },
                    projection: self.kv_projection.clone(),
                    filter: self.kv_filter.clone(),
                    time_range: conf.time_range(),
                    max_versions: conf.max_versions,
                    limit: 0,
                    caching: conf.caching,
                    include_empty_rows: true,
                };
                // Stream the range: read one RPC batch's block (≤ `caching`
                // rows) into columns before fetching the next one.
                let mut scanner = table.region_scanner(location, &scan, Some(running_on));
                while let Some(block) = scanner.next_block()? {
                    let keep = |key: &[u8]| !reads_gaps || spans.contains(key);
                    region_rows += columns.read(&self.decoder, &block, keep, rows_out)?;
                }
            }
            if !gets.is_empty() {
                // An empty key answers a get whose row is absent; a key with
                // no cells is a live row whose projected columns are all
                // NULL.
                for block in table.bulk_get(&gets, Some(running_on))? {
                    let keep = |key: &[u8]| !key.is_empty();
                    region_rows += columns.read(&self.decoder, &block, keep, rows_out)?;
                }
            }
            if region_sp.is_active() {
                region_sp.annotate("rows", region_rows);
            }
        }
        Ok(())
    }
}

/// Where a scan's decoded rows go: into batches cut at the engine's batch
/// size, whatever the size of the scanner's RPCs, each handed on as it fills.
pub(crate) struct RowsOut<'a> {
    builder: BatchBuilder,
    on_batch: &'a mut dyn FnMut(ColumnarBatch) -> EngineResult<()>,
}

impl<'a> RowsOut<'a> {
    /// Batches of `decoder`'s columns, `batch_size` rows each, for
    /// `on_batch`.
    pub(crate) fn new(
        decoder: &RowDecoder,
        batch_size: usize,
        on_batch: &'a mut dyn FnMut(ColumnarBatch) -> EngineResult<()>,
    ) -> Self {
        RowsOut {
            builder: BatchBuilder::new(decoder.dtypes(), batch_size),
            on_batch,
        }
    }

    /// Take one row, given as its values in output order.
    fn push(&mut self, values: &[Value]) -> EngineResult<()> {
        self.builder.push_values_to(values, self.on_batch)
    }

    /// Hand on the rows still in the builder.
    pub(crate) fn finish(self) -> EngineResult<()> {
        self.builder.finish_to(self.on_batch)
    }
}

impl ScanPartition for HBaseScanPartition {
    fn preferred_host(&self) -> Option<&str> {
        Some(&self.hostname)
    }

    fn execute(
        &self,
        running_on: &str,
        batch_size: usize,
        on_batch: &mut dyn FnMut(ColumnarBatch) -> EngineResult<()>,
    ) -> EngineResult<()> {
        // Each task acquires its connection — through the cache when
        // enabled, freshly otherwise (this is the §V.B.1 cost).
        let lease = self.relation.acquire_connection(self.token.clone());
        let table = lease
            .connection()
            .table(self.relation.catalog.table.clone());
        let mut rows_out = RowsOut::new(&self.decoder, batch_size, on_batch);
        // A stale layout (a split or move since planning) is the client's
        // to recover from, RPC by RPC; an error it gives up on fails the
        // task, which the scheduler re-runs from scratch.
        self.run_work(&table, running_on, &mut rows_out)?;
        rows_out.finish()
    }

    fn describe(&self) -> String {
        format!("hbase[{} region(s) on {}]", self.work.len(), self.hostname)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::actives_catalog_json;
    use crate::writer;
    use shc_engine::datasource::partition_rows;
    use shc_kvstore::cluster::ClusterConfig;

    fn setup() -> (Arc<HBaseCluster>, Arc<HBaseRelation>) {
        setup_with(3, SHCConf::default().caching)
    }

    /// Thirty rows, `row00..row29`, in three regions spread over
    /// `num_servers`, read `caching` rows per scanner RPC.
    fn setup_with(num_servers: usize, caching: usize) -> (Arc<HBaseCluster>, Arc<HBaseRelation>) {
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers,
            ..Default::default()
        });
        let catalog = Arc::new(HBaseTableCatalog::parse_simple(actives_catalog_json()).unwrap());
        let mut conf = SHCConf::default().with_new_table_regions(3);
        conf.caching = caching;
        let rows: Vec<Row> = (0..30)
            .map(|i| {
                Row::new(vec![
                    Value::Utf8(format!("row{i:02}")),
                    Value::Int8((i % 100) as i8),
                    Value::Utf8(format!("/page/{i}")),
                    Value::Float64(i as f64 * 1.5),
                    Value::Timestamp(1_000_000 + i as i64),
                ])
            })
            .collect();
        let relation = HBaseRelation::new(Arc::clone(&cluster), catalog, conf);
        writer::write_rows(&cluster, &relation.catalog, &relation.conf, &rows).unwrap();
        (cluster, relation)
    }

    fn run_partitions(parts: &[Arc<dyn ScanPartition>]) -> Vec<Row> {
        let mut out = Vec::new();
        for p in parts {
            out.extend(partition_rows(&**p, "host-0").unwrap());
        }
        out
    }

    #[test]
    fn full_scan_decodes_every_row() {
        let (_cluster, relation) = setup();
        let parts = relation.scan(None, &[]).unwrap();
        let mut rows = run_partitions(&parts);
        rows.sort_by(|a, b| a.get(0).as_str().cmp(&b.get(0).as_str()));
        assert_eq!(rows.len(), 30);
        assert_eq!(rows[0].get(0).as_str(), Some("row00"));
        assert_eq!(rows[0].get(3), &Value::Float64(0.0));
        assert_eq!(rows[12].get(2).as_str(), Some("/page/12"));
    }

    #[test]
    fn fusion_yields_one_partition_per_server() {
        let (cluster, relation) = setup();
        let parts = relation.scan(None, &[]).unwrap();
        assert!(parts.len() <= cluster.num_servers());
        // Preferred hosts are region-server hostnames.
        for p in &parts {
            let host = p.preferred_host().unwrap();
            assert!(cluster.hostnames().iter().any(|h| h == host));
        }
    }

    #[test]
    fn partition_pruning_skips_regions() {
        let (cluster, relation) = setup();
        let before = cluster.metrics.snapshot();
        let filters = vec![SourceFilter::Eq("col0".into(), Value::Utf8("row05".into()))];
        let parts = relation.scan(None, &filters).unwrap();
        let rows = run_partitions(&parts);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).as_str(), Some("row05"));
        let delta = cluster.metrics.snapshot().delta_since(&before);
        // A point query fuses into a single BulkGet RPC.
        assert_eq!(delta.rpc_count, 1);
        // The server shipped a single row's cells.
        assert!(delta.cells_returned <= 5);
    }

    #[test]
    fn range_filter_prunes_and_limits_scanning() {
        let (cluster, relation) = setup();
        let before = cluster.metrics.snapshot();
        let filters = vec![SourceFilter::GtEq(
            "col0".into(),
            Value::Utf8("row25".into()),
        )];
        let parts = relation.scan(None, &filters).unwrap();
        let rows = run_partitions(&parts);
        assert_eq!(rows.len(), 5);
        let delta = cluster.metrics.snapshot().delta_since(&before);
        // Far fewer cells scanned than a full table scan (30 rows × 4
        // value cells).
        assert!(delta.cells_scanned < 60, "scanned {}", delta.cells_scanned);
    }

    #[test]
    fn value_filter_is_executed_server_side() {
        let (cluster, relation) = setup();
        let filters = vec![SourceFilter::Gt("stay-time".into(), Value::Float64(40.0))];
        assert!(relation.unhandled_filters(&filters).is_empty());
        let before = cluster.metrics.snapshot();
        let parts = relation.scan(None, &filters).unwrap();
        let rows = run_partitions(&parts);
        // stay-time = i * 1.5 > 40 → i >= 27.
        assert_eq!(rows.len(), 3);
        let delta = cluster.metrics.snapshot().delta_since(&before);
        assert!(delta.filtered_scans > 0);
        // Only matching rows were shipped back.
        assert!(delta.cells_returned < delta.cells_scanned);
    }

    #[test]
    fn not_in_reported_unhandled() {
        let (_cluster, relation) = setup();
        let filters = vec![SourceFilter::NotIn("user-id".into(), vec![Value::Int8(1)])];
        assert_eq!(relation.unhandled_filters(&filters), filters);
        // The scan itself returns everything; the engine re-filters.
        let parts = relation.scan(None, &filters).unwrap();
        assert_eq!(run_partitions(&parts).len(), 30);
    }

    #[test]
    fn projection_decodes_only_selected_columns() {
        let (_cluster, relation) = setup();
        // Project stay-time (index 3) and col0 (index 0).
        let parts = relation.scan(Some(&[3, 0]), &[]).unwrap();
        let rows = run_partitions(&parts);
        assert_eq!(rows.len(), 30);
        assert_eq!(rows[0].len(), 2);
        assert!(matches!(rows[0].get(0), Value::Float64(_)));
        assert!(matches!(rows[0].get(1), Value::Utf8(_)));
    }

    #[test]
    fn rowkey_only_projection_works() {
        let (_cluster, relation) = setup();
        let parts = relation.scan(Some(&[0]), &[]).unwrap();
        let rows = run_partitions(&parts);
        assert_eq!(rows.len(), 30);
        assert!(rows.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn empty_range_produces_no_partitions() {
        let (_cluster, relation) = setup();
        // col0 > "z" AND col0 < "a" is unsatisfiable.
        let filters = vec![
            SourceFilter::Gt("col0".into(), Value::Utf8("z".into())),
            SourceFilter::Lt("col0".into(), Value::Utf8("a".into())),
        ];
        let parts = relation.scan(None, &filters).unwrap();
        assert!(parts.is_empty());
    }

    /// `t(day, item, qty)` keyed by `(day, item)`: 40 days of 5 items each
    /// in one region of a one-server cluster.
    fn daily() -> (Arc<HBaseCluster>, Arc<HBaseRelation>) {
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 1,
            ..Default::default()
        });
        let catalog = Arc::new(
            HBaseTableCatalog::parse_simple(
                r#"{
                "table":{"namespace":"default","name":"daily"},
                "rowkey":"day:item",
                "columns":{
                    "day":{"cf":"rowkey","col":"day","type":"bigint"},
                    "item":{"cf":"rowkey","col":"item","type":"int"},
                    "qty":{"cf":"cf","col":"qty","type":"int"}
                }}"#,
            )
            .unwrap(),
        );
        let rows: Vec<Row> = (0..40i64)
            .flat_map(|day| {
                (0..5).map(move |item| {
                    Row::new(vec![
                        Value::Int64(day),
                        Value::Int32(item),
                        Value::Int32(day as i32 * 10 + item),
                    ])
                })
            })
            .collect();
        let relation = HBaseRelation::new(Arc::clone(&cluster), catalog, SHCConf::default());
        writer::write_rows(&cluster, &relation.catalog, &relation.conf, &rows).unwrap();
        (cluster, relation)
    }

    /// `unique_key` rests on a scan emitting one row per row key under
    /// every conf: versions and time ranges pick cells within a row;
    /// pushdown, pruning and fusion change how rows are reached, point gets
    /// and range scans alike.
    #[test]
    fn a_single_column_row_key_is_unique_under_every_conf() {
        let (cluster, relation) = setup();
        // Two more writes of every row: three versions of each cell.
        let rows = run_partitions(&relation.scan(None, &[]).unwrap());
        for _ in 0..2 {
            writer::write_rows(&cluster, &relation.catalog, &relation.conf, &rows).unwrap();
        }
        let key = |i: usize| Value::Utf8(format!("row{i:02}"));
        let filters = [
            (vec![], 30),
            (
                vec![SourceFilter::In("col0".into(), (3..9).map(key).collect())],
                6,
            ),
            (vec![SourceFilter::Gt("col0".into(), key(20))], 9),
        ];
        let confs = [
            SHCConf::default(),
            SHCConf::default().with_max_versions(3),
            SHCConf::default().with_time_range(0, u64::MAX),
            SHCConf::default().without_pushdown(),
            SHCConf::default().without_pruning(),
            SHCConf::default().with_max_versions(3).without_fusion(),
        ];
        for conf in confs {
            let relation = HBaseRelation::new(Arc::clone(&cluster), relation.catalog.clone(), conf);
            assert_eq!(relation.unique_key().as_deref(), Some("col0"));
            for (filter, expected) in &filters {
                let rows = run_partitions(&relation.scan(Some(&[0]), filter).unwrap());
                let mut keys: Vec<Value> = rows
                    .iter()
                    .map(|r| r.get(0).clone())
                    .filter(|k| filter.iter().all(|f| matches(f, k)))
                    .collect();
                let all = keys.len();
                keys.sort_by(Value::sort_cmp);
                keys.dedup();
                assert_eq!((all, keys.len()), (*expected, *expected), "{filter:?}");
            }
        }
        // A composite row key names no single unique column.
        let composite = HBaseTableCatalog::parse_simple(
            r#"{"table":{"namespace":"default","name":"c"},
                "rowkey":"a:b","columns":{"a":{"cf":"rowkey","col":"a","type":"int"},
                "b":{"cf":"rowkey","col":"b","type":"int"}}}"#,
        )
        .unwrap();
        let relation = HBaseRelation::new(cluster, Arc::new(composite), SHCConf::default());
        assert_eq!(relation.unique_key(), None);
    }

    /// Whether key `k` passes `filter` (re-applied where the relation
    /// leaves a filter unhandled).
    fn matches(filter: &SourceFilter, k: &Value) -> bool {
        match filter {
            SourceFilter::In(_, keys) => keys.contains(k),
            SourceFilter::Gt(_, bound) => k.sort_cmp(bound).is_gt(),
            _ => true,
        }
    }

    fn days_in(days: &[i32]) -> Vec<SourceFilter> {
        // `Int32` against a `bigint` dimension: the connector casts.
        vec![SourceFilter::In(
            "day".into(),
            days.iter().map(|&d| Value::Int32(d)).collect(),
        )]
    }

    #[test]
    fn a_scattered_key_set_opens_a_bounded_number_of_scanners() {
        let (cluster, relation) = daily();
        // Nine separate days; the three widest gaps (after 2, 12 and 22)
        // stay closed to the scan, the rest are read through and dropped.
        let days = [0, 2, 10, 12, 20, 22, 30, 32, 34];
        let before = cluster.metrics.snapshot();
        let parts = relation.scan(None, &days_in(&days)).unwrap();
        assert_eq!(parts.len(), 1);
        let mut rows = run_partitions(&parts);
        let delta = cluster.metrics.snapshot().delta_since(&before);
        assert_eq!(delta.scanner_opens, MAX_SCANNERS_PER_REGION as u64);
        rows.sort_by_key(|r| (r.get(0).as_i64(), r.get(1).as_i64()));
        let got: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| (r.get(0).as_i64().unwrap(), r.get(1).as_i64().unwrap()))
            .collect();
        let expected: Vec<(i64, i64)> = days
            .iter()
            .flat_map(|&d| (0..5).map(move |i| (d as i64, i)))
            .collect();
        assert_eq!(got, expected, "the days asked for, nothing from the gaps");
        // Days 1, 11, 21, 31 and 33 were read and left behind: five rows each.
        assert_eq!(delta.cells_returned, (9 + 5) * 5);

        // Within the bound every range has its own scanner and no gap is read.
        let before = cluster.metrics.snapshot();
        let rows = run_partitions(&relation.scan(None, &days_in(&[0, 10, 20, 30])).unwrap());
        let delta = cluster.metrics.snapshot().delta_since(&before);
        assert_eq!((rows.len(), delta.scanner_opens), (20, 4));
        assert_eq!(delta.cells_returned, 20);
    }

    /// What a read's rows decode to, by a route that shares nothing with
    /// [`BlockColumns`] or [`RowDecoder`]: the store's own decode of the
    /// rows (`cellblock::decode`, behind `Table::scan`), then the catalog's
    /// row-key decode and each column's codec.
    fn reference_rows(
        catalog: &HBaseTableCatalog,
        projected: &[usize],
        rows: &[shc_kvstore::types::RowResult],
    ) -> Vec<Row> {
        let decode = |row: &shc_kvstore::types::RowResult| {
            let dims = crate::rowkey::decode_rowkey(catalog, &row.row).unwrap();
            let values = projected.iter().map(|&idx| {
                let col = &catalog.columns[idx];
                match catalog.row_key.iter().position(|&k| k == idx) {
                    Some(dim) => dims[dim].clone(),
                    None => row
                        .value(col.family.as_bytes(), col.qualifier.as_bytes())
                        .map_or(Value::Null, |v| col.codec.decode(v, col.data_type).unwrap()),
                }
            });
            Row::new(values.collect())
        };
        rows.iter().map(decode).collect()
    }

    /// Every read of the connector goes through [`BlockColumns`]: SHC's
    /// range scans and bulk gets, and the generic source's full-width
    /// region scans. Each must yield what the reference decode of the same
    /// read yields. The table holds three versions of some `qty` (the
    /// newest wins), a `note` only some rows have (NULL elsewhere) and rows
    /// with no `qty` at all (kept with NULLs by `include_empty_rows`); the
    /// scans' key set is scattered enough that gaps are read through and
    /// dropped, and the gets ask for absent rows and for a live row whose
    /// projected columns are all NULL.
    #[test]
    fn block_columns_equal_a_reference_decode() {
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 1,
            ..Default::default()
        });
        let catalog = Arc::new(
            HBaseTableCatalog::parse_simple(
                r#"{
                "table":{"namespace":"default","name":"versions"},
                "rowkey":"day:item",
                "columns":{
                    "day":{"cf":"rowkey","col":"day","type":"bigint"},
                    "item":{"cf":"rowkey","col":"item","type":"int"},
                    "qty":{"cf":"cf","col":"qty","type":"int"},
                    "note":{"cf":"cf","col":"note","type":"string"}
                }}"#,
            )
            .unwrap(),
        );
        let conf = SHCConf::default().with_max_versions(3);
        let relation = HBaseRelation::new(Arc::clone(&cluster), Arc::clone(&catalog), conf);
        // Round r rewrites `qty` of the rows with `item < 3 - r`; `note`
        // is written on even days and for item 4, `qty` never for item 4.
        for round in 0..3i32 {
            let rows: Vec<Row> = (0..40i64)
                .flat_map(|day| (0..5).map(move |item| (day, item)))
                .filter(|&(_, item)| round == 0 || item < 3 - round)
                .map(|(day, item)| {
                    let qty = match item {
                        4 => Value::Null,
                        _ => Value::Int32(day as i32 * 100 + item * 10 + round),
                    };
                    let note = match (day % 2 == 0 || item == 4) && round == 0 {
                        true => Value::Utf8(format!("note {day}/{item}")),
                        false => Value::Null,
                    };
                    Row::new(vec![Value::Int64(day), Value::Int32(item), qty, note])
                })
                .collect();
            writer::write_rows(&cluster, &catalog, &relation.conf, &rows).unwrap();
        }
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(catalog.table.clone());
        // The reference: every row of a table under `projected`, read as
        // SHC reads it.
        let reference = |catalog: &HBaseTableCatalog, projected: &[usize]| {
            let scan = Scan {
                projection: build_kv_projection(catalog, projected, &None),
                max_versions: 3,
                include_empty_rows: true,
                ..Scan::new()
            };
            let rows = conn.table(catalog.table.clone()).scan(&scan).unwrap();
            reference_rows(catalog, projected, &rows)
        };
        let key = |row: &Row| (row.get(0).as_i64().unwrap(), row.get(1).as_i64().unwrap());

        // Range scans over a scattered key set.
        let versions = Scan {
            max_versions: 3,
            ..Scan::new()
        };
        let stored = table.scan(&versions).unwrap();
        assert!(
            stored.iter().any(|row| row.cells.len() > 2),
            "versions read"
        );
        let days = [0, 3, 10, 13, 20, 23, 30, 33, 35];
        for projection in [None, Some(&[0, 1, 2][..])] {
            let parts = relation.scan(projection, &days_in(&days)).unwrap();
            assert_eq!(parts.len(), 1);
            let got = run_partitions(&parts);
            let mut expected = reference(&catalog, &relation.projected_indices(projection));
            expected.retain(|row| days.contains(&(key(row).0 as i32)));
            assert_eq!(got, expected, "projection {projection:?}");
            assert_eq!(got.len(), days.len() * 5);
            // Spot checks: the newest `qty`, a NULL `note`, an empty row.
            let at = |k| got.iter().find(|r| key(r) == k).unwrap();
            assert_eq!(at((10, 0)).get(2), &Value::Int32(1002));
            assert_eq!(at((10, 2)).get(2), &Value::Int32(1020));
            assert_eq!(at((10, 4)).get(2), &Value::Null);
            if projection.is_none() {
                assert_eq!(at((10, 1)).get(3), &Value::Utf8("note 10/1".into()));
                assert_eq!(at((13, 1)).get(3), &Value::Null);
                assert_eq!(at((13, 4)).get(3), &Value::Utf8("note 13/4".into()));
            }
        }

        // Bulk gets, over a table keyed by `id` alone: k07 was never
        // written, and k01 has a `qty` but no `note`.
        let keyed = Arc::new(
            HBaseTableCatalog::parse_simple(
                r#"{
                "table":{"namespace":"default","name":"keyed"},
                "rowkey":"id",
                "columns":{
                    "id":{"cf":"rowkey","col":"id","type":"string"},
                    "qty":{"cf":"cf","col":"qty","type":"int"},
                    "note":{"cf":"cf","col":"note","type":"string"}
                }}"#,
            )
            .unwrap(),
        );
        let by_id = HBaseRelation::new(
            Arc::clone(&cluster),
            Arc::clone(&keyed),
            relation.conf.clone(),
        );
        for round in 0..3 {
            let rows: Vec<Row> = (0..6)
                .map(|i| {
                    let note = match i % 2 == 0 && round == 0 {
                        true => Value::Utf8(format!("note {i}")),
                        false => Value::Null,
                    };
                    Row::new(vec![
                        Value::Utf8(format!("k{i:02}")),
                        Value::Int32(i * 10 + round),
                        note,
                    ])
                })
                .collect();
            writer::write_rows(&cluster, &keyed, &by_id.conf, &rows).unwrap();
        }
        let ids = ["k01", "k02", "k04", "k07"];
        let points = [SourceFilter::In(
            "id".into(),
            ids.map(|id| Value::Utf8(id.into())).to_vec(),
        )];
        for projection in [None, Some(&[0, 2][..])] {
            let parts = by_id.scan(projection, &points).unwrap();
            let before = cluster.metrics.snapshot();
            let got = run_partitions(&parts);
            let delta = cluster.metrics.snapshot().delta_since(&before);
            assert_eq!(delta.scanner_opens, 0, "BulkGets only");
            let mut expected = reference(&keyed, &by_id.projected_indices(projection));
            expected.retain(|row| ids.contains(&row.get(0).as_str().unwrap()));
            assert_eq!(got, expected, "projection {projection:?}");
            let got_ids: Vec<_> = got.iter().map(|row| row.get(0).as_str().unwrap()).collect();
            assert_eq!(got_ids, ["k01", "k02", "k04"]);
            if projection.is_some() {
                assert_eq!(got[0].get(1), &Value::Null, "a live row, kept");
            } else {
                assert_eq!(got[0].get(1), &Value::Int32(12), "the newest version");
            }
        }

        // The generic source: full-width rows, every row kept.
        let generic =
            crate::generic::GenericHBaseRelation::new(Arc::clone(&cluster), Arc::clone(&catalog));
        let got = run_partitions(&generic.scan(None, &[]).unwrap());
        let every_column: Vec<usize> = (0..catalog.columns.len()).collect();
        let rows = table.scan(&Scan::new()).unwrap();
        assert_eq!(got, reference_rows(&catalog, &every_column, &rows));
        assert_eq!(got.len(), 40 * 5);
    }

    #[test]
    fn an_empty_key_set_plans_no_task() {
        let (cluster, relation) = daily();
        let before = cluster.metrics.snapshot();
        assert!(relation.scan(None, &days_in(&[])).unwrap().is_empty());
        assert_eq!(cluster.metrics.snapshot().delta_since(&before).rpc_count, 0);
    }

    #[test]
    fn partitions_are_pruned_on_the_first_key_dimension_only() {
        let (cluster, relation) = daily();
        assert!(relation.prunes_partitions_on("day"));
        assert!(!relation.prunes_partitions_on("item"));
        assert!(!relation.prunes_partitions_on("qty"));
        for conf in [
            SHCConf::default().without_pruning(),
            SHCConf::default().without_pushdown(),
        ] {
            let off = HBaseRelation::new(Arc::clone(&cluster), Arc::clone(&relation.catalog), conf);
            assert!(!off.prunes_partitions_on("day"));
        }
    }

    #[test]
    fn a_catalog_that_contradicts_its_row_key_is_an_error() {
        let (cluster, relation) = daily();
        // `item` is stored in the key but no longer one of its dimensions.
        let mut catalog = (*relation.catalog).clone();
        catalog.row_key.pop();
        let broken =
            HBaseRelation::new(Arc::clone(&cluster), Arc::new(catalog), SHCConf::default());
        let err = broken.scan(None, &[]).err().expect("scan must fail");
        assert!(
            err.to_string().contains("not one of its dimensions"),
            "{err}"
        );
        // Only the key column is affected; and a key that is longer than the
        // catalog says fails in the task, as an error.
        let parts = broken.scan(Some(&[0, 2]), &[]).unwrap();
        let err = partition_rows(&*parts[0], "host-0").unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    /// `setup`'s rows on a single server: one fused partition.
    fn one_server(caching: usize) -> (Arc<HBaseCluster>, Arc<HBaseRelation>) {
        setup_with(1, caching)
    }

    fn keys_of(batch: &ColumnarBatch) -> Vec<String> {
        (0..batch.num_rows())
            .map(|i| batch.column(0).value(i).to_display_string())
            .collect()
    }

    #[test]
    fn batches_are_cut_at_the_batch_size_not_at_rpc_or_region_boundaries() {
        let (cluster, relation) = one_server(4);
        let parts = relation.scan(None, &[]).unwrap();
        assert_eq!(parts.len(), 1, "three regions, one server, one task");
        let before = cluster.metrics.snapshot();
        let (mut sizes, mut keys) = (Vec::new(), Vec::new());
        parts[0]
            .execute("host-0", 7, &mut |batch| {
                sizes.push(batch.num_rows());
                keys.extend(keys_of(&batch));
                Ok(())
            })
            .unwrap();
        assert_eq!(sizes, vec![7, 7, 7, 7, 2]);
        let rpcs = cluster.metrics.snapshot().delta_since(&before);
        assert!(
            rpcs.scanner_batches >= 8,
            "30 rows came 4 at most at a time: {}",
            rpcs.scanner_batches
        );
        let expected: Vec<String> = (0..30).map(|i| format!("row{i:02}")).collect();
        assert_eq!(keys, expected);
        // Typed from the catalog, projection applied.
        let mut dtypes = Vec::new();
        relation.scan(Some(&[3, 0]), &[]).unwrap()[0]
            .execute("host-0", 1024, &mut |batch| {
                dtypes = batch.dtypes();
                assert!(batch.column(0).f64_slice().is_some());
                Ok(())
            })
            .unwrap();
        assert_eq!(dtypes, vec![DataType::Float64, DataType::Utf8]);
    }

    #[test]
    fn a_sink_error_stops_the_scan_and_surfaces_once() {
        let (cluster, relation) = one_server(4);
        let parts = relation.scan(None, &[]).unwrap();
        let before = cluster.metrics.snapshot();
        let mut calls = 0;
        let err = parts[0]
            .execute("host-0", 7, &mut |_| {
                calls += 1;
                Err(EngineError::Execution("sink is full".into()))
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err.to_string(), "execution error: sink is full");
        // Two scanner RPCs filled the first batch; the other regions were
        // never asked.
        let rpcs = cluster.metrics.snapshot().delta_since(&before);
        assert!(rpcs.scanner_batches <= 3, "{}", rpcs.scanner_batches);
    }

    #[test]
    fn a_stale_layout_met_with_rows_in_the_builder_never_repeats_them() {
        use shc_kvstore::client::MAX_ATTEMPTS;
        use shc_kvstore::fault::{FaultKind, FaultRule, RpcOp};
        let (cluster, relation) = one_server(1024);
        let regions = cluster.master.regions_of(&relation.catalog.table).unwrap();
        // As many refusals as the client has attempts: the partition sees
        // the error.
        let refuse_scans_of = |region: usize| {
            cluster.faults().add_rule(
                FaultRule::new(FaultKind::NotServing)
                    .on_op(RpcOp::Scan)
                    .on_region(regions[region].info.region_id)
                    .first_n(MAX_ATTEMPTS),
            );
        };
        let run = |seen: &mut Vec<String>| {
            relation.scan(None, &[]).unwrap()[0].execute("host-0", 1024, &mut |batch| {
                seen.extend(keys_of(&batch));
                Ok(())
            })
        };
        let expected: Vec<String> = (0..30).map(|i| format!("row{i:02}")).collect();

        // Whichever region refuses — the last, with the first two regions'
        // twenty rows decoded but not handed on, or the first, with none —
        // the partition hands on nothing and returns the client's error.
        // The scheduler's rerun of the task reads every row once.
        for region in [2, 0] {
            refuse_scans_of(region);
            let mut seen = Vec::new();
            let err = run(&mut seen).unwrap_err();
            assert!(err.to_string().contains("not serving"), "{err}");
            let exhausted = format!("failed after {MAX_ATTEMPTS} attempts");
            assert!(err.to_string().contains(&exhausted), "{err}");
            assert!(seen.is_empty(), "nothing of the failed attempt escaped");
            run(&mut seen).unwrap();
            assert_eq!(seen, expected, "region {region}");
        }

        // A crashed server answers `ServerNotFound`, transient like a moved
        // region: the client spends one retry budget and the error goes up.
        let server = cluster.server(0).unwrap();
        server.crash();
        let before = cluster.metrics.snapshot();
        let mut seen = Vec::new();
        let err = run(&mut seen).unwrap_err();
        assert!(
            err.to_string().contains("region server 0 not found"),
            "{err}"
        );
        let retries = cluster
            .metrics
            .snapshot()
            .delta_since(&before)
            .client_retries;
        assert_eq!(
            retries,
            u64::from(MAX_ATTEMPTS - 1),
            "one pass of the client's attempts"
        );
        server.restart();
        run(&mut seen).unwrap();
        assert_eq!(seen, expected);
    }

    #[test]
    fn in_list_becomes_bulk_get() {
        let (cluster, relation) = setup();
        let before = cluster.metrics.snapshot();
        let filters = vec![SourceFilter::In(
            "col0".into(),
            vec![
                Value::Utf8("row01".into()),
                Value::Utf8("row02".into()),
                Value::Utf8("row17".into()),
            ],
        )];
        let parts = relation.scan(None, &filters).unwrap();
        let rows = run_partitions(&parts);
        assert_eq!(rows.len(), 3);
        let delta = cluster.metrics.snapshot().delta_since(&before);
        // Points fused into (at most one) BulkGet per region touched.
        assert!(delta.rpc_count <= 3, "rpcs = {}", delta.rpc_count);
    }

    /// A point-key IN list over one region is planned, and then that region
    /// is split, or moved, before the task runs. The fused bulk get finds
    /// the rows where they live now: each once, in key order, and with one
    /// BulkGet served by each region that owns some of them.
    #[test]
    fn a_planned_bulk_get_follows_a_split_or_a_move() {
        use shc_kvstore::fault::{FaultKind, FaultRule, RpcOp};
        for split in [true, false] {
            let (cluster, relation) = setup_with(2, SHCConf::default().caching);
            let name = &relation.catalog.table;
            let region = cluster.master.regions_of(name).unwrap()[0].clone();
            let keys: Vec<String> = (0..30)
                .map(|i| format!("row{i:02}"))
                .filter(|key| region.info.contains_row(key.as_bytes()))
                .collect();
            assert!(keys.len() >= 2, "{keys:?}");
            let values = keys.iter().map(|k| Value::Utf8(k.clone())).collect();
            let parts = relation
                .scan(None, &[SourceFilter::In("col0".into(), values)])
                .unwrap();
            let region_id = region.info.region_id;
            if split {
                cluster.master.split_region(name, region_id).unwrap();
            } else {
                let dst = (region.server_id + 1) % 2;
                cluster.master.move_region(name, region_id, dst).unwrap();
            }
            let owners: Vec<RegionLocation> = cluster
                .master
                .regions_of(name)
                .unwrap()
                .into_iter()
                .filter(|loc| keys.iter().any(|k| loc.info.contains_row(k.as_bytes())))
                .collect();
            assert_eq!(owners.len(), if split { 2 } else { 1 });
            // A zero delay fires on, and so counts, every BulkGet an owner
            // serves at its current host.
            let served: Vec<_> = owners
                .iter()
                .map(|loc| {
                    cluster.faults().add_rule(
                        FaultRule::new(FaultKind::Delay(std::time::Duration::ZERO))
                            .on_op(RpcOp::BulkGet)
                            .on_server(loc.server_id)
                            .on_region(loc.info.region_id),
                    )
                })
                .collect();
            let rows = run_partitions(&parts);
            let got: Vec<&str> = rows.iter().map(|r| r.get(0).as_str().unwrap()).collect();
            assert_eq!(got, keys, "split = {split}");
            for rule in served {
                assert_eq!(rule.fire_count(), 1, "split = {split}");
            }
        }
    }

    #[test]
    fn disabling_fusion_multiplies_tasks() {
        let (cluster, _) = setup();
        let catalog = Arc::new(HBaseTableCatalog::parse_simple(actives_catalog_json()).unwrap());
        let fused = HBaseRelation::new(
            Arc::clone(&cluster),
            Arc::clone(&catalog),
            SHCConf::default(),
        );
        let unfused = HBaseRelation::new(
            Arc::clone(&cluster),
            catalog,
            SHCConf::default().without_fusion(),
        );
        let filters = vec![SourceFilter::In(
            "col0".into(),
            vec![
                Value::Utf8("row01".into()),
                Value::Utf8("row12".into()),
                Value::Utf8("row22".into()),
            ],
        )];
        let fused_parts = fused.scan(None, &filters).unwrap();
        let unfused_parts = unfused.scan(None, &filters).unwrap();
        assert!(unfused_parts.len() >= fused_parts.len());
        assert_eq!(run_partitions(&unfused_parts).len(), 3);
    }

    #[test]
    fn secure_cluster_requires_configured_credentials() {
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 1,
            secure_token_lifetime_ms: Some(1_000_000),
            ..Default::default()
        });
        cluster
            .security
            .as_ref()
            .unwrap()
            .register_principal("p", "k");
        let catalog = Arc::new(HBaseTableCatalog::parse_simple(actives_catalog_json()).unwrap());
        // Without credentials: scan fails up front.
        let no_sec = HBaseRelation::new(
            Arc::clone(&cluster),
            Arc::clone(&catalog),
            SHCConf::default(),
        );
        assert!(no_sec.scan(None, &[]).is_err());
        // With credentials: works.
        let with_sec = HBaseRelation::new(
            Arc::clone(&cluster),
            catalog,
            SHCConf::default().with_security("p", "k"),
        );
        // Table does not exist yet; create it via writer.
        writer::write_rows(
            &cluster,
            &with_sec.catalog,
            &with_sec.conf,
            &[Row::new(vec![
                Value::Utf8("r1".into()),
                Value::Int8(1),
                Value::Utf8("p".into()),
                Value::Float64(0.5),
                Value::Timestamp(1),
            ])],
        )
        .unwrap();
        let parts = with_sec.scan(None, &[]).unwrap();
        assert_eq!(run_partitions(&parts).len(), 1);
    }

    #[test]
    fn timestamp_conf_filters_versions() {
        let (cluster, relation) = setup();
        // Overwrite row00's stay-time at a later logical time.
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(relation.catalog.table.clone());
        let write_time = cluster.clock.peek_ms();
        table
            .put(
                shc_kvstore::types::Put::new("row00").add_at(
                    "cf3",
                    "col3",
                    write_time + 1000,
                    relation.catalog.columns[3]
                        .codec
                        .encode(&Value::Float64(999.0), shc_engine::value::DataType::Float64)
                        .unwrap(),
                ),
            )
            .unwrap();

        // Unbounded: sees the newest version.
        let parts = relation
            .scan(
                None,
                &[SourceFilter::Eq("col0".into(), Value::Utf8("row00".into()))],
            )
            .unwrap();
        let rows = run_partitions(&parts);
        assert_eq!(rows[0].get(3), &Value::Float64(999.0));

        // Bounded below the overwrite: sees the original.
        let catalog = Arc::clone(&relation.catalog);
        let old = HBaseRelation::new(
            Arc::clone(&cluster),
            catalog,
            SHCConf::default().with_time_range(0, write_time),
        );
        let parts = old
            .scan(
                None,
                &[SourceFilter::Eq("col0".into(), Value::Utf8("row00".into()))],
            )
            .unwrap();
        let rows = run_partitions(&parts);
        assert_eq!(rows[0].get(3), &Value::Float64(0.0));
    }
}
