//! Model-based property tests for the region read path and the store-file
//! format under it.
//!
//! Random sequences of puts, deletes and flushes run against a real region
//! and against a trivial in-memory model that re-implements HBase's read
//! semantics directly (timestamp-descending versions, delete markers
//! masking earlier-timestamped puts regardless of write order, version
//! caps = min(requested, family max), half-open time ranges, projection
//! with the empty-row witness, row filters over the projected cells, row
//! limits). Scans under random windows, ranges, projections, filters and
//! limits must agree — unbatched and in scanner-style batches, with the
//! data in the memstore only, spread over several store files plus the
//! memstore, and after a major compaction.

use bytes::Bytes;
use proptest::prelude::*;
use shc_kvstore::cellblock;
use shc_kvstore::clock::Clock;
use shc_kvstore::fault::FileOp;
use shc_kvstore::filter::{CompareOp, Filter, RowRange};
use shc_kvstore::metrics::ClusterMetrics;
use shc_kvstore::region::{Region, RegionConfig, RegionInfo};
use shc_kvstore::storage::{self, StorageEnv};
use shc_kvstore::storefile::StoreFile;
use shc_kvstore::types::{
    row_successor, Cell, CellKey, CellType, Delete, DeleteScope, FamilyDescriptor, Projection, Put,
    Scan, TableDescriptor, TableName, TimeRange,
};
use shc_kvstore::wal::Wal;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

const FAMILY_MAX_VERSIONS: u32 = 3;
const ROWS: u8 = 5;
const QUALS: u8 = 3;

#[derive(Clone, Debug)]
enum Op {
    /// (row, qualifier, timestamp, value)
    Put(u8, u8, u64, u8),
    /// (row, qualifier, timestamp) — delete-column marker
    DeleteColumn(u8, u8, u64),
    /// (row, qualifier, timestamp) — exact-version delete marker
    DeleteVersion(u8, u8, u64),
    /// (row, timestamp) — delete-family marker
    DeleteFamily(u8, u64),
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..ROWS, 0..QUALS, 1u64..12, any::<u8>())
            .prop_map(|(r, q, t, v)| Op::Put(r, q, t, v)),
        2 => (0..ROWS, 0..QUALS, 1u64..12).prop_map(|(r, q, t)| Op::DeleteColumn(r, q, t)),
        2 => (0..ROWS, 0..QUALS, 1u64..12).prop_map(|(r, q, t)| Op::DeleteVersion(r, q, t)),
        1 => (0..ROWS, 1u64..12).prop_map(|(r, t)| Op::DeleteFamily(r, t)),
        1 => Just(Op::Flush),
    ]
}

fn row_key(r: u8) -> Vec<u8> {
    format!("row{r}").into_bytes()
}

fn qual(q: u8) -> Vec<u8> {
    format!("q{q}").into_bytes()
}

/// Where the data sits when the scans run.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// Flushes where the generated ops put them.
    AsGenerated,
    /// No flush at all: every cell is read from the memstore.
    MemstoreOnly,
    /// A flush after each third of the ops: two store files and a memstore.
    TwoFilesAndMemstore,
}

fn arrange(ops: Vec<Op>, layout: Layout) -> Vec<Op> {
    let writes = |ops: Vec<Op>| -> Vec<Op> {
        ops.into_iter()
            .filter(|op| !matches!(op, Op::Flush))
            .collect()
    };
    match layout {
        Layout::AsGenerated => ops,
        Layout::MemstoreOnly => writes(ops),
        Layout::TwoFilesAndMemstore => {
            let ops = writes(ops);
            let third = ops.len().div_ceil(3);
            let mut out = Vec::new();
            for (i, op) in ops.into_iter().enumerate() {
                if i > 0 && i % third == 0 {
                    out.push(Op::Flush);
                }
                out.push(op);
            }
            out
        }
    }
}

/// A row filter the model can evaluate too.
#[derive(Clone, Debug)]
enum ModelFilter {
    ColumnValue {
        q: u8,
        op: CompareOp,
        value: u8,
        filter_if_missing: bool,
    },
    /// Half-open row-index ranges `[lo, hi)`.
    RowRanges(Vec<(u8, u8)>),
    And(Vec<ModelFilter>),
}

fn arb_leaf_filter() -> impl Strategy<Value = ModelFilter> {
    let op = prop_oneof![
        Just(CompareOp::Eq),
        Just(CompareOp::Ne),
        Just(CompareOp::Lt),
        Just(CompareOp::Ge),
    ];
    prop_oneof![
        // `QUALS` itself names a column no row has.
        (0..=QUALS, op, any::<u8>(), any::<bool>()).prop_map(
            |(q, op, value, filter_if_missing)| ModelFilter::ColumnValue {
                q,
                op,
                value,
                filter_if_missing,
            }
        ),
        prop::collection::vec((0..ROWS, 0..=ROWS), 1..3).prop_map(ModelFilter::RowRanges),
    ]
}

fn arb_filter() -> impl Strategy<Value = Option<ModelFilter>> {
    prop_oneof![
        Just(None),
        arb_leaf_filter().prop_map(Some),
        prop::collection::vec(arb_leaf_filter(), 2..4).prop_map(|fs| Some(ModelFilter::And(fs))),
    ]
}

impl ModelFilter {
    fn to_filter(&self) -> Filter {
        match self {
            ModelFilter::ColumnValue {
                q,
                op,
                value,
                filter_if_missing,
            } => Filter::ColumnValue {
                family: Bytes::from_static(b"cf"),
                qualifier: Bytes::from(qual(*q)),
                op: *op,
                value: Bytes::from(vec![*value]),
                filter_if_missing: *filter_if_missing,
            },
            ModelFilter::RowRanges(ranges) => Filter::RowRanges(
                ranges
                    .iter()
                    .map(|&(lo, hi)| RowRange::new(row_key(lo), row_key(hi)))
                    .collect(),
            ),
            ModelFilter::And(children) => {
                Filter::And(children.iter().map(ModelFilter::to_filter).collect())
            }
        }
    }

    /// Evaluate against a row's *projected* columns, as the store does.
    fn matches(&self, r: u8, columns: &[(u8, Vec<u8>)]) -> bool {
        match self {
            ModelFilter::ColumnValue {
                q,
                op,
                value,
                filter_if_missing,
            } => match columns.iter().find(|(cq, _)| cq == q) {
                Some((_, versions)) => op.eval(&versions[..1], &[*value]),
                None => !filter_if_missing,
            },
            ModelFilter::RowRanges(ranges) => ranges.iter().any(|&(lo, hi)| lo <= r && r < hi),
            ModelFilter::And(children) => children.iter().all(|f| f.matches(r, columns)),
        }
    }
}

/// Everything a scan can ask for, in model terms.
#[derive(Clone, Debug)]
struct Spec {
    time_range: TimeRange,
    max_versions: u32,
    /// Row-index window `[lo, hi)`; `None` = unbounded on that side.
    start: Option<u8>,
    stop: Option<u8>,
    /// Qualifiers to return; `None` = all. May name `QUALS`, which no row
    /// has.
    projection: Option<Vec<u8>>,
    include_empty_rows: bool,
    filter: Option<ModelFilter>,
    /// 0 = unlimited.
    limit: usize,
}

fn maybe<S: Strategy + 'static>(some: S) -> impl Strategy<Value = Option<S::Value>>
where
    S::Value: Clone + std::fmt::Debug + 'static,
{
    prop_oneof![Just(None), some.prop_map(Some)]
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (
        (0u64..10, 1u64..14, 1u32..5),
        (
            maybe(0..ROWS),
            maybe(0..=ROWS),
            maybe(prop::collection::vec(0..=QUALS, 1..3)),
            any::<bool>(),
        ),
        arb_filter(),
        0usize..4,
    )
        .prop_map(
            |((lo, span, k), (start, stop, projection, include_empty_rows), filter, limit)| Spec {
                time_range: TimeRange::new(lo, lo + span),
                max_versions: k,
                start,
                stop,
                projection,
                include_empty_rows,
                filter,
                limit,
            },
        )
}

impl Spec {
    fn to_scan(&self) -> Scan {
        let mut scan = Scan::new()
            .with_time_range(self.time_range)
            .with_max_versions(self.max_versions)
            .with_limit(self.limit)
            .with_range(
                self.start
                    .map_or(Bound::Unbounded, |r| Bound::Included(row_key(r).into())),
                self.stop
                    .map_or(Bound::Unbounded, |r| Bound::Excluded(row_key(r).into())),
            );
        if let Some(quals) = &self.projection {
            let projection = quals
                .iter()
                .fold(Projection::all(), |p, &q| p.column("cf", qual(q)));
            scan = scan.with_projection(projection);
        }
        scan.include_empty_rows = self.include_empty_rows;
        scan.filter = self.filter.as_ref().map(ModelFilter::to_filter);
        scan
    }
}

/// A scan result in model terms: per returned row, its returned columns and
/// their values newest first. A row with no columns is an empty-row witness.
type Rows = Vec<(u8, Vec<(u8, Vec<u8>)>)>;

// ----------------------------------------------------------------------
// Reference model
// ----------------------------------------------------------------------

#[derive(Clone, Debug)]
struct ModelCell {
    ts: u64,
    seq: u64,
    value: u8,
}

#[derive(Default, Clone)]
struct Model {
    /// (row, qual) → puts in write order.
    puts: BTreeMap<(u8, u8), Vec<ModelCell>>,
    /// (row, qual) → delete-column marker timestamps.
    col_dels: BTreeMap<(u8, u8), Vec<u64>>,
    /// (row, qual) → exact-version marker timestamps.
    version_dels: BTreeMap<(u8, u8), Vec<u64>>,
    /// row → delete-family marker timestamps.
    fam_dels: BTreeMap<u8, Vec<u64>>,
}

impl Model {
    fn apply(&mut self, op: &Op, seq: u64) {
        match *op {
            Op::Put(r, q, ts, value) => {
                self.puts
                    .entry((r, q))
                    .or_default()
                    .push(ModelCell { ts, seq, value });
            }
            Op::DeleteColumn(r, q, ts) => self.col_dels.entry((r, q)).or_default().push(ts),
            Op::DeleteVersion(r, q, ts) => self.version_dels.entry((r, q)).or_default().push(ts),
            Op::DeleteFamily(r, ts) => self.fam_dels.entry(r).or_default().push(ts),
            Op::Flush => {}
        }
    }

    /// Visible versions of one column under (time range, max_versions).
    ///
    /// A put is masked by any column or family marker whose timestamp is at
    /// or above the put's, and by an exact-version marker at its timestamp —
    /// by timestamp only, independent of write order. This is HBase's
    /// documented quirk: "deletes mask puts, even puts that happened after
    /// the delete was entered", until a major compaction removes the marker.
    ///
    /// `retained` models major compaction's physical version trimming:
    /// after compaction only the newest `FAMILY_MAX_VERSIONS` live versions
    /// of a column exist at all, so a time-window read can no longer see
    /// older in-window versions — real HBase behaviour.
    fn column_versions(&self, r: u8, q: u8, tr: TimeRange, k: u32, retained: bool) -> Vec<u8> {
        let none = Vec::new();
        let at_or_above = |markers: Option<&Vec<u64>>, ts: u64| {
            markers.unwrap_or(&none).iter().any(|&mts| mts >= ts)
        };
        let mut live: Vec<&ModelCell> = self
            .puts
            .get(&(r, q))
            .into_iter()
            .flatten()
            .filter(|c| {
                !at_or_above(self.col_dels.get(&(r, q)), c.ts)
                    && !at_or_above(self.fam_dels.get(&r), c.ts)
                    && !self
                        .version_dels
                        .get(&(r, q))
                        .is_some_and(|m| m.contains(&c.ts))
            })
            .collect();
        // Newest first; ties broken by later write.
        live.sort_by(|a, b| b.ts.cmp(&a.ts).then(b.seq.cmp(&a.seq)));
        if retained {
            live.truncate(FAMILY_MAX_VERSIONS as usize);
        }
        live.into_iter()
            .filter(|c| tr.contains(c.ts))
            .take(k.min(FAMILY_MAX_VERSIONS) as usize)
            .map(|c| c.value)
            .collect()
    }

    fn scan(&self, spec: &Spec, retained: bool) -> Rows {
        let mut out = Rows::new();
        for r in spec.start.unwrap_or(0)..spec.stop.unwrap_or(ROWS).min(ROWS) {
            let live: Vec<(u8, Vec<u8>)> = (0..QUALS)
                .map(|q| {
                    let versions =
                        self.column_versions(r, q, spec.time_range, spec.max_versions, retained);
                    (q, versions)
                })
                .filter(|(_, versions)| !versions.is_empty())
                .collect();
            let witness = !live.is_empty();
            let projected: Vec<(u8, Vec<u8>)> = live
                .into_iter()
                .filter(|(q, _)| spec.projection.as_ref().is_none_or(|p| p.contains(q)))
                .collect();
            if projected.is_empty() && !(spec.include_empty_rows && witness) {
                continue;
            }
            if spec
                .filter
                .as_ref()
                .is_some_and(|f| !f.matches(r, &projected))
            {
                continue;
            }
            out.push((r, projected));
            if spec.limit > 0 && out.len() == spec.limit {
                break;
            }
        }
        out
    }
}

// ----------------------------------------------------------------------
// The harness
// ----------------------------------------------------------------------

/// A throwaway storage root, removed when its last holder drops.
fn temp_env() -> Arc<StorageEnv> {
    StorageEnv::temp(1 << 20, ClusterMetrics::new()).unwrap()
}

fn fresh_region() -> Region {
    let env = temp_env();
    let wal = Wal::open(Arc::clone(&env), env.wal_dir(0)).unwrap();
    let descriptor = TableDescriptor::new(TableName::default_ns("model"))
        .with_family(FamilyDescriptor::new("cf").with_max_versions(FAMILY_MAX_VERSIONS));
    Region::new(
        RegionInfo {
            region_id: 1,
            table: descriptor.name.clone(),
            start_key: Bytes::new(),
            end_key: Bytes::new(),
        },
        descriptor,
        RegionConfig {
            memstore_flush_size: usize::MAX, // flush only when the op says so
            compact_at_file_count: usize::MAX,
            tier_min_files: usize::MAX,
            ..RegionConfig::default()
        },
        Arc::new(wal),
        Clock::logical(1),
        env,
    )
    .unwrap()
}

fn apply(region: &Region, op: &Op) {
    let delete = |r: u8, scope: DeleteScope, ts: Option<u64>| {
        region
            .delete(&Delete {
                row: Bytes::from(row_key(r)),
                scope,
                timestamp: ts,
            })
            .unwrap()
    };
    let family = Bytes::from_static(b"cf");
    match *op {
        Op::Put(r, q, ts, v) => region
            .put(&Put::new(row_key(r)).add_at("cf", qual(q), ts, vec![v]))
            .unwrap(),
        Op::DeleteColumn(r, q, ts) => delete(
            r,
            DeleteScope::Column {
                family,
                qualifier: Bytes::from(qual(q)),
            },
            Some(ts),
        ),
        Op::DeleteVersion(r, q, ts) => delete(
            r,
            DeleteScope::Version {
                family,
                qualifier: Bytes::from(qual(q)),
                timestamp: ts,
            },
            None,
        ),
        Op::DeleteFamily(r, ts) => delete(r, DeleteScope::Family(family), Some(ts)),
        Op::Flush => region.flush().unwrap(),
    }
}

/// Run `scan` and translate the rows into model terms, checking on the way
/// that they arrive in row order without duplicates.
fn region_rows(region: &Region, scan: &Scan) -> Rows {
    let (block, stats) = region.scan_with(scan, None).unwrap();
    let rows = cellblock::decode(&block).unwrap();
    assert_eq!(stats.rows_returned as usize, rows.len());
    assert!(
        rows.windows(2).all(|w| w[0].row < w[1].row),
        "rows must ascend strictly"
    );
    rows.iter()
        .map(|row| {
            let r = (0..ROWS)
                .find(|&r| row.row.as_ref() == row_key(r))
                .expect("a row the ops wrote");
            assert!(row.cells.iter().all(|c| c.key.row == row.row));
            let columns: Vec<(u8, Vec<u8>)> = (0..QUALS)
                .map(|q| {
                    let versions = row.versions(b"cf", &qual(q));
                    (q, versions.iter().map(|c| c.value[0]).collect::<Vec<u8>>())
                })
                .filter(|(_, versions)| !versions.is_empty())
                .collect();
            let cells: usize = columns.iter().map(|(_, v)| v.len()).sum();
            assert_eq!(cells, row.cells.len(), "no cell outside the known columns");
            (r, columns)
        })
        .collect()
}

/// Run `scan` the way a server-side scanner does: batches of at most `n`
/// rows, each resumed at the successor of the last row returned, until a
/// batch comes back short or the scan's own limit is spent.
fn batched_rows(region: &Region, scan: &Scan, n: usize) -> Rows {
    let mut out = Rows::new();
    let mut batch_scan = scan.clone();
    loop {
        let remaining = match scan.limit {
            0 => usize::MAX,
            limit => limit - out.len(),
        };
        if remaining == 0 {
            return out;
        }
        batch_scan.limit = n.min(remaining);
        let batch = region_rows(region, &batch_scan);
        let full = batch.len() == batch_scan.limit;
        if let Some((last, _)) = batch.last() {
            batch_scan.start = Bound::Included(row_successor(&row_key(*last)));
        }
        out.extend(batch);
        if !full {
            return out;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn region_reads_match_reference_model(
        ops in prop::collection::vec(arb_op(), 1..60),
        layout in prop_oneof![
            Just(Layout::AsGenerated),
            Just(Layout::MemstoreOnly),
            Just(Layout::TwoFilesAndMemstore),
        ],
        specs in prop::collection::vec(arb_spec(), 1..4),
        batch in 1usize..4,
    ) {
        let ops = arrange(ops, layout);
        let region = fresh_region();
        let mut model = Model::default();
        let mut seq = 0u64; // mirrors the WAL sequence (one per mutation)
        for op in &ops {
            apply(&region, op);
            if !matches!(op, Op::Flush) {
                seq += 1;
            }
            model.apply(op, seq);
        }
        match layout {
            Layout::MemstoreOnly => prop_assert_eq!(region.store_file_count(), 0),
            Layout::TwoFilesAndMemstore if seq >= 5 => {
                prop_assert_eq!(region.store_file_count(), 2);
                prop_assert!(region.memstore_size() > 0);
            }
            _ => {}
        }

        for spec in &specs {
            let scan = spec.to_scan();
            let expected = model.scan(spec, false);
            prop_assert_eq!(&region_rows(&region, &scan), &expected, "pre-compaction {:?}", spec);
            prop_assert_eq!(
                &batched_rows(&region, &scan, batch), &expected,
                "pre-compaction, batches of {}: {:?}", batch, spec
            );
        }

        // After major compaction only the newest FAMILY_MAX_VERSIONS live
        // versions remain physically — the model applies the same
        // retention.
        region.flush().unwrap();
        region.compact().unwrap();
        for spec in &specs {
            let scan = spec.to_scan();
            let expected = model.scan(spec, true);
            prop_assert_eq!(&region_rows(&region, &scan), &expected, "post-compaction {:?}", spec);
            prop_assert_eq!(
                &batched_rows(&region, &scan, batch), &expected,
                "post-compaction, batches of {}: {:?}", batch, spec
            );
        }
    }
}

// ----------------------------------------------------------------------
// Store-file corruption that passes the block CRC
// ----------------------------------------------------------------------

/// Damage one payload byte of one data block and re-CRC the block, so only
/// the cell-level validation in `StoreFile::open` stands between the damage
/// and the read path. Either the file is refused as corrupt, or it opens and
/// every cell of every block can be read in full — lengths that passed
/// validation keep every slice inside its block. No panic either way.
fn check_recrced_damage(n_cells: usize, block: usize, at: usize, xor: u8) {
    let env = temp_env();
    let cells: Vec<Cell> = (0..n_cells)
        .map(|i| Cell {
            key: CellKey {
                row: Bytes::from(format!("r{:04}", i / 2).into_bytes()),
                family: Bytes::from_static(b"cf"),
                qualifier: Bytes::from(format!("q{}", i % 2).into_bytes()),
                timestamp: i as u64 + 1,
                seq: i as u64 + 1,
                cell_type: if i % 7 == 3 {
                    CellType::DeleteColumn
                } else {
                    CellType::Put
                },
            },
            value: Bytes::from(format!("value-{i}").into_bytes()),
        })
        .collect();
    let file = StoreFile::from_sorted(cells).unwrap();
    let path = env.root().join("sf.sst");
    file.write_to(&env, &path, FileOp::StoreFileWrite).unwrap();
    let mut data = std::fs::read(&path).unwrap();

    // Blocks sit back to back from offset 0: `len u32 | crc u32 | payload`.
    let mut start = 0;
    for _ in 0..block % file.num_blocks() {
        start += 8 + u32::from_le_bytes(data[start..start + 4].try_into().unwrap()) as usize;
    }
    let len = u32::from_le_bytes(data[start..start + 4].try_into().unwrap()) as usize;
    let payload = start + 8..start + 8 + len;
    data[payload.start + at % len] ^= xor;
    let crc = storage::crc32(&data[payload]);
    data[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &data).unwrap();

    match StoreFile::open(&env, &path) {
        Err(e) => assert!(
            matches!(e, shc_kvstore::error::KvError::Corruption(_)),
            "damage must surface as corruption, got {e:?}"
        ),
        Ok(opened) => {
            assert_eq!(opened.len(), n_cells);
            let mut touched = 0usize;
            for i in 0..opened.num_blocks() {
                for cell in opened.block(i).cells() {
                    touched += cell.row.len()
                        + cell.family.len()
                        + cell.qualifier.len()
                        + cell.value.len();
                    let _ = cell.to_cell();
                }
            }
            assert!(touched > 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn recrced_block_damage_is_refused_or_stays_in_bounds(
        n_cells in 1usize..200,
        block in any::<usize>(),
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        check_recrced_damage(n_cells, block, at, xor);
    }
}
