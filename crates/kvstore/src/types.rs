//! Core data model: the four HBase coordinates (row key, column family,
//! column qualifier, version) plus the mutation/read request shapes.
//!
//! The store is deliberately type-blind: every value is an opaque byte array,
//! exactly as in HBase. All typing lives in the connector's codecs.

use bytes::Bytes;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Bound;

/// A fully-qualified table name: `namespace:name`. The default namespace is
/// `"default"`, mirroring HBase.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableName {
    pub namespace: String,
    pub name: String,
}

impl TableName {
    pub fn new(namespace: impl Into<String>, name: impl Into<String>) -> Self {
        TableName {
            namespace: namespace.into(),
            name: name.into(),
        }
    }

    /// Table in the `default` namespace.
    pub fn default_ns(name: impl Into<String>) -> Self {
        Self::new("default", name)
    }
}

impl fmt::Display for TableName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.namespace, self.name)
    }
}

impl fmt::Debug for TableName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Timestamp in milliseconds since the epoch. HBase's `LATEST_TIMESTAMP` is
/// the maximum value; new puts without an explicit timestamp get the region
/// server's clock.
pub type Timestamp = u64;

/// Sentinel meaning "the newest version", used when a put carries no explicit
/// timestamp.
pub const LATEST_TIMESTAMP: Timestamp = u64::MAX;

/// The type of a cell: a regular value or a tombstone. The discriminant is
/// the type code a [cell block](crate::cellblock) stores.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CellType {
    /// A stored value.
    Put = 0,
    /// Deletes the single version at exactly this timestamp.
    Delete = 1,
    /// Deletes all versions of this column at or below this timestamp.
    DeleteColumn = 2,
    /// Deletes every column of this family at or below this timestamp.
    DeleteFamily = 3,
}

/// The sort key of a cell inside a store. Cells order by
/// (row ASC, family ASC, qualifier ASC, timestamp DESC, sequence DESC) —
/// the HBase `KeyValue` comparator. Newest data sorts first within a column
/// so scans naturally see the latest version first.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    pub row: Bytes,
    pub family: Bytes,
    pub qualifier: Bytes,
    pub timestamp: Timestamp,
    /// MVCC sequence number; breaks ties between same-timestamp writes.
    pub seq: u64,
    pub cell_type: CellType,
}

impl Ord for CellKey {
    fn cmp(&self, other: &Self) -> Ordering {
        CellRef::new(self, &[]).key_cmp(&CellRef::new(other, &[]))
    }
}

impl PartialOrd for CellKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn tombstone_rank(t: CellType) -> u8 {
    match t {
        CellType::DeleteFamily => 0,
        CellType::DeleteColumn => 1,
        CellType::Delete => 2,
        CellType::Put => 3,
    }
}

impl fmt::Debug for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}/{}:{}/{}@{}{}",
            self.row,
            String::from_utf8_lossy(&self.family),
            String::from_utf8_lossy(&self.qualifier),
            self.timestamp,
            self.seq,
            match self.cell_type {
                CellType::Put => "",
                CellType::Delete => " DEL",
                CellType::DeleteColumn => " DELCOL",
                CellType::DeleteFamily => " DELFAM",
            }
        )
    }
}

/// A materialized cell: coordinates plus the value bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cell {
    pub key: CellKey,
    pub value: Bytes,
}

impl Cell {
    /// Approximate heap footprint, used for memstore flush accounting.
    pub fn heap_size(&self) -> usize {
        self.as_ref().heap_size()
    }

    /// Borrow this cell as the view the read path works on.
    pub fn as_ref(&self) -> CellRef<'_> {
        CellRef::new(&self.key, &self.value)
    }
}

/// A borrowed cell: the coordinates and value as slices into wherever the
/// cell is stored — a decoded store-file block, a memstore entry, a
/// [`Cell`]. The read path compares, masks and filters these; a [`Cell`] is
/// only built ([`CellRef::to_cell`]) for what a read returns.
#[derive(Clone, Copy, Debug)]
pub struct CellRef<'a> {
    pub row: &'a [u8],
    pub family: &'a [u8],
    pub qualifier: &'a [u8],
    pub timestamp: Timestamp,
    pub seq: u64,
    pub cell_type: CellType,
    pub value: &'a [u8],
}

impl<'a> CellRef<'a> {
    pub fn new(key: &'a CellKey, value: &'a [u8]) -> Self {
        CellRef {
            row: &key.row,
            family: &key.family,
            qualifier: &key.qualifier,
            timestamp: key.timestamp,
            seq: key.seq,
            cell_type: key.cell_type,
            value,
        }
    }

    /// The [`CellKey`] order, on borrowed coordinates.
    pub fn key_cmp(&self, other: &CellRef<'_>) -> Ordering {
        self.row
            .cmp(other.row)
            .then_with(|| self.family.cmp(other.family))
            .then_with(|| self.qualifier.cmp(other.qualifier))
            // Descending timestamp: newest first.
            .then_with(|| other.timestamp.cmp(&self.timestamp))
            // Tombstones sort before puts at the same timestamp, so a
            // delete marker masks every put at its timestamp regardless of
            // write order — HBase's "deletes mask puts, even puts that
            // happened after the delete" semantics (resolved only by major
            // compaction removing the marker).
            .then_with(|| tombstone_rank(self.cell_type).cmp(&tombstone_rank(other.cell_type)))
            // Descending sequence: later write wins among equals.
            .then_with(|| other.seq.cmp(&self.seq))
    }

    /// Same accounting as [`Cell::heap_size`].
    pub fn heap_size(&self) -> usize {
        self.row.len() + self.family.len() + self.qualifier.len() + self.value.len() + 48
        // fixed overhead: timestamps, seq, enum, struct padding
    }

    /// Copy the cell out of its storage.
    pub fn to_cell(&self) -> Cell {
        Cell {
            key: CellKey {
                row: Bytes::copy_from_slice(self.row),
                family: Bytes::copy_from_slice(self.family),
                qualifier: Bytes::copy_from_slice(self.qualifier),
                timestamp: self.timestamp,
                seq: self.seq,
                cell_type: self.cell_type,
            },
            value: Bytes::copy_from_slice(self.value),
        }
    }
}

/// The immediate successor of `row` in byte order (`row` + `0x00`): the
/// smallest key strictly greater than `row`. Scanners resume from it so a
/// retry after the last returned row is duplicate-free.
pub fn row_successor(row: &[u8]) -> Bytes {
    let mut v = Vec::with_capacity(row.len() + 1);
    v.extend_from_slice(row);
    v.push(0);
    Bytes::from(v)
}

/// One column write inside a [`Put`].
#[derive(Clone, Debug)]
pub struct PutColumn {
    pub family: Bytes,
    pub qualifier: Bytes,
    /// `None` means "take the cluster clock" (HBase `LATEST_TIMESTAMP`):
    /// `Table::put_batch` (and `Table::put` through it) stamps such a column
    /// when it sends the batch, one tick per put in region order, and keeps
    /// the stamp on retries. A put sent straight to a region server takes
    /// the server's tick instead.
    pub timestamp: Option<Timestamp>,
    pub value: Bytes,
}

/// A row mutation inserting one or more column values.
#[derive(Clone, Debug)]
pub struct Put {
    pub row: Bytes,
    pub columns: Vec<PutColumn>,
}

impl Put {
    pub fn new(row: impl Into<Bytes>) -> Self {
        Put {
            row: row.into(),
            columns: Vec::new(),
        }
    }

    /// Add a column value without a timestamp: the cluster clock stamps it
    /// when the client sends the batch (see [`PutColumn::timestamp`]).
    pub fn add(
        mut self,
        family: impl Into<Bytes>,
        qualifier: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Self {
        self.columns.push(PutColumn {
            family: family.into(),
            qualifier: qualifier.into(),
            timestamp: None,
            value: value.into(),
        });
        self
    }

    /// Add a column value at an explicit timestamp.
    pub fn add_at(
        mut self,
        family: impl Into<Bytes>,
        qualifier: impl Into<Bytes>,
        ts: Timestamp,
        value: impl Into<Bytes>,
    ) -> Self {
        self.columns.push(PutColumn {
            family: family.into(),
            qualifier: qualifier.into(),
            timestamp: Some(ts),
            value: value.into(),
        });
        self
    }

    /// Total payload bytes carried by this put (for throughput metrics).
    pub fn payload_bytes(&self) -> usize {
        self.row.len()
            + self
                .columns
                .iter()
                .map(|c| c.family.len() + c.qualifier.len() + c.value.len())
                .sum::<usize>()
    }
}

/// What a [`Delete`] removes.
#[derive(Clone, Debug)]
pub enum DeleteScope {
    /// The whole row (all families).
    Row,
    /// All columns of one family.
    Family(Bytes),
    /// All versions of one column.
    Column { family: Bytes, qualifier: Bytes },
    /// One exact version of one column.
    Version {
        family: Bytes,
        qualifier: Bytes,
        timestamp: Timestamp,
    },
}

/// A row deletion. Like HBase, deletes are tombstones merged at read time and
/// physically dropped by major compaction.
#[derive(Clone, Debug)]
pub struct Delete {
    pub row: Bytes,
    pub scope: DeleteScope,
    /// Tombstone timestamp; `None` means the server clock.
    pub timestamp: Option<Timestamp>,
}

impl Delete {
    pub fn row(row: impl Into<Bytes>) -> Self {
        Delete {
            row: row.into(),
            scope: DeleteScope::Row,
            timestamp: None,
        }
    }

    pub fn column(
        row: impl Into<Bytes>,
        family: impl Into<Bytes>,
        qualifier: impl Into<Bytes>,
    ) -> Self {
        Delete {
            row: row.into(),
            scope: DeleteScope::Column {
                family: family.into(),
                qualifier: qualifier.into(),
            },
            timestamp: None,
        }
    }
}

/// Column projection for reads: which families, and optionally which
/// qualifiers inside each family. An empty projection selects every family.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Projection {
    /// (family, qualifiers); `None` qualifiers selects the whole family.
    pub families: Vec<(Bytes, Option<Vec<Bytes>>)>,
}

impl Projection {
    /// Select all families and columns.
    pub fn all() -> Self {
        Projection::default()
    }

    pub fn family(mut self, family: impl Into<Bytes>) -> Self {
        self.families.push((family.into(), None));
        self
    }

    pub fn column(mut self, family: impl Into<Bytes>, qualifier: impl Into<Bytes>) -> Self {
        let family = family.into();
        let qualifier = qualifier.into();
        for (f, quals) in &mut self.families {
            if *f == family {
                // `None` quals = whole family already selected; the
                // column is implicitly included.
                if let Some(qs) = quals {
                    if !qs.contains(&qualifier) {
                        qs.push(qualifier);
                    }
                }
                return self;
            }
        }
        self.families.push((family, Some(vec![qualifier])));
        self
    }

    pub fn is_all(&self) -> bool {
        self.families.is_empty()
    }

    /// Does this projection admit the given (family, qualifier)?
    pub fn includes(&self, family: &[u8], qualifier: &[u8]) -> bool {
        if self.families.is_empty() {
            return true;
        }
        self.families.iter().any(|(f, quals)| {
            f.as_ref() == family
                && quals
                    .as_ref()
                    .is_none_or(|qs| qs.iter().any(|q| q.as_ref() == qualifier))
        })
    }
}

/// Inclusive/exclusive time window `[min, max)` on cell timestamps, matching
/// HBase's `TimeRange`. Default admits every timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeRange {
    pub min: Timestamp,
    pub max: Timestamp,
}

impl Default for TimeRange {
    fn default() -> Self {
        TimeRange {
            min: 0,
            max: Timestamp::MAX,
        }
    }
}

impl TimeRange {
    pub fn new(min: Timestamp, max: Timestamp) -> Self {
        TimeRange { min, max }
    }

    /// A point query at a single timestamp (HBase `setTimestamp`).
    pub fn at(ts: Timestamp) -> Self {
        TimeRange {
            min: ts,
            max: ts.saturating_add(1),
        }
    }

    pub fn contains(&self, ts: Timestamp) -> bool {
        ts >= self.min && ts < self.max
    }

    /// Whether a store file whose cells span `[file_min, file_max]` could
    /// contain qualifying cells — used to skip files during scans.
    pub fn overlaps(&self, file_min: Timestamp, file_max: Timestamp) -> bool {
        self.min <= file_max && file_min < self.max
    }
}

/// A point read of one row.
#[derive(Clone, Debug)]
pub struct Get {
    pub row: Bytes,
    pub projection: Projection,
    pub time_range: TimeRange,
    pub max_versions: u32,
    pub filter: Option<crate::filter::Filter>,
    /// See [`Scan::include_empty_rows`].
    pub include_empty_rows: bool,
}

impl Get {
    pub fn new(row: impl Into<Bytes>) -> Self {
        Get {
            row: row.into(),
            projection: Projection::all(),
            time_range: TimeRange::default(),
            max_versions: 1,
            filter: None,
            include_empty_rows: false,
        }
    }
}

/// A range scan request. `start`/`stop` follow Rust `Bound` semantics on the
/// raw row-key byte order; `Unbounded` scans from the table edge.
#[derive(Clone, Debug)]
pub struct Scan {
    pub start: Bound<Bytes>,
    pub stop: Bound<Bytes>,
    pub projection: Projection,
    pub filter: Option<crate::filter::Filter>,
    pub time_range: TimeRange,
    pub max_versions: u32,
    /// Stop after this many rows (0 = unlimited).
    pub limit: usize,
    /// Rows per client round-trip; models HBase scanner caching.
    pub caching: usize,
    /// Emit rows that have live cells but none matching the projection,
    /// as key-only results — lets clients materialize NULL columns
    /// without widening the projection.
    pub include_empty_rows: bool,
}

impl Default for Scan {
    fn default() -> Self {
        Scan {
            start: Bound::Unbounded,
            stop: Bound::Unbounded,
            projection: Projection::all(),
            filter: None,
            time_range: TimeRange::default(),
            max_versions: 1,
            limit: 0,
            caching: 1024,
            include_empty_rows: false,
        }
    }
}

impl Scan {
    pub fn new() -> Self {
        Scan::default()
    }

    pub fn with_range(mut self, start: Bound<Bytes>, stop: Bound<Bytes>) -> Self {
        self.start = start;
        self.stop = stop;
        self
    }

    pub fn with_projection(mut self, projection: Projection) -> Self {
        self.projection = projection;
        self
    }

    pub fn with_filter(mut self, filter: crate::filter::Filter) -> Self {
        self.filter = Some(filter);
        self
    }

    pub fn with_time_range(mut self, tr: TimeRange) -> Self {
        self.time_range = tr;
        self
    }

    pub fn with_max_versions(mut self, v: u32) -> Self {
        self.max_versions = v.max(1);
        self
    }

    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Does a row key fall inside the scan's `[start, stop)` bounds?
    pub fn admits_row(&self, row: &[u8]) -> bool {
        let after_start = match &self.start {
            Bound::Unbounded => true,
            Bound::Included(s) => row >= s.as_ref(),
            Bound::Excluded(s) => row > s.as_ref(),
        };
        let before_stop = match &self.stop {
            Bound::Unbounded => true,
            Bound::Included(s) => row <= s.as_ref(),
            Bound::Excluded(s) => row < s.as_ref(),
        };
        after_start && before_stop
    }
}

/// The cells of one row returned by a read.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowResult {
    pub row: Bytes,
    /// Cells sorted by (family, qualifier, timestamp DESC).
    pub cells: Vec<Cell>,
}

impl RowResult {
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Newest value of a column, if present.
    pub fn value(&self, family: &[u8], qualifier: &[u8]) -> Option<&Bytes> {
        self.cells
            .iter()
            .find(|c| c.key.family.as_ref() == family && c.key.qualifier.as_ref() == qualifier)
            .map(|c| &c.value)
    }

    /// All versions of a column, newest first.
    pub fn versions(&self, family: &[u8], qualifier: &[u8]) -> Vec<&Cell> {
        self.cells
            .iter()
            .filter(|c| c.key.family.as_ref() == family && c.key.qualifier.as_ref() == qualifier)
            .collect()
    }
}

/// Column family descriptor: name plus retention settings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilyDescriptor {
    pub name: Bytes,
    /// Maximum versions retained through major compaction.
    pub max_versions: u32,
}

impl FamilyDescriptor {
    pub fn new(name: impl Into<Bytes>) -> Self {
        FamilyDescriptor {
            name: name.into(),
            max_versions: 3,
        }
    }

    pub fn with_max_versions(mut self, v: u32) -> Self {
        self.max_versions = v.max(1);
        self
    }
}

/// Table descriptor handed to the master at creation time.
#[derive(Clone, Debug)]
pub struct TableDescriptor {
    pub name: TableName,
    pub families: Vec<FamilyDescriptor>,
    /// Pre-split points: N keys produce N+1 regions. Must be strictly
    /// ascending. Empty means one region covering the whole key space.
    pub split_keys: Vec<Bytes>,
}

impl TableDescriptor {
    pub fn new(name: TableName) -> Self {
        TableDescriptor {
            name,
            families: Vec::new(),
            split_keys: Vec::new(),
        }
    }

    pub fn with_family(mut self, fd: FamilyDescriptor) -> Self {
        self.families.push(fd);
        self
    }

    pub fn with_split_keys(mut self, keys: Vec<Bytes>) -> Self {
        self.split_keys = keys;
        self
    }

    pub fn has_family(&self, family: &[u8]) -> bool {
        self.families.iter().any(|f| f.name.as_ref() == family)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(row: &str, fam: &str, qual: &str, ts: u64, seq: u64) -> CellKey {
        CellKey {
            row: Bytes::copy_from_slice(row.as_bytes()),
            family: Bytes::copy_from_slice(fam.as_bytes()),
            qualifier: Bytes::copy_from_slice(qual.as_bytes()),
            timestamp: ts,
            seq,
            cell_type: CellType::Put,
        }
    }

    #[test]
    fn cellkey_orders_rows_ascending() {
        assert!(key("a", "f", "q", 1, 1) < key("b", "f", "q", 1, 1));
    }

    #[test]
    fn cellkey_orders_timestamps_descending() {
        // Newer timestamp sorts first within the same column.
        assert!(key("a", "f", "q", 10, 1) < key("a", "f", "q", 5, 1));
    }

    #[test]
    fn cellkey_orders_sequence_descending_at_equal_ts() {
        assert!(key("a", "f", "q", 10, 7) < key("a", "f", "q", 10, 3));
    }

    #[test]
    fn tombstones_sort_before_puts() {
        let mut del = key("a", "f", "q", 10, 1);
        del.cell_type = CellType::DeleteColumn;
        let put = key("a", "f", "q", 10, 1);
        assert!(del < put);
    }

    #[test]
    fn projection_all_includes_everything() {
        let p = Projection::all();
        assert!(p.includes(b"cf1", b"col1"));
        assert!(p.is_all());
    }

    #[test]
    fn projection_family_includes_all_qualifiers() {
        let p = Projection::all().family("cf1");
        assert!(p.includes(b"cf1", b"anything"));
        assert!(!p.includes(b"cf2", b"anything"));
    }

    #[test]
    fn projection_column_is_exact() {
        let p = Projection::all().column("cf1", "a").column("cf1", "b");
        assert!(p.includes(b"cf1", b"a"));
        assert!(p.includes(b"cf1", b"b"));
        assert!(!p.includes(b"cf1", b"c"));
    }

    #[test]
    fn projection_column_after_family_stays_whole_family() {
        let p = Projection::all().family("cf1").column("cf1", "a");
        assert!(p.includes(b"cf1", b"zzz"));
    }

    #[test]
    fn time_range_semantics_are_half_open() {
        let tr = TimeRange::new(10, 20);
        assert!(tr.contains(10));
        assert!(tr.contains(19));
        assert!(!tr.contains(20));
        assert!(!tr.contains(9));
    }

    #[test]
    fn time_range_at_selects_single_ts() {
        let tr = TimeRange::at(42);
        assert!(tr.contains(42));
        assert!(!tr.contains(41));
        assert!(!tr.contains(43));
    }

    #[test]
    fn time_range_overlap_detects_disjoint_files() {
        let tr = TimeRange::new(10, 20);
        assert!(tr.overlaps(15, 30));
        assert!(tr.overlaps(0, 10)); // min<=10<=file_max, 10<20
        assert!(!tr.overlaps(20, 30)); // file starts at tr.max
        assert!(!tr.overlaps(0, 9));
    }

    #[test]
    fn scan_admits_row_respects_bounds() {
        let s = Scan::new().with_range(
            Bound::Included(Bytes::from_static(b"b")),
            Bound::Excluded(Bytes::from_static(b"d")),
        );
        assert!(!s.admits_row(b"a"));
        assert!(s.admits_row(b"b"));
        assert!(s.admits_row(b"c"));
        assert!(!s.admits_row(b"d"));
    }

    #[test]
    fn put_payload_counts_all_bytes() {
        let p = Put::new("row1").add("cf", "q", "value");
        assert_eq!(p.payload_bytes(), 4 + 2 + 1 + 5);
    }

    #[test]
    fn row_result_value_returns_newest() {
        let mk = |ts| Cell {
            key: key("r", "f", "q", ts, ts),
            value: Bytes::copy_from_slice(format!("v{ts}").as_bytes()),
        };
        let rr = RowResult {
            row: Bytes::from_static(b"r"),
            cells: vec![mk(9), mk(5)],
        };
        assert_eq!(rr.value(b"f", b"q").unwrap().as_ref(), b"v9");
        assert_eq!(rr.versions(b"f", b"q").len(), 2);
    }

    #[test]
    fn table_descriptor_tracks_families() {
        let td = TableDescriptor::new(TableName::default_ns("t"))
            .with_family(FamilyDescriptor::new("cf1"))
            .with_family(FamilyDescriptor::new("cf2").with_max_versions(5));
        assert!(td.has_family(b"cf1"));
        assert!(!td.has_family(b"cf3"));
        assert_eq!(td.families[1].max_versions, 5);
    }
}
