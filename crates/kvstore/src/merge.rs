//! The one read path under scans, gets, flushes, compactions and splits:
//! block-at-a-time cursors over store files and memstores, merged by
//! comparing their heads, and the tombstone/version walk over the merged
//! cells.
//!
//! Nothing here owns a cell or counts a reference. A merge runs under the
//! guard of the region's stores, which keeps every store file and memstore
//! it reads alive for the merge's whole life, so each cursor lends its head
//! as a [`CellRef`] with that lifetime: a view into a block borrowed from
//! its file, or into the memstore's tree. The walk keeps the current row and
//! column as such views, holds the cells that may be returned as views too,
//! evaluates the pushed-down filter on those still-encoded cells, and only
//! then encodes the row into the response's cell block — for the rows that
//! are returned, nothing else.

use crate::block_cache::{load_block, BlockCache, ReadTally};
use crate::cellblock::CellBlockEncoder;
use crate::filter::RowView;
use crate::memstore::MemStore;
use crate::region::ScanStats;
use crate::storefile::{Block, StoreFile};
use crate::types::{CellKey, CellRef, CellType, Scan};
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::btree_map;

// ----------------------------------------------------------------------
// Cursors and their merge
// ----------------------------------------------------------------------

/// A position in one sorted source of cells, and the cell it is at.
struct Cursor<'a> {
    /// `None` once the source is exhausted.
    head: Option<CellRef<'a>>,
    source: Source<'a>,
}

enum Source<'a> {
    /// A store file, read a block at a time, each read accounted through
    /// the optional block cache.
    File {
        file: &'a StoreFile,
        cache: Option<&'a BlockCache>,
        block: &'a Block,
        block_idx: usize,
        cell_idx: usize,
    },
    /// A memstore, read through a range iterator of its tree.
    Mem(btree_map::Range<'a, CellKey, Bytes>),
}

impl<'a> Cursor<'a> {
    /// Step past the head. A file cursor that leaves its block reads the
    /// next one right away, so block reads happen in merge order.
    fn advance(&mut self, tally: &mut ReadTally) {
        self.head = match &mut self.source {
            Source::File {
                file,
                cache,
                block,
                block_idx,
                cell_idx,
            } => {
                *cell_idx += 1;
                if *cell_idx == block.len() && *block_idx + 1 < file.num_blocks() {
                    *block_idx += 1;
                    *cell_idx = 0;
                    *block = load_block(file, *block_idx, *cache, tally);
                }
                (*cell_idx < block.len()).then(|| block.cell(*cell_idx))
            }
            Source::Mem(rest) => rest.next().map(|(key, value)| CellRef::new(key, value)),
        };
    }
}

/// Merges sorted sources into one `CellKey`-ordered stream of borrowed
/// cells, bounded above by an exclusive `stop` row (empty = unbounded).
///
/// The merge compares the sources' heads on every step — read paths here
/// merge a handful of sources, where that beats maintaining a heap — and the
/// lowest source index wins ties. Only byte-identical keys tie, so which
/// copy wins is unobservable.
pub(crate) struct Merge<'a> {
    cursors: Vec<Cursor<'a>>,
    stop: &'a [u8],
    /// Block reads this merge caused.
    pub(crate) tally: ReadTally,
}

impl<'a> Merge<'a> {
    pub(crate) fn new(stop: &'a [u8]) -> Self {
        Merge {
            cursors: Vec::new(),
            stop,
            tally: ReadTally::default(),
        }
    }

    /// Add a store file, positioned at its first cell with row `>= start`.
    /// The sparse index picks the block; cells before `start` inside it
    /// are skipped.
    pub(crate) fn add_file(
        &mut self,
        file: &'a StoreFile,
        start: &[u8],
        cache: Option<&'a BlockCache>,
    ) {
        let block_idx = file.start_block(start);
        if block_idx >= file.num_blocks() {
            return; // an empty file: nothing to read
        }
        let block = load_block(file, block_idx, cache, &mut self.tally);
        let mut cursor = Cursor {
            head: Some(block.cell(0)),
            source: Source::File {
                file,
                cache,
                block,
                block_idx,
                cell_idx: 0,
            },
        };
        while cursor.head.is_some_and(|cell| cell.row < start) {
            cursor.advance(&mut self.tally);
        }
        self.cursors.push(cursor);
    }

    /// Add a memstore, positioned by a tree seek at its first cell with row
    /// `>= start`.
    pub(crate) fn add_memstore(&mut self, memstore: &'a MemStore, start: &Bytes) {
        let mut rest = memstore.seek(start);
        let head = rest.next().map(|(key, value)| CellRef::new(key, value));
        self.cursors.push(Cursor {
            head,
            source: Source::Mem(rest),
        });
    }

    /// The next cell in merge order and the source lending it, or `None`
    /// when every source is exhausted or at `stop`. The cell stays valid as
    /// long as the merge's sources do, past any `advance`.
    pub(crate) fn peek(&self) -> Option<(usize, CellRef<'a>)> {
        let mut best: Option<(usize, CellRef<'a>)> = None;
        for (src, cursor) in self.cursors.iter().enumerate() {
            let Some(cell) = cursor.head else { continue };
            if best
                .as_ref()
                .is_none_or(|(_, b)| cell.key_cmp(b) == Ordering::Less)
            {
                best = Some((src, cell));
            }
        }
        // Sorted sources: once the lowest head is at `stop`, all are.
        best.filter(|(_, cell)| self.stop.is_empty() || cell.row < self.stop)
    }

    /// Step source `src` past the cell [`peek`](Self::peek) returned.
    pub(crate) fn advance(&mut self, src: usize) {
        self.cursors[src].advance(&mut self.tally);
    }
}

// ----------------------------------------------------------------------
// The tombstone / version walk
// ----------------------------------------------------------------------

/// What a cell starts relative to the cell before it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Boundary {
    Row,
    Family,
    Column,
    SameColumn,
}

/// Where a walk over merged cells stands: the current row and column — views
/// of the cell that named them, which outlives its cursor's move — and the
/// delete markers and versions seen in them. Markers sort before the puts
/// they can mask, so one pass decides each put.
#[derive(Default)]
struct VersionWalk<'a> {
    started: bool,
    row: &'a [u8],
    family: &'a [u8],
    qualifier: &'a [u8],
    /// Newest delete-family marker of the current row and family.
    family_delete_ts: Option<u64>,
    /// Newest delete-column marker of the current column.
    column_delete_ts: Option<u64>,
    /// Exact-version delete markers of the current column.
    version_delete_ts: Vec<u64>,
    versions_taken: u32,
}

impl<'a> VersionWalk<'a> {
    fn boundary(&self, cell: &CellRef<'_>) -> Boundary {
        if !self.started || self.row != cell.row {
            Boundary::Row
        } else if self.family != cell.family {
            Boundary::Family
        } else if self.qualifier != cell.qualifier {
            Boundary::Column
        } else {
            Boundary::SameColumn
        }
    }

    /// Step onto `cell`, forgetting what the `boundary` it crosses ends.
    fn enter(&mut self, boundary: Boundary, cell: &CellRef<'a>) {
        if boundary == Boundary::SameColumn {
            return;
        }
        if boundary == Boundary::Row {
            self.started = true;
            self.row = cell.row;
        }
        if matches!(boundary, Boundary::Row | Boundary::Family) {
            self.family = cell.family;
            self.family_delete_ts = None;
        }
        self.qualifier = cell.qualifier;
        self.column_delete_ts = None;
        self.version_delete_ts.clear();
        self.versions_taken = 0;
    }

    /// Record `cell` if it is a delete marker; say whether it is a put that
    /// no marker seen so far masks.
    fn is_live_put(&mut self, cell: &CellRef<'_>) -> bool {
        let ts = cell.timestamp;
        match cell.cell_type {
            CellType::DeleteFamily => self.family_delete_ts = self.family_delete_ts.max(Some(ts)),
            CellType::DeleteColumn => self.column_delete_ts = self.column_delete_ts.max(Some(ts)),
            CellType::Delete => self.version_delete_ts.push(ts),
            CellType::Put => {
                return self.family_delete_ts.is_none_or(|t| ts > t)
                    && self.column_delete_ts.is_none_or(|t| ts > t)
                    && !self.version_delete_ts.contains(&ts);
            }
        }
        false
    }

    /// Count one more version of the current column against `cap`.
    fn take_version(&mut self, cap: u32) -> bool {
        let room = self.versions_taken < cap;
        self.versions_taken += room as u32;
        room
    }
}

/// Drain `merge` into `sink`, cell by cell in order. `retain: None` passes
/// every cell through (flush, minor compaction, split); `Some(max_versions)`
/// is a major compaction: at most that many live versions per column, and
/// neither masked puts nor the markers themselves.
pub(crate) fn rewrite(
    merge: &mut Merge<'_>,
    retain: Option<u32>,
    mut sink: impl FnMut(CellRef<'_>),
) {
    let mut walk = VersionWalk::default();
    while let Some((src, cell)) = merge.peek() {
        let keep = retain.is_none_or(|max_versions| {
            walk.enter(walk.boundary(&cell), &cell);
            walk.is_live_put(&cell) && walk.take_version(max_versions)
        });
        if keep {
            sink(cell);
        }
        merge.advance(src);
    }
}

/// The live, projected cells of the row being assembled — what the
/// pushed-down filter looks at before anything is materialized.
struct Candidates<'r, 'a> {
    row: &'r [u8],
    cells: &'r [CellRef<'a>],
}

impl RowView for Candidates<'_, '_> {
    fn row_key(&self) -> &[u8] {
        self.row
    }

    fn column_value(&self, family: &[u8], qualifier: &[u8]) -> Option<&[u8]> {
        self.cells
            .iter()
            .find(|c| c.family == family && c.qualifier == qualifier)
            .map(|c| c.value)
    }
}

/// The row a scan is assembling, and where its finished rows go.
struct RowAssembly<'s, 'a, 'b> {
    scan: &'s Scan,
    /// Live, projected cells of the current row, in cell order.
    candidates: Vec<CellRef<'a>>,
    /// Whether the current row has any live cell, projected or not.
    witness: bool,
    block: &'b mut CellBlockEncoder,
    /// Rows this scan has encoded into `block`.
    rows: usize,
}

impl RowAssembly<'_, '_, '_> {
    /// Close the current row, `row`: emit it when it has projected cells, or
    /// — with `include_empty_rows` — when it had any live cell at all (so
    /// the client can materialize its NULL columns from the key alone), and
    /// the filter accepts it. An emitted row is encoded into the block
    /// straight from its pinned cells. Returns whether the scan's limit is
    /// reached.
    fn finish_row(&mut self, row: &[u8], stats: &mut ScanStats) -> bool {
        let scan = self.scan;
        let witness = std::mem::take(&mut self.witness);
        if self.candidates.is_empty() && !(scan.include_empty_rows && witness) {
            return false;
        }
        let view = Candidates {
            row,
            cells: &self.candidates,
        };
        if scan.filter.as_ref().is_none_or(|f| f.matches(&view)) {
            self.block.push_row(row, self.candidates.iter().copied());
            self.rows += 1;
            stats.rows_returned += 1;
            stats.cells_returned += self.candidates.len() as u64;
        }
        self.candidates.clear();
        scan.limit > 0 && self.rows >= scan.limit
    }
}

/// Walk the merged cells of a scan, applying the MVCC read point,
/// tombstones, the time range, the projection and version limits, and
/// encode the rows the filter keeps into `block`, up to the scan's limit.
/// `families` names the scanned families with their retained-version caps.
pub(crate) fn assemble_rows<'a>(
    merge: &mut Merge<'a>,
    scan: &Scan,
    read_point: u64,
    families: &[(&Bytes, u32)],
    stats: &mut ScanStats,
    block: &mut CellBlockEncoder,
) {
    let mut walk = VersionWalk::default();
    let mut rows = RowAssembly {
        scan,
        candidates: Vec::new(),
        witness: false,
        block,
        rows: 0,
    };
    // What the last resolved column resolved to: is it projected, and how
    // many versions of it may be returned. Rows repeat their columns, so a
    // column is resolved again only when its names differ from the last
    // ones resolved, not at every row.
    let mut resolved: Option<(&'a [u8], &'a [u8])> = None;
    let mut projected = false;
    let mut cap = 0;

    while let Some((src, cell)) = merge.peek() {
        stats.cells_scanned += 1;
        let mut limit_reached = false;
        // MVCC: ignore writes newer than the scanner's read point.
        if cell.seq <= read_point {
            let boundary = walk.boundary(&cell);
            if boundary == Boundary::Row && walk.started {
                limit_reached = rows.finish_row(walk.row, stats);
            }
            if !limit_reached {
                walk.enter(boundary, &cell);
                let names = (cell.family, cell.qualifier);
                if boundary != Boundary::SameColumn && resolved != Some(names) {
                    resolved = Some(names);
                    projected = scan.projection.includes(cell.family, cell.qualifier);
                    let family_cap = families
                        .iter()
                        .find(|(name, _)| *name == cell.family)
                        .map_or(u32::MAX, |(_, max_versions)| *max_versions);
                    cap = scan.max_versions.min(family_cap);
                }
                if walk.is_live_put(&cell) && scan.time_range.contains(cell.timestamp) {
                    // The row exists even if the projection excludes this
                    // cell.
                    rows.witness = true;
                    if projected && walk.take_version(cap) {
                        rows.candidates.push(cell);
                    }
                }
            }
        }
        // Step past the cell even when it ends the scan: if that takes its
        // cursor off a block, the next block is read now rather than by the
        // batch that resumes here.
        merge.advance(src);
        if limit_reached {
            return;
        }
    }
    if walk.started {
        rows.finish_row(walk.row, stats);
    }
}
