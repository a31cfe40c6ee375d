//! The in-memory write buffer of a store (one per column family per region).
//!
//! Writes land here after the WAL append; once the tracked heap size crosses
//! the flush threshold the region snapshots the memstore into an immutable
//! [`crate::storefile::StoreFile`].

use crate::types::{Cell, CellKey, CellType};
use bytes::Bytes;
use std::collections::{btree_map, BTreeMap};

/// Sorted in-memory cell buffer with heap-size accounting.
#[derive(Debug, Default)]
pub struct MemStore {
    cells: BTreeMap<CellKey, Bytes>,
    heap_size: usize,
    min_ts: u64,
    max_ts: u64,
    has_tombstones: bool,
}

impl MemStore {
    pub fn new() -> Self {
        MemStore {
            cells: BTreeMap::new(),
            heap_size: 0,
            min_ts: u64::MAX,
            max_ts: 0,
            has_tombstones: false,
        }
    }

    /// Insert a cell (put or tombstone). Re-inserting the exact same key
    /// replaces the value, as the MVCC sequence makes keys unique in
    /// practice.
    pub fn insert(&mut self, cell: Cell) {
        self.min_ts = self.min_ts.min(cell.key.timestamp);
        self.max_ts = self.max_ts.max(cell.key.timestamp);
        self.has_tombstones |= cell.key.cell_type != CellType::Put;
        let size = cell.heap_size();
        let new_value_len = cell.value.len();
        if let Some(old) = self.cells.insert(cell.key, cell.value) {
            // Replacement: the key bytes were already counted, so only the
            // value delta changes the footprint.
            self.heap_size = self.heap_size.saturating_sub(old.len()) + new_value_len;
        } else {
            self.heap_size += size;
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Approximate heap footprint in bytes; drives flush decisions.
    pub fn heap_size(&self) -> usize {
        self.heap_size
    }

    /// Timestamp span of buffered cells, `(min, max)`. Empty store returns
    /// `(u64::MAX, 0)` which overlaps no time range.
    pub fn time_span(&self) -> (u64, u64) {
        (self.min_ts, self.max_ts)
    }

    /// Whether the buffer holds any delete markers (never prune it by time
    /// range if so).
    pub fn has_tombstones(&self) -> bool {
        self.has_tombstones
    }

    /// Iterate cells in `CellKey` order from the first cell of the first
    /// row `>= start` — a tree seek, not a walk from the front. The caller
    /// stops at its own upper bound.
    pub fn seek(&self, start: &Bytes) -> btree_map::Range<'_, CellKey, Bytes> {
        // The lowest key `start` can have: every later component at the
        // value that sorts first.
        let lowest = CellKey {
            row: start.clone(),
            family: Bytes::new(),
            qualifier: Bytes::new(),
            timestamp: u64::MAX,
            seq: u64::MAX,
            cell_type: CellType::DeleteFamily,
        };
        self.cells.range(lowest..)
    }

    /// Drop every cell, leaving the memstore empty. Used by flush once the
    /// cells are in a store file.
    pub fn clear(&mut self) {
        *self = MemStore::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(row: &str, ts: u64, seq: u64, val: &str) -> Cell {
        Cell {
            key: CellKey {
                row: Bytes::copy_from_slice(row.as_bytes()),
                family: Bytes::from_static(b"cf"),
                qualifier: Bytes::from_static(b"q"),
                timestamp: ts,
                seq,
                cell_type: CellType::Put,
            },
            value: Bytes::copy_from_slice(val.as_bytes()),
        }
    }

    #[test]
    fn insert_tracks_size_and_time_span() {
        let mut ms = MemStore::new();
        assert!(ms.is_empty());
        ms.insert(cell("a", 10, 1, "v1"));
        ms.insert(cell("b", 5, 2, "v2"));
        assert_eq!(ms.len(), 2);
        assert!(ms.heap_size() > 0);
        assert_eq!(ms.time_span(), (5, 10));
    }

    fn rows_from(ms: &MemStore, start: &'static str) -> Vec<String> {
        ms.seek(&Bytes::from_static(start.as_bytes()))
            .map(|(k, _)| String::from_utf8_lossy(&k.row).into_owned())
            .collect()
    }

    #[test]
    fn seek_starts_at_the_first_row_not_below_start() {
        let mut ms = MemStore::new();
        for r in ["d", "a", "c", "b"] {
            ms.insert(cell(r, 1, 1, r));
        }
        assert_eq!(rows_from(&ms, "b"), ["b", "c", "d"]);
        assert_eq!(rows_from(&ms, "bb"), ["c", "d"]);
        assert_eq!(rows_from(&ms, "").len(), 4);
        assert!(rows_from(&ms, "e").is_empty());
    }

    #[test]
    fn seek_lands_on_the_first_cell_of_the_row() {
        let mut ms = MemStore::new();
        // A family tombstone at the largest timestamp is the lowest key a
        // row can hold; the seek must not skip it.
        let mut marker = cell("b", u64::MAX, u64::MAX, "");
        marker.key.family = Bytes::new();
        marker.key.qualifier = Bytes::new();
        marker.key.cell_type = CellType::DeleteFamily;
        ms.insert(marker.clone());
        ms.insert(cell("a", 1, 1, "x"));
        ms.insert(cell("b", 1, 2, "y"));
        let got: Vec<&CellKey> = ms.seek(&Bytes::from_static(b"b")).map(|(k, _)| k).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], &marker.key);
    }

    #[test]
    fn newest_version_first_within_column() {
        let mut ms = MemStore::new();
        ms.insert(cell("a", 1, 1, "old"));
        ms.insert(cell("a", 9, 2, "new"));
        let got: Vec<&Bytes> = ms.seek(&Bytes::new()).map(|(_, v)| v).collect();
        assert_eq!(got[0].as_ref(), b"new");
        assert_eq!(got[1].as_ref(), b"old");
    }

    #[test]
    fn clear_empties_and_resets_accounting() {
        let mut ms = MemStore::new();
        ms.insert(cell("b", 1, 1, "x"));
        ms.insert(cell("a", 1, 2, "y"));
        ms.clear();
        assert!(ms.is_empty());
        assert_eq!(ms.heap_size(), 0);
        assert_eq!(ms.time_span(), (u64::MAX, 0));
    }
}
