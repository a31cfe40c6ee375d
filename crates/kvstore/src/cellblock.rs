//! The cell block: the one encoding of cells, on the wire and on disk.
//!
//! Every read RPC (`open_scanner`, `next_batch`, `get`, `bulk_get`) answers
//! with one cell block, in the spirit of HBase's RPC cell-block codec; every
//! WAL record's cells are a one-row block, and every store-file data block's
//! payload is a block. A row key is written once per row, prefix-compressed
//! against the row before it; each (family, qualifier) pair is written once
//! per block and referenced by index after that; timestamps and sequence
//! numbers are deltas.
//!
//! [`CellBlockEncoder`] takes whole rows or single cells, a row ending where
//! the key changes. One bounds-checked parser, [`visit_rows`], reads every
//! block back a row at a time and builds nothing: it lends each row's key
//! and the places of its cells in the block. A reader that wants columns
//! (the SHC scan) visits the rows itself; [`decode`] turns a reply or a WAL
//! record into [`RowResult`]s whose names and values are views of the block
//! and whose keys share one buffer per block; and a store-file block builds
//! its per-cell table in the same pass.
//!
//! ```text
//! block  := rows u32le · row*
//! row    := shared varint · suffix_len varint · suffix · cells varint · cell*
//! cell   := column varint [· family_len varint · family · qualifier_len varint · qualifier]
//!           · Δtimestamp zigzag · Δseq zigzag · type u8 · value_len varint · value
//! ```
//!
//! `shared` counts the leading bytes the row key has in common with the
//! previous row's key (the first row's is 0). `column` indexes the block's
//! dictionary of (family, qualifier) pairs; the index one past its end
//! introduces the next entry, spelled out inline. The deltas are wrapping
//! differences from the previous cell in the block (from 0 for the first),
//! zigzag-coded so a step back is as short as a step forward; every `u64`
//! round-trips.

use crate::error::{KvError, Result};
use crate::storage::Reader;
use crate::types::{Cell, CellKey, CellRef, CellType, RowResult};
use bytes::Bytes;
use std::ops::Range;

/// Builds one cell block a row, or a cell, at a time.
pub struct CellBlockEncoder {
    /// The block so far; its first four bytes are the row count, written by
    /// [`finish`](Self::finish).
    buf: Vec<u8>,
    rows: usize,
    last_row: Vec<u8>,
    /// The open row: where its cell count goes in `buf` (one byte is
    /// reserved) and how many cells it has so far.
    open_row: Option<(usize, u64)>,
    /// The (family, qualifier) dictionary: where each pair's bytes sit in
    /// `buf`.
    columns: Vec<(Range<usize>, Range<usize>)>,
    /// Where the next dictionary lookup starts: one past the last hit, since
    /// rows repeat their columns in the same order.
    next_column: usize,
    timestamp: u64,
    seq: u64,
}

impl Default for CellBlockEncoder {
    fn default() -> Self {
        CellBlockEncoder {
            buf: vec![0; 4],
            rows: 0,
            last_row: Vec::new(),
            open_row: None,
            columns: Vec::new(),
            next_column: 0,
            timestamp: 0,
            seq: 0,
        }
    }
}

impl CellBlockEncoder {
    /// Append a row: its key and its cells, in order. The cells' own `row`
    /// is not written; `row` is. It is a new row even when its key repeats
    /// the last one's.
    pub fn push_row<'c>(&mut self, row: &[u8], cells: impl IntoIterator<Item = CellRef<'c>>) {
        self.start_row(row);
        for cell in cells {
            self.put_cell(&cell);
        }
    }

    /// Append one cell: to the open row when it has that row's key, as the
    /// first cell of a new row otherwise.
    pub fn push_cell(&mut self, cell: &CellRef<'_>) {
        if self.open_row.is_none() || self.last_row != cell.row {
            self.start_row(cell.row);
        }
        self.put_cell(cell);
    }

    fn start_row(&mut self, row: &[u8]) {
        self.close_row();
        let shared = self
            .last_row
            .iter()
            .zip(row)
            .take_while(|(a, b)| a == b)
            .count();
        put_varint(&mut self.buf, shared as u64);
        put_bytes(&mut self.buf, &row[shared..]);
        self.last_row.truncate(shared);
        self.last_row.extend_from_slice(&row[shared..]);
        self.open_row = Some((self.buf.len(), 0));
        self.buf.push(0);
        self.rows += 1;
    }

    /// Write the open row's cell count into the byte reserved for it,
    /// widening it in place when the count needs more than one.
    fn close_row(&mut self) {
        let Some((at, cells)) = self.open_row.take() else {
            return;
        };
        if cells < 0x80 {
            self.buf[at] = cells as u8;
            return;
        }
        let mut count = Vec::with_capacity(10);
        put_varint(&mut count, cells);
        let shift = count.len() - 1;
        self.buf.splice(at..=at, count);
        // Names this row introduced moved with it.
        for (family, qualifier) in &mut self.columns {
            if family.start > at {
                *family = family.start + shift..family.end + shift;
                *qualifier = qualifier.start + shift..qualifier.end + shift;
            }
        }
    }

    fn put_cell(&mut self, cell: &CellRef<'_>) {
        match self.column_index(cell.family, cell.qualifier) {
            Some(index) => put_varint(&mut self.buf, index as u64),
            None => {
                put_varint(&mut self.buf, self.columns.len() as u64);
                let family = put_bytes(&mut self.buf, cell.family);
                let qualifier = put_bytes(&mut self.buf, cell.qualifier);
                self.columns.push((family, qualifier));
                self.next_column = self.columns.len();
            }
        }
        put_varint(
            &mut self.buf,
            zigzag(cell.timestamp.wrapping_sub(self.timestamp)),
        );
        put_varint(&mut self.buf, zigzag(cell.seq.wrapping_sub(self.seq)));
        self.timestamp = cell.timestamp;
        self.seq = cell.seq;
        self.buf.push(cell.cell_type as u8);
        put_bytes(&mut self.buf, cell.value);
        if let Some((_, cells)) = &mut self.open_row {
            *cells += 1;
        }
    }

    fn column_index(&mut self, family: &[u8], qualifier: &[u8]) -> Option<usize> {
        let n = self.columns.len();
        let found = (self.next_column..n)
            .chain(0..self.next_column)
            .find(|&at| {
                let (f, q) = &self.columns[at];
                self.buf[f.clone()] == *family && self.buf[q.clone()] == *qualifier
            })?;
        self.next_column = found + 1;
        Some(found)
    }

    /// Rows started so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The key of the last row started (empty before the first).
    pub fn last_row(&self) -> &[u8] {
        &self.last_row
    }

    /// The finished block.
    pub fn finish(mut self) -> Bytes {
        self.seal();
        Bytes::from(self.buf)
    }

    /// Append the finished block to `out` and start the next one, empty,
    /// in this encoder's buffers.
    pub(crate) fn finish_into(&mut self, out: &mut Vec<u8>) {
        self.seal();
        out.extend_from_slice(&self.buf);
        self.buf.truncate(4);
        self.rows = 0;
        self.last_row.clear();
        self.columns.clear();
        self.next_column = 0;
        self.timestamp = 0;
        self.seq = 0;
    }

    fn seal(&mut self) {
        self.close_row();
        let rows = u32::try_from(self.rows).expect("a cell block holds at most u32::MAX rows");
        self.buf[..4].copy_from_slice(&rows.to_le_bytes());
    }
}

/// The block of `rows`, as a server would send them.
#[cfg(test)]
pub fn encode(rows: &[RowResult]) -> Bytes {
    let mut block = CellBlockEncoder::default();
    for row in rows {
        block.push_row(&row.row, row.cells.iter().map(Cell::as_ref));
    }
    block.finish()
}

/// The rows of a block. Names and values are slices of `block`; row keys
/// are slices of one buffer per block that spells them all out. Anything but
/// a whole, well-formed block is [`KvError::Corruption`].
pub fn decode(block: &Bytes) -> Result<Vec<RowResult>> {
    let mut rows: Vec<RowResult> = Vec::new();
    let mut keys = Vec::new();
    let mut key_spans: Vec<Range<usize>> = Vec::new();
    visit_rows(block, |key, cells| {
        key_spans.push(keys.len()..keys.len() + key.len());
        keys.extend_from_slice(key);
        let cells = cells.iter().map(|cell| Cell {
            key: CellKey {
                // Filled in below, once the keys have their buffer.
                row: Bytes::new(),
                family: block.slice(cell.family.clone()),
                qualifier: block.slice(cell.qualifier.clone()),
                timestamp: cell.timestamp,
                seq: cell.seq,
                cell_type: cell.cell_type,
            },
            value: block.slice(cell.value.clone()),
        });
        rows.push(RowResult {
            row: Bytes::new(),
            cells: cells.collect(),
        });
        Ok::<_, KvError>(())
    })?;
    let keys = Bytes::from(keys);
    for (row, span) in rows.iter_mut().zip(key_spans) {
        row.row = keys.slice(span);
        for cell in &mut row.cells {
            cell.key.row = row.row.clone();
        }
    }
    Ok(rows)
}

fn corrupt(what: &str) -> KvError {
    KvError::Corruption(format!("cell block: {what}"))
}

/// Where a cell sits in its block, and its coordinates: what
/// [`visit_rows`] lends for each cell of a row.
#[derive(Debug)]
pub struct CellSpans {
    /// The cell's index in the block's (family, qualifier) dictionary. An
    /// index first appears one past the highest before it, so a reader can
    /// resolve each entry once per block, in order.
    pub column: usize,
    pub family: Range<usize>,
    pub qualifier: Range<usize>,
    pub timestamp: u64,
    pub seq: u64,
    pub cell_type: CellType,
    pub value: Range<usize>,
}

/// The one cell-block parser: a single pass over `block`, borrowing it,
/// that hands `visit` every row in order — its key, and where each of its
/// cells sits in `block` — and builds nothing per row or cell. Every read is
/// bounds-checked: anything but a whole, well-formed block — truncated,
/// forged counts or lengths, an unknown column index or cell type, trailing
/// bytes — is [`KvError::Corruption`], never a panic or an out-of-bounds
/// read. Rows before the damage have been visited by then. The first error
/// `visit` returns stops the pass and is returned.
pub fn visit_rows<E: From<KvError>>(
    block: &[u8],
    mut visit: impl FnMut(&[u8], &[CellSpans]) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let mut r = Reader::new(block);
    let declared = r.u32()?;
    let mut key = Vec::new();
    let mut cells: Vec<CellSpans> = Vec::new();
    let mut columns: Vec<(Range<usize>, Range<usize>)> = Vec::new();
    let (mut timestamp, mut seq) = (0u64, 0u64);
    for _ in 0..declared {
        let shared = usize::try_from(r.varint()?)
            .ok()
            .filter(|&n| n <= key.len())
            .ok_or_else(|| corrupt("row key shares more than the previous row's key"))?;
        let suffix = r.span()?;
        key.truncate(shared);
        key.extend_from_slice(&block[suffix]);
        cells.clear();
        for _ in 0..r.varint()? {
            let column = usize::try_from(r.varint()?).unwrap_or(usize::MAX);
            if column == columns.len() {
                let entry = (r.span()?, r.span()?);
                columns.push(entry);
            }
            let (family, qualifier) = columns
                .get(column)
                .cloned()
                .ok_or_else(|| corrupt("column index past the dictionary"))?;
            timestamp = timestamp.wrapping_add(unzigzag(r.varint()?));
            seq = seq.wrapping_add(unzigzag(r.varint()?));
            let cell_type = cell_type_from(r.u8()?).ok_or_else(|| corrupt("unknown cell type"))?;
            cells.push(CellSpans {
                column,
                family,
                qualifier,
                timestamp,
                seq,
                cell_type,
                value: r.span()?,
            });
        }
        visit(&key, &cells)?;
    }
    if r.remaining() > 0 {
        return Err(corrupt("trailing bytes after the last row").into());
    }
    Ok(())
}

fn cell_type_from(code: u8) -> Option<CellType> {
    Some(match code {
        0 => CellType::Put,
        1 => CellType::Delete,
        2 => CellType::DeleteColumn,
        3 => CellType::DeleteFamily,
        _ => return None,
    })
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Append `len varint · bytes`; returns where the bytes landed.
fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) -> Range<usize> {
    put_varint(buf, bytes.len() as u64);
    let start = buf.len();
    buf.extend_from_slice(bytes);
    start..buf.len()
}

/// A wrapping difference as a small unsigned number either way.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(
        row: &[u8],
        family: &str,
        qualifier: &str,
        ts: u64,
        seq: u64,
        t: CellType,
        value: &[u8],
    ) -> Cell {
        Cell {
            key: CellKey {
                row: Bytes::copy_from_slice(row),
                family: Bytes::copy_from_slice(family.as_bytes()),
                qualifier: Bytes::copy_from_slice(qualifier.as_bytes()),
                timestamp: ts,
                seq,
                cell_type: t,
            },
            value: Bytes::copy_from_slice(value),
        }
    }

    fn row(key: &[u8], cells: Vec<Cell>) -> RowResult {
        RowResult {
            row: Bytes::copy_from_slice(key),
            cells,
        }
    }

    /// Rows of every shape a read returns: 5 families × 14 qualifiers (70
    /// distinct names), several versions of one column, every cell type,
    /// empty values, extreme timestamps and seqs, keys sharing prefixes, a
    /// key-only row, and the empty rows a bulk get answers for absent keys.
    fn every_shape() -> Vec<RowResult> {
        let wide: Vec<Cell> = (0..70)
            .map(|i| {
                let value = format!("v{i}");
                cell(
                    b"row-000",
                    &format!("f{}", i / 14),
                    &format!("q{:02}", i % 14),
                    1000 + i,
                    7,
                    CellType::Put,
                    value.as_bytes(),
                )
            })
            .collect();
        let versions = vec![
            cell(
                b"row-001",
                "f0",
                "q00",
                u64::MAX,
                u64::MAX,
                CellType::Put,
                b"newest",
            ),
            cell(b"row-001", "f0", "q00", 5, 0, CellType::Delete, b""),
            cell(b"row-001", "f0", "q00", 0, u64::MAX - 1, CellType::Put, b""),
            cell(b"row-001", "f0", "q01", 0, 0, CellType::DeleteColumn, b""),
            cell(
                b"row-001",
                "f1",
                "",
                u64::MAX,
                3,
                CellType::DeleteFamily,
                b"",
            ),
        ];
        vec![
            row(b"row-000", wide),
            row(b"row-001", versions),
            RowResult::default(),
            row(
                b"row-0010",
                vec![cell(
                    b"row-0010",
                    "f4",
                    "q13",
                    1,
                    1,
                    CellType::Put,
                    &[0u8; 300],
                )],
            ),
            row(b"row-002", Vec::new()),
            RowResult::default(),
            row(b"", vec![cell(b"", "f9", "new", 2, 2, CellType::Put, b"x")]),
        ]
    }

    #[test]
    fn every_shape_round_trips_exactly() {
        let rows = every_shape();
        let block = encode(&rows);
        assert_eq!(decode(&block).unwrap(), rows);
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<RowResult>::new());
    }

    #[test]
    fn names_and_values_are_views_of_the_block() {
        let block = encode(&every_shape());
        let span = block.as_ptr_range();
        let inside = |b: &Bytes| b.is_empty() || span.contains(&b.as_ptr());
        for row in decode(&block).unwrap() {
            for c in &row.cells {
                assert!(inside(&c.value) && inside(&c.key.family) && inside(&c.key.qualifier));
            }
        }
    }

    #[test]
    fn keys_are_prefix_compressed_and_names_written_once() {
        let rows: Vec<RowResult> = (0..100)
            .map(|i| {
                let key = format!("inventory-key-{i:06}");
                let cells = ["quantity", "warehouse"]
                    .iter()
                    .map(|q| {
                        cell(
                            key.as_bytes(),
                            "family",
                            q,
                            42,
                            9000 + i,
                            CellType::Put,
                            b"1234",
                        )
                    })
                    .collect();
                row(key.as_bytes(), cells)
            })
            .collect();
        let block = encode(&rows);
        let count = |needle: &[u8]| block.windows(needle.len()).filter(|w| *w == needle).count();
        assert_eq!(count(b"family"), 2, "one dictionary entry per column");
        assert_eq!(count(b"inventory-key-"), 1, "later keys share the prefix");
        // Per row: prefix + suffix + count (≈ 6 B) and two cells of
        // index, Δts, Δseq, type, length and a 4-byte value (≈ 9 B each).
        assert!(block.len() < 100 * 26, "{} bytes", block.len());
        assert_eq!(decode(&block).unwrap(), rows);
    }

    /// Cells pushed one at a time fall into rows where the key changes and
    /// make the bytes whole rows make — a row of more than 127 cells, whose
    /// count outgrows the byte reserved for it, and the names it introduces
    /// included.
    #[test]
    fn cells_pushed_singly_encode_as_their_rows() {
        let mut rows = every_shape();
        rows.retain(|row| !row.cells.is_empty());
        let wide = (0..300)
            .map(|i| {
                cell(
                    b"row-003",
                    "f0",
                    &format!("q{i:03}"),
                    9,
                    9,
                    CellType::Put,
                    b"v",
                )
            })
            .collect();
        rows.push(row(b"row-003", wide));
        let after = cell(b"row-004", "f0", "q299", 1, 1, CellType::Put, b"w");
        rows.push(row(b"row-004", vec![after]));
        let mut single = CellBlockEncoder::default();
        for c in rows.iter().flat_map(|row| &row.cells) {
            single.push_cell(&c.as_ref());
        }
        assert_eq!(single.rows(), rows.len());
        let block = encode(&rows);
        assert_eq!(single.finish(), block);
        assert_eq!(decode(&block).unwrap(), rows);
    }

    #[test]
    fn a_reused_encoder_starts_each_block_afresh() {
        let rows = every_shape();
        let mut encoder = CellBlockEncoder::default();
        let mut out = Vec::new();
        for _ in 0..2 {
            for row in &rows {
                encoder.push_row(&row.row, row.cells.iter().map(Cell::as_ref));
            }
            encoder.finish_into(&mut out);
        }
        assert_eq!(out, [&encode(&rows)[..], &encode(&rows)[..]].concat());
    }

    #[test]
    fn every_truncation_is_corruption() {
        let block = encode(&every_shape());
        for cut in 0..block.len() {
            let err = decode(&block.slice(..cut)).unwrap_err();
            assert!(matches!(err, KvError::Corruption(_)), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn forged_blocks_are_corruption() {
        let valid = encode(&[row(
            b"ab",
            vec![cell(b"ab", "f", "q", 1, 1, CellType::Put, b"v")],
        )]);
        let forged: Vec<Vec<u8>> = vec![
            // A row count far past what the bytes hold.
            [&u32::MAX.to_le_bytes()[..], &valid[4..]].concat(),
            // The first row claims a prefix of a previous row.
            vec![1, 0, 0, 0, 1, 0, 0],
            // A column index past the (empty) dictionary.
            vec![1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
            // An unknown cell type.
            vec![1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 9, 0],
            // A varint with more than 64 bits.
            [&[1, 0, 0, 0][..], &[0xff; 10][..], &[1][..]].concat(),
            // A value length past the end.
            vec![1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x04],
            // Trailing bytes.
            [&valid[..], &[0][..]].concat(),
        ];
        for (i, bytes) in forged.into_iter().enumerate() {
            let err = decode(&Bytes::from(bytes)).unwrap_err();
            assert!(matches!(err, KvError::Corruption(_)), "case {i}: {err:?}");
        }
    }

    #[test]
    fn the_encoder_reports_rows_and_the_resume_key() {
        let mut block = CellBlockEncoder::default();
        assert_eq!((block.rows(), block.last_row()), (0, &b""[..]));
        block.push_row(b"row-17", std::iter::empty());
        block.push_row(b"row-2", std::iter::empty());
        assert_eq!((block.rows(), block.last_row()), (2, &b"row-2"[..]));
    }
}
