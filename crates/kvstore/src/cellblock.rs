//! The cell block: what a read RPC's reply is on the wire.
//!
//! Every read RPC (`open_scanner`, `next_batch`, `get`, `bulk_get`) answers
//! with one buffer, in the spirit of HBase's RPC cell-block codec: a row key
//! is written once per row, prefix-compressed against the row before it;
//! each (family, qualifier) pair is written once per block and referenced by
//! index after that; timestamps and sequence numbers are deltas. The server
//! encodes the rows a scan accepts straight from the cells it pinned
//! ([`CellBlockEncoder`]), the network is charged the block's length, and the
//! client [`decode`]s it into [`RowResult`]s whose names and values are views
//! of the block and whose keys share one buffer per block — one `Vec<Cell>`
//! per row, no allocation per key or value.
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
use crate::storage::{cell_type_code, cell_type_from};
use crate::types::{Cell, CellKey, CellRef, RowResult};
use bytes::Bytes;
use std::ops::Range;

/// Builds one cell block a row at a time.
pub struct CellBlockEncoder {
    /// The block so far; its first four bytes are the row count, written by
    /// [`finish`](Self::finish).
    buf: Vec<u8>,
    rows: usize,
    last_row: Vec<u8>,
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
            columns: Vec::new(),
            next_column: 0,
            timestamp: 0,
            seq: 0,
        }
    }
}

impl CellBlockEncoder {
    /// Append a row: its key and its cells, in order. The cells' own `row`
    /// is not written; `row` is.
    pub fn push_row<'c>(&mut self, row: &[u8], cells: impl ExactSizeIterator<Item = CellRef<'c>>) {
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
        put_varint(&mut self.buf, cells.len() as u64);
        for cell in cells {
            self.push_cell(&cell);
        }
        self.rows += 1;
    }

    fn push_cell(&mut self, cell: &CellRef<'_>) {
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
        self.buf.push(cell_type_code(cell.cell_type));
        put_bytes(&mut self.buf, cell.value);
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

    /// Rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The key of the last row pushed (empty before the first).
    pub fn last_row(&self) -> &[u8] {
        &self.last_row
    }

    /// The finished block.
    pub fn finish(mut self) -> Bytes {
        let rows = u32::try_from(self.rows).expect("a cell block holds at most u32::MAX rows");
        self.buf[..4].copy_from_slice(&rows.to_le_bytes());
        Bytes::from(self.buf)
    }
}

/// The block of `rows`, as a server would send them.
pub fn encode(rows: &[RowResult]) -> Bytes {
    let mut block = CellBlockEncoder::default();
    for row in rows {
        block.push_row(&row.row, row.cells.iter().map(Cell::as_ref));
    }
    block.finish()
}

/// The rows of a block. Names and values are slices of `block`; row keys
/// are slices of one buffer per block that spells them all out. Anything
/// but a whole, well-formed block — truncated, forged counts or lengths, an
/// unknown column index or cell type, trailing bytes — is
/// [`KvError::Corruption`], never a panic or an out-of-bounds read.
pub fn decode(block: &Bytes) -> Result<Vec<RowResult>> {
    let mut r = BlockReader {
        block,
        data: block,
        pos: 0,
    };
    let declared = u32::from_le_bytes([r.byte()?, r.byte()?, r.byte()?, r.byte()?]);
    // A row takes at least three bytes and a cell five: a forged count
    // cannot make an allocation outgrow the block.
    let mut rows = Vec::with_capacity((declared as usize).min(r.remaining() / 3));
    let mut keys = Vec::new();
    let mut key_spans: Vec<Range<usize>> = Vec::with_capacity(rows.capacity());
    let mut columns: Vec<(Bytes, Bytes)> = Vec::new();
    let (mut timestamp, mut seq) = (0u64, 0u64);
    for _ in 0..declared {
        let prev = key_spans.last().cloned().unwrap_or_default();
        let shared = usize::try_from(r.varint()?)
            .ok()
            .filter(|&n| n <= prev.len())
            .ok_or_else(|| corrupt("row key shares more than the previous row's key"))?;
        let suffix = r.span()?;
        let start = keys.len();
        keys.extend_from_within(prev.start..prev.start + shared);
        keys.extend_from_slice(&r.data[suffix]);
        key_spans.push(start..keys.len());
        let n = r.varint()?;
        let mut cells = Vec::with_capacity(
            usize::try_from(n)
                .unwrap_or(usize::MAX)
                .min(r.remaining() / 5),
        );
        for _ in 0..n {
            let column = usize::try_from(r.varint()?).unwrap_or(usize::MAX);
            let (family, qualifier) = if column < columns.len() {
                columns[column].clone()
            } else if column == columns.len() {
                let entry = (r.bytes()?, r.bytes()?);
                columns.push(entry.clone());
                entry
            } else {
                return Err(corrupt("column index past the dictionary"));
            };
            timestamp = timestamp.wrapping_add(unzigzag(r.varint()?));
            seq = seq.wrapping_add(unzigzag(r.varint()?));
            let cell_type =
                cell_type_from(r.byte()?).ok_or_else(|| corrupt("unknown cell type"))?;
            let value = r.bytes()?;
            cells.push(Cell {
                key: CellKey {
                    // Filled in below, once the keys have their buffer.
                    row: Bytes::new(),
                    family,
                    qualifier,
                    timestamp,
                    seq,
                    cell_type,
                },
                value,
            });
        }
        rows.push(RowResult {
            row: Bytes::new(),
            cells,
        });
    }
    if r.remaining() > 0 {
        return Err(corrupt("trailing bytes after the last row"));
    }
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

/// A position in a block being decoded; every read is bounds-checked.
struct BlockReader<'b> {
    block: &'b Bytes,
    /// `block`'s bytes, borrowed once.
    data: &'b [u8],
    pos: usize,
}

impl BlockReader<'_> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| corrupt("truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    /// An unsigned LEB128 value of at most 64 bits.
    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupt("varint longer than 64 bits"))
    }

    /// A length-prefixed span: where it sits in the block.
    fn span(&mut self) -> Result<Range<usize>> {
        let n = usize::try_from(self.varint()?)
            .ok()
            .filter(|&n| n <= self.remaining())
            .ok_or_else(|| corrupt("truncated"))?;
        let span = self.pos..self.pos + n;
        self.pos += n;
        Ok(span)
    }

    /// A length-prefixed span, as a slice of the block.
    fn bytes(&mut self) -> Result<Bytes> {
        Ok(self.block.slice(self.span()?))
    }
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
    use crate::types::CellType;

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
