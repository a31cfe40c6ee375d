//! Immutable sorted store files — the HFile analog.
//!
//! A store file is a sorted run of cells produced by a memstore flush or a
//! compaction. It carries the structures real HFiles use for read pruning:
//! a sparse block index for seeks, a row-key bloom filter for point gets, a
//! timestamp span for time-range pruning, and first/last keys for range
//! pruning.
//!
//! Cells live in fixed-size [`Block`]s, mirroring HFile data blocks, that
//! the file owns for its whole life. A block's payload is a [cell block](crate::cellblock), the codec
//! read replies and the WAL use too, and the block in memory keeps it next
//! to the per-cell table it was decoded into once, when it was built or
//! opened. The read path borrows whole blocks from the file (accounting each
//! read to the region server's block cache) and reads cells through
//! [`CellRef`] views of that table, so a scan only copies the cells that
//! actually end up in a response.
//!
//! A flush or compaction writes the file it built to disk before the
//! manifest names it ([`StoreFile::write_to`] / [`StoreFile::open`]):
//!
//! ```text
//! [data block]* [meta block] [footer]
//! block  = len u32 | crc32 u32 | payload
//! data   = a cell block of up to BLOCK_SIZE cells
//! meta   = block index (offset, len) | file metadata | bloom filter
//! footer = meta_off u64 | meta_len u64 | magic u64
//! ```
//!
//! Every block — data and meta — carries its own CRC, and every data block
//! is decoded by the cell-block parser before the file opens, so a torn
//! flush, a flipped byte or a malformed cell block is detected at open time
//! and surfaces as [`KvError::Corruption`] instead of silently wrong query
//! results or a slice out of bounds.

use crate::cellblock::{self, CellBlockEncoder};
use crate::error::{KvError, Result};
use crate::fault::FileOp;
use crate::storage::{self, Reader, StorageEnv};
use crate::types::{Cell, CellRef, CellType, TimeRange};
use bytes::Bytes;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Trailing magic of the on-disk store-file format ("SHCSTORE").
const STOREFILE_MAGIC: u64 = 0x5348_4353_544f_5245;
/// Footer: meta_off u64 | meta_len u64 | magic u64.
const FOOTER_LEN: usize = 24;

/// Number of cells per data block. Sparse enough to keep the index tiny,
/// dense enough that a seek touches at most one extra block.
pub const BLOCK_SIZE: usize = 64;

/// Process-wide store-file id source; cache keys are `(file_id, block_idx)`.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// A simple split-hash bloom filter over row keys.
///
/// Sized at ~10 bits per key for a ≈1% false-positive rate with 4 probes,
/// which is plenty for steering point gets away from files that cannot
/// contain the row.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: usize,
    n_hashes: u32,
}

impl BloomFilter {
    pub fn with_capacity(expected_keys: usize) -> Self {
        let n_bits = (expected_keys.max(1) * 10).next_power_of_two();
        BloomFilter {
            bits: vec![0u64; n_bits / 64 + 1],
            n_bits,
            n_hashes: 4,
        }
    }

    fn hash_pair(key: &[u8]) -> (u64, u64) {
        // Two independent hashes via differently-seeded SipHash instances.
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h1);
        let a = h1.finish();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        0xdead_beef_u64.hash(&mut h2);
        key.hash(&mut h2);
        let b = h2.finish();
        (a, b | 1) // force b odd so probe strides cover the table
    }

    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hashed(Self::hash_pair(key));
    }

    /// Insert a key by its [`hash_pair`](Self::hash_pair), for builders that
    /// learn how large the filter must be only after seeing every key.
    fn insert_hashed(&mut self, (a, b): (u64, u64)) {
        for i in 0..self.n_hashes as u64 {
            let bit = (a.wrapping_add(i.wrapping_mul(b)) % self.n_bits as u64) as usize;
            self.bits[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// May return false positives, never false negatives.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (a, b) = Self::hash_pair(key);
        (0..self.n_hashes as u64).all(|i| {
            let bit = (a.wrapping_add(i.wrapping_mul(b)) % self.n_bits as u64) as usize;
            self.bits[bit / 64] & (1 << (bit % 64)) != 0
        })
    }

    /// The raw table for serialization: (bit words, n_bits, n_hashes).
    pub(crate) fn parts(&self) -> (&[u64], usize, u32) {
        (&self.bits, self.n_bits, self.n_hashes)
    }

    /// Rebuild a filter from its serialized parts.
    pub(crate) fn from_parts(bits: Vec<u64>, n_bits: usize, n_hashes: u32) -> Result<Self> {
        if n_bits == 0 || bits.len() != n_bits / 64 + 1 || n_hashes == 0 {
            return Err(KvError::Corruption(format!(
                "bloom shape mismatch: {} words for {n_bits} bits",
                bits.len()
            )));
        }
        Ok(BloomFilter {
            bits,
            n_bits,
            n_hashes,
        })
    }
}

/// One data block: up to [`BLOCK_SIZE`] cells in `CellKey` order, owned by
/// its file and borrowed by in-flight reads.
///
/// The block keeps its payload — a cell block, the bytes on disk — and the
/// per-cell table the cell-block parser decoded it into when it was built
/// or opened: the row keys spelled out, and per cell its coordinates and
/// where its row, names and value sit. [`Block::cell`] is a few lookups
/// into buffers every span of which the parser checked.
#[derive(Debug)]
pub struct Block {
    payload: Box<[u8]>,
    /// The block's row keys, spelled out.
    keys: Box<[u8]>,
    /// Per dictionary entry, its family's and qualifier's spans in `payload`.
    columns: Box<[(Span, Span)]>,
    cells: Box<[BlockCell]>,
    bytes: usize,
}

/// A `start..end` range of a block buffer; every offset fits `u32`.
type Span = (u32, u32);

/// One cell of a [`Block`]'s table.
#[derive(Debug)]
struct BlockCell {
    timestamp: u64,
    seq: u64,
    /// The row key's span in `keys`, the value's in `payload`.
    row: Span,
    value: Span,
    /// The names' index in `columns`.
    column: u32,
    cell_type: CellType,
}

impl Block {
    /// Decode a payload, built in memory or read from disk, into a block.
    /// What the cell-block parser rejects, a block without cells, and one
    /// whose payload or spelled-out keys outgrow `u32` offsets are
    /// [`KvError::Corruption`].
    fn decode(payload: &[u8]) -> Result<Block> {
        let oversized = || KvError::Corruption("oversized data block".into());
        u32::try_from(payload.len()).map_err(|_| oversized())?;
        // Payload offsets fit `u32` from here on; the keys' once spelled out.
        let span = |range: Range<usize>| (range.start as u32, range.end as u32);
        let (mut keys, mut columns, mut cells) = (Vec::new(), Vec::new(), Vec::new());
        cellblock::visit_rows(payload, |key, row_cells| {
            let row = span(keys.len()..keys.len() + key.len());
            keys.extend_from_slice(key);
            for cell in row_cells {
                if cell.column == columns.len() {
                    columns.push((span(cell.family.clone()), span(cell.qualifier.clone())));
                }
                cells.push(BlockCell {
                    timestamp: cell.timestamp,
                    seq: cell.seq,
                    row,
                    value: span(cell.value.clone()),
                    column: cell.column as u32,
                    cell_type: cell.cell_type,
                });
            }
            Ok::<_, KvError>(())
        })?;
        u32::try_from(keys.len()).map_err(|_| oversized())?;
        if cells.is_empty() {
            return Err(KvError::Corruption("empty data block".into()));
        }
        let mut block = Block {
            payload: payload.into(),
            keys: keys.into(),
            columns: columns.into(),
            cells: cells.into(),
            bytes: 0,
        };
        block.bytes = block.cells().map(|cell| cell.heap_size()).sum();
        Ok(block)
    }

    /// The cell at `idx`, borrowed from the block.
    pub fn cell(&self, idx: usize) -> CellRef<'_> {
        fn at(buf: &[u8], (start, end): Span) -> &[u8] {
            &buf[start as usize..end as usize]
        }
        let cell = &self.cells[idx];
        let (family, qualifier) = self.columns[cell.column as usize];
        CellRef {
            row: at(&self.keys, cell.row),
            family: at(&self.payload, family),
            qualifier: at(&self.payload, qualifier),
            timestamp: cell.timestamp,
            seq: cell.seq,
            cell_type: cell.cell_type,
            value: at(&self.payload, cell.value),
        }
    }

    /// Every cell of the block in order.
    pub fn cells(&self) -> impl Iterator<Item = CellRef<'_>> {
        (0..self.len()).map(|idx| self.cell(idx))
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// What the block cache charges: the sum of the cells'
    /// [`heap_size`](CellRef::heap_size).
    pub fn byte_size(&self) -> usize {
        self.bytes
    }
}

/// Builds a [`StoreFile`] from cells pushed in `CellKey` order, encoding
/// them straight into cell-block payloads of [`BLOCK_SIZE`] cells, each
/// decoded into its block as it seals.
#[derive(Default)]
pub struct StoreFileBuilder {
    blocks: Vec<Result<Block>>,
    /// The open block and its cell count.
    block: CellBlockEncoder,
    block_cells: usize,
    /// A sealing block's payload; reused across blocks.
    payload: Vec<u8>,
    /// Bloom hashes of the rows; the filter is sized by the cell count,
    /// which is only known at the end.
    row_hashes: Vec<(u64, u64)>,
}

impl StoreFileBuilder {
    /// Append the next cell; it must not sort before the previous one.
    pub fn push(&mut self, cell: CellRef<'_>) {
        let open_row = (self.block_cells > 0).then(|| self.block.last_row());
        debug_assert!(
            open_row.is_none_or(|row| row <= cell.row),
            "store file input must be sorted"
        );
        // A row hashes once per block it has cells in: setting the same
        // bits again changes nothing.
        if open_row != Some(cell.row) {
            self.row_hashes.push(BloomFilter::hash_pair(cell.row));
        }
        self.block.push_cell(&cell);
        self.block_cells += 1;
        if self.block_cells == BLOCK_SIZE {
            self.seal_block();
        }
    }

    fn seal_block(&mut self) {
        self.block.finish_into(&mut self.payload);
        self.blocks.push(Block::decode(&self.payload));
        self.payload.clear();
        self.block_cells = 0;
    }

    /// The finished file. A block that fails to decode — which a block
    /// this builder encoded cannot — is the error.
    pub fn finish(mut self) -> Result<StoreFile> {
        if self.block_cells > 0 {
            self.seal_block();
        }
        let blocks = self.blocks.into_iter().collect::<Result<Vec<_>>>()?;
        let mut bloom = BloomFilter::with_capacity(blocks.iter().map(Block::len).sum());
        for hashes in self.row_hashes {
            bloom.insert_hashed(hashes);
        }
        Ok(StoreFile::assemble(blocks, bloom))
    }
}

/// An immutable sorted run of cells with read-pruning metadata.
#[derive(Debug)]
pub struct StoreFile {
    /// Unique per process; block-cache keys are `(file_id, block index)`.
    file_id: u64,
    /// Cells in `CellKey` order, chunked into blocks.
    blocks: Vec<Block>,
    /// Sparse index: the first row key of every block.
    block_index: Vec<Bytes>,
    n_cells: usize,
    total_bytes: usize,
    bloom: BloomFilter,
    /// Smallest and largest cell timestamps in the file.
    pub min_ts: u64,
    pub max_ts: u64,
    /// Whether the file holds any delete markers. Files with tombstones are
    /// never pruned by time range: a marker must mask matching puts in
    /// *other* files regardless of the scan's time window.
    pub has_tombstones: bool,
    /// Largest MVCC sequence id in the file (flush ordering).
    pub max_seq: u64,
    /// First and last row keys, for range pruning.
    pub first_row: Option<Bytes>,
    pub last_row: Option<Bytes>,
    /// Where this file lives on disk, once persisted. Unset between the
    /// builder finishing a file and `write_to` landing it.
    disk_path: OnceLock<PathBuf>,
}

impl StoreFile {
    /// Build a store file from cells that are already in `CellKey` order.
    pub fn from_sorted(cells: Vec<Cell>) -> Result<Self> {
        debug_assert!(
            cells.windows(2).all(|w| w[0].key <= w[1].key),
            "store file input must be sorted"
        );
        let mut builder = StoreFileBuilder::default();
        for cell in &cells {
            builder.push(cell.as_ref());
        }
        builder.finish()
    }

    /// A file over decoded `blocks`, as a builder finished them or `open`
    /// read them: everything but the bloom filter is derived from them.
    fn assemble(blocks: Vec<Block>, bloom: BloomFilter) -> StoreFile {
        let (mut min_ts, mut max_ts, mut max_seq, mut has_tombstones) = (u64::MAX, 0, 0, false);
        for cell in blocks.iter().flat_map(Block::cells) {
            min_ts = min_ts.min(cell.timestamp);
            max_ts = max_ts.max(cell.timestamp);
            max_seq = max_seq.max(cell.seq);
            has_tombstones |= cell.cell_type != CellType::Put;
        }
        // A decoded block holds at least one cell.
        let first_row = |b: &Block| Bytes::copy_from_slice(b.cell(0).row);
        let block_index: Vec<Bytes> = blocks.iter().map(first_row).collect();
        StoreFile {
            file_id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            first_row: block_index.first().cloned(),
            last_row: blocks
                .last()
                .map(|b| Bytes::copy_from_slice(b.cell(b.len() - 1).row)),
            n_cells: blocks.iter().map(Block::len).sum(),
            total_bytes: blocks.iter().map(Block::byte_size).sum(),
            blocks,
            block_index,
            bloom,
            min_ts,
            max_ts,
            has_tombstones,
            max_seq,
            disk_path: OnceLock::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.n_cells
    }

    pub fn is_empty(&self) -> bool {
        self.n_cells == 0
    }

    /// The file's decoded heap size: the sum of its blocks'
    /// [`Block::byte_size`], not the bytes of the file on disk. Compaction's
    /// tier selection, the compaction-backlog gauge, the flush and
    /// compaction byte counts and `Region::store_file_bytes` all read it.
    pub fn byte_size(&self) -> usize {
        self.total_bytes
    }

    /// Process-unique id; block-cache keys are `(file_id, block index)`.
    pub fn file_id(&self) -> u64 {
        self.file_id
    }

    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block at `idx`. Callers on the scan path should go through
    /// [`crate::block_cache::load_block`] instead so reads are attributed to
    /// the cache.
    pub fn block(&self, idx: usize) -> &Block {
        &self.blocks[idx]
    }

    /// Index of the first block that can contain a cell with row `>= start`,
    /// from the sparse index alone — no block is touched. The answer may be
    /// one block early when a row spans a block boundary; callers skip
    /// leading cells `< start` inside the block.
    pub fn start_block(&self, start: &[u8]) -> usize {
        if start.is_empty() {
            return 0;
        }
        // First block whose first row is >= start; its predecessor may still
        // hold trailing cells of rows >= start, earlier blocks cannot.
        let at = self.block_index.partition_point(|row| row.as_ref() < start);
        at.saturating_sub(1)
    }

    /// Can this file contain any row in `[start, stop)`? Empty `stop` is
    /// unbounded.
    pub fn overlaps_row_range(&self, start: &[u8], stop: &[u8]) -> bool {
        match (&self.first_row, &self.last_row) {
            (Some(first), Some(last)) => {
                last.as_ref() >= start && (stop.is_empty() || first.as_ref() < stop)
            }
            _ => false,
        }
    }

    /// Can this file affect a scan with the given time range? Files whose
    /// cells all fall outside the window are skippable — unless they carry
    /// delete markers, which must stay visible to mask cells elsewhere.
    pub fn overlaps_time_range(&self, tr: &TimeRange) -> bool {
        !self.is_empty() && (self.has_tombstones || tr.overlaps(self.min_ts, self.max_ts))
    }

    /// Bloom-checked point-row membership hint.
    pub fn may_contain_row(&self, row: &[u8]) -> bool {
        self.bloom.may_contain(row)
    }

    // ------------------------------------------------------------------
    // On-disk form
    // ------------------------------------------------------------------

    /// Where this file was persisted, if it was.
    pub fn disk_path(&self) -> Option<&PathBuf> {
        self.disk_path.get()
    }

    /// Serialize the file to `path`, one fault-injectable write per data
    /// block (so a crash fault at the nth write produces a realistically
    /// torn flush), then meta block + footer as the final write, then one
    /// fsync: callers commit the manifest that references the file only
    /// after this returns. The file is only valid once the footer lands; a
    /// partial file fails `open` with [`KvError::Corruption`] and is
    /// cleaned up as an orphan.
    pub fn write_to(&self, env: &StorageEnv, path: &Path, op: FileOp) -> Result<()> {
        let mut file = env.open_append(path)?;
        let mut index: Vec<(u64, u32)> = Vec::with_capacity(self.blocks.len());
        let mut offset = 0u64;
        let mut framed = Vec::new();
        for block in &self.blocks {
            index.push((offset, block.payload.len() as u32));
            frame_block(&mut framed, &block.payload);
            offset += framed.len() as u64;
            env.write(&mut file, op, &framed)?;
        }

        let mut meta = Vec::new();
        meta.extend_from_slice(&(index.len() as u32).to_le_bytes());
        for (off, len) in &index {
            meta.extend_from_slice(&off.to_le_bytes());
            meta.extend_from_slice(&len.to_le_bytes());
        }
        meta.extend_from_slice(&(self.n_cells as u64).to_le_bytes());
        meta.extend_from_slice(&self.min_ts.to_le_bytes());
        meta.extend_from_slice(&self.max_ts.to_le_bytes());
        meta.extend_from_slice(&self.max_seq.to_le_bytes());
        meta.push(self.has_tombstones as u8);
        let (words, n_bits, n_hashes) = self.bloom.parts();
        meta.extend_from_slice(&(n_bits as u64).to_le_bytes());
        meta.extend_from_slice(&n_hashes.to_le_bytes());
        meta.extend_from_slice(&(words.len() as u32).to_le_bytes());
        for w in words {
            meta.extend_from_slice(&w.to_le_bytes());
        }
        let mut tail = framed;
        frame_block(&mut tail, &meta);
        let meta_len = tail.len() as u64;
        tail.extend_from_slice(&offset.to_le_bytes());
        tail.extend_from_slice(&meta_len.to_le_bytes());
        tail.extend_from_slice(&STOREFILE_MAGIC.to_le_bytes());
        env.write(&mut file, op, &tail)?;
        env.sync(&file, op)?;
        let _ = self.disk_path.set(path.to_path_buf());
        Ok(())
    }

    /// Open a serialized store file, validating the footer magic and every
    /// block CRC before trusting a single cell. Any mismatch — truncation,
    /// a torn write, a flipped byte — fails loudly with
    /// [`KvError::Corruption`]; wrong data is never silently served.
    pub fn open(env: &StorageEnv, path: &Path) -> Result<StoreFile> {
        let data = env.read(path)?;
        if data.len() < FOOTER_LEN {
            return Err(KvError::Corruption(format!(
                "store file too short ({} bytes): {}",
                data.len(),
                path.display()
            )));
        }
        let mut footer = Reader::new(&data[data.len() - FOOTER_LEN..]);
        let meta_off = footer.u64()? as usize;
        let meta_len = footer.u64()? as usize;
        let magic = footer.u64()?;
        if magic != STOREFILE_MAGIC {
            return Err(KvError::Corruption(format!(
                "bad store file magic: {}",
                path.display()
            )));
        }
        if meta_off
            .checked_add(meta_len)
            .and_then(|end| end.checked_add(FOOTER_LEN))
            != Some(data.len())
        {
            return Err(KvError::Corruption(format!(
                "store file footer geometry mismatch: {}",
                path.display()
            )));
        }
        let meta_payload = unframe_block(&data[meta_off..meta_off + meta_len])?;
        let mut r = Reader::new(meta_payload);
        let n_blocks = r.u32()? as usize;
        let mut index = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            index.push((r.u64()? as usize, r.u32()? as usize));
        }
        let n_cells = r.u64()? as usize;
        let min_ts = r.u64()?;
        let max_ts = r.u64()?;
        let max_seq = r.u64()?;
        let has_tombstones = r.u8()? != 0;
        let n_bits = r.u64()? as usize;
        let n_hashes = r.u32()?;
        let n_words = r.u32()? as usize;
        let mut words = Vec::with_capacity(n_words.min(1 << 20));
        for _ in 0..n_words {
            words.push(r.u64()?);
        }
        let bloom = BloomFilter::from_parts(words, n_bits, n_hashes)?;

        let mut blocks = Vec::with_capacity(n_blocks);
        for (off, payload_len) in index {
            let end = off
                .checked_add(payload_len)
                .and_then(|e| e.checked_add(8))
                .filter(|&e| e <= meta_off)
                .ok_or_else(|| {
                    KvError::Corruption(format!("block index out of bounds: {}", path.display()))
                })?;
            blocks.push(Block::decode(unframe_block(&data[off..end])?)?);
        }
        let f = StoreFile::assemble(blocks, bloom);
        if (n_cells, min_ts, max_ts) != (f.n_cells, f.min_ts, f.max_ts)
            || (max_seq, has_tombstones) != (f.max_seq, f.has_tombstones)
        {
            return Err(KvError::Corruption(format!(
                "metadata disagrees with the blocks: {}",
                path.display()
            )));
        }
        let _ = f.disk_path.set(path.to_path_buf());
        Ok(f)
    }
}

/// `len u32 | crc32 u32 | payload` framing shared by data and meta blocks,
/// written over `out`.
fn frame_block(out: &mut Vec<u8>, payload: &[u8]) {
    out.clear();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&storage::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn unframe_block(buf: &[u8]) -> Result<&[u8]> {
    let mut header = Reader::new(buf);
    let len = header.u32()? as usize;
    let crc = header.u32()?;
    if len + 8 != buf.len() {
        return Err(KvError::Corruption(format!(
            "block length mismatch: header says {len}, got {}",
            buf.len() - 8
        )));
    }
    let payload = &buf[8..];
    if storage::crc32(payload) != crc {
        return Err(KvError::Corruption("block crc mismatch".into()));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::temp_env;
    use crate::types::{CellKey, CellType};

    fn cell(row: &str, ts: u64, seq: u64) -> Cell {
        Cell {
            key: CellKey {
                row: Bytes::copy_from_slice(row.as_bytes()),
                family: Bytes::from_static(b"cf"),
                qualifier: Bytes::from_static(b"q"),
                timestamp: ts,
                seq,
                cell_type: CellType::Put,
            },
            value: Bytes::from_static(b"v"),
        }
    }

    fn file_with_rows(rows: &[&str]) -> StoreFile {
        let mut cells: Vec<Cell> = rows.iter().map(|r| cell(r, 1, 1)).collect();
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        StoreFile::from_sorted(cells).unwrap()
    }

    fn all_cells(file: &StoreFile) -> Vec<Cell> {
        (0..file.num_blocks())
            .flat_map(|i| file.block(i).cells())
            .map(|c| c.to_cell())
            .collect()
    }

    #[test]
    fn bloom_no_false_negatives() {
        let mut b = BloomFilter::with_capacity(100);
        for i in 0..100 {
            b.insert(format!("row-{i}").as_bytes());
        }
        for i in 0..100 {
            assert!(b.may_contain(format!("row-{i}").as_bytes()));
        }
    }

    #[test]
    fn bloom_mostly_rejects_absent_keys() {
        let mut b = BloomFilter::with_capacity(1000);
        for i in 0..1000 {
            b.insert(format!("row-{i}").as_bytes());
        }
        let false_positives = (0..1000)
            .filter(|i| b.may_contain(format!("absent-{i}").as_bytes()))
            .count();
        // ~1% expected; allow generous slack.
        assert!(
            false_positives < 60,
            "too many false positives: {false_positives}"
        );
    }

    #[test]
    fn cells_are_chunked_into_blocks() {
        let rows: Vec<String> = (0..BLOCK_SIZE * 2 + 5)
            .map(|i| format!("r{i:05}"))
            .collect();
        let f = file_with_rows(&rows.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(f.num_blocks(), 3);
        assert_eq!(f.block(0).len(), BLOCK_SIZE);
        assert_eq!(f.block(2).len(), 5);
        assert_eq!(f.len(), BLOCK_SIZE * 2 + 5);
        assert_eq!(
            f.byte_size(),
            (0..3).map(|i| f.block(i).byte_size()).sum::<usize>()
        );
    }

    #[test]
    fn file_ids_are_unique() {
        let a = file_with_rows(&["a"]);
        let b = file_with_rows(&["a"]);
        assert_ne!(a.file_id(), b.file_id());
    }

    #[test]
    fn start_block_lands_at_most_one_block_early() {
        let rows: Vec<String> = (0..300).map(|i| format!("r{i:05}")).collect();
        let f = file_with_rows(&rows.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(f.start_block(b""), 0);
        assert_eq!(f.start_block(b"r00000"), 0);
        // Row r00128 starts block 2; seeking to it may start at block 1.
        let b = f.start_block(format!("r{:05}", BLOCK_SIZE * 2).as_bytes());
        assert!(b == 1 || b == 2, "got block {b}");
        // Past the end: last block.
        assert_eq!(f.start_block(b"zzz"), f.num_blocks() - 1);
    }

    #[test]
    fn cells_are_read_in_place() {
        let f = file_with_rows(&["a", "b"]);
        let view = f.block(0).cell(1);
        assert_eq!(view.to_cell(), cell("b", 1, 1));
        // The view's names and value lie inside the block's payload, its
        // row inside the block's spelled-out keys.
        let within = |buf: &[u8], part: &[u8]| {
            let buf = buf.as_ptr_range();
            buf.start <= part.as_ptr() && part.as_ptr_range().end <= buf.end
        };
        let block = f.block(0);
        for part in [view.family, view.qualifier, view.value] {
            assert!(within(&block.payload, part));
        }
        assert!(within(&block.keys, view.row));
    }

    #[test]
    fn overlaps_row_range_uses_first_last() {
        let f = file_with_rows(&["f", "g", "h"]);
        assert!(f.overlaps_row_range(b"a", b"g"));
        assert!(f.overlaps_row_range(b"h", b""));
        assert!(!f.overlaps_row_range(b"i", b"z"));
        assert!(!f.overlaps_row_range(b"a", b"f")); // stop exclusive
    }

    #[test]
    fn overlaps_time_range_prunes() {
        let cells = vec![cell("a", 10, 1), cell("b", 20, 2)];
        let f = StoreFile::from_sorted(cells).unwrap();
        assert!(f.overlaps_time_range(&TimeRange::new(15, 25)));
        assert!(!f.overlaps_time_range(&TimeRange::new(21, 30)));
        assert!(!f.overlaps_time_range(&TimeRange::new(0, 10)));
    }

    #[test]
    fn metadata_tracks_seq_and_ts() {
        let mut cells = vec![cell("a", 5, 9), cell("b", 50, 3)];
        cells.sort_by(|x, y| x.key.cmp(&y.key));
        let f = StoreFile::from_sorted(cells).unwrap();
        assert_eq!(f.min_ts, 5);
        assert_eq!(f.max_ts, 50);
        assert_eq!(f.max_seq, 9);
        assert_eq!(f.first_row.as_ref().unwrap().as_ref(), b"a");
        assert_eq!(f.last_row.as_ref().unwrap().as_ref(), b"b");
    }

    #[test]
    fn empty_file_is_harmless() {
        let f = StoreFile::from_sorted(vec![]).unwrap();
        assert!(f.is_empty());
        assert_eq!(f.num_blocks(), 0);
        assert!(!f.overlaps_row_range(b"", b""));
        assert!(!f.overlaps_time_range(&TimeRange::default()));
    }

    #[test]
    fn disk_roundtrip_preserves_everything() {
        let env = temp_env(1 << 20);
        let mut cells: Vec<Cell> = (0..BLOCK_SIZE * 3 + 17)
            .map(|i| cell(&format!("row-{i:05}"), 10 + i as u64, i as u64 + 1))
            .collect();
        cells.push(Cell {
            key: CellKey {
                row: Bytes::from_static(b"zzz"),
                family: Bytes::from_static(b"cf"),
                qualifier: Bytes::from_static(b"q"),
                timestamp: 999,
                seq: 7777,
                cell_type: CellType::DeleteColumn,
            },
            value: Bytes::new(),
        });
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        let original = StoreFile::from_sorted(cells).unwrap();
        let path = env.root().join("sf-1.sst");
        original
            .write_to(&env, &path, FileOp::StoreFileWrite)
            .unwrap();
        assert_eq!(original.disk_path(), Some(&path));

        let reopened = StoreFile::open(&env, &path).unwrap();
        assert_eq!(reopened.len(), original.len());
        assert_eq!(reopened.num_blocks(), original.num_blocks());
        assert_eq!(reopened.byte_size(), original.byte_size());
        assert_eq!(reopened.min_ts, original.min_ts);
        assert_eq!(reopened.max_ts, original.max_ts);
        assert_eq!(reopened.max_seq, original.max_seq);
        assert_eq!(reopened.has_tombstones, original.has_tombstones);
        assert_eq!(reopened.first_row, original.first_row);
        assert_eq!(reopened.last_row, original.last_row);
        assert_ne!(reopened.file_id(), original.file_id());
        assert_eq!(all_cells(&original), all_cells(&reopened));
        // The serialized bloom behaves identically.
        assert!(reopened.may_contain_row(b"row-00042"));
        assert_eq!(
            reopened.may_contain_row(b"never-inserted"),
            original.may_contain_row(b"never-inserted")
        );
    }

    #[test]
    fn open_rejects_truncation_at_any_length() {
        let env = temp_env(1 << 20);
        let cells: Vec<Cell> = (0..BLOCK_SIZE + 9)
            .map(|i| cell(&format!("r{i:04}"), 1, i as u64 + 1))
            .collect();
        let f = StoreFile::from_sorted(cells).unwrap();
        let path = env.root().join("sf.sst");
        f.write_to(&env, &path, FileOp::StoreFileWrite).unwrap();
        let data = std::fs::read(&path).unwrap();
        // Every strict prefix must be rejected — a torn flush can stop at
        // any byte, and partial files must never open successfully.
        for cut in [0, 1, 7, 8, 100, data.len() / 2, data.len() - 1] {
            std::fs::write(&path, &data[..cut]).unwrap();
            assert!(
                matches!(StoreFile::open(&env, &path), Err(KvError::Corruption(_))),
                "truncation to {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn open_rejects_single_bit_corruption() {
        let env = temp_env(1 << 20);
        let cells: Vec<Cell> = (0..200)
            .map(|i| cell(&format!("r{i:04}"), 1, i as u64 + 1))
            .collect();
        let f = StoreFile::from_sorted(cells).unwrap();
        let path = env.root().join("sf.sst");
        f.write_to(&env, &path, FileOp::StoreFileWrite).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for pos in [9, clean.len() / 3, clean.len() / 2, clean.len() - 30] {
            let mut data = clean.clone();
            data[pos] ^= 0x40;
            std::fs::write(&path, &data).unwrap();
            assert!(
                StoreFile::open(&env, &path).is_err(),
                "bit flip at {pos} must not open cleanly"
            );
        }
        // And the pristine bytes still open.
        std::fs::write(&path, &clean).unwrap();
        assert!(StoreFile::open(&env, &path).is_ok());
    }

    /// A store file's bytes with `payloads` as its data blocks, framed and
    /// indexed as `write_to` frames them, under `file`'s metadata.
    fn file_bytes(file: &StoreFile, payloads: &[Bytes]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut framed = Vec::new();
        let mut meta = (payloads.len() as u32).to_le_bytes().to_vec();
        for payload in payloads {
            meta.extend_from_slice(&(out.len() as u64).to_le_bytes());
            meta.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame_block(&mut framed, payload);
            out.extend_from_slice(&framed);
        }
        meta.extend_from_slice(&(file.len() as u64).to_le_bytes());
        for v in [file.min_ts, file.max_ts, file.max_seq] {
            meta.extend_from_slice(&v.to_le_bytes());
        }
        meta.push(file.has_tombstones as u8);
        let (words, n_bits, n_hashes) = file.bloom.parts();
        meta.extend_from_slice(&(n_bits as u64).to_le_bytes());
        meta.extend_from_slice(&n_hashes.to_le_bytes());
        meta.extend_from_slice(&(words.len() as u32).to_le_bytes());
        for w in words {
            meta.extend_from_slice(&w.to_le_bytes());
        }
        let meta_off = out.len() as u64;
        frame_block(&mut framed, &meta);
        out.extend_from_slice(&framed);
        for v in [meta_off, framed.len() as u64, STOREFILE_MAGIC] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Every `BLOCK_SIZE` cells as one cell block, encoded a cell at a time.
    fn cell_blocks(cells: &[Cell]) -> Vec<Bytes> {
        cells
            .chunks(BLOCK_SIZE)
            .map(|chunk| {
                let mut block = CellBlockEncoder::default();
                for cell in chunk {
                    block.push_cell(&cell.as_ref());
                }
                block.finish()
            })
            .collect()
    }

    #[test]
    fn disk_format_is_the_framed_cell_codec_in_both_directions() {
        let env = temp_env(1 << 20);
        // Three cells a row, so rows straddle the block boundaries.
        let mut cells: Vec<Cell> = (0..BLOCK_SIZE * 2 + 9)
            .map(|i| {
                cell(
                    &format!("row-{:04}", i / 3),
                    100 - (i % 3) as u64,
                    i as u64 + 1,
                )
            })
            .collect();
        cells[5].key.cell_type = CellType::DeleteColumn;
        cells[5].value = Bytes::new();
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        let file = StoreFile::from_sorted(cells.clone()).unwrap();
        let expected = file_bytes(&file, &cell_blocks(&cells));

        // Forward: what we write is the cells' blocks, framed.
        let path = env.root().join("new.sst");
        file.write_to(&env, &path, FileOp::StoreFileWrite).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), expected);

        // Backward: framed cell blocks open to the same cells and metadata.
        let other = env.root().join("other.sst");
        std::fs::write(&other, &expected).unwrap();
        let opened = StoreFile::open(&env, &other).unwrap();
        assert_eq!(all_cells(&opened), cells);
        assert_eq!(opened.byte_size(), file.byte_size());
        assert_eq!(opened.block_index, file.block_index);
        assert_eq!(
            (&opened.first_row, &opened.last_row),
            (&file.first_row, &file.last_row)
        );
        for i in 0..file.num_blocks() {
            assert_eq!(opened.block(i).byte_size(), file.block(i).byte_size());
        }
    }

    /// A data block whose CRC holds but whose payload is not a cell block
    /// with cells never opens.
    #[test]
    fn open_rejects_crc_valid_blocks_that_are_not_cell_blocks() {
        let env = temp_env(1 << 20);
        let file = file_with_rows(&["aaaa", "bbbb"]);
        let valid = cell_blocks(&all_cells(&file)).remove(0);
        let mut row_without_cells = CellBlockEncoder::default();
        row_without_cells.push_row(b"aaaa", std::iter::empty());
        let not_blocks: Vec<(&str, Bytes)> = vec![
            ("no rows", CellBlockEncoder::default().finish()),
            ("a row without cells", row_without_cells.finish()),
            ("truncated", valid.slice(..valid.len() - 1)),
            ("trailing bytes", [&valid[..], &[0][..]].concat().into()),
        ];
        let path = env.root().join("sf.sst");
        for (what, payload) in not_blocks {
            std::fs::write(&path, file_bytes(&file, &[payload])).unwrap();
            assert!(
                matches!(StoreFile::open(&env, &path), Err(KvError::Corruption(_))),
                "{what}"
            );
        }
        std::fs::write(&path, file_bytes(&file, &[valid])).unwrap();
        assert_eq!(
            all_cells(&StoreFile::open(&env, &path).unwrap()),
            all_cells(&file)
        );
    }

    #[test]
    fn open_rejects_recrced_damage_to_cell_lengths() {
        let env = temp_env(1 << 20);
        let f = file_with_rows(&["aaaa", "bbbb", "cccc"]);
        let path = env.root().join("sf.sst");
        f.write_to(&env, &path, FileOp::StoreFileWrite).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let payload_len = u32::from_le_bytes(clean[0..4].try_into().unwrap()) as usize;
        // (offset inside the payload, new byte): the row count, the first
        // row's shared prefix and key length, and its first cell's column
        // index and type code. The payload opens `rows u32 | shared |
        // len | "aaaa" | cells | column | 2 "cf" | 1 "q" | Δts | Δseq | type`.
        let damage = [(0, 9u8), (4, 1), (5, 200), (11, 5), (19, 7)];
        for (at, byte) in damage {
            let mut data = clean.clone();
            data[8 + at] = byte;
            let crc = storage::crc32(&data[8..8 + payload_len]);
            data[4..8].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &data).unwrap();
            assert!(
                matches!(StoreFile::open(&env, &path), Err(KvError::Corruption(_))),
                "payload byte {at} = {byte} passes its CRC but must fail validation"
            );
        }
    }
}
