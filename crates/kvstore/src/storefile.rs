//! Immutable sorted store files — the HFile analog.
//!
//! A store file is a sorted run of cells produced by a memstore flush or a
//! compaction. It carries the structures real HFiles use for read pruning:
//! a sparse block index for seeks, a row-key bloom filter for point gets, a
//! timestamp span for time-range pruning, and first/last keys for range
//! pruning.
//!
//! Cells live in fixed-size [`Block`]s behind `Arc`s, mirroring HFile data
//! blocks, and a block in memory is the block on disk: one buffer holding
//! the encoded cells plus an offset per cell. The read path loads whole
//! blocks (normally through the region server's block cache) and reads
//! cells through borrowed [`CellRef`] views, so a scan only copies the cells
//! that actually end up in a response.
//!
//! A flush or compaction writes the file it built to disk before the
//! manifest names it ([`StoreFile::write_to`] / [`StoreFile::open`]):
//!
//! ```text
//! [data block]* [meta block] [footer]
//! block  = len u32 | crc32 u32 | payload
//! meta   = block index (offset, len) | file metadata | bloom filter
//! footer = meta_off u64 | meta_len u64 | magic u64
//! ```
//!
//! Every block — data and meta — carries its own CRC, and every cell of a
//! data block has its lengths and type checked as the block is indexed, so
//! a torn flush, a flipped byte or a malformed cell is detected at open time
//! and surfaces as [`KvError::Corruption`] instead of silently wrong query
//! results or a slice out of bounds.

use crate::error::{KvError, Result};
use crate::fault::FileOp;
use crate::storage::{self, Reader, StorageEnv};
use crate::types::{Cell, CellRef, CellType, TimeRange};
use bytes::Bytes;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

/// Smallest possible encoded cell: every length zero.
const MIN_CELL_LEN: usize = 4 + 2 + 2 + 8 + 8 + 1 + 4;

/// One data block: up to [`BLOCK_SIZE`] cells in `CellKey` order, shared
/// between the file, the block cache and in-flight scans via `Arc`.
///
/// The block holds its on-disk payload verbatim — `count u32 |
/// encode_cell*` in one allocation — plus the byte offset of every cell.
/// Every length and cell type in the payload was checked when the block was
/// built (when [`StoreFile::open`] indexed it, for bytes read from disk), so
/// [`Block::cell`] cannot leave the buffer.
#[derive(Debug)]
pub struct Block {
    payload: Box<[u8]>,
    offsets: Box<[u32]>,
    bytes: usize,
}

impl Block {
    /// Index a block payload read from disk, validating it cell by cell:
    /// any length that overruns the payload, unknown cell type, count that
    /// is zero or disagrees with the cells present, or trailing byte is
    /// [`KvError::Corruption`].
    fn parse(payload: &[u8]) -> Result<Block> {
        let count = Reader::new(payload).u32()? as usize;
        if count == 0 {
            return Err(KvError::Corruption("empty data block".into()));
        }
        let mut offsets = Vec::with_capacity(count.min(payload.len() / MIN_CELL_LEN));
        let mut pos = 4;
        let mut bytes = 0;
        for _ in 0..count {
            let (cell, len) = storage::parse_cell(&payload[pos..])?;
            // A payload is framed with a u32 length, so offsets fit.
            offsets.push(pos as u32);
            bytes += cell.heap_size();
            pos += len;
        }
        if pos != payload.len() {
            return Err(KvError::Corruption("trailing bytes in data block".into()));
        }
        Ok(Block {
            payload: payload.into(),
            offsets: offsets.into(),
            bytes,
        })
    }

    /// The cell at `idx`, borrowed from the block.
    pub fn cell(&self, idx: usize) -> CellRef<'_> {
        let at = self.offsets[idx] as usize;
        storage::parse_cell_checked(&self.payload[at..])
            .expect("block payload validated when the block was built")
            .0
    }

    /// Every cell of the block in order.
    pub fn cells(&self) -> impl Iterator<Item = CellRef<'_>> {
        (0..self.len()).map(|idx| self.cell(idx))
    }

    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// What the block cache charges: the sum of the cells'
    /// [`heap_size`](CellRef::heap_size).
    pub fn byte_size(&self) -> usize {
        self.bytes
    }
}

/// Builds a [`StoreFile`] from cells pushed in `CellKey` order, encoding
/// them straight into block payloads (a cell that came out of another block
/// is copied as the bytes it already is).
pub struct StoreFileBuilder {
    blocks: Vec<Arc<Block>>,
    block_index: Vec<Bytes>,
    /// The open block: payload so far (count patched in when it seals),
    /// cell offsets, and cache charge.
    payload: Vec<u8>,
    offsets: Vec<u32>,
    block_bytes: usize,
    n_cells: usize,
    total_bytes: usize,
    /// Bloom hashes of the distinct rows; the filter is sized by the cell
    /// count, which is only known at the end.
    row_hashes: Vec<(u64, u64)>,
    first_row: Option<Bytes>,
    last_row: Vec<u8>,
    min_ts: u64,
    max_ts: u64,
    max_seq: u64,
    has_tombstones: bool,
}

impl Default for StoreFileBuilder {
    fn default() -> Self {
        StoreFileBuilder {
            blocks: Vec::new(),
            block_index: Vec::new(),
            payload: Vec::new(),
            offsets: Vec::with_capacity(BLOCK_SIZE),
            block_bytes: 0,
            n_cells: 0,
            total_bytes: 0,
            row_hashes: Vec::new(),
            first_row: None,
            last_row: Vec::new(),
            min_ts: u64::MAX,
            max_ts: 0,
            max_seq: 0,
            has_tombstones: false,
        }
    }
}

impl StoreFileBuilder {
    /// Append the next cell; it must not sort before the previous one.
    pub fn push(&mut self, cell: CellRef<'_>) {
        debug_assert!(
            self.n_cells == 0 || self.last_row.as_slice() <= cell.row,
            "store file input must be sorted"
        );
        if self.offsets.is_empty() {
            self.block_index.push(Bytes::copy_from_slice(cell.row));
            self.payload.extend_from_slice(&[0; 4]);
        }
        // Avoid rehashing identical consecutive rows.
        if self.n_cells == 0 || self.last_row != cell.row {
            self.row_hashes.push(BloomFilter::hash_pair(cell.row));
            self.last_row.clear();
            self.last_row.extend_from_slice(cell.row);
        }
        if self.n_cells == 0 {
            self.first_row = Some(Bytes::copy_from_slice(cell.row));
        }
        self.min_ts = self.min_ts.min(cell.timestamp);
        self.max_ts = self.max_ts.max(cell.timestamp);
        self.max_seq = self.max_seq.max(cell.seq);
        self.has_tombstones |= cell.cell_type != CellType::Put;
        self.block_bytes += cell.heap_size();
        self.n_cells += 1;
        self.offsets.push(self.payload.len() as u32);
        storage::encode_cell_ref(&mut self.payload, &cell);
        if self.offsets.len() == BLOCK_SIZE {
            self.seal_block();
        }
    }

    fn seal_block(&mut self) {
        let count = self.offsets.len() as u32;
        self.payload[..4].copy_from_slice(&count.to_le_bytes());
        self.total_bytes += self.block_bytes;
        // Exact-size copies: the scratch buffers keep their capacity for
        // the next block, the block carries no slack.
        self.blocks.push(Arc::new(Block {
            payload: self.payload.as_slice().into(),
            offsets: self.offsets.as_slice().into(),
            bytes: self.block_bytes,
        }));
        self.payload.clear();
        self.offsets.clear();
        self.block_bytes = 0;
    }

    pub fn finish(mut self) -> StoreFile {
        if !self.offsets.is_empty() {
            self.seal_block();
        }
        let mut bloom = BloomFilter::with_capacity(self.n_cells);
        for hashes in self.row_hashes {
            bloom.insert_hashed(hashes);
        }
        StoreFile {
            file_id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            blocks: self.blocks,
            block_index: self.block_index,
            n_cells: self.n_cells,
            total_bytes: self.total_bytes,
            bloom,
            min_ts: self.min_ts,
            max_ts: self.max_ts,
            has_tombstones: self.has_tombstones,
            max_seq: self.max_seq,
            first_row: self.first_row,
            last_row: (self.n_cells > 0).then(|| Bytes::from(self.last_row)),
            disk_path: OnceLock::new(),
        }
    }
}

/// An immutable sorted run of cells with read-pruning metadata.
#[derive(Debug)]
pub struct StoreFile {
    /// Unique per process; block-cache keys are `(file_id, block index)`.
    file_id: u64,
    /// Cells in `CellKey` order, chunked into shared blocks.
    blocks: Vec<Arc<Block>>,
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
    pub fn from_sorted(cells: Vec<Cell>) -> Self {
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

    pub fn len(&self) -> usize {
        self.n_cells
    }

    pub fn is_empty(&self) -> bool {
        self.n_cells == 0
    }

    /// Total payload bytes, for compaction-selection heuristics.
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

    /// The shared block at `idx`. Callers on the scan path should go through
    /// [`crate::block_cache::load_block`] instead so reads are attributed to
    /// the cache.
    pub fn block(&self, idx: usize) -> &Arc<Block> {
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
        let mut block_index = Vec::with_capacity(n_blocks);
        let mut decoded_cells = 0usize;
        let mut total_bytes = 0usize;
        for (off, payload_len) in index {
            let end = off
                .checked_add(payload_len)
                .and_then(|e| e.checked_add(8))
                .filter(|&e| e <= meta_off)
                .ok_or_else(|| {
                    KvError::Corruption(format!("block index out of bounds: {}", path.display()))
                })?;
            let block = Block::parse(unframe_block(&data[off..end])?)?;
            block_index.push(Bytes::copy_from_slice(block.cell(0).row));
            decoded_cells += block.len();
            total_bytes += block.bytes;
            blocks.push(Arc::new(block));
        }
        if decoded_cells != n_cells {
            return Err(KvError::Corruption(format!(
                "cell count mismatch: meta says {n_cells}, blocks hold {decoded_cells}: {}",
                path.display()
            )));
        }
        let file = StoreFile {
            file_id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            first_row: block_index.first().cloned(),
            last_row: blocks
                .last()
                .map(|b| Bytes::copy_from_slice(b.cell(b.len() - 1).row)),
            blocks,
            block_index,
            n_cells,
            total_bytes,
            bloom,
            min_ts,
            max_ts,
            has_tombstones,
            max_seq,
            disk_path: OnceLock::new(),
        };
        let _ = file.disk_path.set(path.to_path_buf());
        Ok(file)
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
        StoreFile::from_sorted(cells)
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
        // The view's slices lie inside the block's one buffer.
        let payload = f.block(0).payload.as_ptr_range();
        for part in [view.row, view.family, view.qualifier, view.value] {
            assert!(payload.start <= part.as_ptr() && part.as_ptr_range().end <= payload.end);
        }
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
        let f = StoreFile::from_sorted(cells);
        assert!(f.overlaps_time_range(&TimeRange::new(15, 25)));
        assert!(!f.overlaps_time_range(&TimeRange::new(21, 30)));
        assert!(!f.overlaps_time_range(&TimeRange::new(0, 10)));
    }

    #[test]
    fn metadata_tracks_seq_and_ts() {
        let mut cells = vec![cell("a", 5, 9), cell("b", 50, 3)];
        cells.sort_by(|x, y| x.key.cmp(&y.key));
        let f = StoreFile::from_sorted(cells);
        assert_eq!(f.min_ts, 5);
        assert_eq!(f.max_ts, 50);
        assert_eq!(f.max_seq, 9);
        assert_eq!(f.first_row.as_ref().unwrap().as_ref(), b"a");
        assert_eq!(f.last_row.as_ref().unwrap().as_ref(), b"b");
    }

    #[test]
    fn empty_file_is_harmless() {
        let f = StoreFile::from_sorted(vec![]);
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
        let original = StoreFile::from_sorted(cells);
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
        let f = StoreFile::from_sorted(cells);
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
        let f = StoreFile::from_sorted(cells);
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

    /// The on-disk form as the previous, `Vec<Cell>`-backed implementation
    /// wrote it: every block payload framed from `storage::encode_cell`.
    fn legacy_file_bytes(file: &StoreFile, cells: &[Cell]) -> Vec<u8> {
        fn frame(out: &mut Vec<u8>, payload: &[u8]) {
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&storage::crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let mut out = Vec::new();
        let mut index = Vec::new();
        for chunk in cells.chunks(BLOCK_SIZE) {
            let mut payload = (chunk.len() as u32).to_le_bytes().to_vec();
            for cell in chunk {
                storage::encode_cell(&mut payload, cell);
            }
            index.push((out.len() as u64, payload.len() as u32));
            frame(&mut out, &payload);
        }
        let mut meta = (index.len() as u32).to_le_bytes().to_vec();
        for (off, len) in &index {
            meta.extend_from_slice(&off.to_le_bytes());
            meta.extend_from_slice(&len.to_le_bytes());
        }
        meta.extend_from_slice(&(cells.len() as u64).to_le_bytes());
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
        frame(&mut out, &meta);
        let meta_len = out.len() as u64 - meta_off;
        for v in [meta_off, meta_len, STOREFILE_MAGIC] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn disk_format_is_the_framed_cell_codec_in_both_directions() {
        let env = temp_env(1 << 20);
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
        let file = StoreFile::from_sorted(cells.clone());
        let legacy = legacy_file_bytes(&file, &cells);

        // Forward: what we write is what the cell codec frames.
        let path = env.root().join("new.sst");
        file.write_to(&env, &path, FileOp::StoreFileWrite).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), legacy);

        // Backward: a file in that format opens to the same cells and metadata.
        let old_path = env.root().join("old.sst");
        std::fs::write(&old_path, &legacy).unwrap();
        let opened = StoreFile::open(&env, &old_path).unwrap();
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

    #[test]
    fn open_rejects_recrced_damage_to_cell_lengths() {
        let env = temp_env(1 << 20);
        let f = file_with_rows(&["aaaa", "bbbb", "cccc"]);
        let path = env.root().join("sf.sst");
        f.write_to(&env, &path, FileOp::StoreFileWrite).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let payload_len = u32::from_le_bytes(clean[0..4].try_into().unwrap()) as usize;
        // (offset inside the payload, new byte): the cell count, the first
        // row length, and the first cell's type code.
        let first_cell = 4;
        let type_at = first_cell + 4 + 4 + 2 + 2 + 2 + 1 + 8 + 8;
        for (at, byte) in [(0, 9u8), (first_cell, 200), (type_at, 7)] {
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
