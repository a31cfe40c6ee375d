//! Immutable sorted store files — the HFile analog.
//!
//! A store file is a sorted run of cells produced by a memstore flush or a
//! compaction. It carries the structures real HFiles use for read pruning:
//! a sparse block index for seeks, a row-key bloom filter for point gets, a
//! timestamp span for time-range pruning, and first/last keys for range
//! pruning.
//!
//! Cells live in fixed-size [`Block`]s behind `Arc`s, mirroring HFile data
//! blocks: the read path loads whole blocks (normally through the region
//! server's block cache) and yields [`CellSrc`] references into those shared
//! blocks, so a scan only copies the cells that actually end up in a
//! response.
//!
//! In durable clusters a store file also has an on-disk form
//! ([`StoreFile::write_to`] / [`StoreFile::open`]):
//!
//! ```text
//! [data block]* [meta block] [footer]
//! block  = len u32 | crc32 u32 | payload
//! meta   = block index (offset, len) | file metadata | bloom filter
//! footer = meta_off u64 | meta_len u64 | magic u64
//! ```
//!
//! Every block — data and meta — carries its own CRC, so a torn flush or a
//! flipped byte is detected at open time and surfaces as
//! [`KvError::Corruption`] instead of silently wrong query results.

use crate::error::{KvError, Result};
use crate::fault::FileOp;
use crate::storage::{self, Reader, StorageEnv};
use crate::types::{Cell, TimeRange};
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

thread_local! {
    static SHARED_CELLS_CLONED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many block-backed cells this thread has materialized (cloned out of
/// their shared block) so far. A delta around a scan measures exactly the
/// copies the read path could not avoid — returned cells, not scanned ones.
pub fn shared_cells_cloned() -> u64 {
    SHARED_CELLS_CLONED.with(|c| c.get())
}

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
        let (a, b) = Self::hash_pair(key);
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

/// One data block: up to [`BLOCK_SIZE`] cells in `CellKey` order, shared
/// between the file, the block cache and in-flight scans via `Arc`.
#[derive(Debug)]
pub struct Block {
    cells: Vec<Cell>,
    bytes: usize,
}

impl Block {
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Payload bytes in this block; what the block cache charges.
    pub fn byte_size(&self) -> usize {
        self.bytes
    }
}

/// A cell yielded by the read path: owned (memstore) or a position inside a
/// shared store-file block. [`CellSrc::into_cell`] is the only point where a
/// block-backed cell gets cloned, so the thread-local counter behind
/// [`shared_cells_cloned`] measures exactly the copies a read performs.
#[derive(Clone, Debug)]
pub enum CellSrc {
    Owned(Cell),
    Shared { block: Arc<Block>, idx: usize },
}

impl CellSrc {
    pub fn cell(&self) -> &Cell {
        match self {
            CellSrc::Owned(c) => c,
            CellSrc::Shared { block, idx } => &block.cells[*idx],
        }
    }

    pub fn key(&self) -> &crate::types::CellKey {
        &self.cell().key
    }

    /// Materialize the cell, cloning it out of its block if shared.
    pub fn into_cell(self) -> Cell {
        match self {
            CellSrc::Owned(c) => c,
            CellSrc::Shared { block, idx } => {
                SHARED_CELLS_CLONED.with(|c| c.set(c.get() + 1));
                block.cells[idx].clone()
            }
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
    /// Where this file lives on disk, once persisted. Unset for purely
    /// in-memory files (non-durable clusters, or a flush not yet written).
    disk_path: OnceLock<PathBuf>,
}

impl StoreFile {
    /// Build a store file from cells that are already in `CellKey` order
    /// (a memstore drain or a compaction merge).
    pub fn from_sorted(cells: Vec<Cell>) -> Self {
        debug_assert!(
            cells.windows(2).all(|w| w[0].key <= w[1].key),
            "store file input must be sorted"
        );
        let mut bloom = BloomFilter::with_capacity(cells.len());
        let mut blocks = Vec::with_capacity(cells.len() / BLOCK_SIZE + 1);
        let mut block_index = Vec::with_capacity(cells.len() / BLOCK_SIZE + 1);
        let mut min_ts = u64::MAX;
        let mut max_ts = 0u64;
        let mut max_seq = 0u64;
        let mut total_bytes = 0usize;
        let mut has_tombstones = false;
        let mut last_bloom_row: Option<Bytes> = None;
        let first_row = cells.first().map(|c| c.key.row.clone());
        let last_row = cells.last().map(|c| c.key.row.clone());
        let n_cells = cells.len();
        let mut current: Vec<Cell> = Vec::with_capacity(BLOCK_SIZE.min(n_cells));
        let mut current_bytes = 0usize;
        for cell in cells {
            if current.is_empty() {
                block_index.push(cell.key.row.clone());
            }
            // Avoid rehashing identical consecutive rows.
            if last_bloom_row.as_ref() != Some(&cell.key.row) {
                bloom.insert(&cell.key.row);
                last_bloom_row = Some(cell.key.row.clone());
            }
            min_ts = min_ts.min(cell.key.timestamp);
            max_ts = max_ts.max(cell.key.timestamp);
            max_seq = max_seq.max(cell.key.seq);
            has_tombstones |= cell.key.cell_type != crate::types::CellType::Put;
            current_bytes += cell.heap_size();
            current.push(cell);
            if current.len() == BLOCK_SIZE {
                total_bytes += current_bytes;
                blocks.push(Arc::new(Block {
                    cells: std::mem::replace(&mut current, Vec::with_capacity(BLOCK_SIZE)),
                    bytes: current_bytes,
                }));
                current_bytes = 0;
            }
        }
        if !current.is_empty() {
            total_bytes += current_bytes;
            blocks.push(Arc::new(Block {
                cells: current,
                bytes: current_bytes,
            }));
        }
        StoreFile {
            file_id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            blocks,
            block_index,
            n_cells,
            total_bytes,
            bloom,
            min_ts,
            max_ts,
            has_tombstones,
            max_seq,
            first_row,
            last_row,
            disk_path: OnceLock::new(),
        }
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

    /// The sparse block index: the first row key of every block, ascending.
    /// These are cheap, evenly-spaced-by-bytes probes into the file's key
    /// distribution — the key-distribution sampler merges them with the
    /// memstore reservoir to place split keys without scanning any block.
    pub fn block_index_keys(&self) -> &[Bytes] {
        &self.block_index
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

    /// Iterate cells whose rows fall in `[start, stop)` in `CellKey` order.
    /// Borrowing form for tests and inspection; the region scan path streams
    /// blocks through the cache instead.
    pub fn scan_range<'a>(
        &'a self,
        start: &'a [u8],
        stop: &'a [u8],
    ) -> impl Iterator<Item = &'a Cell> + 'a {
        let begin = self.start_block(start);
        self.blocks[begin.min(self.blocks.len())..]
            .iter()
            .flat_map(|b| b.cells.iter())
            .skip_while(move |c| c.key.row.as_ref() < start)
            .take_while(move |c| stop.is_empty() || c.key.row.as_ref() < stop)
    }

    /// All cells of a single row (used by gets after a bloom hit).
    pub fn row_cells<'a>(&'a self, row: &'a [u8]) -> impl Iterator<Item = &'a Cell> + 'a {
        let begin = self.start_block(row);
        self.blocks[begin.min(self.blocks.len())..]
            .iter()
            .flat_map(|b| b.cells.iter())
            .skip_while(move |c| c.key.row.as_ref() < row)
            .take_while(move |c| c.key.row.as_ref() == row)
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
        for block in &self.blocks {
            let mut payload = Vec::new();
            payload.extend_from_slice(&(block.cells.len() as u32).to_le_bytes());
            for cell in &block.cells {
                storage::encode_cell(&mut payload, cell);
            }
            index.push((offset, payload.len() as u32));
            let framed = frame_block(&payload);
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
        let framed_meta = frame_block(&meta);

        let mut tail = framed_meta;
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
        let footer = &data[data.len() - FOOTER_LEN..];
        let meta_off = u64::from_le_bytes(footer[0..8].try_into().unwrap()) as usize;
        let meta_len = u64::from_le_bytes(footer[8..16].try_into().unwrap()) as usize;
        let magic = u64::from_le_bytes(footer[16..24].try_into().unwrap());
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
        let mut first_row = None;
        let mut last_row = None;
        for (off, payload_len) in index {
            let end = off
                .checked_add(payload_len)
                .and_then(|e| e.checked_add(8))
                .filter(|&e| e <= meta_off)
                .ok_or_else(|| {
                    KvError::Corruption(format!("block index out of bounds: {}", path.display()))
                })?;
            let payload = unframe_block(&data[off..end])?;
            let mut br = Reader::new(payload);
            let count = br.u32()? as usize;
            let mut cells = Vec::with_capacity(count.min(1 << 20));
            let mut bytes = 0usize;
            for _ in 0..count {
                let cell = storage::decode_cell(&mut br)?;
                bytes += cell.heap_size();
                cells.push(cell);
            }
            if br.remaining() != 0 {
                return Err(KvError::Corruption(format!(
                    "trailing bytes in data block: {}",
                    path.display()
                )));
            }
            if let Some(first) = cells.first() {
                block_index.push(first.key.row.clone());
                if first_row.is_none() {
                    first_row = Some(first.key.row.clone());
                }
            }
            if let Some(cell) = cells.last() {
                last_row = Some(cell.key.row.clone());
            }
            decoded_cells += cells.len();
            total_bytes += bytes;
            blocks.push(Arc::new(Block { cells, bytes }));
        }
        if decoded_cells != n_cells {
            return Err(KvError::Corruption(format!(
                "cell count mismatch: meta says {n_cells}, blocks hold {decoded_cells}: {}",
                path.display()
            )));
        }
        let file = StoreFile {
            file_id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            blocks,
            block_index,
            n_cells,
            total_bytes,
            bloom,
            min_ts,
            max_ts,
            has_tombstones,
            max_seq,
            first_row,
            last_row,
            disk_path: OnceLock::new(),
        };
        let _ = file.disk_path.set(path.to_path_buf());
        Ok(file)
    }
}

/// `len u32 | crc32 u32 | payload` framing shared by data and meta blocks.
fn frame_block(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&storage::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn unframe_block(buf: &[u8]) -> Result<&[u8]> {
    if buf.len() < 8 {
        return Err(KvError::Corruption("block shorter than its header".into()));
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
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
    fn seek_finds_first_matching_row() {
        let rows: Vec<String> = (0..500).map(|i| format!("row-{i:05}")).collect();
        let f = file_with_rows(&rows.iter().map(String::as_str).collect::<Vec<_>>());
        let got: Vec<_> = f
            .scan_range(b"row-00100", b"row-00103")
            .map(|c| c.key.row.clone())
            .collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].as_ref(), b"row-00100");
        assert_eq!(got[2].as_ref(), b"row-00102");
    }

    #[test]
    fn scan_range_unbounded() {
        let f = file_with_rows(&["a", "b", "c"]);
        assert_eq!(f.scan_range(b"", b"").count(), 3);
        assert_eq!(f.scan_range(b"b", b"").count(), 2);
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
    fn cellsrc_clones_only_on_materialize() {
        let f = file_with_rows(&["a", "b"]);
        let block = Arc::clone(f.block(0));
        let src = CellSrc::Shared {
            block: Arc::clone(&block),
            idx: 1,
        };
        let before = shared_cells_cloned();
        assert_eq!(src.key().row.as_ref(), b"b");
        assert_eq!(src.cell().key.row.as_ref(), b"b");
        assert_eq!(shared_cells_cloned(), before, "inspection must not clone");
        let owned = src.into_cell();
        assert_eq!(owned.key.row.as_ref(), b"b");
        assert_eq!(shared_cells_cloned(), before + 1);
        let before = shared_cells_cloned();
        let _ = CellSrc::Owned(cell("x", 1, 1)).into_cell();
        assert_eq!(shared_cells_cloned(), before, "owned cells are free");
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
    fn row_cells_returns_only_that_row() {
        let mut cells = vec![cell("a", 2, 2), cell("a", 1, 1), cell("b", 1, 3)];
        cells.sort_by(|x, y| x.key.cmp(&y.key));
        let f = StoreFile::from_sorted(cells);
        assert_eq!(f.row_cells(b"a").count(), 2);
        assert_eq!(f.row_cells(b"b").count(), 1);
        assert_eq!(f.row_cells(b"c").count(), 0);
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

    fn temp_env() -> Arc<StorageEnv> {
        StorageEnv::temp(1 << 20, crate::metrics::ClusterMetrics::new()).unwrap()
    }

    #[test]
    fn disk_roundtrip_preserves_everything() {
        let env = temp_env();
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
        let a: Vec<&Cell> = original.scan_range(b"", b"").collect();
        let b: Vec<&Cell> = reopened.scan_range(b"", b"").collect();
        assert_eq!(a, b);
        // The serialized bloom behaves identically.
        assert!(reopened.may_contain_row(b"row-00042"));
        assert_eq!(
            reopened.may_contain_row(b"never-inserted"),
            original.may_contain_row(b"never-inserted")
        );
    }

    #[test]
    fn open_rejects_truncation_at_any_length() {
        let env = temp_env();
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
        let env = temp_env();
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
}
