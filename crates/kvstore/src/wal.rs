//! Write-ahead log: every mutation is appended here before it touches the
//! memstore, so a region can be recovered after a simulated crash.
//!
//! One WAL per region server, shared by all its regions, matching HBase's
//! layout. Records are retained until the region reports that the memstore
//! holding them has been flushed (`truncate_up_to`).
//!
//! On disk the log is RocksDB's physical format: a segment file is a
//! sequence of 32 KiB blocks, each record is split into chunks that never
//! straddle a block boundary, and every chunk carries a
//! `crc32 | length | type` header so recovery can stop precisely at the last
//! valid record of a torn tail. A data record is one mutation:
//! `kind u8 | region u64 | seq u64 | cells`, its cells a one-row
//! [cell block](crate::cellblock) that replay decodes with the parser read
//! replies and store files use. Segments rotate at a configured size, are
//! *archived* only once every region whose edits they hold has flushed past
//! them (`min_unflushed_seq` gating), and archived segments are deleted one
//! cleanup cycle later — deletion is always delayed, never eager.
//!
//! The segment files are the log's only copy of its records. Recovery reads
//! them back through one parser: [`Wal::reopen`] after a crash, and
//! [`Wal::read_records`] when failover splits a dead server's log.

use crate::cellblock::{self, CellBlockEncoder};
use crate::error::{KvError, Result};
use crate::fault::FileOp;
use crate::storage::{self, Reader, StorageEnv};
use crate::types::Cell;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Physical block size of the log (RocksDB's `kBlockSize`).
pub const WAL_BLOCK_SIZE: usize = 32 * 1024;
/// Chunk header: crc32 (4) + length (2) + type (1).
const CHUNK_HEADER: usize = 7;

const CHUNK_FULL: u8 = 1;
const CHUNK_FIRST: u8 = 2;
const CHUNK_MIDDLE: u8 = 3;
const CHUNK_LAST: u8 = 4;

/// Logical payload kinds inside a chunk-framed record.
const REC_DATA: u8 = 0;
const REC_SEGMENT_HEADER: u8 = 1;

/// One log record: one mutation.
#[derive(Clone, Debug)]
pub struct WalRecord {
    /// Monotonic sequence id assigned at append time.
    pub seq: u64,
    /// Region the mutation belongs to.
    pub region_id: u64,
    /// The cells (puts and tombstones) of the mutation's row.
    pub cells: Vec<Cell>,
}

/// A log split by region, each region's records in their order in `log`:
/// how recovery hands every region its own records, once and by value.
pub fn split_by_region(log: Vec<WalRecord>) -> HashMap<u64, Vec<WalRecord>> {
    let mut by_region: HashMap<u64, Vec<WalRecord>> = HashMap::new();
    for record in log {
        by_region.entry(record.region_id).or_default().push(record);
    }
    by_region
}

/// Heap bytes of one record's cells: what `retained_bytes` counts.
fn heap_size(cells: &[Cell]) -> u64 {
    cells.iter().map(|c| c.heap_size() as u64).sum()
}

/// Externally visible state of one WAL segment, for tests and
/// introspection of the delayed-deletion invariant.
#[derive(Clone, Debug)]
pub struct WalSegmentState {
    pub id: u64,
    pub path: PathBuf,
    pub bytes: u64,
    pub sealed: bool,
    pub archived: bool,
    /// Smallest sequence id in this segment that some region has *not* yet
    /// flushed. `None` means every covered memstore has flushed and the
    /// segment is eligible for archival.
    pub min_unflushed_seq: Option<u64>,
}

#[derive(Debug)]
struct SegmentMeta {
    id: u64,
    path: PathBuf,
    bytes: u64,
    sealed: bool,
    archived: bool,
    /// Per region: smallest and largest record seq stored in this segment.
    region_min_seq: HashMap<u64, u64>,
    region_max_seq: HashMap<u64, u64>,
}

impl SegmentMeta {
    /// The delayed-deletion gate: smallest seq any region still needs from
    /// this segment, given the per-region flushed watermarks.
    fn min_unflushed_seq(&self, flushed: &HashMap<u64, u64>) -> Option<u64> {
        let mut min: Option<u64> = None;
        for (&region, &max_seq) in &self.region_max_seq {
            let done = flushed.get(&region).copied().unwrap_or(0);
            if done >= max_seq {
                continue; // region has flushed past everything we hold
            }
            let lo = self.region_min_seq.get(&region).copied().unwrap_or(1);
            let first_needed = lo.max(done + 1);
            min = Some(min.map_or(first_needed, |m: u64| m.min(first_needed)));
        }
        min
    }
}

#[derive(Debug)]
struct ActiveSegment {
    file: File,
    /// Write offset within the current 32 KiB block.
    block_offset: usize,
}

#[derive(Debug)]
struct WalInner {
    next_seq: u64,
    /// Per region, `(seq, heap bytes)` of every record not yet released by
    /// a flush, in seq order. A region with none has no entry.
    retained: HashMap<u64, VecDeque<(u64, u64)>>,
    /// Sum of the bytes in `retained`: the write path reads this for every
    /// group it cuts.
    retained_bytes: u64,
    env: Arc<StorageEnv>,
    dir: PathBuf,
    segments: Vec<SegmentMeta>,
    /// The segment taking appends. `None` is the closed log: crashed, or a
    /// write or roll failed.
    active: Option<ActiveSegment>,
    /// Per-region flushed watermark reported via `truncate_up_to`.
    flushed: HashMap<u64, u64>,
    /// Archived segments awaiting the *next* cleanup pass; deletion lags
    /// archival by one gc cycle so it is observably delayed.
    pending_delete: Vec<PathBuf>,
    /// Framed bytes of the group being appended; reused across groups.
    frame_buf: Vec<u8>,
}

impl WalInner {
    fn retain(&mut self, region_id: u64, seq: u64, bytes: u64) {
        self.retained
            .entry(region_id)
            .or_default()
            .push_back((seq, bytes));
        self.retained_bytes += bytes;
    }

    /// Release a region's retained records numbered `<= up_to`.
    fn release(&mut self, region_id: u64, up_to: u64) {
        if let Some(queue) = self.retained.get_mut(&region_id) {
            let n = queue.partition_point(|&(seq, _)| seq <= up_to);
            self.retained_bytes -= queue.drain(..n).map(|(_, bytes)| bytes).sum::<u64>();
            if queue.is_empty() {
                self.retained.remove(&region_id);
            }
        }
    }
}

/// An append-only, crash-recoverable log.
#[derive(Debug)]
pub struct Wal {
    inner: Mutex<WalInner>,
}

// ----------------------------------------------------------------------
// Chunk framing
// ----------------------------------------------------------------------

/// Append `payload` as one logical record in block-chunked framing,
/// starting at `block_offset` within the current block. Returns the new
/// block offset.
fn frame_record(buf: &mut Vec<u8>, mut block_offset: usize, payload: &[u8]) -> usize {
    let mut left = payload;
    let mut first = true;
    loop {
        let room = WAL_BLOCK_SIZE - block_offset;
        if room < CHUNK_HEADER {
            // Too small for a header: pad the block tail with zeros.
            buf.extend(std::iter::repeat_n(0u8, room));
            block_offset = 0;
            continue;
        }
        let take = left.len().min(room - CHUNK_HEADER);
        let last = take == left.len();
        let ty = match (first, last) {
            (true, true) => CHUNK_FULL,
            (true, false) => CHUNK_FIRST,
            (false, false) => CHUNK_MIDDLE,
            (false, true) => CHUNK_LAST,
        };
        let fragment = &left[..take];
        buf.extend_from_slice(&storage::crc32_parts(&[&[ty], fragment]).to_le_bytes());
        buf.extend_from_slice(&(take as u16).to_le_bytes());
        buf.push(ty);
        buf.extend_from_slice(fragment);
        block_offset = (block_offset + CHUNK_HEADER + take) % WAL_BLOCK_SIZE;
        left = &left[take..];
        first = false;
        if last {
            return block_offset;
        }
    }
}

fn encode_segment_header(base_seq: u64) -> Vec<u8> {
    let mut payload = vec![REC_SEGMENT_HEADER];
    payload.extend_from_slice(&base_seq.to_le_bytes());
    payload
}

/// Everything a recovery scan learned from one segment file.
struct ParsedSegment {
    /// Length of the file.
    bytes: u64,
    records: Vec<WalRecord>,
    /// Largest `base_seq` seen in a segment-header record.
    base_seq: u64,
    /// Bytes past the last fully valid record (torn tail / corruption).
    torn_bytes: u64,
}

/// One decoded chunk-framed record.
enum Payload {
    /// A segment header and the `base_seq` it carries.
    SegmentHeader(u64),
    Data(WalRecord),
}

fn decode_payload(payload: Bytes) -> Result<Payload> {
    let mut r = Reader::new(&payload);
    match r.u8()? {
        REC_SEGMENT_HEADER => Ok(Payload::SegmentHeader(r.u64()?)),
        REC_DATA => {
            let region_id = r.u64()?;
            let seq = r.u64()?;
            let mut rows = cellblock::decode(&payload.slice(payload.len() - r.remaining()..))?;
            let (Some(row), true) = (rows.pop(), rows.is_empty()) else {
                return Err(KvError::Corruption("wal record: not one row".into()));
            };
            Ok(Payload::Data(WalRecord {
                seq,
                region_id,
                cells: row.cells,
            }))
        }
        other => Err(KvError::Corruption(format!("bad wal record kind {other}"))),
    }
}

/// Scan one segment's bytes, stopping at the first invalid chunk. Never
/// panics: a torn or corrupted tail simply ends the scan.
fn parse_segment(data: &[u8]) -> ParsedSegment {
    let mut out = ParsedSegment {
        bytes: data.len() as u64,
        records: Vec::new(),
        base_seq: 0,
        torn_bytes: 0,
    };
    let mut pos = 0usize;
    // End of the last fully decoded record (for torn-byte accounting).
    let mut valid_end = 0usize;
    let mut assembling: Option<Vec<u8>> = None;
    'scan: while pos < data.len() {
        let block_offset = pos % WAL_BLOCK_SIZE;
        let room = WAL_BLOCK_SIZE - block_offset;
        if room < CHUNK_HEADER {
            // Block-tail padding. A clean writer zero-fills it.
            if data[pos..data.len().min(pos + room)]
                .iter()
                .any(|&b| b != 0)
            {
                break 'scan;
            }
            pos += room;
            if assembling.is_none() {
                valid_end = pos.min(data.len());
            }
            continue;
        }
        let mut header = Reader::new(&data[pos..]);
        let (Ok(crc), Ok(len), Ok(ty)) = (header.u32(), header.u16(), header.u8()) else {
            break 'scan; // torn mid-header
        };
        let len = len as usize;
        if crc == 0 && len == 0 && ty == 0 {
            // Explicit zero header: writer padded the rest of this block.
            pos += room;
            if assembling.is_none() {
                valid_end = pos.min(data.len());
            }
            continue;
        }
        if !(CHUNK_FULL..=CHUNK_LAST).contains(&ty)
            || len > room - CHUNK_HEADER
            || pos + CHUNK_HEADER + len > data.len()
        {
            break 'scan;
        }
        let fragment = &data[pos + CHUNK_HEADER..pos + CHUNK_HEADER + len];
        if storage::crc32_parts(&[&[ty], fragment]) != crc {
            break 'scan;
        }
        pos += CHUNK_HEADER + len;
        let complete: Option<Vec<u8>> = match ty {
            CHUNK_FULL => {
                assembling = None;
                Some(fragment.to_vec())
            }
            CHUNK_FIRST => {
                assembling = Some(fragment.to_vec());
                None
            }
            CHUNK_MIDDLE => match assembling.as_mut() {
                Some(buf) => {
                    buf.extend_from_slice(fragment);
                    None
                }
                None => break 'scan, // orphan fragment
            },
            CHUNK_LAST => match assembling.take() {
                Some(mut buf) => {
                    buf.extend_from_slice(fragment);
                    Some(buf)
                }
                None => break 'scan,
            },
            _ => unreachable!(),
        };
        if let Some(payload) = complete {
            match decode_payload(Bytes::from(payload)) {
                Ok(Payload::SegmentHeader(base)) => out.base_seq = out.base_seq.max(base),
                Ok(Payload::Data(rec)) => out.records.push(rec),
                Err(_) => break 'scan,
            }
            valid_end = pos;
        }
    }
    out.torn_bytes = (data.len() - valid_end) as u64;
    out
}

/// Every live segment file in `dir` (archived ones are not), in id order:
/// `(id, parsed contents, path)`.
fn read_segments(env: &StorageEnv, dir: &Path) -> Result<Vec<(u64, ParsedSegment, PathBuf)>> {
    let mut seg_paths: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let id = path.file_stem().and_then(|s| s.to_str()?.parse().ok());
        if let (Some(id), true) = (id, path.extension().is_some_and(|e| e == "log")) {
            seg_paths.push((id, path));
        }
    }
    seg_paths.sort_by_key(|(id, _)| *id);
    seg_paths
        .into_iter()
        .map(|(id, path)| Ok((id, parse_segment(&env.read(&path)?), path)))
        .collect()
}

// ----------------------------------------------------------------------
// Wal
// ----------------------------------------------------------------------

impl Wal {
    /// Open (or recover) the log rooted at `dir`. Existing segments are
    /// scanned, their valid records retained, any torn tail discarded, and
    /// a fresh active segment is rolled.
    pub fn open(env: Arc<StorageEnv>, dir: PathBuf) -> Result<Wal> {
        let mut inner = WalInner {
            next_seq: 1,
            retained: HashMap::new(),
            retained_bytes: 0,
            env,
            dir,
            segments: Vec::new(),
            active: None,
            flushed: HashMap::new(),
            pending_delete: Vec::new(),
            frame_buf: Vec::new(),
        };
        Self::recover_locked(&mut inner)?;
        Ok(Wal {
            inner: Mutex::new(inner),
        })
    }

    /// Scan the log directory, rebuild the retained records and segment
    /// metadata from whatever survived on disk, and roll a new active
    /// segment. Called on first open and after every crash. Returns the
    /// records read, in seq order.
    fn recover_locked(inner: &mut WalInner) -> Result<Vec<WalRecord>> {
        let archive = inner.dir.join("archive");
        std::fs::create_dir_all(&archive)?;

        let mut records: Vec<WalRecord> = Vec::new();
        let mut segments: Vec<SegmentMeta> = Vec::new();
        let mut max_seq = 0u64;
        let mut max_base = 0u64;
        let mut torn = 0u64;
        let mut max_id = 0u64;
        for (id, parsed, path) in read_segments(&inner.env, &inner.dir)? {
            max_id = max_id.max(id);
            torn += parsed.torn_bytes;
            max_base = max_base.max(parsed.base_seq);
            let mut meta = SegmentMeta {
                id,
                path,
                bytes: parsed.bytes,
                sealed: true,
                archived: false,
                region_min_seq: HashMap::new(),
                region_max_seq: HashMap::new(),
            };
            for rec in &parsed.records {
                max_seq = max_seq.max(rec.seq);
                let lo = meta.region_min_seq.entry(rec.region_id).or_insert(rec.seq);
                *lo = (*lo).min(rec.seq);
                let hi = meta.region_max_seq.entry(rec.region_id).or_insert(rec.seq);
                *hi = (*hi).max(rec.seq);
            }
            records.extend(parsed.records);
            segments.push(meta);
        }

        // Archived segments left over from before the crash are queued for
        // the next cleanup pass — deletion stays delayed across restarts.
        inner.pending_delete.clear();
        if let Ok(dirents) = std::fs::read_dir(&archive) {
            for entry in dirents.flatten() {
                inner.pending_delete.push(entry.path());
            }
        }

        if torn > 0 {
            let m = inner.env.metrics();
            m.add(&m.wal_torn_bytes_dropped, torn);
        }

        inner.segments = segments;
        inner.flushed.clear();
        records.sort_by_key(|r| r.seq);
        inner.retained.clear();
        inner.retained_bytes = 0;
        for r in &records {
            inner.retain(r.region_id, r.seq, heap_size(&r.cells));
        }
        inner.next_seq = (max_seq + 1).max(max_base).max(1);

        // Roll a fresh active segment; old files are never appended again.
        let next_seq = inner.next_seq;
        Self::roll_segment(inner, next_seq, max_id + 1)?;
        Ok(records)
    }

    /// Open segment `id` as the new active segment and write its header
    /// record (carrying `next_seq` so sequence ids survive full truncation).
    /// On an error there is no active segment: the log is closed.
    fn roll_segment(inner: &mut WalInner, next_seq: u64, id: u64) -> Result<()> {
        inner.active = None;
        let path = inner.dir.join(format!("{id:020}.log"));
        let mut file = inner.env.open_append(&path)?;
        let mut buf = Vec::new();
        let block_offset = frame_record(&mut buf, 0, &encode_segment_header(next_seq));
        inner.segments.push(SegmentMeta {
            id,
            path,
            bytes: buf.len() as u64,
            sealed: false,
            archived: false,
            region_min_seq: HashMap::new(),
            region_max_seq: HashMap::new(),
        });
        inner.env.write(&mut file, FileOp::WalAppend, &buf)?;
        inner.env.sync(&file, FileOp::WalAppend)?;
        inner.active = Some(ActiveSegment { file, block_offset });
        Ok(())
    }

    /// Append one record per entry of `records` — one mutation's cells,
    /// all of one row — as a single group: consecutive sequence ids, one
    /// device write and one fsync for the whole group. Returns the first
    /// record's seq. The group is the unit of acknowledgement, not of
    /// recovery: on disk it is ordinary records, so a crash mid-write leaves
    /// a whole-record prefix. A record whose cells span rows is refused
    /// before anything is written.
    pub fn append_group(&self, region_id: u64, records: &[Vec<Cell>]) -> Result<u64> {
        if records
            .iter()
            .any(|cells| cells.windows(2).any(|w| w[0].key.row != w[1].key.row))
        {
            return Err(KvError::InvalidRequest(
                "a wal record holds the cells of one row".into(),
            ));
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // The active segment's metadata is the last entry.
        let (Some(active), Some(seg)) = (inner.active.as_mut(), inner.segments.last_mut()) else {
            return Err(KvError::WalClosed);
        };
        let first_seq = inner.next_seq;
        if records.is_empty() {
            return Ok(first_seq);
        }
        let last_seq = first_seq + records.len() as u64 - 1;
        inner.frame_buf.clear();
        let mut payload = Vec::new();
        let mut block = CellBlockEncoder::default();
        let mut ends = Vec::with_capacity(records.len());
        let mut block_offset = active.block_offset;
        for (seq, cells) in (first_seq..).zip(records) {
            payload.clear();
            payload.push(REC_DATA);
            payload.extend_from_slice(&region_id.to_le_bytes());
            payload.extend_from_slice(&seq.to_le_bytes());
            let row = cells.first().map_or(&[][..], |cell| &cell.key.row);
            block.push_row(row, cells.iter().map(Cell::as_ref));
            block.finish_into(&mut payload);
            block_offset = frame_record(&mut inner.frame_buf, block_offset, &payload);
            ends.push(inner.frame_buf.len());
        }
        // One fault verdict per record, as when each was its own write.
        let written = inner
            .env
            .write_parts(&mut active.file, FileOp::WalAppend, &inner.frame_buf, &ends)
            .and_then(|()| inner.env.sync(&active.file, FileOp::WalAppend));
        if let Err(e) = written {
            // A crash-fault fired mid-group: an unknown prefix is on disk.
            // The server is about to crash; recovery will drop the torn
            // tail via CRC validation.
            inner.active = None;
            return Err(e);
        }
        active.block_offset = block_offset;
        seg.bytes += inner.frame_buf.len() as u64;
        seg.region_min_seq.entry(region_id).or_insert(first_seq);
        seg.region_max_seq.insert(region_id, last_seq);
        if seg.bytes >= inner.env.wal_segment_bytes {
            let next_id = seg.id + 1;
            seg.sealed = true;
            let m = inner.env.metrics();
            m.add(&m.wal_segments_rotated, 1);
            Self::roll_segment(inner, first_seq, next_id)?;
        }

        inner.next_seq = last_seq + 1;
        for (seq, cells) in (first_seq..).zip(records) {
            inner.retain(region_id, seq, heap_size(cells));
        }
        Ok(first_seq)
    }

    /// Every record in the log's live segment files, in seq order, parsed
    /// from disk; works on a closed log. Failover reads a dead server's log
    /// this way (HBase's WAL split); each region takes its own records.
    pub fn read_records(&self) -> Result<Vec<WalRecord>> {
        let inner = self.inner.lock();
        let mut records: Vec<WalRecord> = read_segments(&inner.env, &inner.dir)?
            .into_iter()
            .flat_map(|(_, parsed, _)| parsed.records)
            .collect();
        records.sort_by_key(|r| r.seq);
        Ok(records)
    }

    /// Release a region's records numbered `<= flushed_seq` — they are now
    /// in a store file — advance its flushed watermark and run the segment
    /// cleanup pass.
    pub fn truncate_up_to(&self, region_id: u64, flushed_seq: u64) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let mark = inner.flushed.entry(region_id).or_insert(0);
        *mark = (*mark).max(flushed_seq);
        inner.release(region_id, flushed_seq);
        Self::gc_locked(inner);
    }

    /// Number every later record above `seq`. A region brings its own
    /// history to the log it is opened on: edits numbered at or below what
    /// its store files hold would be skipped by replay and lose to older
    /// versions in the merge.
    pub(crate) fn advance_seq_past(&self, seq: u64) {
        let mut inner = self.inner.lock();
        inner.next_seq = inner.next_seq.max(seq + 1);
    }

    /// Release every record of a region `hosted` does not list. A restarted
    /// server calls this: recovery re-reads the records of regions that
    /// failed over (or moved) away, whose watermarks were in memory only.
    /// Those regions left flushed and log elsewhere (`Region::rewire_wal`):
    /// nothing reads the records again and no flush here will release them.
    /// With no such record there is no cleanup pass either: a restart alone
    /// deletes no archived segment.
    pub(crate) fn release_regions_not_in(&self, hosted: &HashSet<u64>) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // A region with an entry retains at least one record.
        let gone: Vec<(u64, u64)> = inner
            .retained
            .iter()
            .filter(|(region, _)| !hosted.contains(region))
            .filter_map(|(&region, queue)| Some((region, queue.back()?.0)))
            .collect();
        if gone.is_empty() {
            return;
        }
        for (region, last_seq) in gone {
            let mark = inner.flushed.entry(region).or_insert(0);
            *mark = (*mark).max(last_seq);
            inner.release(region, last_seq);
        }
        Self::gc_locked(inner);
    }

    /// Segment cleanup: delete files archived on a *previous* pass, then
    /// archive sealed segments whose every covered memstore has flushed.
    fn gc_locked(inner: &mut WalInner) {
        let m = Arc::clone(inner.env.metrics());
        for path in inner.pending_delete.drain(..) {
            if std::fs::remove_file(&path).is_ok() {
                m.add(&m.wal_segments_deleted, 1);
            }
        }
        let archive_dir = inner.dir.join("archive");
        for seg in inner.segments.iter_mut() {
            if !seg.sealed || seg.archived || seg.min_unflushed_seq(&inner.flushed).is_some() {
                continue;
            }
            let Some(file_name) = seg.path.file_name() else {
                continue;
            };
            let dst = archive_dir.join(file_name);
            if inner.env.rename(&seg.path, &dst).is_ok() {
                seg.archived = true;
                seg.path = dst.clone();
                inner.pending_delete.push(dst);
                m.add(&m.wal_segments_archived, 1);
            }
        }
    }

    /// Run a cleanup pass explicitly (normally piggybacked on
    /// `truncate_up_to`). Two passes are needed to fully delete an
    /// archivable segment: one to archive, the next to delete.
    pub fn gc(&self) {
        Self::gc_locked(&mut self.inner.lock());
    }

    /// Snapshot of per-segment durability state.
    pub fn segment_states(&self) -> Vec<WalSegmentState> {
        let inner = self.inner.lock();
        inner
            .segments
            .iter()
            .map(|s| WalSegmentState {
                id: s.id,
                path: s.path.clone(),
                bytes: s.bytes,
                sealed: s.sealed,
                archived: s.archived,
                min_unflushed_seq: s.min_unflushed_seq(&inner.flushed),
            })
            .collect()
    }

    /// Path of the segment currently being appended to; `None` on a closed
    /// log.
    pub fn active_segment_path(&self) -> Option<PathBuf> {
        let inner = self.inner.lock();
        inner.active.as_ref()?;
        inner.segments.last().map(|s| s.path.clone())
    }

    /// Simulate a server crash: further appends fail until `reopen`. The
    /// file handle is dropped; un-fsynced OS state is gone.
    pub fn close(&self) {
        self.inner.lock().active = None;
    }

    /// Bring the log back after a crash: re-scan the directory, drop any
    /// torn tail, and roll a fresh segment. Returns every record the segment
    /// files held, in seq order, for the server's regions to replay.
    pub fn reopen(&self) -> Result<Vec<WalRecord>> {
        Self::recover_locked(&mut self.inner.lock())
    }

    pub fn is_closed(&self) -> bool {
        self.inner.lock().active.is_none()
    }

    /// Heap bytes of records not yet released by a flush (`truncate_up_to`)
    /// — the WAL-size flush watermark reads this.
    pub fn retained_bytes(&self) -> u64 {
        self.inner.lock().retained_bytes
    }

    /// The region holding the oldest retained record: the one whose flush
    /// lets the oldest segment go. `None` when nothing is retained.
    pub fn pinning_region(&self) -> Option<u64> {
        let inner = self.inner.lock();
        inner
            .retained
            .iter()
            .filter_map(|(&region, queue)| Some((queue.front()?.0, region)))
            .min()
            .map(|(_, region)| region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::temp_env;
    use crate::types::{CellKey, CellType};
    use bytes::Bytes;

    fn cell(row: &str) -> Cell {
        Cell {
            key: CellKey {
                row: Bytes::copy_from_slice(row.as_bytes()),
                family: Bytes::from_static(b"cf"),
                qualifier: Bytes::from_static(b"q"),
                timestamp: 1,
                seq: 0,
                cell_type: CellType::Put,
            },
            value: Bytes::from_static(b"v"),
        }
    }

    /// A log on its own throwaway env, which lives as long as the log.
    fn temp_wal() -> Wal {
        let env = temp_env(1 << 20);
        Wal::open(Arc::clone(&env), env.root().join("wal")).unwrap()
    }

    /// Append each entry as its own record and return `(seq, end offset)`
    /// per record: the active segment file's length after each append, an
    /// oracle that does not go through the parser.
    fn append_singly(wal: &Wal, region_id: u64, records: &[Vec<Cell>]) -> Vec<(u64, u64)> {
        let path = wal.active_segment_path().unwrap();
        records
            .iter()
            .map(|cells| {
                let seq = wal
                    .append_group(region_id, std::slice::from_ref(cells))
                    .unwrap();
                (seq, std::fs::metadata(&path).unwrap().len())
            })
            .collect()
    }

    fn seqs(records: &[WalRecord]) -> Vec<u64> {
        records.iter().map(|r| r.seq).collect()
    }

    #[test]
    fn append_assigns_monotonic_seq() {
        let wal = temp_wal();
        let s1 = wal.append_group(7, &[vec![cell("a")]]).unwrap();
        let s2 = wal.append_group(7, &[vec![cell("b")]]).unwrap();
        assert!(s2 > s1);
        assert_eq!(seqs(&wal.read_records().unwrap()), [s1, s2]);
    }

    /// The log hands back every region's records in seq order; a region
    /// replays the ones that are its own and newer than its store files.
    #[test]
    fn replay_filters_by_region_and_seq() {
        let wal = temp_wal();
        let s1 = wal.append_group(1, &[vec![cell("a")]]).unwrap();
        let s2 = wal.append_group(2, &[vec![cell("b")]]).unwrap();
        let s3 = wal.append_group(1, &[vec![cell("c")]]).unwrap();
        let records = wal.read_records().unwrap();
        let by_region: Vec<(u64, u64)> = records.iter().map(|r| (r.region_id, r.seq)).collect();
        assert_eq!(by_region, [(1, s1), (2, s2), (1, s3)]);
        let replayed: Vec<&WalRecord> = records
            .iter()
            .filter(|r| r.region_id == 1 && r.seq > s1)
            .collect();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].cells[0].key.row.as_ref(), b"c");
    }

    #[test]
    fn truncate_drops_flushed_records() {
        let wal = temp_wal();
        let one = heap_size(&[cell("a")]);
        let s1 = wal.append_group(1, &[vec![cell("a")]]).unwrap();
        let s2 = wal.append_group(1, &[vec![cell("b")]]).unwrap();
        wal.append_group(2, &[vec![cell("x")]]).unwrap();
        assert_eq!(wal.retained_bytes(), 3 * one);
        wal.truncate_up_to(1, s1);
        assert_eq!(wal.retained_bytes(), 2 * one);
        wal.truncate_up_to(1, s2);
        assert_eq!(wal.retained_bytes(), one, "other region untouched");
        // Release is bookkeeping: the records stay in the active segment
        // file until it is sealed and archived.
        assert_eq!(wal.read_records().unwrap().len(), 3);
    }

    #[test]
    fn closed_wal_rejects_appends() {
        let wal = temp_wal();
        wal.close();
        assert!(wal.is_closed());
        assert_eq!(
            wal.append_group(1, &[vec![cell("a")]]).unwrap_err(),
            KvError::WalClosed
        );
        wal.reopen().unwrap();
        assert!(wal.append_group(1, &[vec![cell("a")]]).is_ok());
    }

    #[test]
    fn durable_records_survive_close_and_reopen() {
        let env = temp_env(1 << 20);
        let dir = env.root().join("wal");
        let wal = Wal::open(Arc::clone(&env), dir).unwrap();
        let s1 = wal.append_group(1, &[vec![cell("a"), cell("a")]]).unwrap();
        let s2 = wal.append_group(2, &[vec![cell("c")]]).unwrap();
        wal.close();
        assert!(wal.append_group(1, &[vec![cell("x")]]).is_err());
        let records = wal.reopen().unwrap();
        assert_eq!(seqs(&records), [s1, s2]);
        assert_eq!(records[0].region_id, 1);
        assert_eq!(records[0].cells.len(), 2);
        assert_eq!(records[0].cells[0].key.row.as_ref(), b"a");
        assert_eq!(records[1].region_id, 2);
        // Sequence numbering continues past the recovered records.
        let s3 = wal.append_group(1, &[vec![cell("d")]]).unwrap();
        assert!(s3 > s2);
    }

    #[test]
    fn next_seq_survives_even_when_all_records_flushed() {
        let env = temp_env(1 << 20);
        let wal = Wal::open(Arc::clone(&env), env.root().join("wal")).unwrap();
        let last = wal.append_group(1, &[vec![cell("a")]]).unwrap();
        wal.truncate_up_to(1, last);
        wal.close();
        wal.reopen().unwrap();
        // All data segments may hold nothing useful, but the fresh segment's
        // header carried next_seq forward: new seqs must not reuse old ones.
        let next = wal.append_group(1, &[vec![cell("b")]]).unwrap();
        assert!(next > last, "seq {next} must exceed flushed seq {last}");
    }

    #[test]
    fn large_record_spans_blocks_and_recovers() {
        let env = temp_env(1 << 22);
        let wal = Wal::open(Arc::clone(&env), env.root().join("wal")).unwrap();
        // One record much larger than a 32 KiB block → FIRST/MIDDLE/LAST chunks.
        let mut big = cell("row");
        big.value = Bytes::from(vec![7u8; 100_000]);
        wal.append_group(9, &[vec![big.clone(), cell("row")]])
            .unwrap();
        wal.close();
        let replayed = wal.reopen().unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].cells, [big, cell("row")]);
    }

    #[test]
    fn torn_tail_is_dropped_at_last_valid_record() {
        let env = temp_env(1 << 20);
        let wal = Wal::open(Arc::clone(&env), env.root().join("wal")).unwrap();
        let records = [
            vec![cell("keep-1")],
            vec![cell("keep-2")],
            vec![cell("lost")],
        ];
        let extents = append_singly(&wal, 1, &records);
        let path = wal.active_segment_path().unwrap();
        wal.close();
        // Tear the file mid-way through the third record.
        let cut = (extents[1].1 + 3) as usize;
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..cut]).unwrap();
        let rows: Vec<_> = wal
            .reopen()
            .unwrap()
            .iter()
            .map(|r| r.cells[0].key.row.clone())
            .collect();
        assert_eq!(
            rows,
            vec![Bytes::from_static(b"keep-1"), Bytes::from_static(b"keep-2")]
        );
        let m = env.metrics().snapshot();
        assert!(m.wal_torn_bytes_dropped > 0);
    }

    /// A data record whose chunk CRCs hold but whose cells are not a
    /// one-row cell block ends replay where it starts, as a torn tail does:
    /// the well-formed record framed after it is not replayed either.
    #[test]
    fn a_record_that_is_not_one_row_ends_replay() {
        use crate::types::RowResult;
        use std::io::Write;
        let row = |key: &'static str| RowResult {
            row: Bytes::from_static(key.as_bytes()),
            cells: vec![cell(key)],
        };
        let one_row = cellblock::encode(&[row("x")]);
        for (what, block) in [
            ("two rows", cellblock::encode(&[row("x"), row("y")])),
            ("no row", cellblock::encode(&[])),
            ("malformed", one_row.slice(..one_row.len() - 1)),
        ] {
            let env = temp_env(1 << 20);
            let wal = Wal::open(Arc::clone(&env), env.root().join("wal")).unwrap();
            let kept = wal.append_group(1, &[vec![cell("keep")]]).unwrap();
            let path = wal.active_segment_path().unwrap();
            wal.close();
            let mut framed = Vec::new();
            let mut offset = std::fs::metadata(&path).unwrap().len() as usize % WAL_BLOCK_SIZE;
            for (seq, block) in [(kept + 1, &block), (kept + 2, &one_row)] {
                let mut payload = vec![REC_DATA];
                payload.extend_from_slice(&1u64.to_le_bytes());
                payload.extend_from_slice(&seq.to_le_bytes());
                payload.extend_from_slice(block);
                offset = frame_record(&mut framed, offset, &payload);
            }
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            file.write_all(&framed).unwrap();
            assert_eq!(seqs(&wal.reopen().unwrap()), [kept], "{what}");
            assert!(
                env.metrics().snapshot().wal_torn_bytes_dropped > 0,
                "{what}"
            );
        }
    }

    #[test]
    fn a_record_spanning_rows_is_refused_before_anything_is_written() {
        let wal = temp_wal();
        let err = wal
            .append_group(1, &[vec![cell("a")], vec![cell("a"), cell("b")]])
            .unwrap_err();
        assert!(matches!(err, KvError::InvalidRequest(_)), "{err:?}");
        assert_eq!(wal.retained_bytes(), 0);
        assert!(wal.read_records().unwrap().is_empty());
    }

    /// The framing this log shipped with before the CRC was fed
    /// incrementally: a `type | fragment` copy per chunk.
    fn frame_record_reference(buf: &mut Vec<u8>, mut block_offset: usize, payload: &[u8]) -> usize {
        let mut left = payload;
        let mut first = true;
        loop {
            let room = WAL_BLOCK_SIZE - block_offset;
            if room < CHUNK_HEADER {
                buf.extend(std::iter::repeat_n(0u8, room));
                block_offset = 0;
                continue;
            }
            let take = left.len().min(room - CHUNK_HEADER);
            let last = take == left.len();
            let ty = match (first, last) {
                (true, true) => CHUNK_FULL,
                (true, false) => CHUNK_FIRST,
                (false, false) => CHUNK_MIDDLE,
                (false, true) => CHUNK_LAST,
            };
            let mut crc_input = vec![ty];
            crc_input.extend_from_slice(&left[..take]);
            buf.extend_from_slice(&storage::crc32(&crc_input).to_le_bytes());
            buf.extend_from_slice(&(take as u16).to_le_bytes());
            buf.push(ty);
            buf.extend_from_slice(&left[..take]);
            block_offset = (block_offset + CHUNK_HEADER + take) % WAL_BLOCK_SIZE;
            left = &left[take..];
            first = false;
            if last {
                return block_offset;
            }
        }
    }

    #[test]
    fn framing_bytes_match_the_reference_framing() {
        let payloads: Vec<Vec<u8>> = [0usize, 1, 100, WAL_BLOCK_SIZE - 7, 40_000, 100_000]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 31 % 251) as u8).collect())
            .collect();
        for start in [
            0,
            5,
            WAL_BLOCK_SIZE - 8,
            WAL_BLOCK_SIZE - 7,
            WAL_BLOCK_SIZE - 3,
        ] {
            // One buffer for the whole run of records, as a group frames them.
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let (mut got_off, mut want_off) = (start, start);
            for payload in &payloads {
                got_off = frame_record(&mut got, got_off, payload);
                want_off = frame_record_reference(&mut want, want_off, payload);
            }
            assert_eq!(got_off, want_off, "start {start}");
            assert!(got == want, "framed bytes differ from start {start}");
        }
    }

    fn group_of(n: usize) -> Vec<Vec<Cell>> {
        (0..n)
            .map(|i| {
                let value = "v".repeat(10 + 7 * i);
                let mut c = cell(&format!("row-{i:03}"));
                c.value = Bytes::from(value);
                vec![c]
            })
            .collect()
    }

    #[test]
    fn group_costs_one_fsync_and_the_same_bytes_as_single_appends() {
        let grouped_env = temp_env(1 << 20);
        let grouped = Wal::open(Arc::clone(&grouped_env), grouped_env.root().join("wal")).unwrap();
        let single_env = temp_env(1 << 20);
        let single = Wal::open(Arc::clone(&single_env), single_env.root().join("wal")).unwrap();
        let group = group_of(12);

        let fsyncs_before = grouped_env.metrics().snapshot().wal_fsyncs;
        let first = grouped.append_group(4, &group).unwrap();
        assert_eq!(
            grouped_env.metrics().snapshot().wal_fsyncs,
            fsyncs_before + 1,
            "one fsync for the whole group"
        );
        for (i, cells) in group.iter().enumerate() {
            let seq = single.append_group(4, std::slice::from_ref(cells)).unwrap();
            assert_eq!(seq, first + i as u64, "one consecutive seq per record");
        }
        let bytes = |wal: &Wal| std::fs::read(wal.active_segment_path().unwrap()).unwrap();
        assert!(bytes(&grouped) == bytes(&single), "segment bytes differ");
        assert_eq!(grouped.retained_bytes(), single.retained_bytes());
        assert_eq!(grouped.read_records().unwrap().len(), 12);
        // An empty group is a no-op that burns no seq.
        assert_eq!(grouped.append_group(4, &[]).unwrap(), first + 12);
        assert_eq!(
            grouped.append_group(4, &[vec![cell("next")]]).unwrap(),
            first + 12
        );
    }

    /// Cut the active segment at *every* byte offset — record boundaries and
    /// inside records alike: reopen must recover exactly the records that fit
    /// whole, and numbering must continue right after them.
    #[test]
    fn group_truncated_anywhere_recovers_a_whole_record_prefix() {
        let env = temp_env(1 << 20);
        let dir = env.root().join("wal");
        let wal = Wal::open(Arc::clone(&env), dir.clone()).unwrap();
        let first = wal.append_group(7, &group_of(8)).unwrap();
        let path = wal.active_segment_path().unwrap();
        wal.close();
        drop(wal);
        let data = std::fs::read(&path).unwrap();
        // The same records appended one at a time write the same bytes and
        // give each record's end offset.
        let single = temp_wal();
        let extents = append_singly(&single, 7, &group_of(8));
        assert!(data == std::fs::read(single.active_segment_path().unwrap()).unwrap());
        for cut in 0..=data.len() {
            // A fresh directory per cut: recovery rolls a new segment.
            let trial = env.root().join(format!("trial-{cut}"));
            std::fs::create_dir_all(&trial).unwrap();
            std::fs::write(trial.join(path.file_name().unwrap()), &data[..cut]).unwrap();
            let recovered = Wal::open(Arc::clone(&env), trial.clone()).unwrap();
            let got = seqs(&recovered.read_records().unwrap());
            let want: Vec<u64> = extents
                .iter()
                .filter(|(_, end)| *end <= cut as u64)
                .map(|(seq, _)| *seq)
                .collect();
            assert_eq!(got, want, "cut at {cut}/{}", data.len());
            let next = recovered.append_group(7, &[vec![cell("after")]]).unwrap();
            assert_eq!(next, want.last().map_or(first, |s| s + 1), "cut at {cut}");
            drop(recovered);
            std::fs::remove_dir_all(&trial).unwrap();
        }
    }

    #[test]
    fn fault_inside_a_group_keeps_earlier_records_and_closes_the_log() {
        use crate::fault::{FaultInjector, FileFaultKind, FileFaultRule};
        for kind in [FileFaultKind::CrashAt, FileFaultKind::Torn] {
            let env = temp_env(1 << 20);
            let inj = FaultInjector::new(11, Arc::clone(env.metrics()));
            env.attach_faults(Arc::clone(&inj));
            let wal = Wal::open(Arc::clone(&env), env.root().join("wal")).unwrap();
            let acked = wal.append_group(3, &group_of(3)).unwrap();
            // Records take one verdict each: the 4th write of the next
            // group is its 4th record.
            let rule =
                inj.add_file_rule(FileFaultRule::new(kind).on_op(FileOp::WalAppend).at_nth(4));
            let err = wal.append_group(3, &group_of(6)).unwrap_err();
            assert!(
                matches!(err, KvError::SimulatedCrash(_)),
                "{kind:?}: {err:?}"
            );
            assert_eq!(rule.fire_count(), 1);
            assert!(wal.is_closed());
            let acked_bytes: u64 = group_of(3).iter().map(|c| heap_size(c)).sum();
            assert_eq!(
                wal.retained_bytes(),
                acked_bytes,
                "the failed group is not retained"
            );
            inj.clear();
            // On disk the group is ordinary records: the three whole ones
            // before the fault survive, the faulted one and its successors
            // do not.
            let recovered = seqs(&wal.reopen().unwrap());
            assert_eq!(
                recovered,
                (acked..acked + 6).collect::<Vec<_>>(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn segments_rotate_archive_only_after_flush_then_delete_delayed() {
        let env = temp_env(4 * 1024); // tiny segments force rotation
        let wal = Wal::open(Arc::clone(&env), env.root().join("wal")).unwrap();
        let mut last_seq = 0;
        for i in 0..200 {
            let big = vec![cell(&format!("row-{i:04}-{}", "x".repeat(100)))];
            last_seq = wal.append_group(1, &[big]).unwrap();
        }
        let states = wal.segment_states();
        assert!(
            states.len() > 2,
            "expected rotation, got {} segments",
            states.len()
        );
        let sealed: Vec<_> = states.iter().filter(|s| s.sealed).collect();
        assert!(!sealed.is_empty());
        // Nothing flushed yet: every sealed segment still has unflushed edits
        // and must not be archived.
        for s in &sealed {
            assert!(s.min_unflushed_seq.is_some());
            assert!(!s.archived, "segment {} archived before flush", s.id);
            assert!(s.path.exists());
        }
        // Flush everything: sealed segments become archivable.
        wal.truncate_up_to(1, last_seq);
        let states = wal.segment_states();
        for s in states.iter().filter(|s| s.sealed) {
            assert!(
                s.archived,
                "segment {} not archived after covering flush",
                s.id
            );
            assert!(
                s.path.exists(),
                "archived file should still exist (delayed delete)"
            );
        }
        let m = env.metrics().snapshot();
        assert!(m.wal_segments_rotated > 0);
        assert!(m.wal_segments_archived > 0);
        assert_eq!(m.wal_segments_deleted, 0, "deletion must lag archival");
        // The next cleanup pass performs the delayed deletion.
        wal.gc();
        let m = env.metrics().snapshot();
        assert_eq!(m.wal_segments_deleted, m.wal_segments_archived);
        for s in wal.segment_states().iter().filter(|s| s.archived) {
            assert!(!s.path.exists());
        }
    }

    #[test]
    fn partial_flush_keeps_segment_unarchived() {
        let env = temp_env(4 * 1024);
        let wal = Wal::open(Arc::clone(&env), env.root().join("wal")).unwrap();
        // Interleave two regions across segments.
        let mut region1_last = 0;
        for i in 0..100 {
            let payload = vec![cell(&format!("r-{i:03}-{}", "y".repeat(120)))];
            if i % 2 == 0 {
                region1_last = wal.append_group(1, &[payload]).unwrap();
            } else {
                wal.append_group(2, &[payload]).unwrap();
            }
        }
        wal.truncate_up_to(1, region1_last);
        // Region 2 never flushed: every sealed segment holding its edits must
        // survive, with min_unflushed_seq pointing at region 2's first edit.
        for s in wal.segment_states().iter().filter(|s| s.sealed) {
            assert!(!s.archived);
            assert!(s.min_unflushed_seq.is_some());
        }
        assert_eq!(env.metrics().snapshot().wal_segments_archived, 0);
    }

    #[test]
    fn retained_bytes_shrinks_after_truncate() {
        let wal = temp_wal();
        let s = wal.append_group(1, &[vec![cell("abcdefgh")]]).unwrap();
        assert!(wal.retained_bytes() > 0);
        wal.truncate_up_to(1, s);
        assert_eq!(wal.retained_bytes(), 0);
    }
}
