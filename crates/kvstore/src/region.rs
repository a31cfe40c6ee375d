//! A region: one contiguous row-key range of a table, hosting a memstore and
//! a set of store files per column family, fronted by a WAL.
//!
//! Reads choose their sources here — the memstore and every store file that
//! row-range, time-range and bloom pruning leave — and hand them to the
//! cursor merge (the crate-private `merge` module), which applies MVCC read
//! points, version counting, tombstone masking, time-range filtering, column
//! projection and row-level server-side filters. Flush, compaction and
//! splits on the write side rewrite cells through the same merge.

use crate::block_cache::BlockCache;
use crate::cellblock::{self, CellBlockEncoder};
use crate::clock::Clock;
use crate::error::{KvError, Result};
use crate::fault::FileOp;
use crate::load::{RegionLoad, RegionLoadCounters};
use crate::memstore::MemStore;
use crate::merge::{assemble_rows, rewrite, Merge};
use crate::metrics::ClusterMetrics;
use crate::storage::{self, Reader, StorageEnv};
use crate::storefile::{StoreFile, StoreFileBuilder};
use crate::types::{
    Cell, CellKey, CellType, Delete, DeleteScope, Get, Put, Scan, TableDescriptor, TableName,
    Timestamp,
};
use crate::wal::{Wal, WalRecord};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use shc_obs::events::{EventJournal, Severity};
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Immutable identity and key range of a region. `start_key` is inclusive,
/// `end_key` exclusive; empty keys mean the table edge on that side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionInfo {
    pub region_id: u64,
    pub table: TableName,
    pub start_key: Bytes,
    pub end_key: Bytes,
}

impl RegionInfo {
    pub fn contains_row(&self, row: &[u8]) -> bool {
        row >= self.start_key.as_ref() && (self.end_key.is_empty() || row < self.end_key.as_ref())
    }

    /// Does `[start, stop)` (with the usual empty = unbounded convention)
    /// overlap this region's key range?
    pub fn overlaps(&self, start: &[u8], stop: &[u8]) -> bool {
        let starts_before_region_end = self.end_key.is_empty() || start < self.end_key.as_ref();
        let stops_after_region_start = stop.is_empty() || stop > self.start_key.as_ref();
        starts_before_region_end && stops_after_region_start
    }
}

/// Tunables controlling flush and compaction behaviour.
#[derive(Clone, Debug)]
pub struct RegionConfig {
    /// Memstore heap size that triggers an automatic flush.
    pub memstore_flush_size: usize,
    /// Store-file count that triggers an automatic major compaction (after
    /// size-tiered selection has had its chance).
    pub compact_at_file_count: usize,
    /// Server-WAL retained bytes that trigger a flush of this region even
    /// when its memstore is small, so old log segments can be archived.
    pub wal_flush_trigger_bytes: u64,
    /// Minimum number of similarly-sized files a size-tiered minor
    /// compaction merges at once.
    pub tier_min_files: usize,
    /// Two files are "similarly sized" (same tier) when the larger is at
    /// most this multiple of the smaller.
    pub tier_size_ratio: f64,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            memstore_flush_size: 4 * 1024 * 1024,
            compact_at_file_count: 6,
            wal_flush_trigger_bytes: 8 * 1024 * 1024,
            tier_min_files: 4,
            tier_size_ratio: 2.0,
        }
    }
}

/// Why a flush ran — the attribution dimension of flush metrics and spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlushCause {
    /// The region's memstore crossed `memstore_flush_size`.
    MemstorePressure,
    /// The server WAL's retained bytes crossed `wal_flush_trigger_bytes`
    /// (flushing lets old segments archive even if the memstore is small).
    WalPressure,
    /// Requested directly: `flush_all`, a split, or a test.
    Explicit,
}

impl FlushCause {
    fn as_str(&self) -> &'static str {
        match self {
            FlushCause::MemstorePressure => "memstore_pressure",
            FlushCause::WalPressure => "wal_pressure",
            FlushCause::Explicit => "explicit",
        }
    }
}

/// What one flush did: the numbers a write stall journals and meters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct FlushOutcome {
    /// Whether any memstore actually drained (an empty region "flushes"
    /// without doing work).
    flushed: bool,
    /// Store-file payload bytes written across families.
    bytes: u64,
    /// Store files created (one per non-empty family).
    files: u64,
    /// Modeled duration in virtual µs: write-throughput model over `bytes`
    /// plus any injected slow-write device delay.
    duration_us: u64,
}

/// Modeled store-file write cost in virtual µs: fixed setup plus ~200 bytes
/// per µs (≈200 MB/s of sequential write bandwidth).
fn modeled_write_us(bytes: u64) -> u64 {
    20 + bytes / 200
}

/// A region's slice of the storage tree: its directory, its manifest, and
/// the counter naming new store files.
struct RegionStorage {
    env: Arc<StorageEnv>,
    dir: PathBuf,
    next_file_no: AtomicU64,
}

impl RegionStorage {
    fn next_sst_path(&self) -> PathBuf {
        let no = self.next_file_no.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("sf-{no:06}.sst"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }
}

/// Per-column-family storage: the memstore plus immutable files.
struct Store {
    max_versions: u32,
    memstore: MemStore,
    files: Vec<Arc<StoreFile>>,
    /// Highest WAL sequence already persisted in `files`.
    flushed_seq: u64,
}

/// Counters describing the work one scan performed, used both by the server
/// metrics and by the paper's experiments (cells scanned vs returned is the
/// pushdown win).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Cells visited by the merge (the server-side work).
    pub cells_scanned: u64,
    /// Cells included in returned rows (the network payload).
    pub cells_returned: u64,
    pub rows_returned: u64,
    /// Length of the cell block the rows went out in: what crosses the
    /// network.
    pub bytes_returned: u64,
    /// Store files skipped by row-range / time-range / bloom pruning.
    pub files_pruned: u64,
    /// Store-file blocks read from "disk" (block-cache misses, or every
    /// block load when the scan ran without a cache).
    pub blocks_read: u64,
    /// Store-file blocks served from the region server's block cache.
    pub block_cache_hits: u64,
}

impl ScanStats {
    pub fn merge(&mut self, other: &ScanStats) {
        self.cells_scanned += other.cells_scanned;
        self.cells_returned += other.cells_returned;
        self.rows_returned += other.rows_returned;
        self.bytes_returned += other.bytes_returned;
        self.files_pruned += other.files_pruned;
        self.blocks_read += other.blocks_read;
        self.block_cache_hits += other.block_cache_hits;
    }
}

/// What the write path needs from a row mutation ([`Put`] or [`Delete`]).
pub(crate) trait Mutation {
    fn row(&self) -> &Bytes;
    /// A column family the mutation names that the table does not have.
    fn unknown_family<'a>(&'a self, descriptor: &TableDescriptor) -> Option<&'a Bytes>;
    /// Whether some cell takes the server time: a mutation whose cells all
    /// carry a timestamp takes no tick of the clock.
    fn needs_time(&self) -> bool;
    /// The cells to log and insert, with a placeholder seq (the write path
    /// stamps the one the WAL assigns); `now` is the server time for
    /// columns without their own timestamp.
    fn cells(&self, descriptor: &TableDescriptor, now: Timestamp) -> Vec<Cell>;
}

impl Mutation for Put {
    fn row(&self) -> &Bytes {
        &self.row
    }

    fn unknown_family<'a>(&'a self, descriptor: &TableDescriptor) -> Option<&'a Bytes> {
        self.columns
            .iter()
            .map(|col| &col.family)
            .find(|family| !descriptor.has_family(family))
    }

    fn needs_time(&self) -> bool {
        self.columns.iter().any(|col| col.timestamp.is_none())
    }

    fn cells(&self, _: &TableDescriptor, now: Timestamp) -> Vec<Cell> {
        self.columns
            .iter()
            .map(|col| Cell {
                key: CellKey {
                    row: self.row.clone(),
                    family: col.family.clone(),
                    qualifier: col.qualifier.clone(),
                    timestamp: col.timestamp.unwrap_or(now),
                    seq: 0,
                    cell_type: CellType::Put,
                },
                value: col.value.clone(),
            })
            .collect()
    }
}

impl Mutation for Delete {
    fn row(&self) -> &Bytes {
        &self.row
    }

    fn unknown_family<'a>(&'a self, descriptor: &TableDescriptor) -> Option<&'a Bytes> {
        match &self.scope {
            DeleteScope::Row => None,
            DeleteScope::Family(family)
            | DeleteScope::Column { family, .. }
            | DeleteScope::Version { family, .. } => {
                (!descriptor.has_family(family)).then_some(family)
            }
        }
    }

    fn needs_time(&self) -> bool {
        self.timestamp.is_none() && !matches!(self.scope, DeleteScope::Version { .. })
    }

    fn cells(&self, descriptor: &TableDescriptor, now: Timestamp) -> Vec<Cell> {
        let tombstone =
            |family: &Bytes, qualifier: &Bytes, timestamp: Timestamp, cell_type: CellType| Cell {
                key: CellKey {
                    row: self.row.clone(),
                    family: family.clone(),
                    qualifier: qualifier.clone(),
                    timestamp,
                    seq: 0,
                    cell_type,
                },
                value: Bytes::new(),
            };
        let ts = self.timestamp.unwrap_or(now);
        let none = Bytes::new();
        match &self.scope {
            DeleteScope::Row => descriptor
                .families
                .iter()
                .map(|fd| tombstone(&fd.name, &none, ts, CellType::DeleteFamily))
                .collect(),
            DeleteScope::Family(family) => {
                vec![tombstone(family, &none, ts, CellType::DeleteFamily)]
            }
            DeleteScope::Column { family, qualifier } => {
                vec![tombstone(family, qualifier, ts, CellType::DeleteColumn)]
            }
            DeleteScope::Version {
                family,
                qualifier,
                timestamp,
            } => vec![tombstone(family, qualifier, *timestamp, CellType::Delete)],
        }
    }
}

/// How a write finds the other regions of its server, by id. A write that
/// takes the server's log past `wal_flush_trigger_bytes` flushes the region
/// that pins the log's oldest record, which need not be its own.
pub(crate) type Peers<'p> = &'p dyn Fn(u64) -> Option<Arc<Region>>;

/// A live region.
pub struct Region {
    pub info: RegionInfo,
    descriptor: TableDescriptor,
    config: RegionConfig,
    stores: RwLock<HashMap<Bytes, Store>>,
    /// The hosting server's WAL. Behind a lock because a move or a failover
    /// re-homes the region onto a different server's WAL.
    wal: RwLock<Arc<Wal>>,
    clock: Clock,
    /// Highest WAL sequence whose mutation is visible to readers.
    read_point: AtomicU64,
    /// Serializes the write path (WAL append + memstore apply).
    write_lock: Mutex<()>,
    /// Lifetime counters of *durably completed* flushes/compactions: they
    /// only advance after the manifest commit — a flush that crashed
    /// mid-write is not a flush.
    flush_count: AtomicU64,
    compaction_count: AtomicU64,
    /// Per-region request accounting, bumped by the hosting server's RPC
    /// handlers. Lives on the region so the history follows a move.
    load: RegionLoadCounters,
    /// Where flushes and compactions persist store files and publish them
    /// through the manifest; [`Region::reload_from_disk`] rebuilds from it.
    storage: RegionStorage,
    /// Flight recorder, attached by the hosting server; write stalls are
    /// journaled through it.
    events: RwLock<Option<Arc<EventJournal>>>,
}

impl Region {
    /// A region rooted at its directory under `env`, created if missing.
    /// It starts empty: [`Region::reload_from_disk`] loads what a manifest
    /// already there lists.
    pub fn new(
        info: RegionInfo,
        descriptor: TableDescriptor,
        config: RegionConfig,
        wal: Arc<Wal>,
        clock: Clock,
        env: Arc<StorageEnv>,
    ) -> Result<Self> {
        let dir = env.region_dir(info.region_id);
        std::fs::create_dir_all(&dir)?;
        let stores = descriptor
            .families
            .iter()
            .map(|fd| {
                (
                    fd.name.clone(),
                    Store {
                        max_versions: fd.max_versions,
                        memstore: MemStore::new(),
                        files: Vec::new(),
                        flushed_seq: 0,
                    },
                )
            })
            .collect();
        Ok(Region {
            info,
            descriptor,
            config,
            stores: RwLock::new(stores),
            wal: RwLock::new(wal),
            clock,
            read_point: AtomicU64::new(0),
            write_lock: Mutex::new(()),
            flush_count: AtomicU64::new(0),
            compaction_count: AtomicU64::new(0),
            load: RegionLoadCounters::default(),
            storage: RegionStorage {
                env,
                dir,
                next_file_no: AtomicU64::new(1),
            },
            events: RwLock::new(None),
        })
    }

    /// Attach the hosting server's flight recorder, when it has one; write
    /// stalls are journaled through it. (Metrics need no attaching: the
    /// storage env carries the cluster's.)
    pub fn attach_observability(&self, events: Option<Arc<EventJournal>>) {
        if let Some(journal) = events {
            *self.events.write() = Some(journal);
        }
    }

    fn metrics(&self) -> &ClusterMetrics {
        self.storage.env.metrics()
    }

    pub fn descriptor(&self) -> &TableDescriptor {
        &self.descriptor
    }

    /// The WAL this region currently appends to.
    pub fn wal(&self) -> Arc<Wal> {
        Arc::clone(&self.wal.read())
    }

    /// Re-home the flushed region onto a different WAL (the destination
    /// server's), as the master does when it moves a region or reassigns it
    /// away from a dead server. The new log numbers on from the region's
    /// newest edit.
    pub fn rewire_wal(&self, wal: Arc<Wal>) {
        wal.advance_seq_past(self.read_point.load(Ordering::Acquire));
        *self.wal.write() = wal;
    }

    /// Drop every unflushed memstore entry, as a process crash would.
    /// [`recover_from_wal`](Self::recover_from_wal) rebuilds the loss.
    pub fn lose_memstores(&self) {
        let mut stores = self.stores.write();
        for store in stores.values_mut() {
            store.memstore = MemStore::new();
        }
    }

    pub fn flush_count(&self) -> u64 {
        self.flush_count.load(Ordering::Relaxed)
    }

    pub fn compaction_count(&self) -> u64 {
        self.compaction_count.load(Ordering::Relaxed)
    }

    /// Current total memstore footprint across families.
    pub fn memstore_size(&self) -> usize {
        self.stores
            .read()
            .values()
            .map(|s| s.memstore.heap_size())
            .sum()
    }

    /// Total store-file count across families.
    pub fn store_file_count(&self) -> usize {
        self.stores.read().values().map(|s| s.files.len()).sum()
    }

    /// Total store-file payload bytes across families.
    pub fn store_file_bytes(&self) -> u64 {
        self.stores
            .read()
            .values()
            .flat_map(|s| s.files.iter())
            .map(|f| f.byte_size() as u64)
            .sum()
    }

    /// This region's live request counters (the hosting server bumps them).
    pub fn load_counters(&self) -> &RegionLoadCounters {
        &self.load
    }

    /// Freeze the request counters and storage gauges into a [`RegionLoad`].
    pub fn load(&self) -> RegionLoad {
        RegionLoad {
            region_id: self.info.region_id,
            table: self.info.table.to_string(),
            start_key: self.info.start_key.clone(),
            end_key: self.info.end_key.clone(),
            read_requests: self.load.read_requests.load(Ordering::Relaxed),
            write_requests: self.load.write_requests.load(Ordering::Relaxed),
            cells_scanned: self.load.cells_scanned.load(Ordering::Relaxed),
            cells_returned: self.load.cells_returned.load(Ordering::Relaxed),
            memstore_bytes: self.memstore_size() as u64,
            store_file_count: self.store_file_count() as u64,
            store_file_bytes: self.store_file_bytes(),
            flush_count: self.flush_count(),
            compaction_count: self.compaction_count(),
            last_trace_id: self.load.last_trace_id.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Apply a single put: [`put_batch`](Self::put_batch) with a batch of one.
    pub fn put(&self, put: &Put) -> Result<()> {
        self.put_batch(std::slice::from_ref(put))
    }

    /// Apply a single delete (as tombstone cells): a batch of one.
    pub fn delete(&self, delete: &Delete) -> Result<()> {
        self.delete_batch(std::slice::from_ref(delete))
    }

    /// Apply puts in order with the batch as the unit of durability. The
    /// region stands alone: WAL pressure flushes it or nothing.
    pub fn put_batch(&self, puts: &[Put]) -> Result<()> {
        self.apply_batch(puts, &|_| None)
    }

    /// Apply deletes in order with the batch as the unit of durability.
    pub fn delete_batch(&self, deletes: &[Delete]) -> Result<()> {
        self.apply_batch(deletes, &|_| None)
    }

    /// The one write path. Every mutation is validated before anything is
    /// applied, then the batch is committed in *groups*: a group's records
    /// (one per mutation, one seq each) reach the WAL in one write and one
    /// fsync, its cells enter the memstores under one lock, the read point
    /// moves to its last seq, and the flush watermarks are checked once. A
    /// group ends where mutation-at-a-time application would have found a
    /// watermark crossed ([`group_room`](Self::group_room)), so flush points
    /// — and with them store-file sizes and the compaction schedule — do not
    /// depend on how mutations are batched. An error fails the group it
    /// hits and everything after it; earlier groups are durable and visible
    /// (the client contract is at-least-once, so it retries the batch).
    /// `peers` finds the region a WAL-pressure flush is owed by.
    pub(crate) fn apply_batch<M: Mutation>(&self, mutations: &[M], peers: Peers<'_>) -> Result<()> {
        for m in mutations {
            if !self.info.contains_row(m.row()) {
                return Err(KvError::NoRegionForRow {
                    table: self.info.table.to_string(),
                    row: m.row().to_vec(),
                });
            }
            if let Some(family) = m.unknown_family(&self.descriptor) {
                return Err(self.no_such_family(family));
            }
        }
        let _guard = self.write_lock.lock();
        let mut rest = mutations;
        while !rest.is_empty() {
            let room = self.group_room();
            let mut group: Vec<Vec<Cell>> = Vec::new();
            let mut bytes = 0;
            for m in rest {
                // One clock tick per mutation that needs the time, taken in
                // application order.
                let now = if m.needs_time() {
                    self.clock.now_ms()
                } else {
                    0
                };
                let cells = m.cells(&self.descriptor, now);
                bytes += cells.iter().map(Cell::heap_size).sum::<usize>();
                group.push(cells);
                if bytes >= room {
                    break;
                }
            }
            rest = &rest[group.len()..];
            let first_seq = self.wal.read().append_group(self.info.region_id, &group)?;
            let last_seq = first_seq + group.len() as u64 - 1;
            {
                let mut stores = self.stores.write();
                for (seq, cells) in (first_seq..).zip(group) {
                    for mut cell in cells {
                        cell.key.seq = seq;
                        stores
                            .get_mut(&cell.key.family)
                            .ok_or_else(|| self.no_such_family(&cell.key.family))?
                            .memstore
                            .insert(cell);
                    }
                }
            }
            self.read_point.fetch_max(last_seq, Ordering::Release);
            self.maybe_flush(peers)?;
        }
        Ok(())
    }

    fn no_such_family(&self, family: &[u8]) -> KvError {
        KvError::NoSuchColumnFamily {
            table: self.info.table.to_string(),
            family: String::from_utf8_lossy(family).into_owned(),
        }
    }

    /// Cell bytes the memstores can take before mutation-at-a-time
    /// application would next act on a watermark: the distance to
    /// `memstore_flush_size`, capped by the distance of the server WAL's
    /// retained bytes to `wal_flush_trigger_bytes`. Cell heap sizes never
    /// under-count what the memstore adds, so a crossing cannot fall
    /// strictly inside a group.
    fn group_room(&self) -> usize {
        let mem_room = self
            .config
            .memstore_flush_size
            .saturating_sub(self.memstore_size());
        let wal_room = self
            .config
            .wal_flush_trigger_bytes
            .saturating_sub(self.wal.read().retained_bytes());
        mem_room.min(usize::try_from(wal_room).unwrap_or(usize::MAX))
    }

    /// Flush when a watermark is crossed. The flush runs inline on the
    /// writer, which blocks until it is done: every automatic flush is a
    /// write stall. A full memstore flushes this region; a log past
    /// `wal_flush_trigger_bytes` flushes the region holding its oldest
    /// record — this one or a peer — as only that lets the oldest segment go.
    fn maybe_flush(&self, peers: Peers<'_>) -> Result<()> {
        let mem = self.memstore_size();
        let (cause, peer) = if mem >= self.config.memstore_flush_size {
            (FlushCause::MemstorePressure, None)
        } else {
            let wal = self.wal();
            if wal.retained_bytes() < self.config.wal_flush_trigger_bytes {
                return Ok(());
            }
            match wal.pinning_region() {
                Some(id) if id == self.info.region_id && mem > 0 => (FlushCause::WalPressure, None),
                Some(id) if id != self.info.region_id => {
                    match peers(id).filter(|peer| peer.memstore_size() > 0) {
                        Some(peer) => (FlushCause::WalPressure, Some(peer)),
                        None => return Ok(()),
                    }
                }
                _ => return Ok(()),
            }
        };
        let target = peer.as_deref().unwrap_or(self);
        let outcome = target.flush_with_cause(cause)?;
        if outcome.flushed {
            let stall_ms = outcome.duration_us.div_ceil(1000).max(1);
            let m = self.metrics();
            m.add(&m.write_stalls, 1);
            m.add(&m.write_stall_ms, stall_ms);
            m.write_stall_us.record_with_exemplar(
                outcome.duration_us,
                shc_obs::trace::current_trace_id().unwrap_or(0),
            );
            self.journal(
                Severity::Warn,
                "flush",
                format!(
                    "write stall: region {} blocked {stall_ms}ms on {} flush of region {} \
                     (memstore={mem}B, wrote {}B in {} file(s))",
                    self.info.region_id,
                    cause.as_str(),
                    target.info.region_id,
                    outcome.bytes,
                    outcome.files
                ),
            );
        }
        Ok(())
    }

    /// Record into the attached flight recorder at the region clock's
    /// current virtual time (the writer's thread drives that clock).
    fn journal(&self, severity: Severity, category: &'static str, message: String) {
        if let Some(journal) = self.events.read().as_ref() {
            journal.record_with_trace(
                severity,
                category,
                self.clock.peek_ms(),
                message,
                shc_obs::trace::current_trace_id().unwrap_or(0),
            );
        }
    }

    /// Flush every family's memstore into a new store file and let the WAL
    /// drop the now-durable records; counted as an explicit flush.
    ///
    /// Ordering: store files are written and fsynced first, the
    /// manifest commit publishes them, and only *then* does `flush_count`
    /// advance and the WAL release the covered records. A crash at any
    /// earlier point leaves the old manifest intact, the WAL untouched, and
    /// at most some orphaned `.sst` files for recovery to sweep.
    pub fn flush(&self) -> Result<()> {
        self.flush_with_cause(FlushCause::Explicit)?;
        Ok(())
    }

    /// [`flush`](Self::flush) with cause attribution, returning what the
    /// flush did.
    fn flush_with_cause(&self, cause: FlushCause) -> Result<FlushOutcome> {
        let mut sp = shc_obs::trace::span("flush");
        sp.annotate("region", self.info.region_id);
        sp.annotate("cause", cause.as_str());
        let m = self.metrics();
        let rs = &self.storage;
        // Injected slow-write delays land in this counter at the fault
        // site; the delta around the write loop attributes them to this
        // flush (exact single-threaded, approximate under concurrency).
        let slow_us_before = m.storage_slow_write_us.load(Ordering::Relaxed);
        let read_point = self.read_point.load(Ordering::Acquire);
        let mut stores = self.stores.write();
        let mut any = false;
        let mut bytes = 0u64;
        let mut files = 0u64;
        for store in stores.values_mut() {
            // Every write up to `read_point` reached its memstore before the
            // read point passed it, so an empty memstore holds nothing the
            // log must keep: a family never written must not pin it.
            if store.memstore.is_empty() {
                store.flushed_seq = store.flushed_seq.max(read_point);
                continue;
            }
            let mut merge = Merge::new(b"");
            merge.add_memstore(&store.memstore, &Bytes::new());
            let file = write_merged(&mut merge, None)?;
            store.memstore.clear();
            file.write_to(&rs.env, &rs.next_sst_path(), FileOp::StoreFileWrite)?;
            bytes += file.byte_size() as u64;
            files += 1;
            store.flushed_seq = store.flushed_seq.max(file.max_seq);
            store.files.push(Arc::new(file));
            any = true;
        }
        let min_flushed = stores
            .values()
            .map(|s| s.flushed_seq)
            .min()
            .unwrap_or(read_point);
        if !any {
            return Ok(FlushOutcome::default());
        }
        write_manifest(rs, &stores)?;
        drop(stores);
        // Durable completion point: everything below is bookkeeping on
        // state that is already safe on disk.
        self.flush_count.fetch_add(1, Ordering::Relaxed);
        self.wal
            .read()
            .truncate_up_to(self.info.region_id, min_flushed);
        let injected_us = m
            .storage_slow_write_us
            .load(Ordering::Relaxed)
            .saturating_sub(slow_us_before);
        let duration_us = modeled_write_us(bytes) + injected_us;
        // Injected delays already advanced the active trace at the fault
        // site; only the throughput model is added here.
        shc_obs::trace::advance_us(modeled_write_us(bytes));
        match cause {
            FlushCause::MemstorePressure => m.add(&m.flushes_memstore_pressure, 1),
            FlushCause::WalPressure => m.add(&m.flushes_wal_pressure, 1),
            FlushCause::Explicit => m.add(&m.flushes_explicit, 1),
        }
        m.flush_bytes.record(bytes);
        m.flush_us
            .record_with_exemplar(duration_us, shc_obs::trace::current_trace_id().unwrap_or(0));
        sp.annotate("bytes", bytes);
        sp.annotate("files", files);
        self.maybe_compact()?;
        let (backlog_bytes, _) = self.compaction_backlog();
        m.compaction_backlog_peak_bytes
            .fetch_max(backlog_bytes, Ordering::Relaxed);
        Ok(FlushOutcome {
            flushed: true,
            bytes,
            files,
            duration_us,
        })
    }

    /// Bytes and files a pending compaction would have to rewrite: for
    /// every family holding more than one store file, all of that family's
    /// file bytes plus the files beyond the first. Zero means fully
    /// compacted. This is the gauge whose *growth rate* predicts collapse.
    pub fn compaction_backlog(&self) -> (u64, u64) {
        let stores = self.stores.read();
        let mut bytes = 0u64;
        let mut files = 0u64;
        for store in stores.values() {
            if store.files.len() > 1 {
                bytes += store
                    .files
                    .iter()
                    .map(|f| f.byte_size() as u64)
                    .sum::<u64>();
                files += (store.files.len() - 1) as u64;
            }
        }
        (bytes, files)
    }

    fn maybe_compact(&self) -> Result<()> {
        // Size-tiered minor compactions first: cheap merges of similarly
        // sized files, keeping tombstones and versions.
        while self.minor_compact()? {}
        let needs_major = self
            .stores
            .read()
            .values()
            .any(|s| s.files.len() >= self.config.compact_at_file_count);
        if needs_major {
            self.compact()?;
        }
        Ok(())
    }

    /// One round of size-tiered selection per family: find at least
    /// `tier_min_files` files whose sizes are within `tier_size_ratio` of
    /// each other and merge them into one, keeping every version and
    /// tombstone (only a major compaction may drop data). Returns whether
    /// any merge happened.
    pub fn minor_compact(&self) -> Result<bool> {
        let rs = &self.storage;
        let mut stores = self.stores.write();
        // One family per round; callers loop until no tier qualifies.
        let target = stores.values_mut().find_map(|store| {
            select_tier(
                &store.files,
                self.config.tier_min_files,
                self.config.tier_size_ratio,
            )
            .map(|pick| (store, pick))
        });
        let Some((store, pick)) = target else {
            return Ok(false);
        };
        let mut sp = shc_obs::trace::span("compaction");
        sp.annotate("region", self.info.region_id);
        sp.annotate("kind", "minor");
        let (replaced, rewritten) = {
            let picked: Vec<Arc<StoreFile>> =
                pick.iter().map(|&i| Arc::clone(&store.files[i])).collect();
            // Everything is kept: only a major compaction may drop data.
            let merged = merge_files(&picked, None)?;
            merged.write_to(&rs.env, &rs.next_sst_path(), FileOp::CompactionWrite)?;
            let rewritten = merged.byte_size() as u64;
            let keep: HashSet<usize> = pick.iter().copied().collect();
            let mut replaced = Vec::new();
            let mut files = Vec::with_capacity(store.files.len() + 1 - pick.len());
            for (i, f) in store.files.drain(..).enumerate() {
                if keep.contains(&i) {
                    replaced.push(f);
                } else {
                    files.push(f);
                }
            }
            files.push(Arc::new(merged));
            files.sort_by_key(|f| f.max_seq);
            store.files = files;
            (replaced, rewritten)
        };
        write_manifest(rs, &stores)?;
        remove_replaced_files(rs, &replaced);
        drop(stores);
        self.compaction_count.fetch_add(1, Ordering::Relaxed);
        self.meter_compaction(&mut sp, rewritten);
        Ok(true)
    }

    /// Shared compaction instrumentation: histogram samples, modeled trace
    /// time, span annotations.
    fn meter_compaction(&self, sp: &mut shc_obs::SpanGuard, rewritten: u64) {
        let duration_us = modeled_write_us(rewritten);
        shc_obs::trace::advance_us(duration_us);
        let m = self.metrics();
        m.compaction_bytes.record(rewritten);
        m.compaction_us
            .record_with_exemplar(duration_us, shc_obs::trace::current_trace_id().unwrap_or(0));
        sp.annotate("bytes", rewritten);
    }

    /// Major compaction: merge each family's files into one, dropping masked
    /// versions beyond the family's `max_versions` and all tombstones.
    ///
    /// Same ordering as flush: the merged file is written and the
    /// manifest committed before the old files are deleted or the counter
    /// advances.
    pub fn compact(&self) -> Result<()> {
        let mut sp = shc_obs::trace::span("compaction");
        sp.annotate("region", self.info.region_id);
        sp.annotate("kind", "major");
        let mut rewritten = 0u64;
        let rs = &self.storage;
        let mut stores = self.stores.write();
        let mut all_replaced = Vec::new();
        for store in stores.values_mut() {
            // Major compaction rewrites even a single file: version
            // retention and tombstone collection must still apply.
            if store.files.is_empty() {
                continue;
            }
            let file = merge_files(&store.files, Some(store.max_versions))?;
            file.write_to(&rs.env, &rs.next_sst_path(), FileOp::CompactionWrite)?;
            rewritten += file.byte_size() as u64;
            all_replaced.append(&mut store.files);
            store.files = vec![Arc::new(file)];
        }
        write_manifest(rs, &stores)?;
        remove_replaced_files(rs, &all_replaced);
        drop(stores);
        self.compaction_count.fetch_add(1, Ordering::Relaxed);
        self.meter_compaction(&mut sp, rewritten);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Point read through an optional block cache, encoded into `block` as
    /// exactly one row: an absent row is an empty one (no key, no cells).
    /// The bloom filter is consulted per store file before any block is
    /// touched, so a get for an absent row on a flushed region reads zero
    /// blocks.
    pub(crate) fn encode_get(
        &self,
        get: &Get,
        cache: Option<&BlockCache>,
        block: &mut CellBlockEncoder,
    ) -> Result<ScanStats> {
        let scan = Scan {
            start: Bound::Included(get.row.clone()),
            stop: Bound::Included(get.row.clone()),
            projection: get.projection.clone(),
            filter: get.filter.clone(),
            time_range: get.time_range,
            max_versions: get.max_versions,
            limit: 1,
            caching: 1,
            include_empty_rows: get.include_empty_rows,
        };
        let rows = block.rows();
        let stats = self.encode_scan(&scan, cache, block)?;
        if block.rows() == rows {
            block.push_row(b"", std::iter::empty());
        }
        Ok(stats)
    }

    /// Range scan reading store-file blocks through an optional block cache,
    /// answered as one cell block; `bytes_returned` is its length.
    pub fn scan_with(&self, scan: &Scan, cache: Option<&BlockCache>) -> Result<(Bytes, ScanStats)> {
        let mut block = CellBlockEncoder::default();
        let mut stats = self.encode_scan(scan, cache, &mut block)?;
        let block = block.finish();
        stats.bytes_returned = block.len() as u64;
        Ok((block, stats))
    }

    /// Encode the rows of a scan into `block`. Blocks are loaded as the
    /// merge reaches them, so a scan with a `limit` touches only the blocks
    /// it actually needed. `bytes_returned` is left to whoever finishes the
    /// block.
    pub(crate) fn encode_scan(
        &self,
        scan: &Scan,
        cache: Option<&BlockCache>,
        block: &mut CellBlockEncoder,
    ) -> Result<ScanStats> {
        let read_point = self.read_point.load(Ordering::Acquire);
        let (start, stop) = self.effective_range(scan)?;
        if !stop.is_empty() && start >= stop {
            return Ok(ScanStats::default());
        }
        let mut stats = ScanStats::default();
        let stores = self.stores.read();

        let mut merge = Merge::new(&stop);
        let mut families: Vec<(&Bytes, u32)> = Vec::with_capacity(stores.len());
        let point_row: Option<&Bytes> = match (&scan.start, &scan.stop) {
            (Bound::Included(a), Bound::Included(b)) if a == b => Some(a),
            _ => None,
        };
        for (family, store) in stores.iter() {
            // Only the families the projection touches are read at all.
            let wanted = scan.projection.is_all()
                || scan.projection.families.iter().any(|(pf, _)| pf == family);
            if !wanted {
                continue;
            }
            families.push((family, store.max_versions));
            let (mem_min, mem_max) = store.memstore.time_span();
            if !store.memstore.is_empty()
                && (store.memstore.has_tombstones() || scan.time_range.overlaps(mem_min, mem_max))
            {
                merge.add_memstore(&store.memstore, &start);
            }
            for file in &store.files {
                // Pruning happens before any block is touched: the bloom
                // check in particular lets a point get skip a file without
                // a single block read.
                let pruned = !file.overlaps_row_range(&start, &stop)
                    || !file.overlaps_time_range(&scan.time_range)
                    || point_row.is_some_and(|r| !file.may_contain_row(r));
                if pruned {
                    stats.files_pruned += 1;
                    continue;
                }
                merge.add_file(file, &start, cache);
            }
        }

        assemble_rows(&mut merge, scan, read_point, &families, &mut stats, block);
        stats.blocks_read = merge.tally.misses;
        stats.block_cache_hits = merge.tally.hits;
        if let Some(cache) = cache {
            cache.journal_evictions(merge.tally.evictions);
        }
        Ok(stats)
    }

    /// Intersect the scan bounds with the region's key range, producing the
    /// `[start, stop)` byte window handed to stores.
    fn effective_range(&self, scan: &Scan) -> Result<(Bytes, Bytes)> {
        let scan_start: Bytes = match &scan.start {
            Bound::Unbounded => Bytes::new(),
            Bound::Included(s) => s.clone(),
            Bound::Excluded(s) => {
                // Successor key: append a zero byte.
                let mut v = s.to_vec();
                v.push(0);
                Bytes::from(v)
            }
        };
        let scan_stop: Bytes = match &scan.stop {
            Bound::Unbounded => Bytes::new(),
            Bound::Excluded(s) => s.clone(),
            Bound::Included(s) => {
                let mut v = s.to_vec();
                v.push(0);
                Bytes::from(v)
            }
        };
        let start = if scan_start.as_ref() > self.info.start_key.as_ref() {
            scan_start
        } else {
            self.info.start_key.clone()
        };
        let stop = match (scan_stop.is_empty(), self.info.end_key.is_empty()) {
            (true, true) => Bytes::new(),
            (true, false) => self.info.end_key.clone(),
            (false, true) => scan_stop,
            (false, false) => {
                if scan_stop.as_ref() < self.info.end_key.as_ref() {
                    scan_stop
                } else {
                    self.info.end_key.clone()
                }
            }
        };
        Ok((start, stop))
    }

    // ------------------------------------------------------------------
    // Split
    // ------------------------------------------------------------------

    /// A reasonable split point: the key of the region's middle row. `None`
    /// when the region holds fewer than two distinct rows.
    pub fn split_point(&self) -> Option<Bytes> {
        let (block, _) = self.scan_with(&Scan::new(), None).ok()?;
        // One pass counts the rows, a second picks the middle one's key.
        let mut rows = 0;
        cellblock::visit_rows(&block, |_, _| {
            rows += 1;
            Ok::<_, KvError>(())
        })
        .ok()?;
        if rows < 2 {
            return None;
        }
        let (mut row, mut candidate) = (0, Bytes::new());
        cellblock::visit_rows(&block, |key, _| {
            if row == rows / 2 {
                candidate = Bytes::copy_from_slice(key);
            }
            row += 1;
            Ok::<_, KvError>(())
        })
        .ok()?;
        // Must differ from the region start key or the split is degenerate.
        (candidate != self.info.start_key).then_some(candidate)
    }

    /// Split this region at `split_key`, producing two daughter regions that
    /// take over the data, each with its store files and manifest already in
    /// its own directory. The parent should be discarded afterwards.
    pub fn split(&self, split_key: Bytes, left_id: u64, right_id: u64) -> Result<(Region, Region)> {
        if !self.info.contains_row(&split_key) {
            return Err(KvError::InvalidRequest(format!(
                "split key {:?} outside region range",
                split_key
            )));
        }
        // Ensure everything is in store files so daughters get a clean copy.
        self.flush()?;
        let left_info = RegionInfo {
            region_id: left_id,
            table: self.info.table.clone(),
            start_key: self.info.start_key.clone(),
            end_key: split_key.clone(),
        };
        let right_info = RegionInfo {
            region_id: right_id,
            table: self.info.table.clone(),
            start_key: split_key.clone(),
            end_key: self.info.end_key.clone(),
        };
        let new_daughter = |info| {
            Region::new(
                info,
                self.descriptor.clone(),
                self.config.clone(),
                Arc::clone(&self.wal.read()),
                self.clock.clone(),
                Arc::clone(&self.storage.env),
            )
        };
        let (left, right) = (new_daughter(left_info)?, new_daughter(right_info)?);
        let stores = self.stores.read();
        for (family, store) in stores.iter() {
            let mut low = StoreFileBuilder::default();
            let mut high = StoreFileBuilder::default();
            rewrite(&mut whole_files(&store.files), None, |cell| {
                if cell.row < split_key.as_ref() {
                    low.push(cell)
                } else {
                    high.push(cell)
                }
            });
            for (daughter, builder) in [(&left, low), (&right, high)] {
                let file = builder.finish()?;
                if !file.is_empty() {
                    let mut target = daughter.stores.write();
                    let s = target
                        .get_mut(family)
                        .ok_or_else(|| self.no_such_family(family))?;
                    s.files.push(Arc::new(file));
                }
            }
        }
        drop(stores);
        let rp = self.read_point.load(Ordering::Acquire);
        for daughter in [&left, &right] {
            let rs = &daughter.storage;
            let stores = daughter.stores.read();
            for file in stores.values().flat_map(|s| &s.files) {
                file.write_to(&rs.env, &rs.next_sst_path(), FileOp::StoreFileWrite)?;
            }
            write_manifest(rs, &stores)?;
            daughter.read_point.store(rp, Ordering::Release);
        }
        Ok((left, right))
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Rebuild memstores after a simulated crash from `records`, this
    /// region's records of a server's log read back from its segment files
    /// (split by [`wal::split_by_region`](crate::wal::split_by_region)), in
    /// seq order; a record of another region is skipped. Their cells move
    /// into the memstores. Records already flushed to store files are
    /// skipped via the per-store flushed sequence. Returns the number of WAL
    /// records applied.
    pub fn recover_from_wal(&self, records: Vec<WalRecord>) -> usize {
        let mut stores = self.stores.write();
        let min_flushed = stores.values().map(|s| s.flushed_seq).min().unwrap_or(0);
        let records = records
            .into_iter()
            .filter(|r| r.region_id == self.info.region_id && r.seq > min_flushed);
        let mut applied = 0;
        let mut max_seq = 0;
        for record in records {
            let mut any = false;
            for mut cell in record.cells {
                if let Some(store) = stores.get_mut(&cell.key.family) {
                    // Skip edits a family already has in a store file; a
                    // record straddling the flush point must not duplicate.
                    if record.seq > store.flushed_seq {
                        cell.key.seq = record.seq;
                        store.memstore.insert(cell);
                        any = true;
                    }
                }
            }
            if any {
                applied += 1;
            }
            max_seq = max_seq.max(record.seq);
        }
        drop(stores);
        self.read_point.fetch_max(max_seq, Ordering::Release);
        applied
    }

    /// Rebuild the store-file sets strictly from the manifest on disk: open
    /// every listed file (validating CRCs), restore flushed watermarks,
    /// sweep orphaned `.sst` files left by a flush or compaction that
    /// crashed before its manifest commit, and re-seed the WAL's flushed
    /// watermark (so segment archival stays correct) and its sequence floor
    /// (a region moved here and not yet written to is ahead of this log).
    pub fn reload_from_disk(&self) -> Result<()> {
        let rs = &self.storage;
        let manifest = read_manifest(rs)?;
        let mut stores = self.stores.write();
        let mut listed: HashSet<PathBuf> = HashSet::new();
        listed.insert(rs.manifest_path());
        let mut max_file_no = 0u64;
        let mut max_flushed = 0u64;
        for store in stores.values_mut() {
            store.files.clear();
            store.flushed_seq = 0;
        }
        for (family, flushed_seq, file_names) in manifest {
            let Some(store) = stores.get_mut(&family) else {
                continue;
            };
            store.flushed_seq = flushed_seq;
            max_flushed = max_flushed.max(flushed_seq);
            for name in file_names {
                let path = rs.dir.join(&name);
                listed.insert(path.clone());
                if let Some(no) = parse_sst_no(&name) {
                    max_file_no = max_file_no.max(no);
                }
                let file = StoreFile::open(&rs.env, &path)?;
                store.files.push(Arc::new(file));
            }
            store.files.sort_by_key(|f| f.max_seq);
        }
        let min_flushed = stores.values().map(|s| s.flushed_seq).min().unwrap_or(0);
        drop(stores);
        self.read_point.fetch_max(max_flushed, Ordering::Release);
        rs.next_file_no.store(max_file_no + 1, Ordering::Relaxed);

        // Orphan sweep: any .sst in the directory the manifest doesn't
        // reference was written by an uncommitted flush/compaction.
        if let Ok(entries) = std::fs::read_dir(&rs.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                let is_sst = path.extension().and_then(|e| e.to_str()) == Some("sst");
                if is_sst && !listed.contains(&path) && std::fs::remove_file(&path).is_ok() {
                    let m = rs.env.metrics();
                    m.add(&m.storefile_orphans_removed, 1);
                }
            }
        }

        let wal = self.wal.read();
        wal.advance_seq_past(max_flushed);
        if min_flushed > 0 {
            wal.truncate_up_to(self.info.region_id, min_flushed);
        }
        Ok(())
    }

    /// Remove this region's directory (a dropped table's regions, the
    /// parent after a split). The region must no longer be serving.
    pub fn remove_storage_dir(&self) {
        let _ = std::fs::remove_dir_all(&self.storage.dir);
    }
}

// ----------------------------------------------------------------------
// Storage helpers: manifest codec, tier selection, file cleanup
// ----------------------------------------------------------------------

/// Pick indices of at least `min_files` store files in the same size tier
/// (largest ≤ `ratio` × smallest). Prefers the tier of smallest files so
/// fresh flushes merge before old giants are touched.
fn select_tier(files: &[Arc<StoreFile>], min_files: usize, ratio: f64) -> Option<Vec<usize>> {
    if files.len() < min_files.max(2) {
        return None;
    }
    let mut order: Vec<usize> = (0..files.len()).collect();
    order.sort_by_key(|&i| files[i].byte_size());
    let sizes: Vec<f64> = order
        .iter()
        .map(|&i| files[i].byte_size().max(1) as f64)
        .collect();
    let min_files = min_files.max(2);
    for start in 0..=(order.len() - min_files) {
        let end = start + min_files;
        if sizes[end - 1] <= sizes[start] * ratio {
            // Greedily widen the window while the tier invariant holds.
            let mut wide = end;
            while wide < order.len() && sizes[wide] <= sizes[start] * ratio {
                wide += 1;
            }
            let mut pick: Vec<usize> = order[start..wide].to_vec();
            pick.sort_unstable();
            return Some(pick);
        }
    }
    None
}

/// Serialize and atomically commit the region manifest: for each family,
/// its flushed watermark and the store files that make up its current view.
/// The manifest commit *is* the durable completion point of a flush or
/// compaction — files not listed here do not exist as far as recovery is
/// concerned.
fn write_manifest(rs: &RegionStorage, stores: &HashMap<Bytes, Store>) -> Result<()> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(stores.len() as u32).to_le_bytes());
    let mut families: Vec<&Bytes> = stores.keys().collect();
    families.sort();
    for family in families {
        let store = &stores[family];
        payload.extend_from_slice(&(family.len() as u16).to_le_bytes());
        payload.extend_from_slice(family);
        payload.extend_from_slice(&store.flushed_seq.to_le_bytes());
        let names: Vec<String> = store
            .files
            .iter()
            .filter_map(|f| {
                f.disk_path()
                    .and_then(|p| p.file_name())
                    .and_then(|n| n.to_str())
                    .map(str::to_owned)
            })
            .collect();
        payload.extend_from_slice(&(names.len() as u32).to_le_bytes());
        for name in names {
            payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
        }
    }
    let mut framed = Vec::with_capacity(payload.len() + 4);
    framed.extend_from_slice(&storage::crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    rs.env
        .write_atomic(&rs.manifest_path(), FileOp::ManifestWrite, &framed)
}

type ManifestEntry = (Bytes, u64, Vec<String>);

/// Read and validate the manifest. A missing manifest is an empty region
/// (nothing was ever flushed); a CRC mismatch is corruption and fails.
fn read_manifest(rs: &RegionStorage) -> Result<Vec<ManifestEntry>> {
    let path = rs.manifest_path();
    if !path.exists() {
        return Ok(Vec::new());
    }
    let data = rs.env.read(&path)?;
    let mut r = Reader::new(&data);
    let crc = r.u32()?;
    if storage::crc32(&data[4..]) != crc {
        return Err(KvError::Corruption("manifest crc mismatch".into()));
    }
    let n_families = r.u32()? as usize;
    let mut out = Vec::with_capacity(n_families);
    for _ in 0..n_families {
        let family = r.bytes16()?;
        let flushed_seq = r.u64()?;
        let n_files = r.u32()? as usize;
        let mut names = Vec::with_capacity(n_files.min(1 << 16));
        for _ in 0..n_files {
            let name = r.bytes16()?;
            names.push(String::from_utf8_lossy(&name).into_owned());
        }
        out.push((family, flushed_seq, names));
    }
    Ok(out)
}

fn parse_sst_no(name: &str) -> Option<u64> {
    name.strip_prefix("sf-")?
        .strip_suffix(".sst")?
        .parse::<u64>()
        .ok()
}

/// Delete store files that a committed manifest no longer references.
/// Failures are ignored — an undeleted file is just an orphan for the next
/// recovery sweep.
fn remove_replaced_files(rs: &RegionStorage, replaced: &[Arc<StoreFile>]) {
    for file in replaced {
        if let Some(path) = file.disk_path() {
            let _ = rs.env.remove_file(path);
        }
    }
}

/// Drain `merge` into one new store file; `retain` as in [`rewrite`].
fn write_merged(merge: &mut Merge<'_>, retain: Option<u32>) -> Result<StoreFile> {
    let mut builder = StoreFileBuilder::default();
    rewrite(merge, retain, |cell| builder.push(cell));
    builder.finish()
}

/// A merge over every cell of `files`, reading them directly: compactions
/// and splits do not go through the block cache.
fn whole_files(files: &[Arc<StoreFile>]) -> Merge<'_> {
    let mut merge = Merge::new(b"");
    for file in files {
        merge.add_file(file, b"", None);
    }
    merge
}

/// Merge whole store files into one; `retain` as in [`rewrite`].
fn merge_files(files: &[Arc<StoreFile>], retain: Option<u32>) -> Result<StoreFile> {
    write_merged(&mut whole_files(files), retain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use crate::storage::temp_env;
    use crate::types::{FamilyDescriptor, Projection, RowResult, TimeRange};

    /// A region alone on a throwaway env: its own log, no server.
    fn bare_region(
        info: RegionInfo,
        descriptor: TableDescriptor,
        config: RegionConfig,
        clock: Clock,
    ) -> Region {
        let env = temp_env(1 << 20);
        let wal = Arc::new(Wal::open(Arc::clone(&env), env.wal_dir(0)).unwrap());
        Region::new(info, descriptor, config, wal, clock, env).unwrap()
    }

    fn test_region() -> Region {
        let td = TableDescriptor::new(TableName::default_ns("t"))
            .with_family(FamilyDescriptor::new("cf").with_max_versions(10))
            .with_family(FamilyDescriptor::new("cf2"));
        bare_region(
            RegionInfo {
                region_id: 1,
                table: td.name.clone(),
                start_key: Bytes::new(),
                end_key: Bytes::new(),
            },
            td,
            RegionConfig::default(),
            Clock::logical(1000),
        )
    }

    /// The rows of `scan` over `region`, decoded from its reply block.
    fn scan_rows(region: &Region, scan: &Scan) -> Result<(Vec<RowResult>, ScanStats)> {
        let (block, stats) = region.scan_with(scan, None)?;
        Ok((cellblock::decode(&block)?, stats))
    }

    /// The row of a point read, decoded: an absent one is empty.
    fn get_row(region: &Region, get: &Get) -> Result<(RowResult, ScanStats)> {
        let mut block = CellBlockEncoder::default();
        let stats = region.encode_get(get, None, &mut block)?;
        let row = cellblock::decode(&block.finish())?
            .pop()
            .unwrap_or_default();
        Ok((row, stats))
    }

    fn scan_all(region: &Region) -> Vec<RowResult> {
        scan_rows(region, &Scan::new()).unwrap().0
    }

    #[test]
    fn put_then_scan_roundtrip() {
        let r = test_region();
        r.put(&Put::new("row1").add("cf", "a", "v1")).unwrap();
        r.put(&Put::new("row2").add("cf", "a", "v2")).unwrap();
        let rows = scan_all(&r);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].value(b"cf", b"a").unwrap().as_ref(), b"v1");
        assert_eq!(rows[1].value(b"cf", b"a").unwrap().as_ref(), b"v2");
    }

    #[test]
    fn newest_version_wins() {
        let r = test_region();
        r.put(&Put::new("row").add_at("cf", "a", 10, "old"))
            .unwrap();
        r.put(&Put::new("row").add_at("cf", "a", 20, "new"))
            .unwrap();
        let rows = scan_all(&r);
        assert_eq!(rows[0].value(b"cf", b"a").unwrap().as_ref(), b"new");
        assert_eq!(rows[0].cells.len(), 1); // max_versions defaults to 1
    }

    #[test]
    fn max_versions_returns_multiple() {
        let r = test_region();
        for ts in [10u64, 20, 30] {
            r.put(&Put::new("row").add_at("cf", "a", ts, format!("v{ts}")))
                .unwrap();
        }
        let (rows, _) = scan_rows(&r, &Scan::new().with_max_versions(2)).unwrap();
        let versions = rows[0].versions(b"cf", b"a");
        assert_eq!(versions.len(), 2);
        assert_eq!(versions[0].value.as_ref(), b"v30");
        assert_eq!(versions[1].value.as_ref(), b"v20");
    }

    #[test]
    fn family_max_versions_caps_reads() {
        let r = test_region();
        // cf2 retains 3 versions by default.
        for ts in 1..=5u64 {
            r.put(&Put::new("row").add_at("cf2", "a", ts, format!("v{ts}")))
                .unwrap();
        }
        let (rows, _) = scan_rows(&r, &Scan::new().with_max_versions(100)).unwrap();
        assert_eq!(rows[0].versions(b"cf2", b"a").len(), 3);
    }

    #[test]
    fn delete_column_masks_older_versions() {
        let r = test_region();
        r.put(&Put::new("row").add_at("cf", "a", 10, "old"))
            .unwrap();
        r.delete(&Delete {
            row: Bytes::from_static(b"row"),
            scope: DeleteScope::Column {
                family: Bytes::from_static(b"cf"),
                qualifier: Bytes::from_static(b"a"),
            },
            timestamp: Some(15),
        })
        .unwrap();
        r.put(&Put::new("row").add_at("cf", "a", 20, "new"))
            .unwrap();
        let rows = scan_all(&r);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value(b"cf", b"a").unwrap().as_ref(), b"new");
        // The old version is masked even when asking for many versions.
        let (rows, _) = scan_rows(&r, &Scan::new().with_max_versions(10)).unwrap();
        assert_eq!(rows[0].versions(b"cf", b"a").len(), 1);
    }

    #[test]
    fn delete_row_removes_all_families() {
        let r = test_region();
        r.put(&Put::new("row").add("cf", "a", "1").add("cf2", "b", "2"))
            .unwrap();
        r.delete(&Delete::row("row")).unwrap();
        assert!(scan_all(&r).is_empty());
    }

    #[test]
    fn delete_exact_version_leaves_others() {
        let r = test_region();
        r.put(&Put::new("row").add_at("cf", "a", 10, "v10"))
            .unwrap();
        r.put(&Put::new("row").add_at("cf", "a", 20, "v20"))
            .unwrap();
        r.delete(&Delete {
            row: Bytes::from_static(b"row"),
            scope: DeleteScope::Version {
                family: Bytes::from_static(b"cf"),
                qualifier: Bytes::from_static(b"a"),
                timestamp: 20,
            },
            timestamp: None,
        })
        .unwrap();
        let rows = scan_all(&r);
        assert_eq!(rows[0].value(b"cf", b"a").unwrap().as_ref(), b"v10");
    }

    #[test]
    fn projection_prunes_columns() {
        let r = test_region();
        r.put(&Put::new("row").add("cf", "a", "1").add("cf", "b", "2"))
            .unwrap();
        let (rows, _) = scan_rows(
            &r,
            &Scan::new().with_projection(Projection::all().column("cf", "a")),
        )
        .unwrap();
        assert_eq!(rows[0].cells.len(), 1);
        assert_eq!(rows[0].value(b"cf", b"a").unwrap().as_ref(), b"1");
    }

    #[test]
    fn time_range_selects_versions() {
        let r = test_region();
        for ts in [10u64, 20, 30] {
            r.put(&Put::new("row").add_at("cf", "a", ts, format!("v{ts}")))
                .unwrap();
        }
        let (rows, _) = scan_rows(
            &r,
            &Scan::new()
                .with_time_range(TimeRange::new(0, 25))
                .with_max_versions(10),
        )
        .unwrap();
        let versions = rows[0].versions(b"cf", b"a");
        assert_eq!(versions.len(), 2);
        assert_eq!(versions[0].value.as_ref(), b"v20");
    }

    #[test]
    fn scan_respects_row_bounds_and_limit() {
        let r = test_region();
        for i in 0..10 {
            r.put(&Put::new(format!("row{i}")).add("cf", "a", "v"))
                .unwrap();
        }
        let (rows, _) = scan_rows(
            &r,
            &Scan::new().with_range(
                Bound::Included(Bytes::from_static(b"row3")),
                Bound::Excluded(Bytes::from_static(b"row7")),
            ),
        )
        .unwrap();
        assert_eq!(rows.len(), 4);
        let (rows, _) = scan_rows(&r, &Scan::new().with_limit(3)).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn filter_applies_server_side() {
        let r = test_region();
        for i in 0..10 {
            r.put(&Put::new(format!("row{i}")).add("cf", "a", format!("val{i}")))
                .unwrap();
        }
        let f = Filter::ColumnValue {
            family: Bytes::from_static(b"cf"),
            qualifier: Bytes::from_static(b"a"),
            op: crate::filter::CompareOp::Eq,
            value: Bytes::from_static(b"val5"),
            filter_if_missing: true,
        };
        let (rows, stats) = scan_rows(&r, &Scan::new().with_filter(f)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].row.as_ref(), b"row5");
        // Server scanned all cells but returned only one row.
        assert!(stats.cells_scanned >= 10);
        assert_eq!(stats.rows_returned, 1);
    }

    #[test]
    fn flush_preserves_data_and_truncates_wal() {
        let r = test_region();
        r.put(&Put::new("a").add("cf", "q", "1")).unwrap();
        r.put(&Put::new("b").add("cf", "q", "2")).unwrap();
        assert!(r.memstore_size() > 0);
        r.flush().unwrap();
        assert_eq!(r.memstore_size(), 0);
        assert_eq!(r.store_file_count(), 1);
        assert_eq!(scan_all(&r).len(), 2);
        assert_eq!(r.flush_count(), 1);
    }

    #[test]
    fn scan_merges_memstore_and_files() {
        let r = test_region();
        r.put(&Put::new("a").add("cf", "q", "file")).unwrap();
        r.flush().unwrap();
        r.put(&Put::new("b").add("cf", "q", "mem")).unwrap();
        let rows = scan_all(&r);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].value(b"cf", b"q").unwrap().as_ref(), b"file");
        assert_eq!(rows[1].value(b"cf", b"q").unwrap().as_ref(), b"mem");
    }

    #[test]
    fn update_across_flush_respects_newest() {
        let r = test_region();
        r.put(&Put::new("a").add_at("cf", "q", 10, "old")).unwrap();
        r.flush().unwrap();
        r.put(&Put::new("a").add_at("cf", "q", 20, "new")).unwrap();
        let rows = scan_all(&r);
        assert_eq!(rows[0].value(b"cf", b"q").unwrap().as_ref(), b"new");
    }

    #[test]
    fn compaction_merges_files_and_drops_tombstones() {
        let r = test_region();
        r.put(&Put::new("a").add_at("cf", "q", 10, "v")).unwrap();
        r.flush().unwrap();
        r.delete(&Delete::column("a", "cf", "q")).unwrap();
        r.flush().unwrap();
        assert_eq!(r.store_file_count(), 2);
        r.compact().unwrap();
        assert_eq!(r.store_file_count(), 1);
        assert!(scan_all(&r).is_empty());
        assert!(r.compaction_count() >= 1);
    }

    #[test]
    fn get_reads_single_row() {
        let r = test_region();
        r.put(&Put::new("k1").add("cf", "q", "v1")).unwrap();
        r.put(&Put::new("k2").add("cf", "q", "v2")).unwrap();
        let (row, _) = get_row(&r, &Get::new("k2")).unwrap();
        assert_eq!(row.value(b"cf", b"q").unwrap().as_ref(), b"v2");
        let (row, _) = get_row(&r, &Get::new("missing")).unwrap();
        assert!(row.is_empty());
    }

    #[test]
    fn auto_flush_on_threshold() {
        let td = TableDescriptor::new(TableName::default_ns("t"))
            .with_family(FamilyDescriptor::new("cf"));
        let r = bare_region(
            RegionInfo {
                region_id: 1,
                table: td.name.clone(),
                start_key: Bytes::new(),
                end_key: Bytes::new(),
            },
            td,
            RegionConfig {
                memstore_flush_size: 512,
                compact_at_file_count: 100,
                ..RegionConfig::default()
            },
            Clock::logical(0),
        );
        for i in 0..50 {
            r.put(&Put::new(format!("row{i:03}")).add("cf", "q", vec![0u8; 32]))
                .unwrap();
        }
        assert!(r.flush_count() > 0, "auto-flush should have triggered");
        assert_eq!(scan_all(&r).len(), 50);
    }

    #[test]
    fn region_boundaries_reject_foreign_rows() {
        let td = TableDescriptor::new(TableName::default_ns("t"))
            .with_family(FamilyDescriptor::new("cf"));
        let r = bare_region(
            RegionInfo {
                region_id: 1,
                table: td.name.clone(),
                start_key: Bytes::from_static(b"m"),
                end_key: Bytes::from_static(b"z"),
            },
            td,
            RegionConfig::default(),
            Clock::logical(0),
        );
        assert!(r.put(&Put::new("a").add("cf", "q", "v")).is_err());
        assert!(r.put(&Put::new("n").add("cf", "q", "v")).is_ok());
        assert!(r.put(&Put::new("z").add("cf", "q", "v")).is_err()); // end exclusive
    }

    #[test]
    fn unknown_family_rejected() {
        let r = test_region();
        let err = r.put(&Put::new("a").add("nope", "q", "v")).unwrap_err();
        assert!(matches!(err, KvError::NoSuchColumnFamily { .. }));
    }

    #[test]
    fn invalid_mutation_rejects_the_whole_batch() {
        let r = test_region();
        let puts = [
            Put::new("a").add("cf", "q", "v"),
            Put::new("b").add("nope", "q", "v"),
        ];
        let err = r.put_batch(&puts).unwrap_err();
        assert!(matches!(err, KvError::NoSuchColumnFamily { .. }));
        let deletes = [Delete::row("a"), Delete::column("b", "nope", "q")];
        assert!(r.delete_batch(&deletes).is_err());
        assert_eq!(r.wal().retained_bytes(), 0, "nothing logged");
        assert!(scan_all(&r).is_empty(), "nothing applied");
    }

    #[test]
    fn split_distributes_rows() {
        let r = test_region();
        for i in 0..10 {
            r.put(&Put::new(format!("row{i}")).add("cf", "q", "v"))
                .unwrap();
        }
        let split_key = r.split_point().expect("split point");
        let (rows, _) = scan_rows(&r, &Scan::new()).unwrap();
        assert_eq!(split_key, rows[rows.len() / 2].row, "the middle row");
        let (left, right) = r.split(split_key.clone(), 100, 101).unwrap();
        let left_rows = scan_rows(&left, &Scan::new()).unwrap().0;
        let right_rows = scan_rows(&right, &Scan::new()).unwrap().0;
        assert_eq!(left_rows.len() + right_rows.len(), 10);
        assert!(left_rows
            .iter()
            .all(|r| r.row.as_ref() < split_key.as_ref()));
        assert!(right_rows
            .iter()
            .all(|r| r.row.as_ref() >= split_key.as_ref()));
        assert_eq!(left.info.end_key, split_key);
        assert_eq!(right.info.start_key, split_key);
    }

    #[test]
    fn wal_recovery_restores_unflushed_writes() {
        let env = temp_env(1 << 20);
        let wal = Arc::new(Wal::open(Arc::clone(&env), env.wal_dir(0)).unwrap());
        let td = TableDescriptor::new(TableName::default_ns("t"))
            .with_family(FamilyDescriptor::new("cf"));
        let info = RegionInfo {
            region_id: 1,
            table: td.name.clone(),
            start_key: Bytes::new(),
            end_key: Bytes::new(),
        };
        let r = Region::new(
            info.clone(),
            td.clone(),
            RegionConfig::default(),
            Arc::clone(&wal),
            Clock::logical(0),
            Arc::clone(&env),
        )
        .unwrap();
        r.put(&Put::new("a").add("cf", "q", "flushed")).unwrap();
        r.flush().unwrap();
        r.put(&Put::new("b").add("cf", "q", "lost")).unwrap();
        // Simulate a crash: the memstore content is gone; the store file,
        // the manifest and the log survive in the region's directory.
        drop(r);
        let config = RegionConfig::default();
        let log = wal.read_records().unwrap();
        let recovered = Region::new(info, td, config, wal, Clock::logical(1000), env).unwrap();
        assert!(scan_all(&recovered).is_empty(), "a new region starts empty");
        recovered.reload_from_disk().unwrap();
        assert_eq!(recovered.recover_from_wal(log), 1);
        let rows: Vec<_> = scan_all(&recovered).into_iter().map(|r| r.row).collect();
        assert_eq!(rows, vec![Bytes::from("a"), Bytes::from("b")]);
    }

    /// A row whose cells straddle a block boundary reads the same from the
    /// file a flush built, from that file reopened from disk, and after a
    /// major compaction rewrote it.
    #[test]
    fn a_row_straddling_blocks_scans_the_same_after_disk_and_compaction() {
        let r = test_region();
        for i in 0..40 {
            r.put(&Put::new(format!("a{i:03}")).add("cf", "q", format!("v{i}")))
                .unwrap();
        }
        let wide = (0..50).fold(Put::new("b"), |put, i| {
            put.add("cf", format!("q{i:02}"), format!("w{i}"))
        });
        r.put(&wide).unwrap();
        for i in 0..30 {
            r.put(&Put::new(format!("c{i:03}")).add("cf", "q", "v"))
                .unwrap();
        }
        let expected = scan_all(&r);
        r.flush().unwrap();
        {
            let stores = r.stores.read();
            let file = &stores[&Bytes::from_static(b"cf")].files[0];
            let (first, second) = (file.block(0), file.block(1));
            assert_eq!(first.cell(first.len() - 1).row, b"b");
            assert_eq!(second.cell(0).row, b"b");
        }
        let reopened = || {
            let fresh = Region::new(
                r.info.clone(),
                r.descriptor.clone(),
                RegionConfig::default(),
                r.wal(),
                Clock::logical(0),
                Arc::clone(&r.storage.env),
            )
            .unwrap();
            fresh.reload_from_disk().unwrap();
            scan_all(&fresh)
        };
        assert_eq!(scan_all(&r), expected);
        assert_eq!(reopened(), expected);
        r.compact().unwrap();
        assert_eq!(scan_all(&r), expected);
        assert_eq!(reopened(), expected);
    }

    /// A scan holds the cells of the row it is assembling as views into
    /// blocks the file owns, so a cache with room for one block, which
    /// evicts the first half of a straddling row's block to admit the second
    /// half, changes nothing but the counts: the row reads the same.
    #[test]
    fn a_row_straddling_blocks_scans_the_same_through_a_one_block_cache() {
        let r = test_region();
        for i in 0..40 {
            r.put(&Put::new(format!("a{i:03}")).add("cf", "q", format!("v{i}")))
                .unwrap();
        }
        let wide = (0..50).fold(Put::new("b"), |put, i| {
            put.add("cf", format!("q{i:02}"), format!("w{i}"))
        });
        r.put(&wide).unwrap();
        for i in 0..30 {
            r.put(&Put::new(format!("c{i:03}")).add("cf", "q", "v"))
                .unwrap();
        }
        r.flush().unwrap();
        let one_block = {
            let stores = r.stores.read();
            let file = &stores[&Bytes::from_static(b"cf")].files[0];
            assert_eq!(file.num_blocks(), 2);
            assert_eq!(file.block(1).cell(0).row, b"b");
            file.block(0).byte_size().max(file.block(1).byte_size())
        };
        let b = || Bound::Included(Bytes::from_static(b"b"));
        for scan in [Scan::new(), Scan::new().with_range(b(), b())] {
            let (expected, _) = scan_rows(&r, &scan).unwrap();
            let metrics = crate::metrics::ClusterMetrics::new();
            let cache = BlockCache::new(one_block, Arc::clone(&metrics));
            let (block, stats) = r.scan_with(&scan, Some(&cache)).unwrap();
            let rows = cellblock::decode(&block).unwrap();
            assert_eq!(rows, expected);
            assert!(rows
                .iter()
                .any(|row| row.row == "b" && row.cells.len() == 50));
            assert_eq!((stats.blocks_read, stats.block_cache_hits), (2, 0));
            assert_eq!(metrics.snapshot().block_cache_evictions, 1);
            assert_eq!(cache.len(), 1);
        }
    }

    #[test]
    fn scan_stats_count_pruned_files() {
        let r = test_region();
        r.put(&Put::new("a").add_at("cf", "q", 10, "v")).unwrap();
        r.flush().unwrap();
        r.put(&Put::new("b").add_at("cf", "q", 1000, "v")).unwrap();
        r.flush().unwrap();
        // Time range that excludes the first file.
        let (_, stats) =
            scan_rows(&r, &Scan::new().with_time_range(TimeRange::new(500, 2000))).unwrap();
        assert!(stats.files_pruned >= 1);
    }

    #[test]
    fn mvcc_read_point_hides_in_flight_writes() {
        // Directly exercise assemble_rows with a cell above the read point.
        let mut memstore = MemStore::new();
        memstore.insert(Cell {
            key: CellKey {
                row: Bytes::from_static(b"r"),
                family: Bytes::from_static(b"cf"),
                qualifier: Bytes::from_static(b"q"),
                timestamp: 1,
                seq: 99,
                cell_type: CellType::Put,
            },
            value: Bytes::from_static(b"v"),
        });
        let mut merge = Merge::new(b"");
        merge.add_memstore(&memstore, &Bytes::new());
        let mut stats = ScanStats::default();
        let mut block = CellBlockEncoder::default();
        assemble_rows(
            &mut merge,
            &Scan::new(),
            50, // read point below the cell's seq
            &[],
            &mut stats,
            &mut block,
        );
        assert_eq!(block.rows(), 0);
        assert_eq!(stats.cells_scanned, 1);
    }

    #[test]
    fn scan_with_cache_hits_on_repeat() {
        let metrics = crate::metrics::ClusterMetrics::new();
        let cache = BlockCache::new(1 << 20, metrics);
        let r = test_region();
        for i in 0..200 {
            r.put(&Put::new(format!("row-{i:04}")).add("cf", "q", "v"))
                .unwrap();
        }
        r.flush().unwrap();
        let (block, cold) = r.scan_with(&Scan::new(), Some(&cache)).unwrap();
        assert_eq!(cellblock::decode(&block).unwrap().len(), 200);
        assert!(cold.blocks_read > 0, "cold scan reads blocks");
        assert_eq!(cold.block_cache_hits, 0);
        let (block, warm) = r.scan_with(&Scan::new(), Some(&cache)).unwrap();
        assert_eq!(cellblock::decode(&block).unwrap().len(), 200);
        assert_eq!(warm.blocks_read, 0, "warm scan is fully cached");
        assert_eq!(warm.block_cache_hits, cold.blocks_read);
    }

    #[test]
    fn scan_limit_reads_only_needed_blocks() {
        let r = test_region();
        // Several blocks worth of single-cell rows, all flushed.
        for i in 0..(crate::storefile::BLOCK_SIZE * 4) {
            r.put(&Put::new(format!("row-{i:05}")).add("cf", "q", "v"))
                .unwrap();
        }
        r.flush().unwrap();
        let (rows, stats) = scan_rows(&r, &Scan::new().with_limit(3)).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.blocks_read, 1, "limit 3 must not read every block");
    }

    #[test]
    fn bloom_short_circuit_reads_zero_blocks() {
        let r = test_region();
        for i in 0..100 {
            r.put(&Put::new(format!("row-{i:03}")).add("cf", "q", "v"))
                .unwrap();
        }
        // Flush so the memstore is empty and only store files remain.
        r.flush().unwrap();
        let (row, stats) = get_row(&r, &Get::new("definitely-absent")).unwrap();
        assert!(row.is_empty());
        assert_eq!(
            stats.blocks_read + stats.block_cache_hits,
            0,
            "bloom filter must steer the get away from every block"
        );
        assert!(stats.files_pruned >= 1);
        // A present row still reads blocks.
        let (row, stats) = get_row(&r, &Get::new("row-050")).unwrap();
        assert!(!row.is_empty());
        assert!(stats.blocks_read > 0);
    }

    #[test]
    fn only_accepted_rows_are_encoded() {
        let r = test_region();
        for i in 0..200 {
            r.put(
                &Put::new(format!("row-{i:04}"))
                    .add("cf", "q", format!("v{}", i % 10))
                    .add("cf", "q2", "w"),
            )
            .unwrap();
        }
        r.flush().unwrap();
        let (all, _) = scan_rows(&r, &Scan::new()).unwrap();
        assert_eq!(all.len(), 200);
        // What each scan must answer, narrowed by hand from the full scan:
        // one qualifier of the family, and a filter that rejects nine rows
        // in ten.
        let projection = Projection::all().column("cf", "q");
        let project = |row: &RowResult| RowResult {
            row: row.row.clone(),
            cells: row
                .cells
                .iter()
                .filter(|c| c.key.qualifier == "q")
                .cloned()
                .collect(),
        };
        let filter = Filter::ColumnValue {
            family: Bytes::from_static(b"cf"),
            qualifier: Bytes::from_static(b"q"),
            op: crate::filter::CompareOp::Eq,
            value: Bytes::from_static(b"v3"),
            filter_if_missing: true,
        };
        let accepted: Vec<RowResult> = all
            .iter()
            .filter(|row| row.value(b"cf", b"q").is_some_and(|v| v == "v3"))
            .cloned()
            .collect();
        for (scan, expected) in [
            (
                Scan::new().with_projection(projection.clone()),
                all.iter().map(project).collect::<Vec<_>>(),
            ),
            (Scan::new().with_filter(filter.clone()), accepted.clone()),
            (
                Scan::new().with_filter(filter).with_projection(projection),
                accepted.iter().map(project).collect(),
            ),
        ] {
            let (block, stats) = r.scan_with(&scan, None).unwrap();
            assert_eq!(cellblock::decode(&block).unwrap(), expected);
            assert_eq!(
                block,
                cellblock::encode(&expected),
                "the block holds the accepted rows and cells, nothing else"
            );
            assert_eq!(stats.bytes_returned, block.len() as u64);
            let cells: usize = expected.iter().map(|row| row.cells.len()).sum();
            assert_eq!(stats.cells_returned, cells as u64);
            // The merge still visited both cells of every row.
            assert_eq!(stats.cells_scanned, 400);
        }
    }

    #[test]
    fn region_info_overlap_logic() {
        let info = RegionInfo {
            region_id: 1,
            table: TableName::default_ns("t"),
            start_key: Bytes::from_static(b"f"),
            end_key: Bytes::from_static(b"m"),
        };
        assert!(info.overlaps(b"a", b"g"));
        assert!(info.overlaps(b"f", b"m"));
        assert!(info.overlaps(b"", b""));
        assert!(!info.overlaps(b"m", b"z"));
        assert!(!info.overlaps(b"a", b"f")); // stop exclusive == region start
        assert!(info.contains_row(b"f"));
        assert!(!info.contains_row(b"m"));
    }
}
