//! Region servers host regions and execute reads and writes against them.
//! Every public method is one "RPC": it validates security, bumps the
//! cluster metrics, and dispatches to the region.
//!
//! Scans are served HBase-style through server-side scanner state, one
//! batch of at most `n` rows per RPC:
//! [`open_scanner`](RegionServer::open_scanner) serves the first batch and,
//! when more rows may follow, registers a cursor for
//! [`next_batch`](RegionServer::next_batch) to advance. A lease on the
//! virtual clock reclaims cursors whose client went away. All store-file
//! reads go through the server's shared [`BlockCache`]. Every read RPC
//! answers with one [cell block](crate::cellblock).

use crate::block_cache::BlockCache;
use crate::cellblock::CellBlockEncoder;
use crate::clock::Clock;
use crate::error::{KvError, Result};
use crate::fault::{FaultInjector, RpcOp};
use crate::load::ServerLoad;
use crate::metrics::ClusterMetrics;
use crate::region::{Region, ScanStats};
use crate::security::{AuthToken, TokenService};
use crate::storage::StorageEnv;
use crate::types::{row_successor, Delete, Get, Put, Scan};
use crate::wal::{self, Wal};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default scanner lease: virtual milliseconds a scanner may sit idle
/// between batches before the server reclaims it.
pub const DEFAULT_SCANNER_LEASE_MS: u64 = 60_000;

/// Cursor state of one open server-side scanner. Each scanner sits behind
/// its own lock: a batch holds that lock while it scans, and the server-wide
/// map lock only to find the scanner or drop it — scanners on one server run
/// side by side.
struct ScannerState {
    region_id: u64,
    /// The scan to run for the next batch: the client's, with `start`
    /// moved past the last row returned and `limit` set per batch.
    scan: Scan,
    /// The client's row limit across all batches (0 = unlimited).
    limit: usize,
    /// Rows returned so far, to honor `limit` across batches.
    rows_returned: usize,
    /// Virtual-clock deadline; renewed by every successful batch.
    lease_expires_ms: u64,
}

/// One scan RPC's response (`open_scanner` or `next_batch`): the rows as a
/// [cell block](crate::cellblock), the work they cost, and whether the
/// scanner is still open (more data may remain).
#[derive(Clone, Debug)]
pub struct ScanBatch {
    pub block: Bytes,
    pub stats: ScanStats,
    pub more: bool,
}

/// One region server ("node") in the simulated cluster. It owns no thread:
/// every RPC, and every flush a write triggers, runs on the caller's.
pub struct RegionServer {
    pub server_id: u64,
    pub hostname: String,
    regions: RwLock<HashMap<u64, Arc<Region>>>,
    wal: Arc<Wal>,
    metrics: Arc<ClusterMetrics>,
    security: Option<Arc<TokenService>>,
    /// True between [`crash`](Self::crash) and [`restart`](Self::restart):
    /// every RPC is refused as if the process were gone.
    offline: AtomicBool,
    /// Optional fault injector consulted at every RPC entry.
    fault: RwLock<Option<Arc<FaultInjector>>>,
    /// Optional flight recorder; lease expirations and WAL replays are
    /// journaled when attached.
    events: RwLock<Option<Arc<shc_obs::EventJournal>>>,
    /// Shared LRU over store-file blocks of every hosted region.
    block_cache: Arc<BlockCache>,
    /// Open scanners by id.
    scanners: Mutex<HashMap<u64, Arc<Mutex<ScannerState>>>>,
    next_scanner_id: AtomicU64,
    scanner_lease_ms: AtomicU64,
    /// Virtual clock used for scanner leases (peeked, never advanced).
    clock: Clock,
    /// Bytes cut off the end of every read reply: how tests make the client
    /// receive a malformed cell block.
    #[cfg(test)]
    pub(crate) reply_cut: std::sync::atomic::AtomicUsize,
}

impl RegionServer {
    pub fn new(
        server_id: u64,
        hostname: impl Into<String>,
        metrics: Arc<ClusterMetrics>,
        security: Option<Arc<TokenService>>,
        clock: Clock,
        block_cache_bytes: usize,
        storage: Arc<StorageEnv>,
    ) -> Result<Self> {
        let block_cache = Arc::new(BlockCache::new(block_cache_bytes, Arc::clone(&metrics)));
        let wal = Wal::open(Arc::clone(&storage), storage.wal_dir(server_id))?;
        Ok(RegionServer {
            server_id,
            hostname: hostname.into(),
            regions: RwLock::new(HashMap::new()),
            wal: Arc::new(wal),
            metrics,
            security,
            offline: AtomicBool::new(false),
            fault: RwLock::new(None),
            events: RwLock::new(None),
            block_cache,
            scanners: Mutex::new(HashMap::new()),
            next_scanner_id: AtomicU64::new(1),
            scanner_lease_ms: AtomicU64::new(DEFAULT_SCANNER_LEASE_MS),
            clock,
            #[cfg(test)]
            reply_cut: Default::default(),
        })
    }

    pub fn block_cache(&self) -> &BlockCache {
        &self.block_cache
    }

    /// Open scanners right now (lease reclamation is lazy, so this may
    /// include scanners whose lease already lapsed).
    pub fn open_scanner_count(&self) -> usize {
        self.scanners.lock().len()
    }

    /// Shrink or grow the scanner lease (tests drive expiry through this).
    pub fn set_scanner_lease_ms(&self, ms: u64) {
        self.scanner_lease_ms.store(ms, Ordering::Relaxed);
    }

    /// Attach a fault injector; subsequent RPCs pass through it.
    pub fn attach_fault_injector(&self, injector: Arc<FaultInjector>) {
        *self.fault.write() = Some(injector);
    }

    /// Attach the cluster's flight recorder, forwarding it to this server's
    /// block cache as well. Journaled events carry the server's virtual
    /// clock (logical ms).
    pub fn attach_event_journal(&self, journal: Arc<shc_obs::EventJournal>) {
        self.block_cache
            .attach_events(Arc::clone(&journal), self.clock.clone());
        for region in self.regions.read().values() {
            region.attach_observability(Some(Arc::clone(&journal)));
        }
        *self.events.write() = Some(journal);
    }

    fn journal(&self, severity: shc_obs::Severity, category: &'static str, message: String) {
        if let Some(journal) = self.events.read().as_ref() {
            journal.record(severity, category, self.clock.peek_ms(), message);
        }
    }

    pub fn is_online(&self) -> bool {
        !self.offline.load(Ordering::Acquire)
    }

    /// Common RPC entry: reject if the process is down, then let the fault
    /// injector drop/delay/fail the request before it touches a region.
    fn rpc_entry(&self, op: RpcOp, region_id: u64) -> Result<()> {
        if self.offline.load(Ordering::Acquire) {
            return Err(KvError::ServerNotFound(self.server_id));
        }
        let injector = self.fault.read().clone();
        match injector {
            Some(injector) => injector.on_rpc(op, self.server_id, region_id),
            None => Ok(()),
        }
    }

    pub fn wal(&self) -> Arc<Wal> {
        Arc::clone(&self.wal)
    }

    /// Number of regions currently hosted (load-balancing input).
    pub fn region_count(&self) -> usize {
        self.regions.read().len()
    }

    pub fn region_ids(&self) -> Vec<u64> {
        self.regions.read().keys().copied().collect()
    }

    pub fn open_region(&self, region: Arc<Region>) {
        region.attach_observability(self.events.read().clone());
        self.regions.write().insert(region.info.region_id, region);
    }

    pub fn close_region(&self, region_id: u64) -> Option<Arc<Region>> {
        self.regions.write().remove(&region_id)
    }

    pub fn region(&self, region_id: u64) -> Result<Arc<Region>> {
        self.regions
            .read()
            .get(&region_id)
            .cloned()
            .ok_or(KvError::RegionNotServing(region_id))
    }

    fn authorize(&self, token: Option<&AuthToken>) -> Result<()> {
        match &self.security {
            Some(service) => service.validate(token),
            None => Ok(()),
        }
    }

    fn count_rpc(&self) {
        self.metrics.add(&self.metrics.rpc_count, 1);
    }

    // ------------------------------------------------------------------
    // RPC surface
    // ------------------------------------------------------------------

    /// Apply a batch of puts to one region in a single RPC.
    pub fn put(&self, region_id: u64, puts: &[Put], token: Option<&AuthToken>) -> Result<()> {
        self.authorize(token)?;
        self.count_rpc();
        self.rpc_entry(RpcOp::Put, region_id)?;
        let region = self.region(region_id)?;
        region.apply_batch(puts, &|id| self.region(id).ok())?;
        region.load_counters().record_writes(puts.len() as u64);
        let bytes: usize = puts.iter().map(Put::payload_bytes).sum();
        self.metrics.add(&self.metrics.bytes_written, bytes as u64);
        Ok(())
    }

    pub fn delete(
        &self,
        region_id: u64,
        deletes: &[Delete],
        token: Option<&AuthToken>,
    ) -> Result<()> {
        self.authorize(token)?;
        self.count_rpc();
        self.rpc_entry(RpcOp::Delete, region_id)?;
        let region = self.region(region_id)?;
        region.apply_batch(deletes, &|id| self.region(id).ok())?;
        region.load_counters().record_writes(deletes.len() as u64);
        Ok(())
    }

    /// Point read, answered as a cell block of one row (empty when the row
    /// is absent).
    pub fn get(&self, region_id: u64, get: &Get, token: Option<&AuthToken>) -> Result<Bytes> {
        self.serve_gets(RpcOp::Get, region_id, std::slice::from_ref(get), token)
    }

    /// Batched point reads — HBase `BulkGet`. One RPC serves many rows: a
    /// cell block with one row per get, in request order, an absent row
    /// empty.
    pub fn bulk_get(
        &self,
        region_id: u64,
        gets: &[Get],
        token: Option<&AuthToken>,
    ) -> Result<Bytes> {
        self.serve_gets(RpcOp::BulkGet, region_id, gets, token)
    }

    fn serve_gets(
        &self,
        op: RpcOp,
        region_id: u64,
        gets: &[Get],
        token: Option<&AuthToken>,
    ) -> Result<Bytes> {
        self.authorize(token)?;
        self.count_rpc();
        self.rpc_entry(op, region_id)?;
        let region = self.region(region_id)?;
        let mut block = CellBlockEncoder::default();
        let mut stats = ScanStats::default();
        for get in gets {
            stats.merge(&region.encode_get(get, Some(&self.block_cache), &mut block)?);
        }
        let block = self.reply(block, &mut stats);
        region.load_counters().record_reads(
            gets.len() as u64,
            stats.cells_scanned,
            stats.cells_returned,
        );
        self.record_scan_stats(&stats, gets.iter().any(|get| get.filter.is_some()));
        Ok(block)
    }

    /// Open a scanner for `scan` against one region and serve its first
    /// batch of at most `n` rows in the same RPC, like HBase's first
    /// `ScanRequest`. Only when the batch says `more` is a cursor
    /// registered, its lease on the virtual clock started, and its id
    /// returned for [`next_batch`](Self::next_batch). A range that fits in
    /// one batch returns no id, leaves no server state and needs no close.
    pub fn open_scanner(
        &self,
        region_id: u64,
        scan: &Scan,
        n: usize,
        token: Option<&AuthToken>,
    ) -> Result<(Option<u64>, ScanBatch)> {
        self.authorize(token)?;
        self.count_rpc();
        self.rpc_entry(RpcOp::Scan, region_id)?;
        let region = self.region(region_id)?;
        self.metrics.add(&self.metrics.scanner_opens, 1);
        let mut state = ScannerState {
            region_id,
            scan: scan.clone(),
            limit: scan.limit,
            rows_returned: 0,
            lease_expires_ms: 0,
        };
        let batch = self.serve_batch(&mut state, &region, n)?;
        let id = batch.more.then(|| {
            let id = self.next_scanner_id.fetch_add(1, Ordering::Relaxed);
            self.scanners.lock().insert(id, Arc::new(Mutex::new(state)));
            id
        });
        Ok((id, batch))
    }

    /// Serve the next batch of an open scanner: at most `n` rows from the
    /// cursor position. A successful batch renews the lease; a scanner that
    /// lapses between calls is discarded and the call fails with the
    /// transient [`KvError::ScannerExpired`].
    pub fn next_batch(
        &self,
        scanner_id: u64,
        n: usize,
        token: Option<&AuthToken>,
    ) -> Result<ScanBatch> {
        self.authorize(token)?;
        self.count_rpc();
        let scanner = self
            .scanners
            .lock()
            .get(&scanner_id)
            .cloned()
            .ok_or(KvError::UnknownScanner(scanner_id))?;
        let drop_scanner = || self.scanners.lock().remove(&scanner_id);
        let mut state = scanner.lock();
        let region_id = state.region_id;
        // Injected faults fire before the cursor moves: a failed RPC never
        // advances the scan's start, so the client's resume is
        // duplicate-free. They also fire before the lease check — faults
        // model the network, and a delayed request can arrive to find its
        // lease lapsed.
        self.rpc_entry(RpcOp::Scan, region_id)?;
        if self.clock.peek_ms() > state.lease_expires_ms {
            drop_scanner();
            self.metrics.add(&self.metrics.scanner_lease_expirations, 1);
            self.journal(
                shc_obs::Severity::Warn,
                "scanner",
                format!(
                    "scanner {scanner_id} lease expired on server {} region {region_id}",
                    self.server_id
                ),
            );
            return Err(KvError::ScannerExpired(scanner_id));
        }
        let region = match self.region(region_id) {
            Ok(r) => r,
            Err(e) => {
                // The region moved away; the cursor is useless state.
                drop_scanner();
                return Err(e);
            }
        };
        let batch = self.serve_batch(&mut state, &region, n)?;
        if !batch.more {
            drop_scanner();
        }
        Ok(batch)
    }

    /// The batch body both scan RPCs share: scan at most `n` rows on demand
    /// from the cursor — the server never materializes more than one batch
    /// — record the work, and, when more rows may follow, move the cursor
    /// past the last row returned and (re)start the lease.
    fn serve_batch(
        &self,
        state: &mut ScannerState,
        region: &Region,
        n: usize,
    ) -> Result<ScanBatch> {
        let n = n.max(1);
        let batch_limit = if state.limit > 0 {
            // A cursor is kept only while `more`, so rows remain under the limit.
            (state.limit - state.rows_returned).min(n)
        } else {
            n
        };
        state.scan.limit = batch_limit;
        let mut block = CellBlockEncoder::default();
        let mut stats = region.encode_scan(&state.scan, Some(&self.block_cache), &mut block)?;
        state.rows_returned += block.rows();
        let exhausted_limit = state.limit > 0 && state.rows_returned >= state.limit;
        // A full batch may have more behind it; a short one hit the end of
        // the region's range.
        let more = block.rows() == batch_limit && !exhausted_limit;
        if more {
            state.scan.start = Bound::Included(row_successor(block.last_row()));
            state.lease_expires_ms =
                self.clock.peek_ms() + self.scanner_lease_ms.load(Ordering::Relaxed);
        }
        let block = self.reply(block, &mut stats);
        region
            .load_counters()
            .record_reads(1, stats.cells_scanned, stats.cells_returned);
        self.record_scan_stats(&stats, state.scan.filter.is_some());
        self.metrics.add(&self.metrics.scanner_batches, 1);
        self.metrics
            .scan_batch_peak_bytes
            .fetch_max(stats.bytes_returned, Ordering::Relaxed);
        Ok(ScanBatch { block, stats, more })
    }

    /// Finish a read RPC's reply: the cell block, whose length is the bytes
    /// the RPC returns.
    fn reply(&self, block: CellBlockEncoder, stats: &mut ScanStats) -> Bytes {
        let block = block.finish();
        #[cfg(test)]
        let block = block.slice(
            ..block
                .len()
                .saturating_sub(self.reply_cut.load(Ordering::Relaxed)),
        );
        stats.bytes_returned = block.len() as u64;
        block
    }

    /// Release a scanner's server-side state. Idempotent: closing an unknown
    /// or already-expired scanner is not an error (the lease may have beaten
    /// the client to it).
    pub fn close_scanner(&self, scanner_id: u64, token: Option<&AuthToken>) -> Result<()> {
        self.authorize(token)?;
        self.count_rpc();
        self.scanners.lock().remove(&scanner_id);
        Ok(())
    }

    fn record_scan_stats(&self, stats: &ScanStats, filtered: bool) {
        self.metrics
            .add(&self.metrics.cells_scanned, stats.cells_scanned);
        self.metrics
            .add(&self.metrics.cells_returned, stats.cells_returned);
        self.metrics
            .add(&self.metrics.bytes_returned, stats.bytes_returned);
        self.metrics
            .add(&self.metrics.files_pruned, stats.files_pruned);
        if filtered {
            self.metrics.add(&self.metrics.filtered_scans, 1);
        }
    }

    /// Freeze this server's current load into the heartbeat payload the
    /// master aggregates: every hosted region's [`RegionLoad`]
    /// (sorted by region id), the block-cache tallies, and the open
    /// scanner-lease count.
    ///
    /// [`RegionLoad`]: crate::load::RegionLoad
    pub fn server_load(&self) -> ServerLoad {
        let mut regions: Vec<_> = self
            .regions
            .read()
            .values()
            .map(|region| region.load())
            .collect();
        regions.sort_by_key(|r| r.region_id);
        ServerLoad {
            server_id: self.server_id,
            hostname: self.hostname.clone(),
            regions,
            block_cache_hits: self.block_cache.hit_count(),
            block_cache_misses: self.block_cache.miss_count(),
            open_scanners: self.open_scanner_count() as u64,
        }
    }

    /// Flush every hosted region (administrative operation).
    pub fn flush_all(&self) -> Result<()> {
        for region in self.regions.read().values() {
            region.flush()?;
        }
        Ok(())
    }

    /// Total compaction backlog across this server's regions:
    /// `(pending_bytes, pending_files)` that a full compaction pass would
    /// have to rewrite (see [`Region::compaction_backlog`]).
    pub fn compaction_backlog(&self) -> (u64, u64) {
        let mut bytes = 0u64;
        let mut files = 0u64;
        for region in self.regions.read().values() {
            let (b, f) = region.compaction_backlog();
            bytes += b;
            files += f;
        }
        (bytes, files)
    }

    /// Simulate a crash: the process drops off the network, the WAL refuses
    /// appends, and every unflushed memstore is lost. Only un-fsynced state
    /// is gone — flushed store files, the manifests and every fsynced WAL
    /// record survive on disk for [`restart`](Self::restart) to recover.
    pub fn crash(&self) {
        self.offline.store(true, Ordering::Release);
        self.wal.close();
        // Open scanners die with the process; clients reopen elsewhere.
        self.scanners.lock().clear();
        for region in self.regions.read().values() {
            region.lose_memstores();
        }
    }

    /// Restart after a crash: reopen the WAL, reload every region from its
    /// manifest, replay the WAL tail into the memstores, release the log
    /// records of regions no longer hosted here, and come back online. A
    /// failed recovery is journaled and leaves the server offline;
    /// [`try_restart`](Self::try_restart) returns the error.
    pub fn restart(&self) {
        if let Err(e) = self.try_restart() {
            self.journal(
                shc_obs::Severity::Error,
                "wal",
                format!("server {} failed to restart: {e}", self.server_id),
            );
        }
    }

    /// Fallible restart. Returns the number of WAL records replayed. The log
    /// is parsed and split by region once; every region takes its own
    /// records.
    pub fn try_restart(&self) -> Result<u64> {
        let mut log = wal::split_by_region(self.wal.reopen()?);
        let mut regions_recovered = 0u64;
        let mut records = 0u64;
        let regions = self.regions.read();
        for (region_id, region) in regions.iter() {
            region.reload_from_disk()?;
            let own = log.remove(region_id).unwrap_or_default();
            records += region.recover_from_wal(own) as u64;
            self.metrics.add(&self.metrics.wal_replays, 1);
            regions_recovered += 1;
        }
        // The reopened log also holds what regions that failed over or moved
        // away wrote here. They left flushed and log at their new hosts.
        self.wal
            .release_regions_not_in(&regions.keys().copied().collect());
        drop(regions);
        self.metrics
            .add(&self.metrics.wal_replayed_records, records);
        self.offline.store(false, Ordering::Release);
        self.journal(
            shc_obs::Severity::Info,
            "wal",
            format!(
                "server {} restarted; replayed {records} WAL record(s) into \
                 {regions_recovered} region(s)",
                self.server_id
            ),
        );
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cellblock;
    use crate::clock::Clock;
    use crate::region::{RegionConfig, RegionInfo};
    use crate::storage::temp_env;
    use crate::types::{FamilyDescriptor, RowResult, TableDescriptor, TableName};

    impl ScanBatch {
        fn rows(&self) -> Vec<RowResult> {
            cellblock::decode(&self.block).unwrap()
        }
    }

    impl RegionServer {
        /// Every row of `scan` over one region, drained the way clients
        /// scan: `open_scanner` serves the first batch, then `next_batch`
        /// while the server reports `more`.
        pub(crate) fn scan_all(&self, region_id: u64, scan: &Scan) -> Vec<RowResult> {
            let (scanner, mut batch) = self.open_scanner(region_id, scan, 1024, None).unwrap();
            let mut rows = Vec::new();
            loop {
                rows.extend(batch.rows());
                if !batch.more {
                    return rows;
                }
                let id = scanner.expect("an open that says `more` returns an id");
                batch = self.next_batch(id, 1024, None).unwrap();
            }
        }
    }

    fn server_with_region() -> (RegionServer, u64) {
        let env = temp_env(1 << 20);
        let metrics = Arc::clone(env.metrics());
        let clock = Clock::logical(0);
        let server =
            RegionServer::new(1, "host-1", metrics, None, clock, 1 << 20, Arc::clone(&env))
                .unwrap();
        let td = TableDescriptor::new(TableName::default_ns("t"))
            .with_family(FamilyDescriptor::new("cf"));
        let region = Region::new(
            RegionInfo {
                region_id: 10,
                table: td.name.clone(),
                start_key: Bytes::new(),
                end_key: Bytes::new(),
            },
            td,
            RegionConfig::default(),
            server.wal(),
            Clock::logical(0),
            env,
        );
        server.open_region(Arc::new(region.unwrap()));
        (server, 10)
    }

    #[test]
    fn put_get_scan_via_rpc() {
        let (server, rid) = server_with_region();
        server
            .put(rid, &[Put::new("a").add("cf", "q", "v")], None)
            .unwrap();
        let block = server.get(rid, &Get::new("a"), None).unwrap();
        let row = &cellblock::decode(&block).unwrap()[0];
        assert_eq!(row.value(b"cf", b"q").unwrap().as_ref(), b"v");
        let rows = server.scan_all(rid, &Scan::new());
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn bulk_get_is_one_rpc() {
        let (server, rid) = server_with_region();
        server
            .put(
                rid,
                &[
                    Put::new("a").add("cf", "q", "1"),
                    Put::new("b").add("cf", "q", "2"),
                ],
                None,
            )
            .unwrap();
        let metrics_before = {
            let m = server.metrics.snapshot();
            m.rpc_count
        };
        let block = server
            .bulk_get(rid, &[Get::new("b"), Get::new("c"), Get::new("a")], None)
            .unwrap();
        // One row per get in request order; the absent row is empty.
        let rows = cellblock::decode(&block).unwrap();
        let keys: Vec<&[u8]> = rows.iter().map(|r| r.row.as_ref()).collect();
        assert_eq!(keys, [&b"b"[..], b"", b"a"]);
        assert!(rows[1].is_empty());
        assert_eq!(server.metrics.snapshot().rpc_count, metrics_before + 1);
    }

    #[test]
    fn unknown_region_errors() {
        let (server, _) = server_with_region();
        assert_eq!(
            server.get(999, &Get::new("a"), None).unwrap_err(),
            KvError::RegionNotServing(999)
        );
    }

    #[test]
    fn bytes_returned_are_the_reply_blocks() {
        let (server, rid) = server_with_region();
        for i in 0..5 {
            server
                .put(rid, &[Put::new(format!("r{i}")).add("cf", "q", "v")], None)
                .unwrap();
        }
        let (sid, mut batch) = server.open_scanner(rid, &Scan::new(), 2, None).unwrap();
        let mut scanned = Vec::new();
        loop {
            assert_eq!(batch.stats.bytes_returned, batch.block.len() as u64);
            scanned.push(batch.block.len() as u64);
            if !batch.more {
                break;
            }
            batch = server.next_batch(sid.unwrap(), 2, None).unwrap();
        }
        let got = server.get(rid, &Get::new("r1"), None).unwrap();
        let snap = server.metrics.snapshot();
        assert_eq!(
            snap.bytes_returned,
            scanned.iter().sum::<u64>() + got.len() as u64
        );
        assert_eq!(snap.scan_batch_peak_bytes, *scanned.iter().max().unwrap());
        assert!(snap.cells_scanned > 5, "the scan and the get read cells");
        assert!(snap.bytes_written > 0);
    }

    #[test]
    fn secure_server_requires_token() {
        let env = temp_env(1 << 20);
        let metrics = Arc::clone(env.metrics());
        let clock = Clock::logical(0);
        let service = Arc::new(TokenService::new("c1", clock.clone(), 1_000_000));
        service.register_principal("p", "k");
        let server = RegionServer::new(
            1,
            "host-1",
            metrics,
            Some(Arc::clone(&service)),
            clock.clone(),
            1 << 20,
            Arc::clone(&env),
        )
        .unwrap();
        let td = TableDescriptor::new(TableName::default_ns("t"))
            .with_family(FamilyDescriptor::new("cf"));
        let region = Region::new(
            RegionInfo {
                region_id: 1,
                table: td.name.clone(),
                start_key: Bytes::new(),
                end_key: Bytes::new(),
            },
            td,
            RegionConfig::default(),
            server.wal(),
            clock,
            env,
        );
        server.open_region(Arc::new(region.unwrap()));

        assert!(matches!(
            server.get(1, &Get::new("a"), None),
            Err(KvError::AccessDenied(_))
        ));
        let token = service.obtain_token("p", "k").unwrap();
        assert!(server.get(1, &Get::new("a"), Some(&token)).is_ok());
    }

    #[test]
    fn crash_blocks_writes_until_restart() {
        let (server, rid) = server_with_region();
        server.crash();
        assert!(server
            .put(rid, &[Put::new("a").add("cf", "q", "v")], None)
            .is_err());
        server.restart();
        assert!(server
            .put(rid, &[Put::new("a").add("cf", "q", "v")], None)
            .is_ok());
    }

    #[test]
    fn scanner_streams_in_bounded_batches() {
        let (server, rid) = server_with_region();
        for i in 0..10 {
            server
                .put(rid, &[Put::new(format!("r{i}")).add("cf", "q", "v")], None)
                .unwrap();
        }
        let (sid, mut batch) = server.open_scanner(rid, &Scan::new(), 3, None).unwrap();
        // The open served the first batch and left a leased cursor behind.
        let sid = sid.expect("more rows follow: a cursor is open");
        assert_eq!(batch.rows().len(), 3);
        assert!(batch.more);
        assert_eq!(server.open_scanner_count(), 1);
        let mut rows = Vec::new();
        let mut batches = 1;
        loop {
            assert!(batch.rows().len() <= 3, "batch must respect the cap");
            rows.extend(batch.rows());
            if !batch.more {
                break;
            }
            batch = server.next_batch(sid, 3, None).unwrap();
            batches += 1;
        }
        assert_eq!(rows.len(), 10);
        assert_eq!(batches, 4); // 3 + 3 + 3 + 1, the first from the open
        assert_eq!(server.metrics.snapshot().scanner_batches, 4);
        // Exhaustion auto-closed the scanner.
        assert_eq!(server.open_scanner_count(), 0);
        assert_eq!(
            server.next_batch(sid, 3, None).unwrap_err(),
            KvError::UnknownScanner(sid)
        );
        // Batches equal the region's own unchunked scan (no scanner
        // involved), duplicate-free.
        let region = server.region(rid).unwrap();
        let (block, _) = region.scan_with(&Scan::new(), None).unwrap();
        assert_eq!(rows, cellblock::decode(&block).unwrap());
    }

    #[test]
    fn scanner_honors_scan_limit_across_batches() {
        let (server, rid) = server_with_region();
        for i in 0..10 {
            server
                .put(rid, &[Put::new(format!("r{i}")).add("cf", "q", "v")], None)
                .unwrap();
        }
        let (sid, mut batch) = server
            .open_scanner(rid, &Scan::new().with_limit(5), 2, None)
            .unwrap();
        let sid = sid.expect("more rows follow: a cursor is open");
        let mut rows = Vec::new();
        loop {
            rows.extend(batch.rows());
            if !batch.more {
                break;
            }
            batch = server.next_batch(sid, 2, None).unwrap();
        }
        assert_eq!(rows.len(), 5);
        assert_eq!(server.open_scanner_count(), 0);
        // A limit the first batch already meets ends the scan at the open.
        let (sid, batch) = server
            .open_scanner(rid, &Scan::new().with_limit(2), 3, None)
            .unwrap();
        assert_eq!((sid, batch.rows().len(), batch.more), (None, 2, false));
        assert_eq!(server.open_scanner_count(), 0);
    }

    #[test]
    fn a_one_batch_scan_leaves_no_scanner() {
        let (server, rid) = server_with_region();
        let puts: Vec<Put> = (0..3)
            .map(|i| Put::new(format!("r{i}")).add("cf", "q", "v"))
            .collect();
        server.put(rid, &puts, None).unwrap();
        let before = server.metrics.snapshot();
        let (sid, batch) = server.open_scanner(rid, &Scan::new(), 10, None).unwrap();
        assert_eq!((sid, batch.rows().len(), batch.more), (None, 3, false));
        // An empty range is one RPC too, and says so.
        let empty =
            Scan::new().with_range(Bound::Included(Bytes::from_static(b"x")), Bound::Unbounded);
        let (sid, nothing) = server.open_scanner(rid, &empty, 10, None).unwrap();
        assert_eq!((sid, nothing.rows().len(), nothing.more), (None, 0, false));
        let delta = server.metrics.snapshot().delta_since(&before);
        assert_eq!((delta.rpc_count, delta.scanner_opens), (2, 2));
        assert_eq!(server.open_scanner_count(), 0, "nothing to close");
    }

    #[test]
    fn scanner_lease_expires_on_virtual_clock() {
        let (server, rid) = server_with_region();
        for i in 0..10 {
            server
                .put(rid, &[Put::new(format!("r{i}")).add("cf", "q", "v")], None)
                .unwrap();
        }
        server.set_scanner_lease_ms(5);
        let (sid, _) = server.open_scanner(rid, &Scan::new(), 3, None).unwrap();
        let sid = sid.expect("more rows follow: the open started the lease");
        // Burn virtual time past the lease (each tick is one clock read).
        for _ in 0..20 {
            let _ = server.clock.now_ms();
        }
        assert_eq!(
            server.next_batch(sid, 3, None).unwrap_err(),
            KvError::ScannerExpired(sid)
        );
        assert!(KvError::ScannerExpired(sid).is_transient());
        assert_eq!(server.metrics.snapshot().scanner_lease_expirations, 1);
        assert_eq!(server.open_scanner_count(), 0);
    }

    #[test]
    fn crash_discards_open_scanners() {
        let (server, rid) = server_with_region();
        let puts = [
            Put::new("a").add("cf", "q", "v"),
            Put::new("b").add("cf", "q", "v"),
        ];
        server.put(rid, &puts, None).unwrap();
        let (sid, _) = server.open_scanner(rid, &Scan::new(), 1, None).unwrap();
        let sid = sid.expect("more rows follow: a cursor is open");
        assert_eq!(server.open_scanner_count(), 1);
        server.crash();
        server.restart();
        assert_eq!(
            server.next_batch(sid, 3, None).unwrap_err(),
            KvError::UnknownScanner(sid)
        );
    }

    #[test]
    fn a_scanner_mid_batch_does_not_block_other_scanners() {
        let (server, rid) = server_with_region();
        let puts: Vec<Put> = (0..6)
            .map(|i| Put::new(format!("row{i}")).add("cf", "q", "v"))
            .collect();
        server.put(rid, &puts, None).unwrap();
        let open = || {
            let (id, _) = server.open_scanner(rid, &Scan::new(), 1, None).unwrap();
            id.expect("more rows follow: a cursor is open")
        };
        let (first, second) = (open(), open());
        // Hold the first scanner's state exactly as its in-flight batch
        // would; the second scanner must still be served.
        let held = Arc::clone(&server.scanners.lock()[&first]);
        let in_flight = held.lock();
        let batch = server.next_batch(second, 4, None).unwrap();
        assert_eq!(batch.rows().len(), 4);
        assert_eq!(batch.rows()[0].row.as_ref(), b"row1");
        assert!(batch.more);
        assert_eq!(server.open_scanner_count(), 2);
        drop(in_flight);
        // And the first resumes where its open left it, one batch after
        // another.
        assert_eq!(server.next_batch(first, 3, None).unwrap().rows().len(), 3);
        let rest = server.next_batch(first, 3, None).unwrap();
        assert_eq!(rest.rows().len(), 2);
        assert_eq!(rest.rows()[0].row.as_ref(), b"row4");
        assert!(!rest.more);
        assert_eq!(server.open_scanner_count(), 1);
    }

    #[test]
    fn server_load_reflects_request_counts() {
        let (server, rid) = server_with_region();
        server
            .put(
                rid,
                &[
                    Put::new("a").add("cf", "q", "1"),
                    Put::new("b").add("cf", "q", "2"),
                ],
                None,
            )
            .unwrap();
        server.get(rid, &Get::new("a"), None).unwrap();
        server
            .bulk_get(rid, &[Get::new("a"), Get::new("b")], None)
            .unwrap();
        server.scan_all(rid, &Scan::new());
        let load = server.server_load();
        assert_eq!(load.server_id, 1);
        assert_eq!(load.hostname, "host-1");
        assert_eq!(load.regions.len(), 1);
        let r = &load.regions[0];
        assert_eq!(r.region_id, rid);
        assert_eq!(r.table, "default:t");
        // put batch = 2 writes; get + 2-row bulk_get + scan = 4 reads.
        assert_eq!(r.write_requests, 2);
        assert_eq!(r.read_requests, 4);
        assert!(r.cells_scanned >= r.cells_returned);
        assert!(r.cells_returned >= 4);
        assert!(r.memstore_bytes > 0);
        assert_eq!(load.requests(), 6);
    }

    #[test]
    fn open_close_region_lifecycle() {
        let (server, rid) = server_with_region();
        assert_eq!(server.region_count(), 1);
        let region = server.close_region(rid).unwrap();
        assert_eq!(server.region_count(), 0);
        server.open_region(region);
        assert_eq!(server.region_ids(), vec![rid]);
    }
}
