//! Client library: heavy-weight connections, table handles, and the
//! region-routed read/write operations. The connection setup cost and the
//! per-RPC network charges modelled here are exactly what SHC's connection
//! cache and operator fusion optimize away. A region scan pays one charge
//! per batch: the RPC that opens the scanner carries the first one. A read
//! is charged for its reply's [cell block](crate::cellblock), which the
//! client validates; a scanner hands on the block itself. Every RPC runs on
//! the caller's thread, the region scanner's included; only a multi-region
//! put batch fans out, one scoped thread per region.

use crate::cellblock;
use crate::cluster::HBaseCluster;
use crate::error::{KvError, Result};
use crate::master::RegionLocation;
use crate::metrics::ClusterMetrics;
use crate::region::ScanStats;
use crate::region_server::RegionServer;
use crate::security::AuthToken;
use crate::types::{row_successor, Delete, Get, Put, RowResult, Scan, TableName};
use bytes::Bytes;
use parking_lot::Mutex;
use shc_obs::trace;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Pay one modeled RPC charge and record it into observability: the cost is
/// sampled into the cluster's RPC-latency histogram and advances the active
/// query trace's deterministic clock (no wall-clock reads — the recorded
/// latency *is* the modeled cost).
fn charge_rpc(cluster: &HBaseCluster, cost: Duration) {
    let us = cost.as_micros() as u64;
    // The active query's TraceId (if any) becomes the sample's bucket
    // exemplar, so a tail quantile links back to one exportable trace.
    cluster
        .metrics
        .rpc_latency_us
        .record_with_exemplar(us, trace::current_trace_id().unwrap_or(0));
    trace::advance_us(us);
    cluster.network().charge(cost);
}

/// [`charge_rpc`] for an RPC that moved `bytes`, from a co-located client
/// when `local`.
fn charge_transfer(cluster: &HBaseCluster, bytes: usize, local: bool) {
    charge_rpc(
        cluster,
        cluster.network().transfer_cost(bytes as u64, local),
    );
}

/// An `rpc` trace span for `op` against the region at `loc`.
fn rpc_span(op: &str, loc: &RegionLocation) -> trace::SpanGuard {
    let mut sp = trace::span("rpc");
    sp.annotate("op", op);
    sp.annotate("region", loc.info.region_id);
    sp.annotate("server", &loc.hostname);
    sp
}

/// Back off before a retry: record the wait into the backoff histogram and
/// the trace (as a `backoff` span whose duration is the modeled wait), then
/// actually sleep it.
fn backoff_pause(metrics: &ClusterMetrics, wait: Duration, op: &str, attempt: u32) {
    let us = wait.as_micros() as u64;
    metrics.retry_backoff_us.record(us);
    let mut sp = trace::span("backoff");
    sp.annotate("op", op);
    sp.annotate("attempt", attempt);
    trace::advance_us(us);
    std::thread::sleep(wait);
}

static NEXT_CONNECTION_ID: AtomicU64 = AtomicU64::new(1);

/// Attempts an operation gets, the first included: a transient failure is
/// retried until this many attempts in a row have failed.
pub const MAX_ATTEMPTS: u32 = 4;
const INITIAL_BACKOFF: Duration = Duration::from_micros(500);
const MAX_BACKOFF: Duration = Duration::from_millis(20);
/// Seeds the jitter stream, so backoff schedules repeat from run to run.
const JITTER_SEED: u64 = 0x5eed_0f2e_7261;

/// Backoff before the retry that follows failure number `failures`
/// (1-based): doubling from `INITIAL_BACKOFF` up to `MAX_BACKOFF`, with
/// ±25% deterministic jitter salted by `salt`.
fn backoff(failures: u32, salt: u64) -> Duration {
    let base = INITIAL_BACKOFF
        .saturating_mul(2u32.saturating_pow(failures - 1))
        .min(MAX_BACKOFF);
    let x = splitmix64(JITTER_SEED ^ salt.rotate_left(17) ^ failures as u64);
    // Map to [0.75, 1.25).
    let factor = 0.75 + (x >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
    base.mul_f64(factor)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn op_salt(op: &str) -> u64 {
    // FNV-1a, good enough to decorrelate per-op jitter streams.
    op.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1_0000_0000_01b3)
    })
}

/// The client's one recovery rule, which every operation on a table runs
/// under. A permanent error passes through. A transient one (stale
/// location, dropped RPC, crashed server, lapsed scanner lease) drops the
/// table's cached locations and backs off for the caller to try again,
/// until [`MAX_ATTEMPTS`] attempts in a row have failed; the last error then
/// comes back as [`KvError::RetriesExhausted`]. Progress resets the count.
struct Recovery {
    op: &'static str,
    salt: u64,
    failures: u32,
}

impl Recovery {
    fn new(op: &'static str, salt: u64) -> Self {
        Recovery {
            op,
            salt,
            failures: 0,
        }
    }

    /// `Ok` when the failed attempt on `table` may be retried, after the
    /// backoff.
    fn retry(&mut self, table: &Table, err: KvError) -> Result<()> {
        if !err.is_transient() {
            return Err(err);
        }
        self.failures += 1;
        if self.failures >= MAX_ATTEMPTS {
            return Err(KvError::RetriesExhausted {
                op: self.op.to_string(),
                attempts: self.failures,
                last: Box::new(err),
            });
        }
        let connection = &table.connection;
        let metrics = &connection.cluster.metrics;
        metrics.add(&metrics.client_retries, 1);
        connection.invalidate_locations(&table.name);
        let wait = backoff(self.failures, self.salt);
        backoff_pause(metrics, wait, self.op, self.failures);
        Ok(())
    }

    fn progressed(&mut self) {
        self.failures = 0;
    }
}

/// Client-side region locations, per table.
type LocationCache = Mutex<HashMap<TableName, Vec<RegionLocation>>>;

/// A heavy-weight connection, analogous to HBase's `Connection`. Creation
/// performs ZooKeeper lookups and pays the simulated setup latency; reuse is
/// what the connector's connection cache buys.
pub struct Connection {
    pub id: u64,
    cluster: Arc<HBaseCluster>,
    token: Option<AuthToken>,
    /// Shared with every [`IdleConnection`] taken from this connection.
    location_cache: Arc<LocationCache>,
}

/// A connection without its cluster: its id, token and cached locations.
/// A connection cache holds an unused connection this way, so that holding
/// it does not keep the cluster, and the cluster's files, alive.
#[derive(Clone)]
pub struct IdleConnection {
    id: u64,
    token: Option<AuthToken>,
    location_cache: Arc<LocationCache>,
}

impl IdleConnection {
    /// The connection on `cluster` again, with no handshake.
    pub fn resume(&self, cluster: Arc<HBaseCluster>) -> Arc<Connection> {
        Arc::new(Connection {
            id: self.id,
            cluster,
            token: self.token.clone(),
            location_cache: Arc::clone(&self.location_cache),
        })
    }
}

impl Connection {
    /// Open a connection. This is deliberately expensive: it reads the
    /// master and the server list from ZooKeeper and pays
    /// `connection_setup` on the simulated network.
    pub fn open(cluster: Arc<HBaseCluster>, token: Option<AuthToken>) -> Arc<Connection> {
        let network = *cluster.network();
        // ZooKeeper traffic of a real connection handshake.
        let _ = cluster.zk.get("/hbase/master");
        let _ = cluster.zk.children("/hbase/rs");
        network.charge_traced(network.connection_setup);
        cluster.metrics.add(&cluster.metrics.connections_created, 1);
        Arc::new(Connection {
            id: NEXT_CONNECTION_ID.fetch_add(1, Ordering::Relaxed),
            cluster,
            token,
            location_cache: Arc::default(),
        })
    }

    /// This connection without its cluster, to resume later.
    pub fn idle(&self) -> IdleConnection {
        IdleConnection {
            id: self.id,
            token: self.token.clone(),
            location_cache: Arc::clone(&self.location_cache),
        }
    }

    pub fn cluster(&self) -> &Arc<HBaseCluster> {
        &self.cluster
    }

    pub fn cluster_id(&self) -> &str {
        self.cluster.cluster_id()
    }

    pub fn token(&self) -> Option<&AuthToken> {
        self.token.as_ref()
    }

    /// A table handle (cheap; the connection is the heavy object).
    pub fn table(self: &Arc<Self>, name: TableName) -> Table {
        Table {
            connection: Arc::clone(self),
            name,
        }
    }

    /// Region locations of a table, from the client cache or the master.
    pub fn locate_regions(&self, table: &TableName) -> Result<Vec<RegionLocation>> {
        if let Some(cached) = self.location_cache.lock().get(table) {
            return Ok(cached.clone());
        }
        let regions = self.cluster.master.regions_of(table)?;
        self.location_cache
            .lock()
            .insert(table.clone(), regions.clone());
        Ok(regions)
    }

    /// Drop cached locations (after splits/moves). Counted in the cluster
    /// metrics when an entry was actually evicted.
    pub fn invalidate_locations(&self, table: &TableName) {
        if self.location_cache.lock().remove(table).is_some() {
            self.cluster
                .metrics
                .add(&self.cluster.metrics.location_invalidations, 1);
        }
    }
}

/// The result of a region-scoped scan: rows plus server work stats plus the
/// number of simulated RPC batches used to fetch them.
#[derive(Clone, Debug, Default)]
pub struct RegionScanResult {
    pub rows: Vec<RowResult>,
    pub stats: ScanStats,
    pub rpc_batches: u64,
}

/// A handle for one table over one connection.
#[derive(Clone)]
pub struct Table {
    connection: Arc<Connection>,
    name: TableName,
}

impl Table {
    pub fn name(&self) -> &TableName {
        &self.name
    }

    /// Run `attempt` until it succeeds, under the client's [recovery
    /// rule](Recovery).
    fn with_retries<T>(
        &self,
        op: &'static str,
        mut attempt: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let mut recovery = Recovery::new(op, op_salt(op));
        loop {
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) => recovery.retry(self, e)?,
            }
        }
    }

    /// The index in `regions` of the region owning `row`.
    fn owner(&self, regions: &[RegionLocation], row: &[u8]) -> Result<usize> {
        let owner = regions.iter().position(|loc| loc.info.contains_row(row));
        owner.ok_or_else(|| KvError::NoRegionForRow {
            table: self.name.to_string(),
            row: row.to_vec(),
        })
    }

    /// The location of the region owning `row`. A cached location list is
    /// searched in place, not cloned.
    fn locate_row(&self, row: &[u8]) -> Result<RegionLocation> {
        let connection = &self.connection;
        if let Some(regions) = connection.location_cache.lock().get(&self.name) {
            return Ok(regions[self.owner(regions, row)?].clone());
        }
        let mut regions = connection.locate_regions(&self.name)?;
        Ok(regions.swap_remove(self.owner(&regions, row)?))
    }

    /// Write a batch of puts, grouped by owning region, one RPC per region.
    /// Region batches dispatch concurrently, like the HBase client's
    /// AsyncProcess — this is what makes writing into a pre-split table
    /// faster than hammering a single region.
    ///
    /// Transient failures are retried under the client's recovery rule (see
    /// [`MAX_ATTEMPTS`]). Like the HBase client, delivery is at-least-once: a
    /// retried batch may re-apply puts that already landed, which is
    /// idempotent at the cell level (same value, same timestamp).
    ///
    /// Columns without a timestamp of their own are stamped from the
    /// cluster clock before the batch is sent, one tick per put in the
    /// order of their regions, so what a load writes does not depend on
    /// how the regions' shares interleave.
    pub fn put_batch(&self, mut puts: Vec<Put>) -> Result<()> {
        self.with_retries("put_batch", || self.try_put_batch(&mut puts))
    }

    /// One attempt. Puts are grouped by owning region in place (stably, so
    /// same-row puts keep their order) and each region gets a borrowed
    /// sub-slice: no put is cloned, on the first attempt or on a retry.
    fn try_put_batch(&self, puts: &mut Vec<Put>) -> Result<()> {
        let regions = self.connection.locate_regions(&self.name)?;
        let owners = puts.iter().map(|put| self.owner(&regions, &put.row));
        let mut owners = owners.collect::<Result<Vec<_>>>()?;
        if !owners.is_sorted() {
            let mut keyed: Vec<(usize, Put)> = owners.drain(..).zip(puts.drain(..)).collect();
            keyed.sort_by_key(|(owner, _)| *owner);
            (owners, *puts) = keyed.into_iter().unzip();
        }
        // Stamped here, in batch order, rather than by each region as its
        // share lands: the shares apply concurrently, and clock ticks they
        // took would interleave, moving the timestamps — and the length of
        // every cell block that encodes them — from run to run.
        let clock = &self.connection.cluster.clock;
        for put in puts.iter_mut() {
            if put.columns.iter().any(|c| c.timestamp.is_none()) {
                let now = clock.now_ms();
                for column in &mut put.columns {
                    column.timestamp.get_or_insert(now);
                }
            }
        }
        let mut batches: Vec<(&RegionLocation, &[Put])> = Vec::new();
        let mut rest: &[Put] = puts;
        for run in owners.chunk_by(|a, b| a == b) {
            let (batch, tail) = rest.split_at(run.len());
            batches.push((&regions[run[0]], batch));
            rest = tail;
        }
        // A batch for one region is sent from the calling thread; several
        // dispatch concurrently.
        if let [(loc, batch)] = batches[..] {
            return self.send_puts(loc, batch);
        }
        let ctx = trace::capture();
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .into_iter()
                .map(|(loc, batch)| {
                    let ctx = ctx.clone();
                    scope.spawn(move || {
                        let _ctx = shc_obs::TraceContext::adopt_opt(ctx.as_ref());
                        self.send_puts(loc, batch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("put batch thread"))
                .collect()
        });
        results.into_iter().collect()
    }

    /// The put RPC for one region's share of a batch.
    fn send_puts(&self, loc: &RegionLocation, batch: &[Put]) -> Result<()> {
        let bytes: usize = batch.iter().map(Put::payload_bytes).sum();
        let mut sp = rpc_span("put", loc);
        sp.annotate("bytes", bytes);
        let server = self.connection.cluster.server(loc.server_id)?;
        server.put(loc.info.region_id, batch, self.connection.token())?;
        charge_transfer(&self.connection.cluster, bytes, false);
        Ok(())
    }

    pub fn put(&self, put: Put) -> Result<()> {
        self.put_batch(vec![put])
    }

    pub fn delete(&self, delete: Delete) -> Result<()> {
        self.with_retries("delete", || {
            let loc = self.locate_row(&delete.row)?;
            let server = self.connection.cluster.server(loc.server_id)?;
            let _sp = rpc_span("delete", &loc);
            let deletes = std::slice::from_ref(&delete);
            server.delete(loc.info.region_id, deletes, self.connection.token())?;
            let cluster = &self.connection.cluster;
            charge_rpc(cluster, cluster.network().rpc_latency);
            Ok(())
        })
    }

    /// Point read routed to the owning region.
    pub fn get(&self, get: Get) -> Result<RowResult> {
        self.with_retries("get", || {
            let loc = self.locate_row(&get.row)?;
            let server = self.connection.cluster.server(loc.server_id)?;
            let _sp = rpc_span("get", &loc);
            let block = server.get(loc.info.region_id, &get, self.connection.token())?;
            charge_transfer(&self.connection.cluster, block.len(), false);
            Ok(decode_gets(&block, 1)?.pop().unwrap_or_default())
        })
    }

    /// Batched point reads — HBase `BulkGet`: one RPC per region owning
    /// some of the rows, results in request order. `from_host` is the
    /// hostname of the requesting compute task; a co-located region skips
    /// the remote-hop penalty. A fused partition task passes the gets of
    /// one planned region, and a region split or moved since the plan is
    /// met by routing each get to where its row lives now.
    pub fn bulk_get(&self, gets: &[Get], from_host: Option<&str>) -> Result<Vec<RowResult>> {
        self.with_retries("bulk_get", || self.try_bulk_get(gets, from_host))
    }

    /// One attempt. The RPCs go out in region-id order, so which of them a
    /// seeded fault hits, and the order of their trace spans, repeat from
    /// run to run. Gets are cloned only when they span several regions.
    fn try_bulk_get(&self, gets: &[Get], from_host: Option<&str>) -> Result<Vec<RowResult>> {
        let regions = self.connection.locate_regions(&self.name)?;
        let owners = gets.iter().map(|get| self.owner(&regions, &get.row));
        let owners = owners.collect::<Result<Vec<_>>>()?;
        let mut order: Vec<usize> = (0..gets.len()).collect();
        order.sort_by_key(|&idx| regions[owners[idx]].info.region_id);
        let mut out = vec![RowResult::default(); gets.len()];
        for run in order.chunk_by(|&a, &b| owners[a] == owners[b]) {
            let loc = &regions[owners[run[0]]];
            let rows = if run.len() == gets.len() {
                self.send_gets(loc, gets, from_host)?
            } else {
                let batch: Vec<Get> = run.iter().map(|&idx| gets[idx].clone()).collect();
                self.send_gets(loc, &batch, from_host)?
            };
            for (&idx, row) in run.iter().zip(rows) {
                out[idx] = row;
            }
        }
        Ok(out)
    }

    /// The bulk-get RPC for one region's share of the gets.
    fn send_gets(
        &self,
        loc: &RegionLocation,
        gets: &[Get],
        from_host: Option<&str>,
    ) -> Result<Vec<RowResult>> {
        let server = self.connection.cluster.server(loc.server_id)?;
        let mut sp = rpc_span("bulk_get", loc);
        let block = server.bulk_get(loc.info.region_id, gets, self.connection.token())?;
        let local = from_host == Some(loc.hostname.as_str());
        sp.annotate("bytes", block.len());
        charge_transfer(&self.connection.cluster, block.len(), local);
        decode_gets(&block, gets.len())
    }

    /// Whole-table scan: split across every overlapping region, executed in
    /// region order from the client (no locality — this is the naive path
    /// that the connector's distributed scan RDD improves on).
    pub fn scan(&self, scan: &Scan) -> Result<Vec<RowResult>> {
        let regions = self.connection.locate_regions(&self.name)?;
        let (start, stop) = scan_bounds_bytes(scan);
        let mut rows = Vec::new();
        let mut remaining = scan.limit;
        for loc in regions {
            if !loc.info.overlaps(&start, &stop) {
                continue;
            }
            let mut region_scan = scan.clone();
            if scan.limit > 0 {
                if remaining == 0 {
                    break;
                }
                region_scan.limit = remaining;
            }
            let result = self.scan_region(&loc, &region_scan, None)?;
            if scan.limit > 0 {
                remaining = remaining.saturating_sub(result.rows.len());
            }
            rows.extend(result.rows);
        }
        Ok(rows)
    }

    /// Scan a single region — the building block of SHC's partition-per-
    /// region execution. `from_host` is the hostname of the requesting
    /// compute task; co-located requests skip the remote-hop penalty.
    ///
    /// Streams the whole region through a [`RegionScanner`] and decodes
    /// its blocks; recovery from moved/split regions, dropped
    /// RPCs, and lapsed scanner leases all happens inside the scanner, so
    /// the caller still sees one complete, duplicate-free, key-ordered
    /// result.
    pub fn scan_region(
        &self,
        location: &RegionLocation,
        scan: &Scan,
        from_host: Option<&str>,
    ) -> Result<RegionScanResult> {
        let mut scanner = self.region_scanner(location, scan, from_host);
        let mut rows = Vec::new();
        while let Some(block) = scanner.next_block()? {
            rows.extend(cellblock::decode(&block)?);
        }
        Ok(RegionScanResult {
            rows,
            stats: *scanner.stats(),
            rpc_batches: scanner.rpc_batches(),
        })
    }

    /// Open a streaming scanner over one region. It is lazy: no RPC is
    /// issued before the first [`next_block`](RegionScanner::next_block),
    /// and it never holds more than `scan.caching` rows — the client-side
    /// peak is O(caching), not O(region).
    pub fn region_scanner(
        &self,
        location: &RegionLocation,
        scan: &Scan,
        from_host: Option<&str>,
    ) -> RegionScanner {
        let info = &location.info;
        let (scan_start, scan_stop) = scan_bounds_bytes(scan);
        RegionScanner {
            table: self.clone(),
            scan: scan.clone(),
            from_host: from_host.map(str::to_string),
            // An empty key is unbounded: as a start it sorts first anyway, as
            // a stop it must not win the minimum.
            start: scan_start.max(info.start_key.clone()),
            stop: [scan_stop, info.end_key.clone()]
                .into_iter()
                .filter(|key| !key.is_empty())
                .min()
                .unwrap_or_default(),
            remaining: scan.limit,
            cursor: None,
            done: false,
            recovery: Recovery::new("region_scanner", info.region_id),
            stats: ScanStats::default(),
            rpc_batches: 0,
        }
    }
}

/// The rows of a get reply: exactly one per get, or the block is corrupt.
fn decode_gets(block: &Bytes, gets: usize) -> Result<Vec<RowResult>> {
    let rows = cellblock::decode(block)?;
    if rows.len() != gets {
        return Err(KvError::Corruption(format!(
            "cell block: {} rows answer {gets} gets",
            rows.len()
        )));
    }
    Ok(rows)
}

/// A client-side iterator over one region's rows that runs on the caller's
/// thread, like HBase's default `ClientScanner`.
///
/// [`next_block`](Self::next_block) drives the HBase-style scanner RPC
/// lifecycle — `open_scanner`, which returns the first batch, then
/// `next_batch(scanner_id, caching)` while the server reports `more`, then
/// the next region of the span — issuing only the RPCs that one non-empty
/// batch needs; an explicit `close_scanner` goes out only for a scanner
/// abandoned while still open. A region range that fits in one batch costs
/// one RPC. A batch is the reply's [cell block](crate::cellblock), parsed
/// once to learn its row count and last key and handed on for the caller to
/// read in place. A reply that does not parse closes its cursor and is
/// `Corruption`, not retried. Transient failures (region moved or split,
/// server gone, dropped RPC, scanner lease lapsed) are recovered under the
/// client's recovery rule (see [`MAX_ATTEMPTS`]), each delivered batch
/// counting as progress: the scanner re-locates the key range and reopens
/// at the row *after* the last one delivered, so the concatenated blocks
/// are complete, duplicate-free, and key-ordered. After an error the
/// scanner is done.
///
/// Dropping the scanner early releases any server-side scanner state.
pub struct RegionScanner {
    table: Table,
    scan: Scan,
    from_host: Option<String>,
    /// The first row not yet delivered to the caller; empty = unbounded.
    start: Bytes,
    /// The end of the span the scanner owns, the original region's range
    /// clipped to the scan bounds; empty = unbounded.
    stop: Bytes,
    /// Rows the scan's limit still allows, when it has one.
    remaining: usize,
    /// The server-side cursor of the region being read, while the server
    /// reports `more`.
    cursor: Option<OpenCursor>,
    done: bool,
    recovery: Recovery,
    stats: ScanStats,
    rpc_batches: u64,
}

/// A scanner cursor registered on a region server.
struct OpenCursor {
    loc: RegionLocation,
    server: Arc<RegionServer>,
    id: u64,
}

impl RegionScanner {
    /// The cell block of the next non-empty batch, a well-formed one, or
    /// `None` when the region (clipped to the scan bounds) is exhausted. At
    /// most `scan.caching` rows per call. Empty server batches (e.g. the
    /// final probe of an exactly-full scanner) are absorbed here but still
    /// counted in [`rpc_batches`](Self::rpc_batches).
    pub fn next_block(&mut self) -> Result<Option<Bytes>> {
        while !self.done {
            match self.fetch() {
                Ok(Some(block)) => return Ok(Some(block)),
                Ok(None) => {}
                Err(e) => {
                    if let Err(e) = self.recovery.retry(&self.table, e) {
                        self.done = true;
                        return Err(e);
                    }
                }
            }
        }
        Ok(None)
    }

    /// One scanner RPC: a `next_batch` on the open cursor, or else the open
    /// of the region owning `start`. The reply's block when it holds rows.
    /// A failed call leaves no cursor open.
    fn fetch(&mut self) -> Result<Option<Bytes>> {
        let (loc, server, held) = match self.cursor.take() {
            Some(cursor) => (cursor.loc, cursor.server, Some(cursor.id)),
            None => {
                let limited = self.scan.limit > 0 && self.remaining == 0;
                let bounded = !self.stop.is_empty() && !self.start.is_empty();
                if limited || (bounded && self.start >= self.stop) {
                    self.done = true;
                    return Ok(None);
                }
                let loc = self.table.locate_row(&self.start)?;
                let server = self.table.connection.cluster.server(loc.server_id)?;
                (loc, server, None)
            }
        };
        let connection = &self.table.connection;
        let token = connection.token();
        let close = |id: Option<u64>| {
            if let Some(id) = id {
                let _ = server.close_scanner(id, token);
            }
        };
        let mut sp = rpc_span(held.map_or("open_scanner", |_| "next_batch"), &loc);
        let caching = self.scan.caching.max(1);
        let reply = match held {
            None => server.open_scanner(loc.info.region_id, &self.clipped_scan(), caching, token),
            Some(id) => server
                .next_batch(id, caching, token)
                .map(|batch| (batch.more.then_some(id), batch)),
        };
        // Best-effort release before recovering; the server side is also
        // protected by the lease. A failed open left nothing to release.
        let (id, batch) = reply.inspect_err(|_| close(held))?;
        let local = self.from_host.as_deref() == Some(loc.hostname.as_str());
        charge_transfer(&connection.cluster, batch.block.len(), local);
        // A reply that does not parse is not transient: no retry, but the
        // cursor it left open is released.
        let (mut rows, mut last_row) = (0, Vec::new());
        cellblock::visit_rows(&batch.block, |key, _| {
            rows += 1;
            last_row.clear();
            last_row.extend_from_slice(key);
            Ok::<_, KvError>(())
        })
        .inspect_err(|_| close(id))?;
        sp.annotate("rows", rows);
        sp.annotate("bytes", batch.block.len());
        sp.annotate("cache_hits", batch.stats.block_cache_hits);
        drop(sp);
        self.recovery.progressed();
        self.rpc_batches += 1;
        self.stats.merge(&batch.stats);
        if rows > 0 {
            self.start = row_successor(&last_row);
            self.remaining = self.remaining.saturating_sub(rows);
        }
        match id {
            Some(id) => self.cursor = Some(OpenCursor { loc, server, id }),
            // Region exhausted; continue into the next region of the span.
            None if loc.info.end_key.is_empty() => self.done = true,
            None => self.start = loc.info.end_key.clone(),
        }
        Ok((rows > 0).then_some(batch.block))
    }

    /// The scan clipped to `[start, stop)`, so daughters and movers return
    /// exactly the rows the original region would have, exactly once.
    fn clipped_scan(&self) -> Scan {
        let bound = |key: &Bytes, bound: fn(Bytes) -> Bound<Bytes>| match key.is_empty() {
            true => Bound::Unbounded,
            false => bound(key.clone()),
        };
        let mut scan = self.scan.clone();
        scan.start = bound(&self.start, Bound::Included);
        scan.stop = bound(&self.stop, Bound::Excluded);
        if self.scan.limit > 0 {
            scan.limit = self.remaining;
        }
        scan
    }

    /// Server-side work accumulated across every batch fetched so far.
    pub fn stats(&self) -> &ScanStats {
        &self.stats
    }

    /// Scan RPCs that produced a delivered batch so far: the opening one
    /// and every `next_batch` after it (closes are not counted).
    pub fn rpc_batches(&self) -> u64 {
        self.rpc_batches
    }
}

impl Drop for RegionScanner {
    fn drop(&mut self) {
        if let Some(cursor) = self.cursor.take() {
            let _ = cursor
                .server
                .close_scanner(cursor.id, self.table.connection.token());
        }
    }
}

/// Extract `[start, stop)` byte bounds from a scan for region overlap tests.
pub fn scan_bounds_bytes(scan: &Scan) -> (Bytes, Bytes) {
    let start = match &scan.start {
        Bound::Unbounded => Bytes::new(),
        Bound::Included(s) => s.clone(),
        Bound::Excluded(s) => row_successor(s),
    };
    let stop = match &scan.stop {
        Bound::Unbounded => Bytes::new(),
        Bound::Excluded(s) => s.clone(),
        Bound::Included(s) => row_successor(s),
    };
    (start, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::types::{FamilyDescriptor, TableDescriptor};
    use bytes::Bytes;
    use std::collections::BTreeMap;
    use std::ops::Bound;
    use std::path::{Path, PathBuf};

    fn cluster_with_table(splits: &[&str]) -> (Arc<HBaseCluster>, Arc<Connection>, Table) {
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 3,
            ..Default::default()
        });
        cluster
            .create_table(
                TableDescriptor::new(TableName::default_ns("t"))
                    .with_family(FamilyDescriptor::new("cf"))
                    .with_split_keys(
                        splits
                            .iter()
                            .map(|s| Bytes::copy_from_slice(s.as_bytes()))
                            .collect(),
                    ),
            )
            .unwrap();
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(TableName::default_ns("t"));
        (cluster, conn, table)
    }

    #[test]
    fn put_get_across_regions() {
        let (_cluster, _conn, table) = cluster_with_table(&["h", "p"]);
        table.put(Put::new("apple").add("cf", "q", "1")).unwrap();
        table.put(Put::new("mango").add("cf", "q", "2")).unwrap();
        table.put(Put::new("zebra").add("cf", "q", "3")).unwrap();
        assert_eq!(
            table
                .get(Get::new("mango"))
                .unwrap()
                .value(b"cf", b"q")
                .unwrap()
                .as_ref(),
            b"2"
        );
    }

    #[test]
    fn put_batch_regroups_by_region_keeping_same_row_order() {
        let (cluster, _conn, table) = cluster_with_table(&["h", "p"]);
        // Regions interleaved, and "zebra"/"apple" written twice: regrouping
        // must keep each row's later put later.
        let puts = ["zebra:1", "apple:1", "mango:1", "zebra:2", "apple:2"]
            .iter()
            .map(|kv| {
                let (key, value) = kv.split_once(':').unwrap();
                Put::new(key.to_string()).add("cf", "q", value.to_string())
            })
            .collect();
        let before = cluster.metrics.snapshot().rpc_count;
        table.put_batch(puts).unwrap();
        assert_eq!(cluster.metrics.snapshot().rpc_count, before + 3);
        for (key, want) in [("apple", "2"), ("mango", "1"), ("zebra", "2")] {
            let row = table.get(Get::new(key)).unwrap();
            assert_eq!(row.value(b"cf", b"q").unwrap().as_ref(), want.as_bytes());
        }
    }

    /// Every store file under `dir`, by its path below `root`.
    fn store_files(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                store_files(root, &path, out);
            } else if path.extension().is_some_and(|e| e == "sst") {
                let bytes = std::fs::read(&path).unwrap();
                out.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
            }
        }
    }

    #[test]
    fn repeated_loads_write_identical_store_files() {
        // A region on each of three servers: every batch's shares apply
        // concurrently, and none of its columns has a timestamp. (Regions
        // that share a server also share its log, and with it the order
        // their sequence numbers interleave in.)
        let load = || {
            let (cluster, _conn, table) = cluster_with_table(&["h", "p"]);
            for batch in 0..4u32 {
                let puts = (0..300u32)
                    .map(|i| {
                        let row = format!("{}{:04}", (b'a' + (i * 7 % 26) as u8) as char, i);
                        Put::new(row).add("cf", "a", format!("{batch}:{i}")).add(
                            "cf",
                            "b",
                            "x".repeat((i % 5) as usize),
                        )
                    })
                    .collect();
                table.put_batch(puts).unwrap();
            }
            cluster.flush_all().unwrap();
            let root = cluster.storage().unwrap().root().to_path_buf();
            let mut files = BTreeMap::new();
            store_files(&root, &root, &mut files);
            files
        };
        let first = load();
        assert_eq!(first.len(), 3, "a store file per region");
        for _ in 0..3 {
            assert!(load() == first, "a load wrote other store files");
        }
    }

    #[test]
    fn scan_merges_regions_in_key_order() {
        let (_cluster, _conn, table) = cluster_with_table(&["h", "p"]);
        for key in ["zebra", "apple", "mango", "banana", "tiger"] {
            table.put(Put::new(key).add("cf", "q", key)).unwrap();
        }
        let rows = table.scan(&Scan::new()).unwrap();
        let keys: Vec<&[u8]> = rows.iter().map(|r| r.row.as_ref()).collect();
        assert_eq!(
            keys,
            vec![
                b"apple".as_ref(),
                b"banana".as_ref(),
                b"mango".as_ref(),
                b"tiger".as_ref(),
                b"zebra".as_ref()
            ]
        );
    }

    #[test]
    fn ranged_scan_skips_regions() {
        let (cluster, _conn, table) = cluster_with_table(&["h", "p"]);
        for key in ["a", "i", "q"] {
            table.put(Put::new(key).add("cf", "q", "v")).unwrap();
        }
        let before = cluster.metrics.snapshot();
        let rows = table
            .scan(
                &Scan::new()
                    .with_range(Bound::Included(Bytes::from_static(b"q")), Bound::Unbounded),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        let delta = cluster.metrics.snapshot().delta_since(&before);
        // Only the third region was contacted, by one RPC: the open, whose
        // batch drained it. It left no scanner behind, so nothing was closed.
        assert_eq!(delta.rpc_count, 1);
        assert_eq!(delta.scanner_opens, 1);
        assert_eq!(delta.scanner_batches, 1);
        for id in 0..3 {
            assert_eq!(cluster.server(id).unwrap().open_scanner_count(), 0);
        }
    }

    #[test]
    fn a_region_scan_costs_one_rpc_per_batch() {
        let (cluster, conn, table) = cluster_with_table(&[]);
        for i in 0..10 {
            table
                .put(Put::new(format!("k{i:02}")).add("cf", "q", "v"))
                .unwrap();
        }
        let loc = conn.locate_regions(&TableName::default_ns("t")).unwrap()[0].clone();
        let server = cluster.server(loc.server_id).unwrap();
        for (k, caching) in [
            (0, 3),
            (1, 3),
            (2, 3),
            (4, 3),
            (10, 3),
            (10, 4),
            (10, 20),
            (3, 1),
        ] {
            // ["k", "k{k}") holds exactly the first k rows; for k = 0 it is a
            // non-empty key range with no rows in it.
            let mut scan = Scan::new().with_range(
                Bound::Included(Bytes::from_static(b"k")),
                Bound::Excluded(Bytes::from(format!("k{k:02}"))),
            );
            scan.caching = caching;
            let before = cluster.metrics.snapshot();
            let result = table.scan_region(&loc, &scan, None).unwrap();
            let delta = cluster.metrics.snapshot().delta_since(&before);
            assert_eq!(result.rows.len(), k);
            // A short batch ends the scan, so this is max(1, ceil(k/c)) —
            // except that a full last batch cannot tell it was last, and
            // when c divides k one empty batch follows.
            let rpcs = (k / caching + 1) as u64;
            let why = format!("{k} rows at caching {caching}");
            assert_eq!(delta.rpc_count, rpcs, "{why}: every RPC a Scan, no close");
            assert_eq!(delta.scanner_opens, 1, "{why}");
            assert_eq!(delta.scanner_batches, rpcs, "{why}: each RPC one batch");
            assert_eq!(result.rpc_batches, rpcs, "{why}");
            assert_eq!(server.open_scanner_count(), 0, "{why}");
        }
    }

    #[test]
    fn bulk_get_preserves_request_order() {
        let (_cluster, _conn, table) = cluster_with_table(&["h", "p"]);
        for key in ["a", "i", "q"] {
            table.put(Put::new(key).add("cf", "q", key)).unwrap();
        }
        let rows = table
            .bulk_get(&[Get::new("q"), Get::new("a"), Get::new("i")], None)
            .unwrap();
        assert_eq!(rows[0].value(b"cf", b"q").unwrap().as_ref(), b"q");
        assert_eq!(rows[1].value(b"cf", b"q").unwrap().as_ref(), b"a");
        assert_eq!(rows[2].value(b"cf", b"q").unwrap().as_ref(), b"i");
    }

    #[test]
    fn bulk_get_issues_its_region_rpcs_in_region_id_order() {
        use crate::fault::{FaultKind, FaultRule, RpcOp};
        let (cluster, conn, table) = cluster_with_table(&["h", "p"]);
        let lowest = conn
            .locate_regions(table.name())
            .unwrap()
            .iter()
            .map(|loc| loc.info.region_id)
            .min()
            .unwrap();
        // Every BulkGet fails, so each attempt stops at its first RPC.
        cluster
            .faults()
            .add_rule(FaultRule::new(FaultKind::NotServing).on_op(RpcOp::BulkGet));
        for run in 0..5 {
            // One get per region, requested highest region first.
            let err = table
                .bulk_get(&[Get::new("q"), Get::new("i"), Get::new("a")], None)
                .unwrap_err();
            let KvError::RetriesExhausted { attempts, last, .. } = err else {
                panic!("run {run}: {err:?}");
            };
            assert_eq!(attempts, MAX_ATTEMPTS);
            assert_eq!(*last, KvError::RegionNotServing(lowest), "run {run}");
        }
    }

    #[test]
    fn delete_removes_row() {
        let (_cluster, _conn, table) = cluster_with_table(&[]);
        table.put(Put::new("a").add("cf", "q", "v")).unwrap();
        table.delete(Delete::row("a")).unwrap();
        assert!(table.get(Get::new("a")).unwrap().is_empty());
    }

    #[test]
    fn connection_creation_is_counted() {
        let cluster = HBaseCluster::start_default();
        let before = cluster.metrics.snapshot().connections_created;
        let _c1 = Connection::open(Arc::clone(&cluster), None);
        let _c2 = Connection::open(Arc::clone(&cluster), None);
        assert_eq!(cluster.metrics.snapshot().connections_created, before + 2);
    }

    #[test]
    fn scan_limit_stops_early() {
        let (_cluster, _conn, table) = cluster_with_table(&["h", "p"]);
        for i in 0..20 {
            table
                .put(Put::new(format!("k{i:02}")).add("cf", "q", "v"))
                .unwrap();
        }
        let rows = table.scan(&Scan::new().with_limit(5)).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn scan_region_reports_stats_and_batches() {
        let (_cluster, conn, table) = cluster_with_table(&[]);
        for i in 0..10 {
            table
                .put(Put::new(format!("k{i}")).add("cf", "q", "v"))
                .unwrap();
        }
        let loc = conn.locate_regions(&TableName::default_ns("t")).unwrap()[0].clone();
        let mut scan = Scan::new();
        scan.caching = 3;
        let result = table.scan_region(&loc, &scan, Some("host-0")).unwrap();
        assert_eq!(result.rows.len(), 10);
        assert_eq!(result.rpc_batches, 4); // ceil(10/3)
        assert!(result.stats.cells_scanned >= 10);
    }

    #[test]
    fn region_scanner_recovers_from_lease_expiry_and_not_serving() {
        use crate::fault::{FaultKind, FaultRule, RpcOp};
        let (cluster, conn, table) = cluster_with_table(&[]);
        for i in 0..10 {
            table
                .put(Put::new(format!("k{i:02}")).add("cf", "q", format!("v{i}")))
                .unwrap();
        }
        cluster.flush_all().unwrap();
        // Reference result: a single-batch scan before any faults exist.
        let expected: Vec<Bytes> = table
            .scan(&Scan::new())
            .unwrap()
            .into_iter()
            .map(|r| r.row)
            .collect();
        assert_eq!(expected.len(), 10);

        let loc = conn.locate_regions(&TableName::default_ns("t")).unwrap()[0].clone();
        let server = cluster.server(loc.server_id).unwrap();
        server.set_scanner_lease_ms(5);
        // Scan RPC #1 opens the scanner and returns k00..k02. Before #2, the
        // first next_batch, burn the virtual clock past the lease so the
        // server reclaims the scanner mid-scan.
        let clock = cluster.clock.clone();
        cluster.faults().on_nth_op(Some(RpcOp::Scan), 2, move || {
            for _ in 0..20 {
                clock.now_ms();
            }
        });
        // #3 reopens at k03 and returns k03..k05, leaving a cursor
        // registered. Fail #4, its next_batch, with a one-shot NotServing
        // between batches: the server keeps that cursor, so only the
        // client's close releases it before #5 reopens at k06.
        let faults = Arc::clone(cluster.faults());
        cluster.faults().on_nth_op(Some(RpcOp::Scan), 4, move || {
            faults.add_rule(
                FaultRule::new(FaultKind::NotServing)
                    .on_op(RpcOp::Scan)
                    .first_n(1),
            );
        });

        let before = cluster.metrics.snapshot();
        let mut scan = Scan::new();
        scan.caching = 3;
        let result = table.scan_region(&loc, &scan, None).unwrap();
        let keys: Vec<Bytes> = result.rows.into_iter().map(|r| r.row).collect();
        // Complete, key-ordered, duplicate-free despite both failures.
        assert_eq!(keys, expected);
        assert_eq!(result.rpc_batches, 4); // ceil(10/3), faults don't inflate it
        let delta = cluster.metrics.snapshot().delta_since(&before);
        assert_eq!(delta.scanner_lease_expirations, 1);
        assert_eq!(delta.faults_injected, 1);
        assert_eq!(delta.client_retries, 2);
        // Opens #1, #3 and #5; batches from #1, #3, #5 and #6 (k09).
        assert_eq!(delta.scanner_opens, 3);
        assert_eq!(delta.scanner_batches, 4);
        assert_eq!(server.open_scanner_count(), 0, "no leaked scanner state");
    }

    #[test]
    fn a_dropped_opening_rpc_is_reopened_without_duplicates() {
        use crate::fault::{FaultKind, FaultRule, RpcOp};
        let (cluster, conn, table) = cluster_with_table(&[]);
        for i in 0..10 {
            table
                .put(Put::new(format!("k{i:02}")).add("cf", "q", "v"))
                .unwrap();
        }
        let loc = conn.locate_regions(&TableName::default_ns("t")).unwrap()[0].clone();
        let server = cluster.server(loc.server_id).unwrap();
        let mut scan = Scan::new();
        scan.caching = 3;
        let expected: Vec<Bytes> = (0..10).map(|i| Bytes::from(format!("k{i:02}"))).collect();
        // The opening RPC is the one that carries the first rows: drop it.
        let rule = cluster.faults().add_rule(
            FaultRule::new(FaultKind::Drop)
                .on_op(RpcOp::Scan)
                .first_n(1),
        );
        let before = cluster.metrics.snapshot();
        let result = table.scan_region(&loc, &scan, None).unwrap();
        let keys: Vec<Bytes> = result.rows.into_iter().map(|r| r.row).collect();
        assert_eq!(keys, expected, "complete, ordered, duplicate-free");
        assert_eq!(rule.fire_count(), 1);
        let delta = cluster.metrics.snapshot().delta_since(&before);
        assert_eq!(delta.client_retries, 1);
        assert_eq!(delta.scanner_opens, 1, "the dropped open served nothing");
        assert_eq!(result.rpc_batches, 4);
        assert_eq!(server.open_scanner_count(), 0, "no leaked scanner state");
    }

    #[test]
    fn a_scan_is_charged_for_exactly_the_blocks_it_received() {
        use crate::network::NetworkSim;
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 1,
            network: NetworkSim::gigabit(),
            ..Default::default()
        });
        cluster
            .create_table(
                TableDescriptor::new(TableName::default_ns("t"))
                    .with_family(FamilyDescriptor::new("cf")),
            )
            .unwrap();
        let conn = Connection::open(Arc::clone(&cluster), None);
        let table = conn.table(TableName::default_ns("t"));
        let puts = (0..10)
            .map(|i| Put::new(format!("k{i:02}")).add("cf", "q", "v".repeat(i * 40)))
            .collect();
        table.put_batch(puts).unwrap();
        let loc = conn.locate_regions(table.name()).unwrap()[0].clone();
        let server = cluster.server(loc.server_id).unwrap();
        let mut scan = Scan::new();
        scan.caching = 3;
        // The blocks the scan will receive, fetched straight from the server.
        let (id, mut batch) = server
            .open_scanner(loc.info.region_id, &scan, 3, None)
            .unwrap();
        let mut lens = Vec::new();
        loop {
            lens.push(batch.block.len() as u64);
            if !batch.more {
                break;
            }
            batch = server.next_batch(id.unwrap(), 3, None).unwrap();
        }
        assert_eq!(lens.len(), 4);
        let network = cluster.network();
        for local in [false, true] {
            let before = cluster.metrics.snapshot();
            let host = local.then_some(loc.hostname.as_str());
            let result = table.scan_region(&loc, &scan, host).unwrap();
            assert_eq!(result.rows.len(), 10);
            let delta = cluster.metrics.snapshot().delta_since(&before);
            assert_eq!(result.stats.bytes_returned, lens.iter().sum::<u64>());
            assert_eq!(delta.bytes_returned, lens.iter().sum::<u64>());
            let charged: u64 = lens
                .iter()
                .map(|&len| network.transfer_cost(len, local).as_micros() as u64)
                .sum();
            assert_eq!(delta.rpc_latency_us.count, lens.len() as u64);
            assert_eq!(delta.rpc_latency_us.sum, charged, "local = {local}");
        }
    }

    #[test]
    fn a_reply_that_fails_to_decode_is_corruption_and_not_retried() {
        let (cluster, conn, table) = cluster_with_table(&[]);
        for i in 0..10 {
            table
                .put(Put::new(format!("k{i:02}")).add("cf", "q", "v"))
                .unwrap();
        }
        let loc = conn.locate_regions(&TableName::default_ns("t")).unwrap()[0].clone();
        let server = cluster.server(loc.server_id).unwrap();
        let mut scan = Scan::new();
        scan.caching = 3;
        server.reply_cut.store(1, Ordering::Relaxed);
        let before = cluster.metrics.snapshot();
        let mut scanner = table.region_scanner(&loc, &scan, None);
        let err = scanner.next_block().unwrap_err();
        assert!(matches!(err, KvError::Corruption(_)), "{err:?}");
        assert!(
            scanner.next_block().unwrap().is_none(),
            "the scanner is done"
        );
        assert_eq!(
            server.open_scanner_count(),
            0,
            "the cursor the bad reply left open is closed"
        );
        for err in [
            table.get(Get::new("k00")).unwrap_err(),
            table.bulk_get(&[Get::new("k00")], None).unwrap_err(),
            table
                .bulk_get(&[Get::new("k01")], Some(&loc.hostname))
                .unwrap_err(),
        ] {
            assert!(matches!(err, KvError::Corruption(_)), "{err:?}");
        }
        let delta = cluster.metrics.snapshot().delta_since(&before);
        assert_eq!(delta.client_retries, 0);
        assert_eq!(delta.scanner_opens, 1, "no reopen");
        server.reply_cut.store(0, Ordering::Relaxed);
        assert_eq!(table.scan_region(&loc, &scan, None).unwrap().rows.len(), 10);
    }

    #[test]
    fn dropping_region_scanner_releases_server_state() {
        let (cluster, conn, table) = cluster_with_table(&[]);
        for i in 0..10 {
            table
                .put(Put::new(format!("k{i:02}")).add("cf", "q", "v"))
                .unwrap();
        }
        let loc = conn.locate_regions(&TableName::default_ns("t")).unwrap()[0].clone();
        let server = cluster.server(loc.server_id).unwrap();
        let mut scan = Scan::new();
        scan.caching = 2;
        let mut scanner = table.region_scanner(&loc, &scan, None);
        let first = scanner.next_block().unwrap().unwrap();
        assert_eq!(cellblock::decode(&first).unwrap().len(), 2);
        drop(scanner); // abandon mid-scan
        assert_eq!(
            server.open_scanner_count(),
            0,
            "drop must close the scanner"
        );
    }

    #[test]
    fn a_region_scanner_runs_its_rpcs_lazily_on_the_calling_thread() {
        use crate::fault::RpcOp;
        let (cluster, conn, table) = cluster_with_table(&[]);
        for i in 0..10 {
            table
                .put(Put::new(format!("k{i:02}")).add("cf", "q", "v"))
                .unwrap();
        }
        let loc = conn.locate_regions(&TableName::default_ns("t")).unwrap()[0].clone();
        let server = cluster.server(loc.server_id).unwrap();
        let opened_on = Arc::new(Mutex::new(None));
        let record = Arc::clone(&opened_on);
        cluster.faults().on_nth_op(Some(RpcOp::Scan), 1, move || {
            *record.lock() = Some(std::thread::current().id());
        });
        let mut scan = Scan::new();
        scan.caching = 2;
        let before = cluster.metrics.snapshot().rpc_count;
        let mut scanner = table.region_scanner(&loc, &scan, None);
        // Room for a fetch made behind the caller's back to show.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            cluster.metrics.snapshot().rpc_count,
            before,
            "opening is free"
        );
        let first = scanner.next_block().unwrap().unwrap();
        assert_eq!(cellblock::decode(&first).unwrap().len(), 2);
        assert_eq!(*opened_on.lock(), Some(std::thread::current().id()));
        assert_eq!(cluster.metrics.snapshot().rpc_count, before + 1);
        drop(scanner);
        assert_eq!(
            cluster.metrics.snapshot().rpc_count,
            before + 2,
            "dropping adds the close and nothing else"
        );
        assert_eq!(server.open_scanner_count(), 0);
    }

    #[test]
    fn location_cache_survives_and_invalidates() {
        let (_cluster, conn, _table) = cluster_with_table(&["m"]);
        let name = TableName::default_ns("t");
        let first = conn.locate_regions(&name).unwrap();
        assert_eq!(first.len(), 2);
        conn.invalidate_locations(&name);
        let second = conn.locate_regions(&name).unwrap();
        assert_eq!(first.len(), second.len());
    }
}
