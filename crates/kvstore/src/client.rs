//! Client library: heavy-weight connections, table handles, and the
//! region-routed read/write operations. The connection setup cost and the
//! per-RPC network charges modelled here are exactly what SHC's connection
//! cache and operator fusion optimize away. A region scan pays one charge
//! per batch: the RPC that opens the scanner carries the first one. A read
//! is charged for its reply's [cell block](crate::cellblock), which the
//! thread that made the RPC decodes.

use crate::cellblock;
use crate::cluster::HBaseCluster;
use crate::error::{KvError, Result};
use crate::master::RegionLocation;
use crate::metrics::ClusterMetrics;
use crate::region::ScanStats;
use crate::security::AuthToken;
use crate::types::{row_successor, Delete, Get, Put, RowResult, Scan, TableName};
use bytes::Bytes;
use parking_lot::Mutex;
use shc_obs::trace;
use std::collections::{BTreeMap, HashMap};
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

/// Client retry policy for transient failures (stale locations, dropped
/// RPCs, crashed servers): exponential backoff with deterministic jitter
/// and a hard attempt budget.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    pub initial_backoff: Duration,
    pub multiplier: u32,
    pub max_backoff: Duration,
    /// Seeds the jitter stream so backoff schedules are reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_micros(500),
            multiplier: 2,
            max_backoff: Duration::from_millis(20),
            jitter_seed: 0x5eed_0f2e_7261,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: fail on the first transient error.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// Backoff before the retry following failure number `attempt`
    /// (1-based), with ±25% deterministic jitter salted by `salt`.
    fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self.multiplier.saturating_pow(attempt.saturating_sub(1));
        let base = self
            .initial_backoff
            .saturating_mul(exp.max(1))
            .min(self.max_backoff);
        let x = splitmix64(self.jitter_seed ^ salt.rotate_left(17) ^ attempt as u64);
        // Map to [0.75, 1.25).
        let factor = 0.75 + (x >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        base.mul_f64(factor)
    }
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

/// A heavy-weight connection, analogous to HBase's `Connection`. Creation
/// performs ZooKeeper lookups and pays the simulated setup latency; reuse is
/// what the connector's connection cache buys.
pub struct Connection {
    pub id: u64,
    cluster: Arc<HBaseCluster>,
    token: Option<AuthToken>,
    /// Client-side region location cache, per table.
    location_cache: Mutex<HashMap<TableName, Vec<RegionLocation>>>,
    retry_policy: RetryPolicy,
}

impl Connection {
    /// Open a connection. This is deliberately expensive: it reads the
    /// master and the server list from ZooKeeper and pays
    /// `connection_setup` on the simulated network.
    pub fn open(cluster: Arc<HBaseCluster>, token: Option<AuthToken>) -> Arc<Connection> {
        Self::open_with_policy(cluster, token, RetryPolicy::default())
    }

    /// [`open`](Self::open) with an explicit retry policy.
    pub fn open_with_policy(
        cluster: Arc<HBaseCluster>,
        token: Option<AuthToken>,
        retry_policy: RetryPolicy,
    ) -> Arc<Connection> {
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
            location_cache: Mutex::new(HashMap::new()),
            retry_policy,
        })
    }

    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry_policy
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

    fn locate_row(&self, table: &TableName, row: &[u8]) -> Result<RegionLocation> {
        // Fast path: search the cache in place (no list clone per lookup —
        // batched writes locate once per put).
        if let Some(regions) = self.location_cache.lock().get(table) {
            return regions
                .iter()
                .find(|loc| loc.info.contains_row(row))
                .cloned()
                .ok_or_else(|| KvError::NoRegionForRow {
                    table: table.to_string(),
                    row: row.to_vec(),
                });
        }
        let regions = self.locate_regions(table)?;
        regions
            .into_iter()
            .find(|loc| loc.info.contains_row(row))
            .ok_or_else(|| KvError::NoRegionForRow {
                table: table.to_string(),
                row: row.to_vec(),
            })
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
pub struct Table {
    connection: Arc<Connection>,
    name: TableName,
}

impl Table {
    pub fn name(&self) -> &TableName {
        &self.name
    }

    /// Run `attempt` under the connection's retry policy. Transient errors
    /// invalidate cached locations, back off, and retry; once the budget is
    /// spent the last transient error is wrapped in
    /// [`KvError::RetriesExhausted`]. Permanent errors pass through.
    fn with_retries<T>(&self, op: &str, mut attempt: impl FnMut() -> Result<T>) -> Result<T> {
        let policy = self.connection.retry_policy;
        let metrics = &self.connection.cluster.metrics;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempts < policy.max_attempts => {
                    metrics.add(&metrics.client_retries, 1);
                    self.connection.invalidate_locations(&self.name);
                    backoff_pause(metrics, policy.backoff(attempts, op_salt(op)), op, attempts);
                }
                Err(e) if e.is_transient() => {
                    return Err(KvError::RetriesExhausted {
                        op: op.to_string(),
                        attempts,
                        last: Box::new(e),
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Write a batch of puts, grouped by owning region, one RPC per region.
    /// Region batches dispatch concurrently, like the HBase client's
    /// AsyncProcess — this is what makes writing into a pre-split table
    /// faster than hammering a single region.
    ///
    /// Transient failures (stale locations after splits/moves, dropped RPCs,
    /// crashed servers) are retried under the connection's [`RetryPolicy`].
    /// Like the HBase client, delivery is at-least-once: a retried batch may
    /// re-apply puts that already landed, which is idempotent at the cell
    /// level (same value, newer version).
    pub fn put_batch(&self, mut puts: Vec<Put>) -> Result<()> {
        self.with_retries("put_batch", || self.try_put_batch(&mut puts))
    }

    /// One attempt. Puts are grouped by owning region in place (stably, so
    /// same-row puts keep their order) and each region gets a borrowed
    /// sub-slice: no put is cloned, on the first attempt or on a retry.
    fn try_put_batch(&self, puts: &mut Vec<Put>) -> Result<()> {
        let regions = self.connection.locate_regions(&self.name)?;
        let mut owners = Vec::with_capacity(puts.len());
        for put in puts.iter() {
            let owner = regions
                .iter()
                .position(|loc| loc.info.contains_row(&put.row));
            owners.push(owner.ok_or_else(|| KvError::NoRegionForRow {
                table: self.name.to_string(),
                row: put.row.to_vec(),
            })?);
        }
        if !owners.is_sorted() {
            let mut keyed: Vec<(usize, Put)> = owners.drain(..).zip(puts.drain(..)).collect();
            keyed.sort_by_key(|(owner, _)| *owner);
            (owners, *puts) = keyed.into_iter().unzip();
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
        let connection = &self.connection;
        let region_id = loc.info.region_id;
        let bytes: usize = batch.iter().map(Put::payload_bytes).sum();
        let mut sp = trace::span("rpc");
        sp.annotate("op", "put");
        sp.annotate("region", region_id);
        sp.annotate("server", &loc.hostname);
        sp.annotate("bytes", bytes);
        let server = connection.cluster.server(loc.server_id)?;
        server.put(region_id, batch, connection.token())?;
        let network = connection.cluster.network();
        charge_rpc(
            &connection.cluster,
            network.transfer_cost(bytes as u64, false),
        );
        Ok(())
    }

    pub fn put(&self, put: Put) -> Result<()> {
        self.put_batch(vec![put])
    }

    pub fn delete(&self, delete: Delete) -> Result<()> {
        self.with_retries("delete", || {
            let loc = self.connection.locate_row(&self.name, &delete.row)?;
            let server = self.connection.cluster.server(loc.server_id)?;
            let network = *self.connection.cluster.network();
            let mut sp = trace::span("rpc");
            sp.annotate("op", "delete");
            sp.annotate("region", loc.info.region_id);
            sp.annotate("server", &loc.hostname);
            server.delete(
                loc.info.region_id,
                std::slice::from_ref(&delete),
                self.connection.token(),
            )?;
            charge_rpc(&self.connection.cluster, network.rpc_latency);
            Ok(())
        })
    }

    /// Point read routed to the owning region.
    pub fn get(&self, get: Get) -> Result<RowResult> {
        self.with_retries("get", || {
            let loc = self.connection.locate_row(&self.name, &get.row)?;
            let server = self.connection.cluster.server(loc.server_id)?;
            let mut sp = trace::span("rpc");
            sp.annotate("op", "get");
            sp.annotate("region", loc.info.region_id);
            sp.annotate("server", &loc.hostname);
            let block = server.get(loc.info.region_id, &get, self.connection.token())?;
            let network = *self.connection.cluster.network();
            charge_rpc(
                &self.connection.cluster,
                network.transfer_cost(block.len() as u64, false),
            );
            Ok(decode_gets(&block, 1)?.pop().unwrap_or_default())
        })
    }

    /// Batched gets grouped per region server — HBase `BulkGet`. Results
    /// come back in request order.
    pub fn bulk_get(&self, gets: Vec<Get>) -> Result<Vec<RowResult>> {
        self.with_retries("bulk_get", || self.bulk_get_once(&gets, None))
    }

    /// One ungrouped bulk-get pass: route every get to the region currently
    /// owning its row, one RPC per region, results in request order. The
    /// RPCs go out in region-id order, so which of them a seeded fault hits,
    /// and the order of their trace spans, repeat from run to run.
    fn bulk_get_once(&self, gets: &[Get], from_host: Option<&str>) -> Result<Vec<RowResult>> {
        let mut grouped: BTreeMap<u64, (RegionLocation, Vec<(usize, Get)>)> = BTreeMap::new();
        for (idx, get) in gets.iter().enumerate() {
            let loc = self.connection.locate_row(&self.name, &get.row)?;
            grouped
                .entry(loc.info.region_id)
                .or_insert_with(|| (loc, Vec::new()))
                .1
                .push((idx, get.clone()));
        }
        let network = *self.connection.cluster.network();
        let mut out: Vec<(usize, RowResult)> = Vec::new();
        for (region_id, (loc, indexed)) in grouped {
            let server = self.connection.cluster.server(loc.server_id)?;
            let (indices, batch): (Vec<usize>, Vec<Get>) = indexed.into_iter().unzip();
            let mut sp = trace::span("rpc");
            sp.annotate("op", "bulk_get");
            sp.annotate("region", region_id);
            sp.annotate("server", &loc.hostname);
            let block = server.bulk_get(region_id, &batch, self.connection.token())?;
            let local = from_host == Some(loc.hostname.as_str());
            sp.annotate("bytes", block.len());
            charge_rpc(
                &self.connection.cluster,
                network.transfer_cost(block.len() as u64, local),
            );
            out.extend(indices.into_iter().zip(decode_gets(&block, batch.len())?));
        }
        out.sort_by_key(|(idx, _)| *idx);
        Ok(out.into_iter().map(|(_, row)| row).collect())
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
    /// Streams the whole region through a [`RegionScanner`] and
    /// concatenates the batches; recovery from moved/split regions, dropped
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
        while let Some(batch) = scanner.next_batch()? {
            rows.extend(batch);
        }
        Ok(RegionScanResult {
            rows,
            stats: *scanner.stats(),
            rpc_batches: scanner.rpc_batches(),
        })
    }

    /// Open a streaming scanner over one region. The scanner prefetches the
    /// next batch on a worker thread while the caller consumes the current
    /// one, and never holds more than `scan.caching` rows in flight per
    /// side — the client-side peak is O(caching), not O(region).
    pub fn region_scanner(
        &self,
        location: &RegionLocation,
        scan: &Scan,
        from_host: Option<&str>,
    ) -> RegionScanner {
        // Capacity-1 channel: one batch buffered (the prefetch) plus one
        // owned by the consumer.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let connection = Arc::clone(&self.connection);
        let name = self.name.clone();
        let original = location.clone();
        let scan = scan.clone();
        let from_host = from_host.map(str::to_string);
        let ctx = trace::capture();
        let worker = std::thread::spawn(move || {
            let _ctx = shc_obs::TraceContext::adopt_opt(ctx.as_ref());
            drive_region_scan(
                &connection,
                &name,
                &original,
                &scan,
                from_host.as_deref(),
                &tx,
            );
        });
        RegionScanner {
            rx: Some(rx),
            worker: Some(worker),
            stats: ScanStats::default(),
            rpc_batches: 0,
        }
    }

    /// Bulk gets against one region only (used by fused partition tasks).
    ///
    /// Recovers like [`scan_region`](Self::scan_region): when the cached
    /// location is stale or the RPC fails transiently, the gets are
    /// re-routed to the regions that now own the rows.
    pub fn bulk_get_region(
        &self,
        location: &RegionLocation,
        gets: &[Get],
        from_host: Option<&str>,
    ) -> Result<Vec<RowResult>> {
        match self.bulk_get_region_once(location, gets, from_host) {
            Err(e) if e.is_transient() => {
                let policy = self.connection.retry_policy;
                let metrics = &self.connection.cluster.metrics;
                let mut attempts = 1u32;
                let mut last = e;
                while attempts < policy.max_attempts {
                    metrics.add(&metrics.client_retries, 1);
                    self.connection.invalidate_locations(&self.name);
                    backoff_pause(
                        metrics,
                        policy.backoff(attempts, location.info.region_id),
                        "bulk_get_region",
                        attempts,
                    );
                    attempts += 1;
                    // Re-routed pass: group by current owner, order-preserving.
                    match self.bulk_get_once(gets, from_host) {
                        Ok(rows) => return Ok(rows),
                        Err(e) if e.is_transient() => last = e,
                        Err(e) => return Err(e),
                    }
                }
                Err(KvError::RetriesExhausted {
                    op: "bulk_get_region".to_string(),
                    attempts,
                    last: Box::new(last),
                })
            }
            other => other,
        }
    }

    fn bulk_get_region_once(
        &self,
        location: &RegionLocation,
        gets: &[Get],
        from_host: Option<&str>,
    ) -> Result<Vec<RowResult>> {
        let server = self.connection.cluster.server(location.server_id)?;
        let mut sp = trace::span("rpc");
        sp.annotate("op", "bulk_get");
        sp.annotate("region", location.info.region_id);
        sp.annotate("server", &location.hostname);
        let block = server.bulk_get(location.info.region_id, gets, self.connection.token())?;
        let local = from_host == Some(location.hostname.as_str());
        let network = *self.connection.cluster.network();
        sp.annotate("bytes", block.len());
        charge_rpc(
            &self.connection.cluster,
            network.transfer_cost(block.len() as u64, local),
        );
        decode_gets(&block, gets.len())
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

/// One fetched batch travelling from the scanner worker to the consumer.
struct BatchMsg {
    rows: Vec<RowResult>,
    stats: ScanStats,
}

/// A pipelined, client-side iterator over one region's rows.
///
/// A background worker drives the HBase-style scanner RPC lifecycle —
/// `open_scanner`, which returns the first batch, then
/// `next_batch(scanner_id, caching)` while the server reports `more`, and an
/// explicit `close_scanner` only when abandoning a scanner that is still
/// open — and pushes each batch through a bounded channel, so the next batch
/// is being fetched while the caller processes the current one. A region
/// range that fits in one batch costs one RPC. Transient failures (region
/// moved or split, server gone, dropped RPC, scanner lease lapsed) are
/// recovered inside the worker under the connection's [`RetryPolicy`]: it
/// re-locates the key range and reopens a scanner at the row *after* the
/// last one delivered, so the concatenated batches are complete,
/// duplicate-free, and key-ordered.
///
/// Dropping the scanner early stops the worker and releases any server-side
/// scanner state.
pub struct RegionScanner {
    rx: Option<std::sync::mpsc::Receiver<Result<BatchMsg>>>,
    worker: Option<std::thread::JoinHandle<()>>,
    stats: ScanStats,
    rpc_batches: u64,
}

impl RegionScanner {
    /// The next non-empty batch of rows, or `None` when the region (clipped
    /// to the scan bounds) is exhausted. At most `scan.caching` rows per
    /// call. Empty server batches (e.g. the final probe of an exactly-full
    /// scanner) are absorbed here but still counted in
    /// [`rpc_batches`](Self::rpc_batches).
    pub fn next_batch(&mut self) -> Result<Option<Vec<RowResult>>> {
        loop {
            let Some(rx) = self.rx.as_ref() else {
                return Ok(None);
            };
            match rx.recv() {
                Ok(Ok(msg)) => {
                    self.rpc_batches += 1;
                    self.stats.merge(&msg.stats);
                    if msg.rows.is_empty() {
                        continue;
                    }
                    return Ok(Some(msg.rows));
                }
                Ok(Err(e)) => {
                    self.shutdown();
                    return Err(e);
                }
                // Worker finished and hung up: the scan is complete.
                Err(_) => {
                    self.shutdown();
                    return Ok(None);
                }
            }
        }
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

    fn shutdown(&mut self) {
        // Dropping the receiver unblocks a worker parked in `send`; it then
        // closes its server-side scanner and exits.
        self.rx = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for RegionScanner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker loop behind [`RegionScanner`]: walk the regions currently
/// covering `original`'s key range (clipped to the scan bounds), stream
/// each through the scanner RPCs, and recover transient failures by
/// re-locating and reopening at the row after the last delivered one.
fn drive_region_scan(
    connection: &Arc<Connection>,
    name: &TableName,
    original: &RegionLocation,
    scan: &Scan,
    from_host: Option<&str>,
    tx: &std::sync::mpsc::SyncSender<Result<BatchMsg>>,
) {
    use std::ops::Bound;
    let policy = connection.retry_policy;
    let metrics = &connection.cluster.metrics;
    let network = *connection.cluster.network();
    // The span this scanner owns: the original region's range intersected
    // with the scan bounds; empty key = unbounded.
    let (scan_start, scan_stop) = scan_bounds_bytes(scan);
    let span_start = match (scan_start.is_empty(), original.info.start_key.is_empty()) {
        (true, _) => original.info.start_key.clone(),
        (_, true) => scan_start.clone(),
        _ => scan_start.clone().max(original.info.start_key.clone()),
    };
    let span_stop = match (scan_stop.is_empty(), original.info.end_key.is_empty()) {
        (true, _) => original.info.end_key.clone(),
        (_, true) => scan_stop.clone(),
        _ => scan_stop.clone().min(original.info.end_key.clone()),
    };
    // Resume cursor: the first row not yet delivered to the consumer.
    let mut cur_start = span_start;
    let mut remaining = scan.limit; // 0 = unlimited
    let mut attempts = 0u32; // consecutive failures with no progress

    'drive: loop {
        if scan.limit > 0 && remaining == 0 {
            return;
        }
        if !span_stop.is_empty() && !cur_start.is_empty() && cur_start >= span_stop {
            return;
        }
        // On a transient error: burn one attempt, back off, and restart the
        // drive loop from the cursor against fresh locations. Progress
        // resets the budget, so a long scan survives many isolated faults.
        macro_rules! recover {
            ($err:expr) => {{
                let e: KvError = $err;
                if !e.is_transient() {
                    let _ = tx.send(Err(e));
                    return;
                }
                attempts += 1;
                if attempts >= policy.max_attempts {
                    let _ = tx.send(Err(KvError::RetriesExhausted {
                        op: "region_scanner".to_string(),
                        attempts,
                        last: Box::new(e),
                    }));
                    return;
                }
                metrics.add(&metrics.client_retries, 1);
                connection.invalidate_locations(name);
                backoff_pause(
                    metrics,
                    policy.backoff(attempts, original.info.region_id),
                    "region_scanner",
                    attempts,
                );
                continue 'drive;
            }};
        }

        // Locate the region currently owning the cursor position.
        let locs = match connection.locate_regions(name) {
            Ok(locs) => locs,
            Err(e) => recover!(e),
        };
        let Some(loc) = locs.into_iter().find(|l| l.info.contains_row(&cur_start)) else {
            recover!(KvError::NoRegionForRow {
                table: name.to_string(),
                row: cur_start.to_vec(),
            });
        };
        let server = match connection.cluster.server(loc.server_id) {
            Ok(server) => server,
            Err(e) => recover!(e),
        };
        let local = from_host == Some(loc.hostname.as_str());

        // Clip the scan to [cursor, span_stop) so daughters/movers return
        // exactly the rows the original region would have, exactly once.
        let mut region_scan = scan.clone();
        region_scan.start = if cur_start.is_empty() {
            Bound::Unbounded
        } else {
            Bound::Included(cur_start.clone())
        };
        region_scan.stop = if span_stop.is_empty() {
            Bound::Unbounded
        } else {
            Bound::Excluded(span_stop.clone())
        };
        if scan.limit > 0 {
            region_scan.limit = remaining;
        }

        // The first RPC opens the scanner and carries the first batch; every
        // later one is a `next_batch` on the id it returned. The id is held
        // only while the server reports `more`, that is, while a cursor is
        // registered there.
        let caching = scan.caching.max(1);
        let mut scanner_id = None;
        loop {
            let (id, rows, stats) = {
                let mut sp = trace::span("rpc");
                sp.annotate("op", scanner_id.map_or("open_scanner", |_| "next_batch"));
                sp.annotate("region", loc.info.region_id);
                sp.annotate("server", &loc.hostname);
                let reply = match scanner_id {
                    None => server.open_scanner(
                        loc.info.region_id,
                        &region_scan,
                        caching,
                        connection.token(),
                    ),
                    Some(id) => server
                        .next_batch(id, caching, connection.token())
                        .map(|batch| (batch.more.then_some(id), batch)),
                };
                match reply {
                    Ok((id, batch)) => {
                        let bytes = batch.block.len();
                        charge_rpc(
                            &connection.cluster,
                            network.transfer_cost(bytes as u64, local),
                        );
                        let rows = match cellblock::decode(&batch.block) {
                            Ok(rows) => rows,
                            Err(e) => {
                                // Not transient: no retry, but the cursor
                                // the reply left open is released.
                                if let Some(id) = id {
                                    let _ = server.close_scanner(id, connection.token());
                                }
                                recover!(e)
                            }
                        };
                        sp.annotate("rows", rows.len());
                        sp.annotate("bytes", bytes);
                        sp.annotate("cache_hits", batch.stats.block_cache_hits);
                        (id, rows, batch.stats)
                    }
                    Err(e) => {
                        // Best-effort release before recovering; the server
                        // side is also protected by the lease. A failed open
                        // left nothing to release.
                        if let Some(id) = scanner_id {
                            let _ = server.close_scanner(id, connection.token());
                        }
                        recover!(e)
                    }
                }
            };
            scanner_id = id;
            attempts = 0;
            if let Some(last) = rows.last() {
                cur_start = row_successor(&last.row);
                if scan.limit > 0 {
                    remaining = remaining.saturating_sub(rows.len());
                }
            }
            if tx.send(Ok(BatchMsg { rows, stats })).is_err() {
                // Consumer hung up (dropped the scanner): release the
                // server-side state and quit.
                if let Some(id) = scanner_id {
                    let _ = server.close_scanner(id, connection.token());
                }
                return;
            }
            if scanner_id.is_none() {
                break;
            }
        }

        // Region exhausted; continue into the next region covering the span.
        if loc.info.end_key.is_empty() {
            return;
        }
        cur_start = loc.info.end_key.clone();
    }
}

/// Extract `[start, stop)` byte bounds from a scan for region overlap tests.
pub fn scan_bounds_bytes(scan: &Scan) -> (bytes::Bytes, bytes::Bytes) {
    use std::ops::Bound;
    let start = match &scan.start {
        Bound::Unbounded => bytes::Bytes::new(),
        Bound::Included(s) => s.clone(),
        Bound::Excluded(s) => {
            let mut v = s.to_vec();
            v.push(0);
            bytes::Bytes::from(v)
        }
    };
    let stop = match &scan.stop {
        Bound::Unbounded => bytes::Bytes::new(),
        Bound::Excluded(s) => s.clone(),
        Bound::Included(s) => {
            let mut v = s.to_vec();
            v.push(0);
            bytes::Bytes::from(v)
        }
    };
    (start, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::types::{FamilyDescriptor, TableDescriptor};
    use bytes::Bytes;
    use std::ops::Bound;

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
            .bulk_get(vec![Get::new("q"), Get::new("a"), Get::new("i")])
            .unwrap();
        assert_eq!(rows[0].value(b"cf", b"q").unwrap().as_ref(), b"q");
        assert_eq!(rows[1].value(b"cf", b"q").unwrap().as_ref(), b"a");
        assert_eq!(rows[2].value(b"cf", b"q").unwrap().as_ref(), b"i");
    }

    #[test]
    fn bulk_get_issues_its_region_rpcs_in_region_id_order() {
        use crate::fault::{FaultKind, FaultRule, RpcOp};
        let (cluster, conn, _table) = cluster_with_table(&["h", "p"]);
        let name = TableName::default_ns("t");
        let lowest = conn
            .locate_regions(&name)
            .unwrap()
            .iter()
            .map(|loc| loc.info.region_id)
            .min()
            .unwrap();
        let no_retry =
            Connection::open_with_policy(Arc::clone(&cluster), None, RetryPolicy::none());
        let table = no_retry.table(name);
        for run in 0..20 {
            cluster.faults().add_rule(
                FaultRule::new(FaultKind::NotServing)
                    .on_op(RpcOp::BulkGet)
                    .first_n(1),
            );
            // One get per region, requested highest region first.
            let err = table
                .bulk_get(vec![Get::new("q"), Get::new("i"), Get::new("a")])
                .unwrap_err();
            let KvError::RetriesExhausted { last, .. } = err else {
                panic!("run {run}: {err:?}");
            };
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
        let err = scanner.next_batch().unwrap_err();
        assert!(matches!(err, KvError::Corruption(_)), "{err:?}");
        assert!(
            scanner.next_batch().unwrap().is_none(),
            "the scanner is done"
        );
        assert_eq!(
            server.open_scanner_count(),
            0,
            "the cursor the bad reply left open is closed"
        );
        for err in [
            table.get(Get::new("k00")).unwrap_err(),
            table.bulk_get(vec![Get::new("k00")]).unwrap_err(),
            table
                .bulk_get_region(&loc, &[Get::new("k01")], None)
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
        let first = scanner.next_batch().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        drop(scanner); // abandon mid-scan
        assert_eq!(
            server.open_scanner_count(),
            0,
            "drop must close the scanner"
        );
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
