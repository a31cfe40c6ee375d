//! Client library: heavy-weight connections, table handles, and the
//! region-routed read/write operations. The connection setup cost and the
//! per-RPC network charges modelled here are exactly what SHC's connection
//! cache and operator fusion optimize away.

use crate::cluster::HBaseCluster;
use crate::error::{KvError, Result};
use crate::master::RegionLocation;
use crate::metrics::ClusterMetrics;
use crate::region::ScanStats;
use crate::security::AuthToken;
use crate::types::{row_successor, Delete, Get, Put, RowResult, Scan, TableName};
use parking_lot::Mutex;
use shc_obs::trace;
use std::collections::HashMap;
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
            let row = server.get(loc.info.region_id, &get, self.connection.token())?;
            let network = *self.connection.cluster.network();
            charge_rpc(
                &self.connection.cluster,
                network.transfer_cost(row.payload_bytes() as u64, false),
            );
            Ok(row)
        })
    }

    /// Batched gets grouped per region server — HBase `BulkGet`. Results
    /// come back in request order.
    pub fn bulk_get(&self, gets: Vec<Get>) -> Result<Vec<RowResult>> {
        self.with_retries("bulk_get", || self.bulk_get_once(&gets, None))
    }

    /// One ungrouped bulk-get pass: route every get to the region currently
    /// owning its row, one RPC per region, results in request order.
    fn bulk_get_once(&self, gets: &[Get], from_host: Option<&str>) -> Result<Vec<RowResult>> {
        let mut grouped: HashMap<u64, (RegionLocation, Vec<(usize, Get)>)> = HashMap::new();
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
            let rows = server.bulk_get(region_id, &batch, self.connection.token())?;
            let local = from_host == Some(loc.hostname.as_str());
            let bytes: usize = rows.iter().map(RowResult::payload_bytes).sum();
            sp.annotate("bytes", bytes);
            charge_rpc(
                &self.connection.cluster,
                network.transfer_cost(bytes as u64, local),
            );
            out.extend(indices.into_iter().zip(rows));
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
        let rows = server.bulk_get(location.info.region_id, gets, self.connection.token())?;
        let local = from_host == Some(location.hostname.as_str());
        let network = *self.connection.cluster.network();
        let bytes: usize = rows.iter().map(RowResult::payload_bytes).sum();
        sp.annotate("bytes", bytes);
        charge_rpc(
            &self.connection.cluster,
            network.transfer_cost(bytes as u64, local),
        );
        Ok(rows)
    }
}

/// One fetched batch travelling from the scanner worker to the consumer.
struct BatchMsg {
    rows: Vec<RowResult>,
    stats: ScanStats,
}

/// A pipelined, client-side iterator over one region's rows.
///
/// A background worker drives the HBase-style scanner RPC lifecycle —
/// `open_scanner`, repeated `next_batch(scanner_id, caching)`, implicit or
/// explicit `close_scanner` — and pushes each batch through a bounded
/// channel, so the next batch is being fetched while the caller processes
/// the current one. Transient failures (region moved or split, server gone,
/// dropped RPC, scanner lease lapsed) are recovered inside the worker under
/// the connection's [`RetryPolicy`]: it re-locates the key range and reopens
/// a scanner at the row *after* the last one delivered, so the concatenated
/// batches are complete, duplicate-free, and key-ordered.
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

    /// `next_batch` RPCs that produced a delivered batch so far (scanner
    /// opens and closes are not counted).
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

        let scanner_id = {
            let mut sp = trace::span("rpc");
            sp.annotate("op", "open_scanner");
            sp.annotate("region", loc.info.region_id);
            sp.annotate("server", &loc.hostname);
            match server.open_scanner(loc.info.region_id, &region_scan, connection.token()) {
                Ok(id) => {
                    charge_rpc(&connection.cluster, network.rpc_latency);
                    id
                }
                Err(e) => recover!(e),
            }
        };

        loop {
            let batch = {
                let mut sp = trace::span("rpc");
                sp.annotate("op", "next_batch");
                sp.annotate("region", loc.info.region_id);
                sp.annotate("server", &loc.hostname);
                match server.next_batch(scanner_id, scan.caching.max(1), connection.token()) {
                    Ok(batch) => {
                        let bytes: usize = batch.rows.iter().map(RowResult::payload_bytes).sum();
                        sp.annotate("rows", batch.rows.len());
                        sp.annotate("bytes", bytes);
                        sp.annotate("cache_hits", batch.stats.block_cache_hits);
                        charge_rpc(
                            &connection.cluster,
                            network.transfer_cost(bytes as u64, local),
                        );
                        batch
                    }
                    Err(e) => {
                        // Best-effort release before recovering; the server
                        // side is also protected by the lease.
                        let _ = server.close_scanner(scanner_id, connection.token());
                        recover!(e)
                    }
                }
            };
            attempts = 0;
            if let Some(last) = batch.rows.last() {
                cur_start = row_successor(&last.row);
                if scan.limit > 0 {
                    remaining = remaining.saturating_sub(batch.rows.len());
                }
            }
            let more = batch.more;
            if tx
                .send(Ok(BatchMsg {
                    rows: batch.rows,
                    stats: batch.stats,
                }))
                .is_err()
            {
                // Consumer hung up (dropped the scanner): release the
                // server-side state and quit.
                if more {
                    let _ = server.close_scanner(scanner_id, connection.token());
                }
                return;
            }
            if !more {
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
        // Only the third region should have been contacted: one
        // `open_scanner` plus one `next_batch` (which drained it).
        assert_eq!(delta.rpc_count, 2);
        assert_eq!(delta.scanner_opens, 1);
        assert_eq!(delta.scanner_batches, 1);
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
        // Scan RPC #1 is open_scanner, #2 the first next_batch. Before #3
        // executes, burn the virtual clock past the lease so the server
        // reclaims the scanner mid-scan.
        let clock = cluster.clock.clone();
        cluster.faults().on_nth_op(Some(RpcOp::Scan), 3, move || {
            for _ in 0..20 {
                clock.now_ms();
            }
        });
        // After recovery (#4 reopen, #5 next_batch), fail #6 with a one-shot
        // NotServing between batches.
        let faults = Arc::clone(cluster.faults());
        cluster.faults().on_nth_op(Some(RpcOp::Scan), 6, move || {
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
        assert_eq!(server.open_scanner_count(), 0, "no leaked scanner state");
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
