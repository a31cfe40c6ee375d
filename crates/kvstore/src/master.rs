//! The HMaster: table administration, region assignment and load balancing.
//! Its meta is the one record of where each region lives; clients read it
//! through their connection's location cache. It never touches data-path
//! requests, matching the paper's description — clients go straight to
//! region servers once they know the layout.

use crate::clock::Clock;
use crate::error::{KvError, Result};
use crate::load::{ClusterStatus, HotRegion, ServerLoad, ServerStatus, TableLoadSummary};
use crate::metrics::ClusterMetrics;
use crate::region::{Region, RegionConfig, RegionInfo};
use crate::region_server::RegionServer;
use crate::storage::StorageEnv;
use crate::types::{TableDescriptor, TableName};
use crate::wal;
use crate::zookeeper::ZooKeeper;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where one region lives: its key range plus the hosting server. This is
/// the "meta table" row a client caches, and the hostname is what SHC uses
/// for data locality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionLocation {
    pub info: RegionInfo,
    pub server_id: u64,
    pub hostname: String,
}

#[derive(Debug)]
struct TableMeta {
    descriptor: TableDescriptor,
    /// Sorted by start key; contiguous and covering the whole key space.
    regions: Vec<RegionLocation>,
    enabled: bool,
}

/// Cluster master.
pub struct Master {
    zk: Arc<ZooKeeper>,
    servers: Arc<RwLock<Vec<Arc<RegionServer>>>>,
    tables: RwLock<HashMap<TableName, TableMeta>>,
    next_region_id: AtomicU64,
    region_config: RegionConfig,
    clock: Clock,
    assign_cursor: AtomicU64,
    metrics: Arc<ClusterMetrics>,
    /// Most recent heartbeat per server id: the reported load and the
    /// virtual-clock time it arrived. Servers are never forgotten — a
    /// stale entry is how the master knows a server is dead.
    heartbeats: RwLock<HashMap<u64, (ServerLoad, u64)>>,
    /// Heartbeats older than this many virtual ms mark the server dead.
    heartbeat_timeout_ms: AtomicU64,
    /// Optional flight recorder; splits, moves, failovers, and reassignments
    /// are journaled when attached.
    events: RwLock<Option<Arc<shc_obs::EventJournal>>>,
    /// The cluster's storage root; new regions get their directory under it.
    storage: Arc<StorageEnv>,
}

/// Default staleness window before a silent server is declared dead.
pub const DEFAULT_HEARTBEAT_TIMEOUT_MS: u64 = 30_000;

impl Master {
    pub fn new(
        zk: Arc<ZooKeeper>,
        servers: Arc<RwLock<Vec<Arc<RegionServer>>>>,
        region_config: RegionConfig,
        clock: Clock,
        metrics: Arc<ClusterMetrics>,
        storage: Arc<StorageEnv>,
    ) -> Self {
        zk.set("/hbase/master", "active");
        Master {
            zk,
            servers,
            tables: RwLock::new(HashMap::new()),
            next_region_id: AtomicU64::new(1),
            region_config,
            clock,
            assign_cursor: AtomicU64::new(0),
            metrics,
            heartbeats: RwLock::new(HashMap::new()),
            heartbeat_timeout_ms: AtomicU64::new(DEFAULT_HEARTBEAT_TIMEOUT_MS),
            events: RwLock::new(None),
            storage,
        }
    }

    /// Attach the cluster's flight recorder; region lifecycle transitions
    /// are journaled with virtual-ms timestamps from then on.
    pub fn attach_event_journal(&self, journal: Arc<shc_obs::EventJournal>) {
        *self.events.write() = Some(journal);
    }

    fn journal(&self, severity: shc_obs::Severity, category: &'static str, message: String) {
        if let Some(journal) = self.events.read().as_ref() {
            journal.record(severity, category, self.clock.peek_ms(), message);
        }
    }

    fn next_server(&self) -> Arc<RegionServer> {
        let servers = self.servers.read();
        let idx = self.assign_cursor.fetch_add(1, Ordering::Relaxed) as usize % servers.len();
        Arc::clone(&servers[idx])
    }

    /// Create a table. `split_keys` pre-split the key space into
    /// `split_keys.len() + 1` regions assigned round-robin across servers —
    /// this is what SHC's `HBaseTableCatalog.newTable` option drives.
    pub fn create_table(&self, descriptor: TableDescriptor) -> Result<()> {
        let mut tables = self.tables.write();
        if tables.contains_key(&descriptor.name) {
            return Err(KvError::TableExists(descriptor.name.to_string()));
        }
        if descriptor.families.is_empty() {
            return Err(KvError::InvalidRequest(
                "table needs at least one column family".to_string(),
            ));
        }
        let mut split_keys = descriptor.split_keys.clone();
        split_keys.sort();
        split_keys.dedup();
        let mut boundaries: Vec<(Bytes, Bytes)> = Vec::with_capacity(split_keys.len() + 1);
        let mut prev = Bytes::new();
        for key in split_keys {
            boundaries.push((prev.clone(), key.clone()));
            prev = key;
        }
        boundaries.push((prev, Bytes::new()));

        let mut regions = Vec::with_capacity(boundaries.len());
        for (start, end) in boundaries {
            let region_id = self.next_region_id.fetch_add(1, Ordering::Relaxed);
            let server = self.next_server();
            let info = RegionInfo {
                region_id,
                table: descriptor.name.clone(),
                start_key: start,
                end_key: end,
            };
            let region = Region::new(
                info.clone(),
                descriptor.clone(),
                self.region_config.clone(),
                server.wal(),
                self.clock.clone(),
                Arc::clone(&self.storage),
            )?;
            server.open_region(Arc::new(region));
            regions.push(RegionLocation {
                info,
                server_id: server.server_id,
                hostname: server.hostname.clone(),
            });
        }
        tables.insert(
            descriptor.name.clone(),
            TableMeta {
                descriptor,
                regions,
                enabled: true,
            },
        );
        Ok(())
    }

    pub fn drop_table(&self, name: &TableName) -> Result<()> {
        let meta = self
            .tables
            .write()
            .remove(name)
            .ok_or_else(|| KvError::TableNotFound(name.to_string()))?;
        let servers = self.servers.read();
        for loc in meta.regions {
            if let Some(server) = servers.iter().find(|s| s.server_id == loc.server_id) {
                if let Some(region) = server.close_region(loc.info.region_id) {
                    region.remove_storage_dir();
                }
            }
        }
        Ok(())
    }

    pub fn table_exists(&self, name: &TableName) -> bool {
        self.tables.read().contains_key(name)
    }

    pub fn disable_table(&self, name: &TableName) -> Result<()> {
        self.with_meta_mut(name, |m| {
            m.enabled = false;
            Ok(())
        })
    }

    pub fn enable_table(&self, name: &TableName) -> Result<()> {
        self.with_meta_mut(name, |m| {
            m.enabled = true;
            Ok(())
        })
    }

    fn with_meta_mut<T>(
        &self,
        name: &TableName,
        f: impl FnOnce(&mut TableMeta) -> Result<T>,
    ) -> Result<T> {
        let mut tables = self.tables.write();
        let meta = tables
            .get_mut(name)
            .ok_or_else(|| KvError::TableNotFound(name.to_string()))?;
        f(meta)
    }

    pub fn descriptor(&self, name: &TableName) -> Result<TableDescriptor> {
        self.tables
            .read()
            .get(name)
            .map(|m| m.descriptor.clone())
            .ok_or_else(|| KvError::TableNotFound(name.to_string()))
    }

    /// All region locations of a table, sorted by start key. This is the
    /// metadata SHC reads to construct partitions.
    pub fn regions_of(&self, name: &TableName) -> Result<Vec<RegionLocation>> {
        let tables = self.tables.read();
        let meta = tables
            .get(name)
            .ok_or_else(|| KvError::TableNotFound(name.to_string()))?;
        if !meta.enabled {
            return Err(KvError::TableDisabled(name.to_string()));
        }
        Ok(meta.regions.clone())
    }

    /// Split one region in two at its natural midpoint; daughters stay on
    /// the same server.
    pub fn split_region(&self, name: &TableName, region_id: u64) -> Result<()> {
        let loc = {
            let tables = self.tables.read();
            let meta = tables
                .get(name)
                .ok_or_else(|| KvError::TableNotFound(name.to_string()))?;
            meta.regions
                .iter()
                .find(|l| l.info.region_id == region_id)
                .cloned()
                .ok_or(KvError::RegionNotServing(region_id))?
        };
        let servers = self.servers.read();
        let server = servers
            .iter()
            .find(|s| s.server_id == loc.server_id)
            .ok_or(KvError::ServerNotFound(loc.server_id))?;
        let region = server.region(region_id)?;
        let split_key = region
            .split_point()
            .ok_or_else(|| KvError::InvalidRequest("region too small to split".to_string()))?;
        let left_id = self.next_region_id.fetch_add(1, Ordering::Relaxed);
        let right_id = self.next_region_id.fetch_add(1, Ordering::Relaxed);
        let (left, right) = region.split(split_key, left_id, right_id)?;
        let (left, right) = (Arc::new(left), Arc::new(right));
        // The daughters are on disk: retire the parent's directory so
        // recovery never resurrects it.
        region.remove_storage_dir();
        server.close_region(region_id);
        server.open_region(Arc::clone(&left));
        server.open_region(Arc::clone(&right));
        drop(servers);
        self.with_meta_mut(name, |meta| {
            let pos = meta
                .regions
                .iter()
                .position(|l| l.info.region_id == region_id)
                .ok_or(KvError::RegionNotServing(region_id))?;
            let host = meta.regions[pos].hostname.clone();
            let sid = meta.regions[pos].server_id;
            meta.regions.splice(
                pos..=pos,
                [
                    RegionLocation {
                        info: left.info.clone(),
                        server_id: sid,
                        hostname: host.clone(),
                    },
                    RegionLocation {
                        info: right.info.clone(),
                        server_id: sid,
                        hostname: host,
                    },
                ],
            );
            Ok(())
        })?;
        self.journal(
            shc_obs::Severity::Info,
            "region",
            format!(
                "split region {region_id} into {left_id}+{right_id} on server {}",
                loc.server_id
            ),
        );
        Ok(())
    }

    /// Move one region from `src` to `dst`: flush it, close it on `src`,
    /// rewire it to `dst`'s WAL, open it there and point its meta location
    /// at `dst`. Journals one `region` event. Every move — administrative,
    /// balancing or failover — goes through here.
    fn rehome(&self, region: Arc<Region>, src: &RegionServer, dst: &RegionServer) -> Result<()> {
        let region_id = region.info.region_id;
        let table = region.info.table.clone();
        region.flush()?;
        src.close_region(region_id);
        region.rewire_wal(dst.wal());
        dst.open_region(region);
        self.with_meta_mut(&table, |meta| {
            if let Some(loc) = meta
                .regions
                .iter_mut()
                .find(|l| l.info.region_id == region_id)
            {
                loc.server_id = dst.server_id;
                loc.hostname = dst.hostname.clone();
            }
            Ok(())
        })?;
        self.journal(
            shc_obs::Severity::Info,
            "region",
            format!(
                "moved region {region_id} from server {} to server {}",
                src.server_id, dst.server_id
            ),
        );
        Ok(())
    }

    /// Administratively move one region to a target server.
    pub fn move_region(&self, name: &TableName, region_id: u64, dest_server_id: u64) -> Result<()> {
        let src_id = {
            let tables = self.tables.read();
            let meta = tables
                .get(name)
                .ok_or_else(|| KvError::TableNotFound(name.to_string()))?;
            meta.regions
                .iter()
                .find(|l| l.info.region_id == region_id)
                .map(|l| l.server_id)
                .ok_or(KvError::RegionNotServing(region_id))?
        };
        if src_id == dest_server_id {
            return Ok(());
        }
        let servers = self.servers.read();
        let src = servers
            .iter()
            .find(|s| s.server_id == src_id)
            .ok_or(KvError::ServerNotFound(src_id))?;
        let dst = servers
            .iter()
            .find(|s| s.server_id == dest_server_id)
            .ok_or(KvError::ServerNotFound(dest_server_id))?;
        self.rehome(src.region(region_id)?, src, dst)
    }

    /// Even out region counts across servers by moving regions from the most
    /// to the least loaded server. Returns the number of moves performed.
    pub fn balance(&self) -> Result<usize> {
        let servers = self.servers.read();
        if servers.len() < 2 {
            return Ok(0);
        }
        let mut moves = 0;
        loop {
            let counts = servers
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.region_count()));
            let (Some((max_idx, max_count)), Some((min_idx, min_count))) = (
                counts.clone().max_by_key(|&(_, c)| c),
                counts.min_by_key(|&(_, c)| c),
            ) else {
                break;
            };
            if max_count <= min_count + 1 {
                break;
            }
            let src = &servers[max_idx];
            let region_id = match src.region_ids().into_iter().next() {
                Some(id) => id,
                None => break,
            };
            self.rehome(src.region(region_id)?, src, &servers[min_idx])?;
            moves += 1;
        }
        Ok(moves)
    }

    pub fn table_names(&self) -> Vec<TableName> {
        self.tables.read().keys().cloned().collect()
    }

    // ------------------------------------------------------------------
    // Heartbeats & cluster status
    // ------------------------------------------------------------------

    /// Accept one server's heartbeat, stamped with the current virtual
    /// time. The newest heartbeat per server wins.
    pub fn record_heartbeat(&self, load: ServerLoad) {
        let now = self.clock.peek_ms();
        self.heartbeats.write().insert(load.server_id, (load, now));
    }

    /// Change the staleness window used by [`cluster_status`](Self::cluster_status).
    pub fn set_heartbeat_timeout_ms(&self, ms: u64) {
        self.heartbeat_timeout_ms.store(ms, Ordering::Relaxed);
    }

    pub fn heartbeat_timeout_ms(&self) -> u64 {
        self.heartbeat_timeout_ms.load(Ordering::Relaxed)
    }

    /// Aggregate the most recent heartbeats into a [`ClusterStatus`]:
    /// liveness from heartbeat staleness, per-table load rollups over live
    /// servers, and the hottest region on any live server. Dead servers'
    /// loads are kept (their last report) but excluded from the rollups —
    /// their regions are mid-reassignment and would double-count.
    pub fn cluster_status(&self) -> ClusterStatus {
        let now = self.clock.peek_ms();
        let timeout = self.heartbeat_timeout_ms.load(Ordering::Relaxed);
        let mut servers: Vec<ServerStatus> = self
            .heartbeats
            .read()
            .values()
            .map(|(load, at)| ServerStatus {
                load: load.clone(),
                last_heartbeat_ms: *at,
                live: now.saturating_sub(*at) <= timeout,
            })
            .collect();
        servers.sort_by_key(|s| s.load.server_id);

        let mut tables: HashMap<String, TableLoadSummary> = HashMap::new();
        let mut hottest: Option<HotRegion> = None;
        for status in servers.iter().filter(|s| s.live) {
            for region in &status.load.regions {
                let entry =
                    tables
                        .entry(region.table.clone())
                        .or_insert_with(|| TableLoadSummary {
                            table: region.table.clone(),
                            ..Default::default()
                        });
                entry.regions += 1;
                entry.read_requests += region.read_requests;
                entry.write_requests += region.write_requests;
                entry.memstore_bytes += region.memstore_bytes;
                entry.store_file_bytes += region.store_file_bytes;
                let beats_current = match &hottest {
                    None => true,
                    Some(h) => {
                        region.requests() > h.load.requests()
                            || (region.requests() == h.load.requests()
                                && region.region_id < h.load.region_id)
                    }
                };
                if beats_current {
                    hottest = Some(HotRegion {
                        hostname: status.load.hostname.clone(),
                        load: region.clone(),
                    });
                }
            }
        }
        let mut tables: Vec<TableLoadSummary> = tables.into_values().collect();
        tables.sort_by(|a, b| a.table.cmp(&b.table));

        ClusterStatus {
            generated_at_ms: now,
            heartbeat_timeout_ms: timeout,
            servers,
            tables,
            hottest_region: hottest,
        }
    }

    // ------------------------------------------------------------------
    // Failover
    // ------------------------------------------------------------------

    /// Reassign every region hosted by a dead server onto the surviving
    /// servers. This is the WAL-split path: the dead server's segment files
    /// are read back once, each region replays its own records from them
    /// (its memstores died with the process), and is then re-homed onto a
    /// live server, which flushes the recovered state to store files first.
    /// Returns the number of regions reassigned.
    pub fn fail_over_server(&self, dead_server_id: u64) -> Result<usize> {
        let servers = self.servers.read();
        let dead = servers
            .iter()
            .find(|s| s.server_id == dead_server_id)
            .ok_or(KvError::ServerNotFound(dead_server_id))?;
        let live: Vec<Arc<RegionServer>> = servers
            .iter()
            .filter(|s| s.server_id != dead_server_id && s.is_online())
            .cloned()
            .collect();
        if live.is_empty() {
            return Err(KvError::InvalidRequest(
                "no live server to fail over to".to_string(),
            ));
        }
        let region_ids = dead.region_ids();
        self.journal(
            shc_obs::Severity::Error,
            "failover",
            format!(
                "server {dead_server_id} declared dead; reassigning {} region(s)",
                region_ids.len()
            ),
        );
        // Reading the files works on a closed log; each flush truncates it.
        let mut log = wal::split_by_region(dead.wal().read_records()?);
        for (i, &region_id) in region_ids.iter().enumerate() {
            let region = dead.region(region_id)?;
            region.recover_from_wal(log.remove(&region_id).unwrap_or_default());
            self.metrics.add(&self.metrics.wal_replays, 1);
            self.journal(
                shc_obs::Severity::Info,
                "wal",
                format!("replayed WAL for region {region_id} of dead server {dead_server_id}"),
            );
            self.rehome(region, dead, &live[i % live.len()])?;
            self.metrics.add(&self.metrics.regions_reassigned, 1);
        }
        Ok(region_ids.len())
    }

    /// Simulate master failover: a fresh master has no in-memory meta, so it
    /// rebuilds the region registry by asking every live server what it
    /// hosts, then re-takes the active znode. Enabled/disabled flags survive
    /// when the old state is still readable. Returns the table count.
    pub fn fail_over(&self) -> Result<usize> {
        let servers = self.servers.read();
        let mut rebuilt: HashMap<TableName, TableMeta> = HashMap::new();
        for server in servers.iter().filter(|s| s.is_online()) {
            for region_id in server.region_ids() {
                let region = server.region(region_id)?;
                let meta = rebuilt
                    .entry(region.info.table.clone())
                    .or_insert_with(|| TableMeta {
                        descriptor: region.descriptor().clone(),
                        regions: Vec::new(),
                        enabled: true,
                    });
                meta.regions.push(RegionLocation {
                    info: region.info.clone(),
                    server_id: server.server_id,
                    hostname: server.hostname.clone(),
                });
            }
        }
        for meta in rebuilt.values_mut() {
            meta.regions
                .sort_by(|a, b| a.info.start_key.cmp(&b.info.start_key));
        }
        {
            let old = self.tables.read();
            for (name, meta) in rebuilt.iter_mut() {
                if let Some(o) = old.get(name) {
                    meta.enabled = o.enabled;
                }
            }
        }
        let count = rebuilt.len();
        *self.tables.write() = rebuilt;
        self.zk.set("/hbase/master", "active");
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FamilyDescriptor, Put, Scan};

    type SharedServers = Arc<RwLock<Vec<Arc<RegionServer>>>>;

    fn setup(n_servers: usize) -> (Arc<Master>, SharedServers) {
        let zk = Arc::new(ZooKeeper::new());
        let env = crate::storage::temp_env(1 << 20);
        let metrics = Arc::clone(env.metrics());
        let servers: Vec<Arc<RegionServer>> = (0..n_servers)
            .map(|i| {
                let server = RegionServer::new(
                    i as u64,
                    format!("host-{i}"),
                    Arc::clone(&metrics),
                    None,
                    Clock::logical(0),
                    1 << 20,
                    Arc::clone(&env),
                );
                Arc::new(server.unwrap())
            })
            .collect();
        let servers = Arc::new(RwLock::new(servers));
        let master = Arc::new(Master::new(
            zk,
            Arc::clone(&servers),
            RegionConfig::default(),
            Clock::logical(0),
            metrics,
            env,
        ));
        (master, servers)
    }

    fn descriptor(name: &str, splits: &[&str]) -> TableDescriptor {
        TableDescriptor::new(TableName::default_ns(name))
            .with_family(FamilyDescriptor::new("cf"))
            .with_split_keys(
                splits
                    .iter()
                    .map(|s| Bytes::copy_from_slice(s.as_bytes()))
                    .collect(),
            )
    }

    #[test]
    fn create_table_builds_contiguous_regions() {
        let (master, _) = setup(3);
        master.create_table(descriptor("t", &["g", "p"])).unwrap();
        let regions = master.regions_of(&TableName::default_ns("t")).unwrap();
        assert_eq!(regions.len(), 3);
        assert!(regions[0].info.start_key.is_empty());
        assert_eq!(regions[0].info.end_key.as_ref(), b"g");
        assert_eq!(regions[1].info.start_key.as_ref(), b"g");
        assert_eq!(regions[2].info.end_key.as_ref() as &[u8], b"");
    }

    #[test]
    fn create_assigns_round_robin() {
        let (master, servers) = setup(3);
        master
            .create_table(descriptor("t", &["b", "c", "d", "e", "f"]))
            .unwrap();
        let counts: Vec<usize> = servers.read().iter().map(|s| s.region_count()).collect();
        assert_eq!(counts, vec![2, 2, 2]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let (master, _) = setup(1);
        master.create_table(descriptor("t", &[])).unwrap();
        assert!(matches!(
            master.create_table(descriptor("t", &[])),
            Err(KvError::TableExists(_))
        ));
    }

    /// The meta location of the region owning `row`.
    fn owner(master: &Master, name: &TableName, row: &[u8]) -> RegionLocation {
        let regions = master.regions_of(name).unwrap();
        regions
            .into_iter()
            .find(|l| l.info.contains_row(row))
            .unwrap()
    }

    #[test]
    fn locate_finds_owning_region() {
        let (master, _) = setup(2);
        master.create_table(descriptor("t", &["m"])).unwrap();
        let name = TableName::default_ns("t");
        let lo = owner(&master, &name, b"a");
        let hi = owner(&master, &name, b"z");
        assert_ne!(lo.info.region_id, hi.info.region_id);
        assert!(lo.info.contains_row(b"a"));
        assert!(hi.info.contains_row(b"z"));
    }

    #[test]
    fn drop_table_closes_regions() {
        let (master, servers) = setup(1);
        master.create_table(descriptor("t", &["m"])).unwrap();
        assert_eq!(servers.read()[0].region_count(), 2);
        master.drop_table(&TableName::default_ns("t")).unwrap();
        assert_eq!(servers.read()[0].region_count(), 0);
        assert!(!master.table_exists(&TableName::default_ns("t")));
    }

    #[test]
    fn disabled_table_rejects_reads() {
        let (master, _) = setup(1);
        master.create_table(descriptor("t", &[])).unwrap();
        let name = TableName::default_ns("t");
        master.disable_table(&name).unwrap();
        assert!(matches!(
            master.regions_of(&name),
            Err(KvError::TableDisabled(_))
        ));
        master.enable_table(&name).unwrap();
        assert!(master.regions_of(&name).is_ok());
    }

    #[test]
    fn split_region_preserves_data_and_meta() {
        let (master, servers) = setup(1);
        master.create_table(descriptor("t", &[])).unwrap();
        let name = TableName::default_ns("t");
        let region_id = master.regions_of(&name).unwrap()[0].info.region_id;
        {
            let servers = servers.read();
            for i in 0..20 {
                servers[0]
                    .put(
                        region_id,
                        &[Put::new(format!("row{i:02}")).add("cf", "q", "v")],
                        None,
                    )
                    .unwrap();
            }
        }
        master.split_region(&name, region_id).unwrap();
        let regions = master.regions_of(&name).unwrap();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].info.end_key, regions[1].info.start_key);
        // All rows remain reachable through the daughters.
        let servers = servers.read();
        let mut total = 0;
        for loc in &regions {
            total += servers[0].scan_all(loc.info.region_id, &Scan::new()).len();
        }
        assert_eq!(total, 20);
    }

    #[test]
    fn heartbeats_drive_liveness_and_hottest_region() {
        let (master, servers) = setup(2);
        master.create_table(descriptor("t", &["m"])).unwrap();
        let name = TableName::default_ns("t");
        {
            let servers = servers.read();
            let lo = owner(&master, &name, b"a");
            for i in 0..5 {
                servers
                    .iter()
                    .find(|s| s.server_id == lo.server_id)
                    .unwrap()
                    .put(
                        lo.info.region_id,
                        &[Put::new(format!("a{i}")).add("cf", "q", "v")],
                        None,
                    )
                    .unwrap();
            }
            for s in servers.iter() {
                master.record_heartbeat(s.server_load());
            }
        }
        let status = master.cluster_status();
        assert_eq!(status.servers.len(), 2);
        assert_eq!(status.live_servers().count(), 2);
        assert_eq!(status.tables.len(), 1);
        assert_eq!(status.tables[0].table, "default:t");
        assert_eq!(status.tables[0].regions, 2);
        assert_eq!(status.tables[0].write_requests, 5);
        let hot = status.hottest_region.as_ref().unwrap();
        assert_eq!(hot.load.write_requests, 5);

        // Burn virtual time past the staleness window with no fresh
        // heartbeats: every server goes dead and the rollups empty out.
        master.set_heartbeat_timeout_ms(5);
        for _ in 0..20 {
            let _ = master.clock.now_ms();
        }
        let status = master.cluster_status();
        assert_eq!(status.live_servers().count(), 0);
        assert_eq!(status.dead_servers().count(), 2);
        assert!(status.tables.is_empty());
        assert!(status.hottest_region.is_none());

        // One fresh heartbeat revives exactly that server.
        master.record_heartbeat(servers.read()[0].server_load());
        let status = master.cluster_status();
        assert_eq!(status.live_servers().count(), 1);
        assert!(status.server("host-0").unwrap().live);
        assert!(!status.server("host-1").unwrap().live);
    }

    #[test]
    fn hottest_region_tie_breaks_to_lower_id() {
        let (master, servers) = setup(1);
        master.create_table(descriptor("t", &["m"])).unwrap();
        let name = TableName::default_ns("t");
        let servers = servers.read();
        // Equal load on both regions.
        for row in [b"a".as_slice(), b"z".as_slice()] {
            let loc = owner(&master, &name, row);
            servers[0]
                .put(
                    loc.info.region_id,
                    &[Put::new(row).add("cf", "q", "v")],
                    None,
                )
                .unwrap();
        }
        master.record_heartbeat(servers[0].server_load());
        let status = master.cluster_status();
        let min_id = master
            .regions_of(&name)
            .unwrap()
            .iter()
            .map(|l| l.info.region_id)
            .min()
            .unwrap();
        assert_eq!(status.hottest_region.unwrap().load.region_id, min_id);
    }

    #[test]
    fn balance_evens_out_load() {
        let (master, servers) = setup(2);
        // All six regions land alternately; then force imbalance by moving
        // everything to server 0 manually.
        master
            .create_table(descriptor("t", &["b", "c", "d", "e", "f"]))
            .unwrap();
        {
            let servers = servers.read();
            let move_ids = servers[1].region_ids();
            for id in move_ids {
                let r = servers[1].close_region(id).unwrap();
                servers[0].open_region(r);
            }
            assert_eq!(servers[0].region_count(), 6);
        }
        let moves = master.balance().unwrap();
        assert!(moves >= 2);
        let counts: Vec<usize> = servers.read().iter().map(|s| s.region_count()).collect();
        assert!(counts.iter().all(|&c| c == 3), "counts = {counts:?}");
    }

    /// Every meta location names a server that hosts that region, and no
    /// other server hosts it.
    fn assert_meta_matches_servers(master: &Master, servers: &SharedServers, name: &TableName) {
        let servers = servers.read();
        for loc in master.regions_of(name).unwrap() {
            let id = loc.info.region_id;
            let hosts: Vec<&Arc<RegionServer>> = servers
                .iter()
                .filter(|s| s.region_ids().contains(&id))
                .collect();
            assert_eq!(hosts.len(), 1, "region {id} is hosted once");
            assert_eq!(
                (hosts[0].server_id, &hosts[0].hostname),
                (loc.server_id, &loc.hostname),
                "region {id}"
            );
        }
    }

    #[test]
    fn meta_names_the_host_after_split_move_balance_and_failover() {
        let (master, servers) = setup(3);
        master.create_table(descriptor("t", &["g", "p"])).unwrap();
        let name = TableName::default_ns("t");
        for row in ["a", "b", "c", "d", "h", "i", "q", "r"] {
            let loc = owner(&master, &name, row.as_bytes());
            let put = Put::new(row).add("cf", "q", "v");
            let servers = servers.read();
            servers[loc.server_id as usize]
                .put(loc.info.region_id, &[put], None)
                .unwrap();
        }
        assert_meta_matches_servers(&master, &servers, &name);

        let first = owner(&master, &name, b"a");
        master.split_region(&name, first.info.region_id).unwrap();
        assert_meta_matches_servers(&master, &servers, &name);

        // Pile every region onto server 0, then let the balancer spread
        // them out again.
        for loc in master.regions_of(&name).unwrap() {
            master.move_region(&name, loc.info.region_id, 0).unwrap();
            assert_meta_matches_servers(&master, &servers, &name);
        }
        assert!(master.balance().unwrap() >= 2);
        assert_meta_matches_servers(&master, &servers, &name);

        servers.read()[1].crash();
        assert!(master.fail_over_server(1).unwrap() >= 1);
        assert_meta_matches_servers(&master, &servers, &name);
        assert!(master
            .regions_of(&name)
            .unwrap()
            .iter()
            .all(|l| l.server_id != 1));
        // Meta is the one record: ZooKeeper holds no region location.
        let znodes = master.zk.children(&format!("/hbase/table/{name}/region"));
        assert!(znodes.is_empty(), "{znodes:?}");
    }

    #[test]
    fn balance_journals_one_region_event_per_move() {
        let (master, servers) = setup(2);
        let journal = shc_obs::EventJournal::new(64);
        master.attach_event_journal(Arc::clone(&journal));
        master
            .create_table(descriptor("t", &["b", "c", "d", "e", "f"]))
            .unwrap();
        let name = TableName::default_ns("t");
        for loc in master.regions_of(&name).unwrap() {
            master.move_region(&name, loc.info.region_id, 0).unwrap();
        }
        assert_eq!(servers.read()[0].region_count(), 6);
        let region_events = || {
            journal
                .events()
                .iter()
                .filter(|e| e.category == "region")
                .count()
        };
        let before = region_events();
        assert_eq!(before, 3, "one event per move_region that moved");
        let moves = master.balance().unwrap();
        assert_eq!(moves, 3);
        assert_eq!(region_events() - before, moves);
    }
}
