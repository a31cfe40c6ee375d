//! Cluster assembly: ZooKeeper + master + region servers + metrics +
//! simulated network, behind a single handle.

use crate::clock::Clock;
use crate::error::{KvError, Result};
use crate::fault::FaultInjector;
use crate::heat::{self, HeatObservatory};
use crate::master::Master;
use crate::metrics::{ClusterMetrics, EXPOSITION_PREFIX};
use crate::network::NetworkSim;
use crate::region::RegionConfig;
use crate::region_server::RegionServer;
use crate::security::TokenService;
use crate::storage::StorageEnv;
use crate::types::TableDescriptor;
use crate::zookeeper::ZooKeeper;
use parking_lot::RwLock;
use shc_obs::Tsdb;
use std::path::PathBuf;
use std::sync::Arc;

/// Samples each series of the cluster's one series store retains — enough
/// to answer rate-over-window queries and draw the heat grid across a test
/// or example run without unbounded growth.
const TSDB_CAPACITY_PER_SERIES: usize = 512;

/// Construction-time settings for a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Logical cluster name; appears in security tokens.
    pub cluster_id: String,
    /// Number of region servers ("nodes"). The paper's testbed uses 5.
    pub num_servers: usize,
    pub network: NetworkSim,
    pub region_config: RegionConfig,
    /// When set, the cluster runs in secure mode and every RPC must carry a
    /// valid token with this lifetime (milliseconds).
    pub secure_token_lifetime_ms: Option<u64>,
    /// Seed for the cluster's fault injector. The injector is inert until a
    /// rule or hook is registered, so this costs nothing in normal runs.
    pub fault_seed: u64,
    /// Per-region-server block cache capacity in bytes. Zero disables
    /// caching (every block read counts as a miss).
    pub block_cache_bytes: usize,
    /// Capacity of the cluster's flight-recorder event journal (oldest
    /// events are evicted first). Zero disables event recording.
    pub event_journal_capacity: usize,
    /// Where WAL segments, store files and region manifests live. `None`
    /// roots the cluster at a fresh temp directory that is removed when the
    /// last handle to its storage drops — what tests and examples want.
    pub data_dir: Option<PathBuf>,
    /// Rotate WAL segments at this size.
    pub wal_segment_bytes: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cluster_id: "hbase".to_string(),
            num_servers: 5,
            network: NetworkSim::off(),
            region_config: RegionConfig::default(),
            secure_token_lifetime_ms: None,
            fault_seed: 0,
            block_cache_bytes: 8 << 20,
            event_journal_capacity: 1024,
            data_dir: None,
            wal_segment_bytes: 256 * 1024,
        }
    }
}

/// A running simulated HBase cluster.
pub struct HBaseCluster {
    /// Unique per-process instance number; distinguishes clusters that
    /// share a `cluster_id` (e.g. in tests) for connection caching.
    pub instance_id: u64,
    pub config: ClusterConfig,
    pub zk: Arc<ZooKeeper>,
    pub master: Arc<Master>,
    servers: Arc<RwLock<Vec<Arc<RegionServer>>>>,
    pub metrics: Arc<ClusterMetrics>,
    pub clock: Clock,
    pub security: Option<Arc<TokenService>>,
    /// The storage root every server's log and every region's files are under.
    storage: Arc<StorageEnv>,
    faults: Arc<FaultInjector>,
    /// Cluster-wide flight recorder: master transitions, WAL replays,
    /// scanner lease expirations, block-cache pressure, and injected faults
    /// all land here, timestamped on the cluster's logical clock.
    events: Arc<shc_obs::EventJournal>,
    /// The cluster's one series store: the store metrics' scrape sources
    /// and the heartbeat-fed `region_*` series both land here, and
    /// `system.metrics_history`, the rate alerts and the heat observatory
    /// all read it.
    tsdb: Arc<Tsdb>,
    /// Region heat observatory: the window and the view (rates, hotspot
    /// scores, trend) over the `region_*` series every heartbeat round
    /// records into `tsdb`.
    heat: HeatObservatory,
}

impl HBaseCluster {
    /// Start a cluster: register servers in ZooKeeper, elect the master.
    /// Panics when the cluster cannot open its storage root or a server's
    /// log.
    pub fn start(config: ClusterConfig) -> Arc<Self> {
        match Self::try_start(config) {
            Ok(cluster) => cluster,
            Err(e) => panic!("cluster failed to start: {e}"),
        }
    }

    fn try_start(config: ClusterConfig) -> Result<Arc<Self>> {
        let zk = Arc::new(ZooKeeper::new());
        let metrics = ClusterMetrics::new();
        let clock = Clock::default();
        let security = config.secure_token_lifetime_ms.map(|life| {
            Arc::new(TokenService::new(
                config.cluster_id.clone(),
                clock.clone(),
                life,
            ))
        });
        let storage = match &config.data_dir {
            Some(dir) => {
                StorageEnv::new(dir.clone(), config.wal_segment_bytes, Arc::clone(&metrics))
            }
            None => StorageEnv::temp(config.wal_segment_bytes, Arc::clone(&metrics)),
        }?;
        let faults = FaultInjector::new(config.fault_seed, Arc::clone(&metrics));
        storage.attach_faults(Arc::clone(&faults));
        let servers = (0..config.num_servers.max(1))
            .map(|i| {
                let hostname = format!("host-{i}");
                zk.set(&format!("/hbase/rs/{hostname}"), hostname.clone());
                Ok(Arc::new(RegionServer::new(
                    i as u64,
                    hostname,
                    Arc::clone(&metrics),
                    security.clone(),
                    clock.clone(),
                    config.block_cache_bytes,
                    Arc::clone(&storage),
                )?))
            })
            .collect::<Result<Vec<_>>>()?;
        let servers = Arc::new(RwLock::new(servers));
        let events = shc_obs::EventJournal::new(config.event_journal_capacity);
        for server in servers.read().iter() {
            server.attach_fault_injector(Arc::clone(&faults));
            server.attach_event_journal(Arc::clone(&events));
        }
        faults.attach_events(Arc::clone(&events), clock.clone());
        let master = Arc::new(Master::new(
            Arc::clone(&zk),
            Arc::clone(&servers),
            config.region_config.clone(),
            clock.clone(),
            Arc::clone(&metrics),
            Arc::clone(&storage),
        ));
        master.attach_event_journal(Arc::clone(&events));
        static NEXT_INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let tsdb = Tsdb::new(TSDB_CAPACITY_PER_SERIES);
        let cluster = Arc::new(HBaseCluster {
            instance_id: NEXT_INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            config,
            zk,
            master,
            servers,
            metrics,
            clock,
            security,
            storage,
            faults,
            events,
            heat: HeatObservatory::new(Arc::clone(&tsdb), heat::DEFAULT_HEAT_WINDOW_MS),
            tsdb,
        });
        cluster.add_scrape_sources();
        Ok(cluster)
    }

    /// Register what a [`Tsdb::scrape`] of the cluster's store reads: every
    /// counter of the metrics registry, p50/p99 of every histogram, and the
    /// live compaction backlog — total, and per online server as
    /// `…{server="<hostname>"}`. The backlog source holds the cluster
    /// weakly: the store belongs to the cluster, and a strong capture would
    /// keep every cluster and its temp dir alive.
    fn add_scrape_sources(self: &Arc<Self>) {
        let name = |metric: &str| format!("{EXPOSITION_PREFIX}{metric}");
        let metrics = Arc::clone(&self.metrics);
        self.tsdb.add_source(move || {
            let snap = metrics.snapshot();
            let mut out: Vec<(String, f64)> = snap
                .counter_values()
                .iter()
                .map(|(metric, value)| (name(metric), *value as f64))
                .collect();
            for (metric, hist) in snap.histogram_values() {
                out.push((name(&format!("{metric}_p50")), hist.p50() as f64));
                out.push((name(&format!("{metric}_p99")), hist.p99() as f64));
            }
            out
        });
        let cluster = Arc::downgrade(self);
        self.tsdb.add_source(move || {
            let Some(cluster) = cluster.upgrade() else {
                return Vec::new();
            };
            let (bytes, files) = cluster.compaction_backlog();
            let mut out = vec![
                (name("compaction_backlog_bytes"), bytes as f64),
                (name("compaction_backlog_files"), files as f64),
            ];
            // A crashed server reports nothing, like its heartbeat: a fresh
            // sample would revive the series liveness marked stale.
            for server in cluster.servers.read().iter().filter(|s| s.is_online()) {
                out.push((
                    Tsdb::series_name(
                        &name("compaction_backlog_bytes"),
                        &[("server", &server.hostname)],
                    ),
                    server.compaction_backlog().0 as f64,
                ));
            }
            out
        });
    }

    /// Default 5-node insecure cluster with no simulated network cost.
    pub fn start_default() -> Arc<Self> {
        Self::start(ClusterConfig::default())
    }

    pub fn cluster_id(&self) -> &str {
        &self.config.cluster_id
    }

    /// A key that uniquely identifies this cluster *instance* within the
    /// process — what connection caches should key on.
    pub fn instance_key(&self) -> String {
        format!("{}@{}", self.config.cluster_id, self.instance_id)
    }

    pub fn server(&self, server_id: u64) -> Result<Arc<RegionServer>> {
        self.servers
            .read()
            .iter()
            .find(|s| s.server_id == server_id)
            .cloned()
            .ok_or(KvError::ServerNotFound(server_id))
    }

    pub fn hostnames(&self) -> Vec<String> {
        self.servers
            .read()
            .iter()
            .map(|s| s.hostname.clone())
            .collect()
    }

    pub fn num_servers(&self) -> usize {
        self.servers.read().len()
    }

    /// Administrative convenience: create a table through the master.
    pub fn create_table(&self, descriptor: TableDescriptor) -> Result<()> {
        self.master.create_table(descriptor)
    }

    /// Flush every region on every server.
    pub fn flush_all(&self) -> Result<()> {
        for server in self.servers.read().iter() {
            server.flush_all()?;
        }
        Ok(())
    }

    /// The cluster's storage root. Every cluster has one; the `Option` is
    /// the signature `benchmark/` compiles against (ROADMAP 5(b)).
    pub fn storage(&self) -> Option<&Arc<StorageEnv>> {
        Some(&self.storage)
    }

    /// Does nothing: every flush runs inline on the writer that triggered
    /// it, so no flush is ever left to wait for. Kept for the signature
    /// `benchmark/` compiles against (ROADMAP 5(b)).
    pub fn quiesce(&self) {}

    /// Cluster-wide compaction backlog: `(pending_bytes, pending_files)`
    /// summed over every server (see
    /// [`Region::compaction_backlog`](crate::region::Region::compaction_backlog)).
    pub fn compaction_backlog(&self) -> (u64, u64) {
        let mut bytes = 0u64;
        let mut files = 0u64;
        for server in self.servers.read().iter() {
            let (b, f) = server.compaction_backlog();
            bytes += b;
            files += f;
        }
        (bytes, files)
    }

    /// Every *online* server reports its current load to the master, as if
    /// the periodic heartbeat ticker fired once. Crashed servers stay
    /// silent — that silence is what eventually marks them dead. Each
    /// heartbeat is also recorded into the series store as labeled
    /// per-region time series (which revives series a crash marked stale).
    pub fn heartbeat_all(&self) {
        let now = self.clock.peek_ms();
        for server in self.servers.read().iter() {
            if server.is_online() {
                let load = server.server_load();
                self.heat.observe_server(&load, now);
                self.master.record_heartbeat(load);
            }
        }
    }

    /// Fresh heartbeats from every online server, then the master's
    /// aggregated [`ClusterStatus`](crate::load::ClusterStatus). This is
    /// the one place server liveness reaches the series store: every series
    /// labeled with a dead server's hostname — its regions' and its
    /// compaction backlog alike — goes stale, so frozen counters stop
    /// reading as live load, until the server reports again.
    pub fn cluster_status(&self) -> crate::load::ClusterStatus {
        self.heartbeat_all();
        self.reported_status()
    }

    /// [`cluster_status`](Self::cluster_status) without the heartbeat
    /// round: the master's view of the heartbeats it already has, liveness
    /// marked the same way. For a reader that must not add samples to what
    /// it reads (a `system.metrics_history` scan).
    pub fn reported_status(&self) -> crate::load::ClusterStatus {
        let status = self.master.cluster_status();
        for server in &status.servers {
            if server.live {
                self.tsdb.mark_live("server", &server.load.hostname);
            } else {
                self.tsdb.mark_stale("server", &server.load.hostname);
            }
        }
        status
    }

    /// The cluster's series store (see [`shc_obs::tsdb`]). Nothing scrapes
    /// it in the background: a `system.metrics_history` scan does, and so
    /// can any caller, at a virtual time of its choosing.
    pub fn tsdb(&self) -> &Arc<Tsdb> {
        &self.tsdb
    }

    /// The region heat observatory (see [`crate::heat`]).
    pub fn heat(&self) -> &HeatObservatory {
        &self.heat
    }

    /// Current per-region loads across every online server, with the
    /// hosting hostname — a direct dump, bypassing heartbeat history.
    pub fn region_loads(&self) -> Vec<(String, crate::load::RegionLoad)> {
        let mut out = Vec::new();
        for server in self.servers.read().iter() {
            if !server.is_online() {
                continue;
            }
            let host = server.hostname.clone();
            for load in server.server_load().regions {
                out.push((host.clone(), load));
            }
        }
        out.sort_by_key(|(_, l)| l.region_id);
        out
    }

    pub fn network(&self) -> &NetworkSim {
        &self.config.network
    }

    /// The cluster-wide fault injector (inert unless rules are registered).
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// The cluster's flight recorder (see [`shc_obs::EventJournal`]).
    pub fn events(&self) -> &Arc<shc_obs::EventJournal> {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FamilyDescriptor, TableName};

    #[test]
    fn start_registers_servers_in_zk() {
        let cluster = HBaseCluster::start_default();
        assert_eq!(cluster.num_servers(), 5);
        let mut hosts = cluster.zk.children("/hbase/rs");
        hosts.sort();
        assert_eq!(hosts.len(), 5);
        assert_eq!(hosts[0], "host-0");
        assert!(cluster.zk.exists("/hbase/master"));
    }

    #[test]
    fn server_lookup_by_id() {
        let cluster = HBaseCluster::start_default();
        assert_eq!(cluster.server(2).unwrap().hostname, "host-2");
        assert!(cluster.server(99).is_err());
    }

    #[test]
    fn secure_cluster_exposes_token_service() {
        let cluster = HBaseCluster::start(ClusterConfig {
            secure_token_lifetime_ms: Some(60_000),
            ..Default::default()
        });
        assert!(cluster.security.is_some());
        let insecure = HBaseCluster::start_default();
        assert!(insecure.security.is_none());
    }

    #[test]
    fn heartbeat_all_skips_crashed_servers() {
        let cluster = HBaseCluster::start_default();
        cluster.server(1).unwrap().crash();
        cluster.heartbeat_all();
        let status = cluster.master.cluster_status();
        // Only the four online servers have ever heartbeated.
        assert_eq!(status.servers.len(), 4);
        assert!(status.server("host-1").is_none());
        cluster.server(1).unwrap().restart();
        let status = cluster.cluster_status();
        assert_eq!(status.live_servers().count(), 5);
    }

    /// One store, one `server="<hostname>"` convention, one liveness pass:
    /// a dead server's scraped backlog series and its heartbeat-fed region
    /// series mute together, and a scrape does not bring them back.
    #[test]
    fn a_dead_servers_backlog_and_region_series_go_stale_together() {
        let cluster = HBaseCluster::start(ClusterConfig {
            num_servers: 2,
            ..Default::default()
        });
        cluster
            .create_table(
                TableDescriptor::new(TableName::default_ns("t"))
                    .with_family(FamilyDescriptor::new("cf"))
                    .with_split_keys(vec![bytes::Bytes::from("m")]),
            )
            .unwrap();
        let tsdb = cluster.tsdb();
        for _ in 0..2 {
            cluster.clock.now_ms();
            cluster.cluster_status();
            tsdb.scrape(cluster.clock.peek_ms());
        }
        let backlog = Tsdb::series_name(
            "shc_store_compaction_backlog_bytes",
            &[("server", "host-1")],
        );
        let reads = tsdb
            .series_names()
            .into_iter()
            .find(|s| s.starts_with("region_read_requests") && s.contains("host-1"))
            .expect("host-1 serves a region");
        assert!(tsdb.rate(&backlog, u64::MAX).is_some() && tsdb.rate(&reads, u64::MAX).is_some());

        cluster.master.set_heartbeat_timeout_ms(500);
        cluster.server(1).unwrap().crash();
        for _ in 0..600 {
            cluster.clock.now_ms();
        }
        cluster.cluster_status();
        tsdb.scrape(cluster.clock.peek_ms());
        assert!(tsdb.is_stale(&backlog) && tsdb.is_stale(&reads));
        assert_eq!(tsdb.rate(&backlog, u64::MAX), None);
        assert_eq!(
            tsdb.stale_series().len(),
            5,
            "four region series and the backlog"
        );

        cluster.server(1).unwrap().restart();
        cluster.cluster_status();
        assert!(tsdb.stale_series().is_empty());
    }

    #[test]
    fn create_table_via_cluster_handle() {
        let cluster = HBaseCluster::start_default();
        cluster
            .create_table(
                TableDescriptor::new(TableName::default_ns("t"))
                    .with_family(FamilyDescriptor::new("cf")),
            )
            .unwrap();
        assert!(cluster.master.table_exists(&TableName::default_ns("t")));
    }
}
