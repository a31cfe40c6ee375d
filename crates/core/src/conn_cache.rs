//! Connection caching (paper §V.B.1).
//!
//! Creating an HBase connection is heavy-weight — ZooKeeper sessions plus
//! meta lookups — and SHC observed "ZooKeeper connections being established
//! for each request". The cache keeps connection objects keyed by cluster
//! (and principal) and tracks a reference count per entry. Eviction is
//! explicit: [`ConnectionCache::evict_idle`] closes connections whose
//! reference count has been zero for longer than the delay it is given
//! (`connectionCloseDelay`, 10 minutes by default). Nothing calls it on a
//! timer.

use parking_lot::Mutex;
use shc_kvstore::client::{Connection, IdleConnection};
use shc_kvstore::cluster::HBaseCluster;
use shc_kvstore::security::AuthToken;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

struct CacheEntry {
    /// Held without its cluster, which each lease supplies: an entry must
    /// not keep a cluster, and the cluster's files, alive.
    connection: IdleConnection,
    cluster: Weak<HBaseCluster>,
    refcount: usize,
    /// Set when the refcount last dropped to zero.
    zero_since: Option<Instant>,
}

/// A shared connection cache.
pub struct ConnectionCache {
    entries: Mutex<HashMap<String, CacheEntry>>,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
}

impl ConnectionCache {
    pub fn new() -> Arc<ConnectionCache> {
        Arc::new(ConnectionCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The process-wide cache used by default.
    pub fn global() -> Arc<ConnectionCache> {
        static GLOBAL: std::sync::OnceLock<Arc<ConnectionCache>> = std::sync::OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(ConnectionCache::new))
    }

    fn key(cluster: &HBaseCluster, token: Option<&AuthToken>) -> String {
        match token {
            // The token id participates in the key: once the credentials
            // manager rotates a token, connections carrying the stale one
            // must not be reused (they would fail server-side validation).
            // Stale entries go when `evict_idle` next runs.
            Some(t) => format!("{}#{}#{}", cluster.instance_key(), t.principal, t.token_id),
            None => cluster.instance_key(),
        }
    }

    /// Borrow (or create) a connection for a cluster. The returned guard
    /// keeps the entry's reference count positive; dropping it starts the
    /// lazy-eviction clock.
    pub fn acquire(
        self: &Arc<Self>,
        cluster: &Arc<HBaseCluster>,
        token: Option<AuthToken>,
    ) -> CachedConnection {
        let key = Self::key(cluster, token.as_ref());
        let mut entries = self.entries.lock();
        let entry = entries.entry(key.clone());
        let connection = match entry {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let entry = e.get_mut();
                entry.refcount += 1;
                entry.zero_since = None;
                entry.connection.resume(Arc::clone(cluster))
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let connection = Connection::open(Arc::clone(cluster), token);
                v.insert(CacheEntry {
                    connection: connection.idle(),
                    cluster: Arc::downgrade(cluster),
                    refcount: 1,
                    zero_since: None,
                });
                connection
            }
        };
        CachedConnection {
            cache: Arc::downgrade(self),
            key,
            connection,
        }
    }

    fn release(&self, key: &str) {
        let mut entries = self.entries.lock();
        if let Some(entry) = entries.get_mut(key) {
            entry.refcount = entry.refcount.saturating_sub(1);
            if entry.refcount == 0 {
                entry.zero_since = Some(Instant::now());
            }
        }
    }

    /// The lazy-deletion pass: close connections idle for longer than
    /// `close_delay`. Returns the number evicted.
    pub fn evict_idle(&self, close_delay: Duration) -> usize {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|_, e| {
            !(e.refcount == 0
                && e.zero_since
                    .is_some_and(|since| since.elapsed() >= close_delay))
        });
        before - entries.len()
    }

    /// Broadcast a region-location invalidation for `table` to every cached
    /// connection. After a split/move/failover, a single task's failure can
    /// repair the cached topology for all connections in the process, the
    /// way the HBase client shares its meta cache per connection. Returns
    /// how many connections were told: those whose cluster is still up.
    pub fn invalidate_locations(&self, table: &shc_kvstore::types::TableName) -> usize {
        let mut told = 0;
        for entry in self.entries.lock().values() {
            if let Some(cluster) = entry.cluster.upgrade() {
                entry.connection.resume(cluster).invalidate_locations(table);
                told += 1;
            }
        }
        told
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ConnectionCache {
    fn default() -> Self {
        ConnectionCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// A ref-counted lease on a cached connection.
pub struct CachedConnection {
    cache: Weak<ConnectionCache>,
    key: String,
    connection: Arc<Connection>,
}

impl CachedConnection {
    pub fn connection(&self) -> &Arc<Connection> {
        &self.connection
    }
}

impl std::ops::Deref for CachedConnection {
    type Target = Connection;
    fn deref(&self) -> &Connection {
        &self.connection
    }
}

impl Drop for CachedConnection {
    fn drop(&mut self) {
        if let Some(cache) = self.cache.upgrade() {
            cache.release(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_kvstore::cluster::ClusterConfig;

    fn cluster(id: &str) -> Arc<HBaseCluster> {
        HBaseCluster::start(ClusterConfig {
            cluster_id: id.to_string(),
            num_servers: 1,
            ..Default::default()
        })
    }

    #[test]
    fn second_acquire_hits_cache() {
        let cache = ConnectionCache::new();
        let cluster = cluster("c1");
        let before = cluster.metrics.snapshot().connections_created;
        let a = cache.acquire(&cluster, None);
        let b = cache.acquire(&cluster, None);
        assert_eq!(a.connection().id, b.connection().id);
        assert_eq!(cluster.metrics.snapshot().connections_created, before + 1);
        assert_eq!(cache.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn different_clusters_get_different_connections() {
        let cache = ConnectionCache::new();
        let c1 = cluster("c1");
        let c2 = cluster("c2");
        let a = cache.acquire(&c1, None);
        let b = cache.acquire(&c2, None);
        assert_ne!(a.connection().id, b.connection().id);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_waits_for_zero_refcount_and_delay() {
        let cache = ConnectionCache::new();
        let cluster = cluster("c1");
        let lease = cache.acquire(&cluster, None);
        // Live lease: never evicted.
        assert_eq!(cache.evict_idle(Duration::ZERO), 0);
        drop(lease);
        // Zero refcount but delay not elapsed.
        assert_eq!(cache.evict_idle(Duration::from_secs(3600)), 0);
        // Delay elapsed (zero delay).
        assert_eq!(cache.evict_idle(Duration::ZERO), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn reacquire_resets_idle_clock() {
        let cache = ConnectionCache::new();
        let cluster = cluster("c1");
        drop(cache.acquire(&cluster, None));
        let lease = cache.acquire(&cluster, None); // back to refcount 1
        assert_eq!(cache.evict_idle(Duration::ZERO), 0);
        drop(lease);
        assert_eq!(cache.evict_idle(Duration::ZERO), 1);
    }

    #[test]
    fn tokens_partition_the_cache() {
        let cache = ConnectionCache::new();
        let cluster = HBaseCluster::start(ClusterConfig {
            cluster_id: "sec".to_string(),
            num_servers: 1,
            secure_token_lifetime_ms: Some(1_000_000),
            ..Default::default()
        });
        let service = cluster.security.clone().unwrap();
        service.register_principal("alice", "ka");
        service.register_principal("bob", "kb");
        let ta = service.obtain_token("alice", "ka").unwrap();
        let tb = service.obtain_token("bob", "kb").unwrap();
        let a = cache.acquire(&cluster, Some(ta));
        let b = cache.acquire(&cluster, Some(tb));
        assert_ne!(a.connection().id, b.connection().id);
    }

    #[test]
    fn invalidation_broadcasts_to_cached_connections() {
        use shc_kvstore::types::{FamilyDescriptor, TableDescriptor, TableName};
        let cache = ConnectionCache::new();
        let cluster = cluster("inv");
        let name = TableName::default_ns("t");
        cluster
            .create_table(
                TableDescriptor::new(name.clone()).with_family(FamilyDescriptor::new("cf")),
            )
            .unwrap();
        let lease = cache.acquire(&cluster, None);
        lease.locate_regions(&name).unwrap(); // populate the location cache
        let before = cluster.metrics.snapshot().location_invalidations;
        let told = cache.invalidate_locations(&name);
        assert_eq!(told, 1);
        assert_eq!(
            cluster.metrics.snapshot().location_invalidations,
            before + 1
        );
        // The connection recovers by re-reading meta.
        assert_eq!(lease.locate_regions(&name).unwrap().len(), 1);
    }

    #[test]
    fn global_cache_is_shared() {
        let g1 = ConnectionCache::global();
        let g2 = ConnectionCache::global();
        assert!(Arc::ptr_eq(&g1, &g2));
    }
}
