//! `SHCCredentialsManager` (paper §V.B.2, Figure 2): dynamic token
//! acquisition for multiple secure clusters.
//!
//! Spark's static token acquisition cannot talk to a *new* secure service
//! after launch; SHC's manager fetches tokens on demand, caches one per
//! cluster, renews them before expiry in a [refresh pass](SHCCredentialsManager::refresh_pass),
//! and serializes them for propagation to executors.

use crate::conf::SecurityConf;
use crate::error::{Result, ShcError};
use parking_lot::Mutex;
use shc_kvstore::cluster::HBaseCluster;
use shc_kvstore::security::AuthToken;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Token lifecycle tuning, mirroring `expireTimeFraction` and
/// `refreshTimeFraction`.
#[derive(Clone, Copy, Debug)]
pub struct CredentialsConfig {
    /// A cached token is considered unusable once less than this fraction
    /// of its lifetime remains.
    pub expire_time_fraction: f64,
    /// A refresh pass renews tokens with less than this fraction of
    /// lifetime remaining.
    pub refresh_time_fraction: f64,
}

impl Default for CredentialsConfig {
    fn default() -> Self {
        CredentialsConfig {
            expire_time_fraction: 0.05,
            refresh_time_fraction: 0.30,
        }
    }
}

/// The credentials manager. One per process, shared by every relation.
pub struct SHCCredentialsManager {
    config: CredentialsConfig,
    /// cluster id → cached token.
    tokens: Mutex<HashMap<String, AuthToken>>,
    pub fetches: AtomicU64,
    pub renewals: AtomicU64,
    pub cache_hits: AtomicU64,
}

impl SHCCredentialsManager {
    pub fn new(config: CredentialsConfig) -> Arc<Self> {
        Arc::new(SHCCredentialsManager {
            config,
            tokens: Mutex::new(HashMap::new()),
            fetches: AtomicU64::new(0),
            renewals: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        })
    }

    pub fn new_default() -> Arc<Self> {
        Self::new(CredentialsConfig::default())
    }

    /// `getTokenForCluster`: return a valid token for the cluster, from the
    /// cache when possible, freshly obtained otherwise. Returns `None` for
    /// insecure clusters.
    pub fn get_token_for_cluster(
        &self,
        cluster: &HBaseCluster,
        security: &SecurityConf,
    ) -> Result<Option<AuthToken>> {
        let Some(service) = &cluster.security else {
            return Ok(None);
        };
        let key = cluster.cluster_id().to_string();
        {
            let tokens = self.tokens.lock();
            if let Some(token) = tokens.get(&key) {
                let now = cluster.clock.peek_ms();
                if token.remaining_fraction(now) > self.config.expire_time_fraction {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(token.clone()));
                }
            }
        }
        // Fetch a new token with the configured principal + keytab.
        let token = service
            .obtain_token(&security.principal, &security.keytab)
            .map_err(|e| ShcError::Security(e.to_string()))?;
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.tokens.lock().insert(key, token.clone());
        Ok(Some(token))
    }

    /// One token-update pass: renew every cached token
    /// whose remaining lifetime fraction fell below `refresh_time_fraction`.
    /// Returns the number of tokens renewed.
    pub fn refresh_pass(&self, clusters: &[Arc<HBaseCluster>]) -> usize {
        let mut renewed = 0;
        for cluster in clusters {
            let Some(service) = &cluster.security else {
                continue;
            };
            let key = cluster.cluster_id().to_string();
            let current = self.tokens.lock().get(&key).cloned();
            if let Some(token) = current {
                let now = cluster.clock.peek_ms();
                if token.remaining_fraction(now) < self.config.refresh_time_fraction {
                    if let Ok(new_token) = service.renew(&token) {
                        self.tokens.lock().insert(key, new_token);
                        self.renewals.fetch_add(1, Ordering::Relaxed);
                        renewed += 1;
                    }
                }
            }
        }
        renewed
    }

    /// Serialize every cached token for propagation to executors.
    pub fn serialize_tokens(&self) -> Vec<(String, Vec<u8>)> {
        self.tokens
            .lock()
            .iter()
            .map(|(k, t)| (k.clone(), t.serialize()))
            .collect()
    }

    /// Load tokens received from the driver (executor side).
    pub fn load_tokens(&self, serialized: &[(String, Vec<u8>)]) -> Result<usize> {
        let mut loaded = 0;
        let mut tokens = self.tokens.lock();
        for (key, bytes) in serialized {
            let token = AuthToken::deserialize(bytes)
                .ok_or_else(|| ShcError::Security("corrupt serialized token".into()))?;
            tokens.insert(key.clone(), token);
            loaded += 1;
        }
        Ok(loaded)
    }

    pub fn cached_cluster_ids(&self) -> Vec<String> {
        self.tokens.lock().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_kvstore::cluster::ClusterConfig;

    fn secure_cluster(id: &str, lifetime_ms: u64) -> Arc<HBaseCluster> {
        let cluster = HBaseCluster::start(ClusterConfig {
            cluster_id: id.to_string(),
            num_servers: 1,
            secure_token_lifetime_ms: Some(lifetime_ms),
            ..Default::default()
        });
        cluster
            .security
            .as_ref()
            .unwrap()
            .register_principal("ambari-qa@EXAMPLE.COM", "smokeuser.headless.keytab");
        cluster
    }

    fn sec() -> SecurityConf {
        SecurityConf {
            principal: "ambari-qa@EXAMPLE.COM".to_string(),
            keytab: "smokeuser.headless.keytab".to_string(),
        }
    }

    #[test]
    fn fetches_then_serves_from_cache() {
        let mgr = SHCCredentialsManager::new_default();
        let cluster = secure_cluster("c1", 1_000_000);
        let t1 = mgr
            .get_token_for_cluster(&cluster, &sec())
            .unwrap()
            .unwrap();
        let t2 = mgr
            .get_token_for_cluster(&cluster, &sec())
            .unwrap()
            .unwrap();
        assert_eq!(t1.token_id, t2.token_id);
        assert_eq!(mgr.fetches.load(Ordering::Relaxed), 1);
        assert_eq!(mgr.cache_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn insecure_cluster_needs_no_token() {
        let mgr = SHCCredentialsManager::new_default();
        let cluster = HBaseCluster::start(ClusterConfig {
            cluster_id: "plain".into(),
            num_servers: 1,
            ..Default::default()
        });
        assert!(mgr
            .get_token_for_cluster(&cluster, &sec())
            .unwrap()
            .is_none());
    }

    #[test]
    fn multiple_clusters_cache_independent_tokens() {
        // The paper's headline scenario: one application reading from two
        // secure HBase clusters (plus Hive) simultaneously.
        let mgr = SHCCredentialsManager::new_default();
        let c1 = secure_cluster("hbase-1", 1_000_000);
        let c2 = secure_cluster("hbase-2", 1_000_000);
        let t1 = mgr.get_token_for_cluster(&c1, &sec()).unwrap().unwrap();
        let t2 = mgr.get_token_for_cluster(&c2, &sec()).unwrap().unwrap();
        assert_eq!(t1.cluster_id, "hbase-1");
        assert_eq!(t2.cluster_id, "hbase-2");
        let mut ids = mgr.cached_cluster_ids();
        ids.sort();
        assert_eq!(ids, vec!["hbase-1", "hbase-2"]);
    }

    #[test]
    fn expired_cached_token_is_refetched() {
        let mgr = SHCCredentialsManager::new_default();
        let cluster = secure_cluster("c1", 100);
        let t1 = mgr
            .get_token_for_cluster(&cluster, &sec())
            .unwrap()
            .unwrap();
        // Burn the logical clock past expiry.
        for _ in 0..200 {
            cluster.clock.now_ms();
        }
        let t2 = mgr
            .get_token_for_cluster(&cluster, &sec())
            .unwrap()
            .unwrap();
        assert_ne!(t1.token_id, t2.token_id);
        assert_eq!(mgr.fetches.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn refresh_pass_renews_aging_tokens() {
        let mgr = SHCCredentialsManager::new(CredentialsConfig {
            refresh_time_fraction: 0.9, // renew aggressively
            ..Default::default()
        });
        let cluster = secure_cluster("c1", 1_000);
        mgr.get_token_for_cluster(&cluster, &sec()).unwrap();
        // Age the token past 10% of its lifetime.
        for _ in 0..200 {
            cluster.clock.now_ms();
        }
        let renewed = mgr.refresh_pass(&[Arc::clone(&cluster)]);
        assert_eq!(renewed, 1);
        assert_eq!(mgr.renewals.load(Ordering::Relaxed), 1);
        // Fresh token: nothing to do.
        assert_eq!(mgr.refresh_pass(&[cluster]), 0);
    }

    #[test]
    fn token_propagation_roundtrip() {
        let driver = SHCCredentialsManager::new_default();
        let cluster = secure_cluster("c1", 1_000_000);
        driver.get_token_for_cluster(&cluster, &sec()).unwrap();
        let wire = driver.serialize_tokens();
        assert_eq!(wire.len(), 1);

        let executor = SHCCredentialsManager::new_default();
        assert_eq!(executor.load_tokens(&wire).unwrap(), 1);
        // Executor now serves the token from its cache without fetching.
        let t = executor
            .get_token_for_cluster(&cluster, &sec())
            .unwrap()
            .unwrap();
        assert_eq!(executor.fetches.load(Ordering::Relaxed), 0);
        assert_eq!(t.cluster_id, "c1");
    }

    #[test]
    fn corrupt_serialized_token_rejected() {
        let mgr = SHCCredentialsManager::new_default();
        assert!(mgr
            .load_tokens(&[("x".to_string(), b"garbage".to_vec())])
            .is_err());
    }

    #[test]
    fn wrong_keytab_is_a_security_error() {
        let mgr = SHCCredentialsManager::new_default();
        let cluster = secure_cluster("c1", 1_000);
        let bad = SecurityConf {
            principal: "ambari-qa@EXAMPLE.COM".into(),
            keytab: "wrong.keytab".into(),
        };
        assert!(matches!(
            mgr.get_token_for_cluster(&cluster, &bad),
            Err(ShcError::Security(_))
        ));
    }
}
