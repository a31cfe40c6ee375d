//! A miniature ZooKeeper: a hierarchical key-value registry holding master
//! registration (`/hbase/master`) and region-server membership
//! (`/hbase/rs/<host>`), which `Connection::open` reads. Region locations
//! are not kept here: the master's meta is their one record.

use parking_lot::RwLock;
use std::collections::BTreeMap;

/// A node in the registry tree, addressed by slash-separated paths.
#[derive(Debug, Default)]
pub struct ZooKeeper {
    nodes: RwLock<BTreeMap<String, Vec<u8>>>,
    /// Total read operations served; connection setup shows up here.
    reads: std::sync::atomic::AtomicU64,
}

impl ZooKeeper {
    pub fn new() -> Self {
        ZooKeeper::default()
    }

    /// Create or overwrite a node.
    pub fn set(&self, path: &str, data: impl Into<Vec<u8>>) {
        self.nodes.write().insert(path.to_string(), data.into());
    }

    /// Read a node's data.
    pub fn get(&self, path: &str) -> Option<Vec<u8>> {
        self.reads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.nodes.read().get(path).cloned()
    }

    pub fn exists(&self, path: &str) -> bool {
        self.nodes.read().contains_key(path)
    }

    /// Direct children of a path, like ZooKeeper `getChildren`.
    pub fn children(&self, path: &str) -> Vec<String> {
        self.reads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let prefix = if path.ends_with('/') {
            path.to_string()
        } else {
            format!("{path}/")
        };
        self.nodes
            .read()
            .keys()
            .filter_map(|k| {
                let rest = k.strip_prefix(&prefix)?;
                // Only direct children: no further slash.
                if rest.is_empty() || rest.contains('/') {
                    None
                } else {
                    Some(rest.to_string())
                }
            })
            .collect()
    }

    pub fn read_count(&self) -> u64 {
        self.reads.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let zk = ZooKeeper::new();
        zk.set("/hbase/master", "host-0");
        assert_eq!(zk.get("/hbase/master").unwrap(), b"host-0");
        assert!(zk.get("/hbase/missing").is_none());
    }

    #[test]
    fn children_lists_direct_only() {
        let zk = ZooKeeper::new();
        zk.set("/rs/host-0", "1");
        zk.set("/rs/host-1", "2");
        zk.set("/rs/host-1/region/5", "x");
        let mut kids = zk.children("/rs");
        kids.sort();
        assert_eq!(kids, vec!["host-0", "host-1"]);
    }

    #[test]
    fn exists_reports_set_nodes() {
        let zk = ZooKeeper::new();
        assert!(!zk.exists("/a"));
        zk.set("/a", "1");
        assert!(zk.exists("/a"));
    }

    #[test]
    fn read_count_tracks_lookups() {
        let zk = ZooKeeper::new();
        zk.set("/x", "1");
        let before = zk.read_count();
        zk.get("/x");
        zk.children("/");
        assert_eq!(zk.read_count(), before + 2);
    }
}
