//! # shc-kvstore
//!
//! An embedded, multi-"node" column-oriented key-value store modelled on
//! Apache HBase, built as the storage substrate for the SHC reproduction.
//!
//! The store reproduces the HBase architecture the paper depends on:
//!
//! * **Data model** — four coordinates (row key, column family, column
//!   qualifier, version/timestamp); values are opaque byte arrays
//!   ([`types`]).
//! * **Regions** — contiguous row-key ranges with a memstore + immutable
//!   store files per family, WAL-fronted writes, flushes, compactions and
//!   splits ([`region`], [`memstore`], [`storefile`], [`wal`]).
//! * **Region servers** — host regions and execute Scan/Get/BulkGet/Put
//!   RPCs with server-side filters ([`region_server`], [`filter`]); reads
//!   answer in one encoded buffer ([`cellblock`]).
//! * **HMaster + ZooKeeper** — table admin, region assignment, balancing
//!   and naming ([`master`], [`zookeeper`]).
//! * **Client** — heavy-weight connections, region-routed tables, scans
//!   split per region with locality hints ([`client`]).
//! * **Security** — simulated Kerberos/delegation tokens for secure-mode
//!   clusters ([`security`]).
//! * **Simulation** — deterministic clock, per-RPC network cost model and
//!   cluster-wide metrics ([`clock`], [`network`], [`metrics`]).
//! * **Introspection** — per-region/server load accounting, virtual-clock
//!   heartbeats to the master, and the aggregated cluster status ([`load`]);
//!   heartbeat-fed per-region heat time series ([`heat`]).
//!
//! ## Quick start
//!
//! ```
//! use shc_kvstore::prelude::*;
//!
//! let cluster = HBaseCluster::start_default();
//! cluster.create_table(
//!     TableDescriptor::new(TableName::default_ns("actives"))
//!         .with_family(FamilyDescriptor::new("cf1")),
//! ).unwrap();
//!
//! let conn = Connection::open(cluster.clone(), None);
//! let table = conn.table(TableName::default_ns("actives"));
//! table.put(Put::new("row1").add("cf1", "col1", "value")).unwrap();
//! let row = table.get(Get::new("row1")).unwrap();
//! assert_eq!(row.value(b"cf1", b"col1").unwrap().as_ref(), b"value");
//! ```

pub mod block_cache;
pub mod cellblock;
pub mod client;
pub mod clock;
pub mod cluster;
pub mod error;
pub mod fault;
pub mod filter;
pub mod heat;
pub mod load;
pub mod master;
pub mod memstore;
mod merge;
pub mod metrics;
pub mod network;
pub mod region;
pub mod region_server;
pub mod security;
pub mod storage;
pub mod storefile;
pub mod types;
pub mod wal;
pub mod zookeeper;

/// The common imports for store users.
pub mod prelude {
    pub use crate::block_cache::BlockCache;
    pub use crate::client::{Connection, RegionScanner, Table};
    pub use crate::clock::Clock;
    pub use crate::cluster::{ClusterConfig, HBaseCluster};
    pub use crate::error::{KvError, Result};
    pub use crate::fault::{
        FaultInjector, FaultKind, FaultRule, FileFaultKind, FileFaultRule, FileOp, RpcOp, Trigger,
    };
    pub use crate::filter::{CompareOp, Filter, RowRange};
    pub use crate::heat::{HeatObservatory, RegionHeat, Trend};
    pub use crate::load::{
        ClusterStatus, HotRegion, RegionLoad, ServerLoad, ServerStatus, TableLoadSummary,
    };
    pub use crate::master::RegionLocation;
    pub use crate::metrics::{ClusterMetrics, MetricsSnapshot};
    pub use crate::network::NetworkSim;
    pub use crate::region::{RegionConfig, RegionInfo, ScanStats};
    pub use crate::security::{AuthToken, TokenService};
    pub use crate::storage::StorageEnv;
    pub use crate::types::{
        Cell, CellKey, CellType, Delete, DeleteScope, FamilyDescriptor, Get, Projection, Put,
        RowResult, Scan, TableDescriptor, TableName, TimeRange,
    };
}
