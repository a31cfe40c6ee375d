//! # shc-engine
//!
//! An in-memory relational query engine modelled on Spark SQL, built as the
//! compute substrate for the SHC reproduction. It provides:
//!
//! * a SQL parser, analyzer and rule-based (Catalyst-style) optimizer with
//!   predicate pushdown, constant folding and column pruning
//!   ([`parser`], [`analyzer`], [`optimizer`]);
//! * a DataFrame API mirroring Spark's ([`dataframe`], [`session`]);
//! * the data source API that connectors plug into — `scan(projection,
//!   filters)` plus `unhandled_filters`, exactly Spark's
//!   `PrunedFilteredScan` contract ([`datasource`], [`source_filter`]);
//! * physical execution over columnar batches (typed vectors, null bitmaps,
//!   dictionary-encoded strings) with vectorized filters, a locality-aware
//!   executor pool, broadcast and shuffle hash joins chosen from the
//!   observed sizes of their inputs, two-phase hash aggregation, and
//!   shuffle/memory accounting ([`columnar`], [`physical`], [`scheduler`],
//!   [`shuffle`], [`metrics`]);
//! * introspection: closure-backed virtual tables (`system.*`) and a
//!   bounded slow-query log recorded by every `collect`
//!   ([`system`], [`query_log`]).
//!
//! ## Quick start
//!
//! ```
//! use shc_engine::prelude::*;
//! use std::sync::Arc;
//!
//! let session = Session::new_default();
//! let schema = Schema::new(vec![
//!     Field::new("id", DataType::Int64),
//!     Field::new("name", DataType::Utf8),
//! ]);
//! let rows = vec![
//!     Row::new(vec![Value::Int64(1), Value::Utf8("ada".into())]),
//!     Row::new(vec![Value::Int64(2), Value::Utf8("bob".into())]),
//! ];
//! session.register_table("people", Arc::new(MemTable::with_rows(schema, rows, 1)));
//!
//! let df = session.sql("SELECT name FROM people WHERE id = 2").unwrap();
//! let out = df.collect().unwrap();
//! assert_eq!(out[0].get(0).as_str(), Some("bob"));
//! ```

pub mod aggregate;
pub mod analyzer;
pub mod columnar;
pub mod dataframe;
pub mod datasource;
pub mod error;
pub mod expr;
mod hash_aggregate;
mod hash_join;
mod key_table;
pub mod logical;
pub mod memtable;
pub mod metrics;
pub mod optimizer;
pub mod parser;
pub mod physical;
/// TPC-DS q39a and q39b, whose text the workload crate owns: plans the
/// tests build.
#[cfg(test)]
#[path = "../../tpcds/src/queries/q39.rs"]
mod q39;
pub mod query_log;
#[cfg(test)]
mod reference;
pub mod row;
pub mod scheduler;
pub mod schema;
pub mod session;
pub mod shuffle;
pub mod source_filter;
pub mod system;
pub mod task_timeline;
pub mod value;

/// Common imports for engine users.
pub mod prelude {
    pub use crate::aggregate::AggFunc;
    pub use crate::columnar::{Bitmap, Column, ColumnarBatch, Partition};
    pub use crate::dataframe::{
        avg, col, count, count_star, lit, max, min, stddev, sum, DataFrame, QueryAnalysis,
    };
    pub use crate::datasource::{ScanPartition, TableProvider};
    pub use crate::error::{EngineError, Result};
    pub use crate::expr::{BinaryOp, BoundExpr, Expr};
    pub use crate::logical::{AggExpr, JoinType, LogicalPlan};
    pub use crate::memtable::MemTable;
    pub use crate::metrics::{
        EdgeStat, QueryMetrics, QueryMetricsSnapshot, ShuffleEdges, TaskMetrics,
        TaskMetricsSnapshot,
    };
    pub use crate::physical::{OpProfile, RegionScanProfile};
    pub use crate::query_log::{QueryLog, QueryLogEntry};
    pub use crate::row::Row;
    pub use crate::scheduler::{ExecutorConfig, SchedulerFaults};
    pub use crate::schema::{Field, Schema, SchemaRef};
    pub use crate::session::{Session, SessionConfig};
    pub use crate::source_filter::SourceFilter;
    pub use crate::system::{SystemCatalog, SystemTable};
    pub use crate::task_timeline::{
        StageRecord, StageStats, TaskAttempt, TaskProfile, TaskTimeline,
    };
    pub use crate::value::{DataType, Value};
}
