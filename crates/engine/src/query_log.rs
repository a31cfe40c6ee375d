//! A bounded, in-memory log of executed queries — the engine's slow-query
//! log. Every traced run that succeeds records one [`QueryLogEntry`] (SQL
//! text when the query came through `Session::sql`, plan digest, virtual
//! duration, rows returned, RPC count), and entries whose virtual duration exceeds
//! `SessionConfig::slow_query_threshold_us` are flagged slow. The log is a
//! ring buffer: once `capacity` entries are held, the oldest falls off.
//!
//! Exposed to SQL as the `system.queries` virtual table, so the log can be
//! queried with the same engine it observes.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// One executed query as the log remembers it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// Monotonically increasing id; survives ring-buffer eviction (ids keep
    /// counting, they are never reused).
    pub id: u64,
    /// Original SQL text, or `<dataframe>` for plans built through the API.
    pub sql: String,
    /// Stable hash of the optimized plan's rendering — equal digests mean
    /// the same shape executed, whatever the SQL spelling.
    pub plan_digest: String,
    /// Virtual-clock duration of the execution, in modeled microseconds.
    pub duration_us: u64,
    pub rows_returned: u64,
    /// Store RPCs the query issued: the `rpc` spans of its finished trace,
    /// which holds its own RPCs and no other query's.
    pub rpc_count: u64,
    /// True when `duration_us` exceeded the session's slow-query threshold
    /// at record time.
    pub slow: bool,
    /// TraceId minted for this execution. Joins this entry to its
    /// `system.events` rows and its exportable trace.
    pub trace_id: u64,
}

/// Bounded ring buffer of [`QueryLogEntry`], shared by session and system
/// tables. Capacity zero disables recording entirely.
#[derive(Debug)]
pub struct QueryLog {
    capacity: usize,
    next_id: AtomicU64,
    entries: Mutex<VecDeque<QueryLogEntry>>,
}

impl QueryLog {
    pub fn new(capacity: usize) -> Self {
        QueryLog {
            capacity,
            next_id: AtomicU64::new(1),
            entries: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append one entry (its `id` field is assigned here) and return the id.
    /// No-op returning 0 when the log has zero capacity.
    pub fn record(&self, mut entry: QueryLogEntry) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        entry.id = id;
        let mut entries = self.entries.lock();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
        id
    }

    /// Snapshot of the retained entries, oldest first.
    pub fn entries(&self) -> Vec<QueryLogEntry> {
        self.entries.lock().iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

/// Stable 16-hex-digit digest of a plan rendering (FNV-1a; no external
/// hasher dependencies, deterministic across runs and platforms).
pub fn plan_digest(rendered: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendered.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(sql: &str, duration_us: u64, slow: bool) -> QueryLogEntry {
        QueryLogEntry {
            id: 0,
            sql: sql.to_string(),
            plan_digest: plan_digest(sql),
            duration_us,
            rows_returned: 1,
            rpc_count: 2,
            slow,
            trace_id: 0,
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let log = QueryLog::new(2);
        log.record(entry("q1", 10, false));
        log.record(entry("q2", 20, false));
        log.record(entry("q3", 30, true));
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].sql, "q2");
        assert_eq!(entries[1].sql, "q3");
        // Ids keep counting across eviction.
        assert_eq!(entries[1].id, 3);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let log = QueryLog::new(0);
        assert_eq!(log.record(entry("q", 1, false)), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn digest_is_stable_and_distinguishes() {
        assert_eq!(plan_digest("abc"), plan_digest("abc"));
        assert_ne!(plan_digest("abc"), plan_digest("abd"));
        assert_eq!(plan_digest("abc").len(), 16);
    }
}
