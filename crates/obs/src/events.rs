//! Flight recorder: a bounded, severity-tagged structured event journal.
//!
//! Spans answer "where did the time go inside one query"; counters answer
//! "how much work happened overall". What neither captures is the *incident
//! narrative* — a region was reassigned, a WAL was replayed, a scanner lease
//! expired mid-scan, a fault fired — the discrete state transitions an
//! operator greps for when a query misbehaves. The [`EventJournal`] records
//! those transitions from every layer into one bounded ring buffer, each
//! event stamped with a **caller-provided virtual-clock timestamp** (the
//! kvstore layer passes logical milliseconds, the query layer passes the
//! query trace's virtual microseconds — no wall-clock reads anywhere), a
//! [`Severity`], a static category, and the TraceId of the query that
//! was active on the recording thread, so `system.events` rows join back to
//! `system.queries` and exported traces.
//!
//! Determinism: sequence numbers come from a single atomic, timestamps from
//! the deterministic clocks, and messages contain no thread ids or
//! addresses — a seeded single-threaded run produces a byte-identical
//! journal every time.

use crate::trace;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Event severity, ordered: `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Debug,
    Info,
    Warn,
    Error,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Error => "ERROR",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number, assigned at record time. Strictly
    /// increasing across the journal's whole lifetime, including entries
    /// that have since been evicted by the ring buffer.
    pub seq: u64,
    /// Caller-provided virtual-clock timestamp (ms for the store layer,
    /// µs for the query layer — see module docs).
    pub timestamp: u64,
    pub severity: Severity,
    /// Static category tag (`"fault"`, `"region"`, `"wal"`, `"scanner"`,
    /// `"block-cache"`, `"scheduler"`, `"query"`, …) — greppable and cheap.
    pub category: &'static str,
    pub message: String,
    /// TraceId of the query active on the recording thread; 0 when none.
    pub trace_id: u64,
}

impl Event {
    /// One-line rendering, stable across runs:
    /// `seq=12 t=1500000000042 WARN [fault] trace=0x3 injected Drop …`.
    pub fn render(&self) -> String {
        format!(
            "seq={} t={} {} [{}] trace={:#x} {}",
            self.seq, self.timestamp, self.severity, self.category, self.trace_id, self.message
        )
    }
}

/// Bounded ring buffer of [`Event`]s with a severity floor.
///
/// `record` is a mutex-protected push; eviction drops the oldest entry.
/// Events below the configured minimum severity are discarded without
/// consuming a sequence number, so surviving sequence numbers stay strictly
/// increasing and the filter cannot introduce gaps of its own.
#[derive(Debug)]
pub struct EventJournal {
    capacity: usize,
    next_seq: AtomicU64,
    /// Events accepted over the journal's lifetime (≥ `len()` once the ring
    /// has wrapped).
    total_recorded: AtomicU64,
    min_severity: AtomicU8,
    events: Mutex<VecDeque<Event>>,
}

impl EventJournal {
    /// Journal keeping at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> std::sync::Arc<Self> {
        std::sync::Arc::new(EventJournal {
            capacity,
            next_seq: AtomicU64::new(0),
            total_recorded: AtomicU64::new(0),
            min_severity: AtomicU8::new(Severity::Debug as u8),
            events: Mutex::new(VecDeque::new()),
        })
    }

    /// Record one event. The active query's TraceId (if any) is attached
    /// automatically from the thread-local trace context.
    pub fn record(
        &self,
        severity: Severity,
        category: &'static str,
        timestamp: u64,
        message: impl Into<String>,
    ) {
        let trace_id = trace::current_trace_id().unwrap_or(0);
        self.record_with_trace(severity, category, timestamp, message, trace_id);
    }

    /// [`record`](Self::record) with an explicit TraceId (0 = none).
    pub fn record_with_trace(
        &self,
        severity: Severity,
        category: &'static str,
        timestamp: u64,
        message: impl Into<String>,
        trace_id: u64,
    ) {
        if (severity as u8) < self.min_severity.load(Ordering::Relaxed) || self.capacity == 0 {
            return;
        }
        let mut events = self.events.lock();
        // Seq allocation happens under the lock so seq order equals ring
        // order even when several threads record concurrently.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.total_recorded.fetch_add(1, Ordering::Relaxed);
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(Event {
            seq,
            timestamp,
            severity,
            category,
            message: message.into(),
            trace_id,
        });
    }

    /// Drop events below `severity` at record time (already-recorded events
    /// are kept).
    pub fn set_min_severity(&self, severity: Severity) {
        self.min_severity.store(severity as u8, Ordering::Relaxed);
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().iter().cloned().collect()
    }

    /// Retained events at or above `floor`, oldest first.
    pub fn events_at_least(&self, floor: Severity) -> Vec<Event> {
        self.events
            .lock()
            .iter()
            .filter(|e| e.severity >= floor)
            .cloned()
            .collect()
    }

    /// Number of events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events accepted over the journal's lifetime, including entries the
    /// ring has since evicted.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded.load(Ordering::Relaxed)
    }

    /// Clear retained events (sequence numbers keep counting).
    pub fn clear(&self) {
        self.events.lock().clear();
    }

    /// Render every retained event, one line each — the "flight recorder
    /// dump" attached to slow and errored queries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events.lock().iter() {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_timestamps() {
        let j = EventJournal::new(16);
        j.record(Severity::Info, "region", 100, "region 1 opened");
        j.record(Severity::Warn, "fault", 250, "injected Drop");
        let events = j.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].timestamp, 100);
        assert_eq!(events[1].severity, Severity::Warn);
        assert_eq!(j.total_recorded(), 2);
    }

    #[test]
    fn ring_buffer_wraps_keeping_newest() {
        let j = EventJournal::new(4);
        for i in 0..10u64 {
            j.record(Severity::Info, "test", i, format!("event {i}"));
        }
        let events = j.events();
        assert_eq!(events.len(), 4);
        assert_eq!(j.total_recorded(), 10);
        // The newest four survive, in order, with their original seqs.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(events[0].message, "event 6");
    }

    #[test]
    fn severity_floor_filters_at_record_time() {
        let j = EventJournal::new(16);
        j.set_min_severity(Severity::Warn);
        j.record(Severity::Debug, "test", 1, "too quiet");
        j.record(Severity::Info, "test", 2, "still too quiet");
        j.record(Severity::Warn, "test", 3, "loud enough");
        j.record(Severity::Error, "test", 4, "definitely");
        let events = j.events();
        assert_eq!(events.len(), 2);
        // Filtered events consume no sequence numbers.
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(j.total_recorded(), 2);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Error.as_str(), "ERROR");
    }

    #[test]
    fn events_at_least_filters_view() {
        let j = EventJournal::new(16);
        j.record(Severity::Debug, "a", 1, "d");
        j.record(Severity::Warn, "b", 2, "w");
        j.record(Severity::Error, "c", 3, "e");
        let loud = j.events_at_least(Severity::Warn);
        assert_eq!(loud.len(), 2);
        assert!(loud.iter().all(|e| e.severity >= Severity::Warn));
    }

    #[test]
    fn zero_capacity_discards_everything() {
        let j = EventJournal::new(0);
        j.record(Severity::Error, "test", 1, "dropped");
        assert!(j.is_empty());
        assert_eq!(j.total_recorded(), 0);
    }

    #[test]
    fn render_is_one_line_per_event() {
        let j = EventJournal::new(8);
        j.record(Severity::Warn, "fault", 42, "injected Drop op=Scan");
        let dump = j.render();
        assert_eq!(
            dump,
            "seq=0 t=42 WARN [fault] trace=0x0 injected Drop op=Scan\n"
        );
    }

    #[test]
    fn attaches_active_trace_id() {
        let tracer = crate::trace::Tracer::with_id(0xabc);
        let j = EventJournal::new(8);
        {
            let _root = tracer.root("query");
            j.record(Severity::Info, "test", 1, "inside");
        }
        j.record(Severity::Info, "test", 2, "outside");
        let events = j.events();
        assert_eq!(events[0].trace_id, 0xabc);
        assert_eq!(events[1].trace_id, 0);
    }

    #[test]
    fn clear_keeps_seq_monotonic() {
        let j = EventJournal::new(8);
        j.record(Severity::Info, "test", 1, "one");
        j.clear();
        j.record(Severity::Info, "test", 2, "two");
        assert_eq!(j.events()[0].seq, 1);
        assert_eq!(j.total_recorded(), 2);
    }
}
