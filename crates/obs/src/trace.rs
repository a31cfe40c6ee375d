//! Deterministic hierarchical tracing spans (query → stage → task → RPC).
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Span timestamps come from a per-query virtual clock —
//!    an atomic microsecond counter that ticks by one on every read and is
//!    advanced by the *modeled* cost of simulated work (network transfer
//!    charges, injected fault delays, retry backoffs). No `Instant::now()`
//!    anywhere: the same query over the same data produces the same trace.
//! 2. **Cheap when off.** Instrumentation points call the free function
//!    [`span`], which looks at a thread-local context stack and returns an
//!    inert guard when no tracer is active — the common (untraced) path is a
//!    thread-local read and a branch.
//! 3. **No plumbing.** The kvstore client cannot name engine types and vice
//!    versa, so the active tracer travels ambiently: a [`Tracer`] is pushed
//!    onto the current thread's stack for the duration of a query, and
//!    [`capture`]/[`TraceContext::adopt`] carry it across the thread spawns
//!    in the scheduler and the parallel-put path.
//!
//! Each participating thread appends finished spans to its own buffer
//! (appends never contend — a lock is taken only when a *new* thread joins
//! the trace and once at merge time), and [`Tracer::finish`] merges the
//! per-thread buffers into a single [`Trace`] tree.

use crate::json::{render, Json};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

/// One finished span: a named interval on the tracer's virtual clock.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique within the trace; allocation order, so `parent < id` always.
    pub id: u64,
    /// Parent span id; `None` for the query root.
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Virtual microseconds (see module docs — not wall time).
    pub start_us: u64,
    pub end_us: u64,
    /// Key/value annotations (operator ids, hosts, region ids, byte counts…).
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[derive(Default)]
struct ThreadBuffer {
    spans: Mutex<Vec<SpanRecord>>,
}

struct TracerInner {
    /// Query-level correlation id; 0 = anonymous. Minted by the session and
    /// joined against `system.queries`, `system.events`, and exemplars.
    trace_id: u64,
    /// Virtual clock: +1 per read, advanced by modeled costs.
    clock_us: AtomicU64,
    next_span_id: AtomicU64,
    buffers: Mutex<Vec<(ThreadId, Arc<ThreadBuffer>)>>,
    /// Flight recorder attached for the query's lifetime, so any layer on a
    /// traced thread can emit events ambiently via [`record_event`].
    journal: Mutex<Option<Arc<crate::events::EventJournal>>>,
}

/// A per-query trace collector. Clone is cheap (an `Arc`).
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// One entry of the thread-local context stack. `span_id` is the innermost
/// active span on this thread; children attach to it.
struct Frame {
    tracer: Tracer,
    buffer: Arc<ThreadBuffer>,
    span_id: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// Monotonic per-thread accumulator of every virtual-clock charge made
    /// from this thread (ticks and modeled advances alike). The global
    /// clock is shared across threads, so two reads of it straddling a task
    /// attempt include whatever *other* threads charged in between; this
    /// counter does not, which is what makes per-attempt costs
    /// deterministic under parallel execution. See [`thread_cost_us`].
    static THREAD_COST: Cell<u64> = const { Cell::new(0) };
}

impl Tracer {
    pub fn new() -> Self {
        Self::with_id(0)
    }

    /// Tracer carrying an explicit TraceId (0 = anonymous, what
    /// [`Tracer::new`] uses).
    pub fn with_id(trace_id: u64) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                trace_id,
                clock_us: AtomicU64::new(0),
                next_span_id: AtomicU64::new(0),
                buffers: Mutex::new(Vec::new()),
                journal: Mutex::new(None),
            }),
        }
    }

    /// This tracer's TraceId (0 = anonymous).
    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id
    }

    /// Attach a flight recorder for this query: while the tracer is active
    /// on a thread, [`record_event`] writes into it with the TraceId and the
    /// tracer's virtual clock attached.
    pub fn attach_journal(&self, journal: Arc<crate::events::EventJournal>) {
        *self.inner.journal.lock() = Some(journal);
    }

    /// Read the virtual clock, ticking it forward one microsecond so that
    /// consecutive reads are strictly ordered (same discipline as the
    /// kvstore's deterministic logical clock).
    pub fn now_us(&self) -> u64 {
        THREAD_COST.with(|c| c.set(c.get() + 1));
        self.inner.clock_us.fetch_add(1, Ordering::Relaxed)
    }

    /// Advance the virtual clock by a modeled cost.
    pub fn advance_us(&self, us: u64) {
        if us > 0 {
            THREAD_COST.with(|c| c.set(c.get() + us));
            self.inner.clock_us.fetch_add(us, Ordering::Relaxed);
        }
    }

    /// Read the virtual clock without ticking it — for event timestamps,
    /// which must not perturb span intervals.
    pub fn peek_us(&self) -> u64 {
        self.inner.clock_us.load(Ordering::Relaxed)
    }

    fn next_id(&self) -> u64 {
        self.inner.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    fn buffer_for_current_thread(&self) -> Arc<ThreadBuffer> {
        let tid = std::thread::current().id();
        let mut buffers = self.inner.buffers.lock();
        if let Some((_, b)) = buffers.iter().find(|(t, _)| *t == tid) {
            return Arc::clone(b);
        }
        let b = Arc::new(ThreadBuffer::default());
        buffers.push((tid, Arc::clone(&b)));
        b
    }

    /// Open the root span and activate this tracer on the current thread
    /// until the returned guard drops.
    pub fn root(&self, name: &'static str) -> SpanGuard {
        let buffer = self.buffer_for_current_thread();
        start_span(self.clone(), buffer, None, name)
    }

    /// Merge all per-thread buffers into one [`Trace`]. Call after every
    /// guard has dropped (i.e. after the query finished). Idempotent: the
    /// buffers are copied, not drained.
    pub fn finish(&self) -> Trace {
        let buffers = self.inner.buffers.lock();
        let mut spans: Vec<SpanRecord> = Vec::new();
        for (_, b) in buffers.iter() {
            spans.extend(b.spans.lock().iter().cloned());
        }
        spans.sort_by_key(|s| s.id);
        Trace {
            trace_id: self.inner.trace_id,
            spans,
        }
    }
}

fn start_span(
    tracer: Tracer,
    buffer: Arc<ThreadBuffer>,
    parent: Option<u64>,
    name: &'static str,
) -> SpanGuard {
    let id = tracer.next_id();
    let start_us = tracer.now_us();
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            tracer: tracer.clone(),
            buffer: Arc::clone(&buffer),
            span_id: id,
        })
    });
    SpanGuard {
        data: Some(SpanData {
            tracer,
            buffer,
            record: SpanRecord {
                id,
                parent,
                name,
                start_us,
                end_us: start_us,
                attrs: Vec::new(),
            },
        }),
    }
}

/// Open a child span of the innermost active span on this thread, or an
/// inert guard when no tracer is active. This is the instrumentation entry
/// point used throughout the engine and the kvstore.
pub fn span(name: &'static str) -> SpanGuard {
    let top = STACK.with(|s| {
        s.borrow()
            .last()
            .map(|f| (f.tracer.clone(), Arc::clone(&f.buffer), f.span_id))
    });
    match top {
        None => SpanGuard { data: None },
        Some((tracer, buffer, parent)) => start_span(tracer, buffer, Some(parent), name),
    }
}

/// Whether a tracer is active on this thread.
pub fn active() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

/// Read the active tracer's virtual clock (ticking), if any.
pub fn now_us() -> Option<u64> {
    STACK
        .with(|s| s.borrow().last().map(|f| f.tracer.clone()))
        .map(|t| t.now_us())
}

/// Advance the active tracer's virtual clock by a modeled cost, if any.
pub fn advance_us(us: u64) {
    if us == 0 {
        return;
    }
    if let Some(t) = STACK.with(|s| s.borrow().last().map(|f| f.tracer.clone())) {
        t.advance_us(us);
    }
}

/// Total virtual-clock microseconds this thread has charged (clock ticks
/// plus modeled advances), across all tracers it ever touched. Monotonic
/// and thread-local: the cost of a closure run on this thread is the delta
/// between two reads, and — unlike deltas of the shared per-query clock —
/// is unaffected by what other threads charge concurrently. Returns 0 cost
/// for untraced work (the clock is only touched while a tracer is active).
pub fn thread_cost_us() -> u64 {
    THREAD_COST.with(|c| c.get())
}

/// The active tracer's TraceId, if a tracer is active on this thread.
/// Returns `Some(0)` for an anonymous tracer — callers treating 0 as "no
/// exemplar" can simply `unwrap_or(0)`.
pub fn current_trace_id() -> Option<u64> {
    STACK.with(|s| s.borrow().last().map(|f| f.tracer.trace_id()))
}

/// Record a flight-recorder event against the active tracer's attached
/// journal, stamped with the tracer's virtual microseconds and TraceId.
/// No-op when no tracer is active or none has a journal attached — layers
/// below the session can call this unconditionally.
pub fn record_event(
    severity: crate::events::Severity,
    category: &'static str,
    message: impl Into<String>,
) {
    let tracer = STACK.with(|s| s.borrow().last().map(|f| f.tracer.clone()));
    if let Some(t) = tracer {
        let journal = t.inner.journal.lock().clone();
        if let Some(j) = journal {
            j.record_with_trace(severity, category, t.peek_us(), message, t.trace_id());
        }
    }
}

/// Snapshot of the innermost active (tracer, span) for handing to another
/// thread; see [`TraceContext::adopt`].
pub fn capture() -> Option<TraceContext> {
    STACK.with(|s| {
        s.borrow().last().map(|f| TraceContext {
            tracer: f.tracer.clone(),
            span_id: f.span_id,
        })
    })
}

/// A captured trace position that can be re-established on another thread.
#[derive(Clone)]
pub struct TraceContext {
    tracer: Tracer,
    span_id: u64,
}

impl TraceContext {
    /// Re-establish this context on the current thread: spans opened while
    /// the returned guard lives become children of the captured span.
    pub fn adopt(&self) -> ContextGuard {
        let buffer = self.tracer.buffer_for_current_thread();
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                tracer: self.tracer.clone(),
                buffer,
                span_id: self.span_id,
            })
        });
        ContextGuard { active: true }
    }

    /// Adopt an optional context (no-op guard when `None`) — convenience for
    /// `trace::capture()` results threaded through spawn sites.
    pub fn adopt_opt(ctx: Option<&TraceContext>) -> ContextGuard {
        match ctx {
            Some(c) => c.adopt(),
            None => ContextGuard { active: false },
        }
    }
}

/// Pops the adopted context frame on drop.
pub struct ContextGuard {
    active: bool,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.active {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

struct SpanData {
    tracer: Tracer,
    buffer: Arc<ThreadBuffer>,
    record: SpanRecord,
}

/// RAII guard for an open span; records it to the per-thread buffer on drop.
/// Inert (all methods no-ops) when created with no active tracer.
pub struct SpanGuard {
    data: Option<SpanData>,
}

impl SpanGuard {
    /// Attach a key/value annotation. No-op on inert guards, so callers can
    /// annotate unconditionally.
    pub fn annotate(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(d) = &mut self.data {
            d.record.attrs.push((key, value.to_string()));
        }
    }

    pub fn is_active(&self) -> bool {
        self.data.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut d) = self.data.take() {
            d.record.end_us = d.tracer.now_us();
            STACK.with(|s| {
                let popped = s.borrow_mut().pop();
                debug_assert_eq!(
                    popped.map(|f| f.span_id),
                    Some(d.record.id),
                    "span guards must drop in LIFO order"
                );
            });
            d.buffer.spans.lock().push(d.record);
        }
    }
}

/// A merged query trace: every finished span, sorted by allocation order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// TraceId of the tracer that produced this trace (0 = anonymous).
    pub trace_id: u64,
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn get(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Spans with no parent (normally exactly one: the query root).
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent.is_none()).collect()
    }

    pub fn children(&self, id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Transitive children of `id` (excluding `id` itself).
    pub fn descendants(&self, id: u64) -> Vec<&SpanRecord> {
        let mut out = Vec::new();
        let mut frontier = vec![id];
        while let Some(p) = frontier.pop() {
            for c in self.children(p) {
                frontier.push(c.id);
                out.push(c);
            }
        }
        out
    }

    /// Structural validity: every parent exists, parents precede children in
    /// allocation order (which also rules out cycles), and every child's
    /// interval starts no earlier than its parent's.
    pub fn is_well_formed(&self) -> bool {
        self.spans.iter().all(|s| match s.parent {
            None => true,
            Some(p) => match self.get(p) {
                None => false,
                Some(parent) => p < s.id && parent.start_us <= s.start_us,
            },
        })
    }

    /// Indented tree rendering, children in allocation order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.render_into(root, 0, &mut out);
        }
        out
    }

    /// Export the span tree as Chrome trace-event JSON (the `chrome://
    /// tracing` / Perfetto "JSON Array Format" with a `traceEvents`
    /// envelope). Every span becomes one complete event (`"ph":"X"`) whose
    /// `ts`/`dur` are the span's virtual microseconds; annotations land in
    /// `args`. `pid` is fixed at 1; spans carrying an `exec` annotation
    /// (scheduler task attempts) land on one lane per executor
    /// (`tid = exec + 1`, named via `thread_name` metadata events), all
    /// other spans stay on the driver lane (`tid` 0). Spans are emitted in
    /// allocation order and lanes in executor order, so the same trace
    /// always serializes to the same bytes.
    pub fn to_chrome_json(&self) -> String {
        // Lanes: executor index → (tid, host). Collected in span order, but
        // emitted sorted by executor index for byte-stable output.
        let exec_of = |s: &SpanRecord| s.attr("exec").and_then(|v| v.parse::<u64>().ok());
        let mut lanes: Vec<(u64, String)> = Vec::new();
        for s in &self.spans {
            if let Some(exec) = exec_of(s) {
                if !lanes.iter().any(|(e, _)| *e == exec) {
                    lanes.push((exec, s.attr("host").unwrap_or("?").to_string()));
                }
            }
        }
        lanes.sort_by_key(|(e, _)| *e);
        let lane_name = |tid: u64, name: &str| {
            Json::object([
                ("name", "thread_name".into()),
                ("ph", "M".into()),
                ("pid", 1u64.into()),
                ("tid", tid.into()),
                ("args", Json::object([("name", name.into())])),
            ])
        };
        let mut events = Vec::new();
        if !lanes.is_empty() {
            events.push(lane_name(0, "driver"));
            for (exec, host) in &lanes {
                events.push(lane_name(exec + 1, &format!("executor-{exec} ({host})")));
            }
        }
        for s in &self.spans {
            let mut args = vec![("span_id", Json::from(s.id))];
            if let Some(p) = s.parent {
                args.push(("parent", p.into()));
            }
            args.extend(s.attrs.iter().map(|(k, v)| (*k, v.as_str().into())));
            events.push(Json::object([
                ("name", s.name.into()),
                ("ph", "X".into()),
                ("ts", s.start_us.into()),
                ("dur", s.duration_us().into()),
                ("pid", 1u64.into()),
                ("tid", exec_of(s).map_or(0, |e| e + 1).into()),
                ("args", Json::object(args)),
            ]));
        }
        // The TraceId travels as a string: it is a full u64, and a JSON
        // number is only exact to 2^53.
        let trace_id = format!("{:#x}", self.trace_id);
        render(&Json::object([
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", "ms".into()),
            (
                "otherData",
                Json::object([("trace_id", trace_id.as_str().into())]),
            ),
        ]))
    }

    fn render_into(&self, span: &SpanRecord, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let attrs = if span.attrs.is_empty() {
            String::new()
        } else {
            let kv: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!(" {{{}}}", kv.join(", "))
        };
        out.push_str(&format!(
            "{pad}{} [{}..{}] {}us{}\n",
            span.name,
            span.start_us,
            span.end_us,
            span.duration_us(),
            attrs
        ));
        for c in self.children(span.id) {
            self.render_into(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_reconstruction() {
        let tracer = Tracer::new();
        {
            let mut root = tracer.root("query");
            root.annotate("sql", "SELECT 1");
            {
                let _stage = span("stage");
                {
                    let mut task = span("task");
                    task.annotate("host", "host-0");
                    advance_us(100); // modeled RPC cost
                }
                let _task2 = span("task");
            }
        }
        let trace = tracer.finish();
        assert!(trace.is_well_formed());
        let roots = trace.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "query");
        assert_eq!(roots[0].attr("sql"), Some("SELECT 1"));
        let stages = trace.children(roots[0].id);
        assert_eq!(stages.len(), 1);
        let tasks = trace.children(stages[0].id);
        assert_eq!(tasks.len(), 2);
        // The modeled 100us cost is inside the first task's interval.
        assert!(tasks[0].duration_us() >= 100);
        // Root encloses everything.
        assert!(roots[0].end_us >= tasks[1].end_us);
    }

    #[test]
    fn inert_without_active_tracer() {
        let mut g = span("orphan");
        assert!(!g.is_active());
        g.annotate("k", "v"); // must not panic
        assert!(now_us().is_none());
        advance_us(10); // no-op
        assert!(!active());
    }

    #[test]
    fn context_crosses_threads() {
        let tracer = Tracer::new();
        {
            let _root = tracer.root("query");
            let ctx = capture().expect("context active");
            std::thread::scope(|scope| {
                for i in 0..4 {
                    let ctx = ctx.clone();
                    scope.spawn(move || {
                        let _g = ctx.adopt();
                        let mut t = span("task");
                        t.annotate("index", i);
                        advance_us(50);
                    });
                }
            });
        }
        let trace = tracer.finish();
        assert!(trace.is_well_formed());
        let roots = trace.roots();
        assert_eq!(roots.len(), 1);
        let tasks = trace.spans_named("task");
        assert_eq!(tasks.len(), 4);
        assert!(tasks.iter().all(|t| t.parent == Some(roots[0].id)));
        // Virtual clock is shared: the root's end is after all modeled work.
        assert!(roots[0].end_us >= 4 * 50);
    }

    #[test]
    fn two_tracers_do_not_mix() {
        let a = Tracer::new();
        let b = Tracer::new();
        {
            let _ra = a.root("qa");
            let _sa = span("child");
        }
        {
            let _rb = b.root("qb");
            let _sb = span("child");
        }
        assert_eq!(a.finish().spans.len(), 2);
        assert_eq!(b.finish().spans.len(), 2);
        assert_eq!(a.finish().roots()[0].name, "qa");
    }

    #[test]
    fn trace_id_travels_from_tracer_to_trace() {
        let tracer = Tracer::with_id(42);
        assert_eq!(tracer.trace_id(), 42);
        {
            let _r = tracer.root("query");
            assert_eq!(current_trace_id(), Some(42));
        }
        assert_eq!(current_trace_id(), None);
        assert_eq!(tracer.finish().trace_id, 42);
        assert_eq!(Tracer::new().trace_id(), 0);
    }

    #[test]
    fn record_event_flows_into_attached_journal() {
        use crate::events::{EventJournal, Severity};
        let tracer = Tracer::with_id(7);
        let journal = EventJournal::new(8);
        tracer.attach_journal(Arc::clone(&journal));
        record_event(Severity::Warn, "test", "before activation"); // no-op
        {
            let _r = tracer.root("query");
            advance_us(100);
            record_event(Severity::Warn, "scheduler", "task 3 retry");
        }
        record_event(Severity::Warn, "test", "after deactivation"); // no-op
        let events = journal.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, "scheduler");
        assert_eq!(events[0].trace_id, 7);
        assert!(events[0].timestamp >= 100, "stamped on the virtual clock");
    }

    #[test]
    fn peek_does_not_tick() {
        let tracer = Tracer::new();
        let a = tracer.peek_us();
        let b = tracer.peek_us();
        assert_eq!(a, b);
    }

    #[test]
    fn chrome_json_is_deterministic_and_escaped() {
        let tracer = Tracer::with_id(0x2a);
        {
            let mut root = tracer.root("query");
            root.annotate("sql", "SELECT \"x\"\nFROM t\\u");
            {
                let mut rpc = span("rpc");
                rpc.annotate("region", 3);
                advance_us(250);
            }
        }
        let trace = tracer.finish();
        let json = trace.to_chrome_json();
        assert_eq!(json, trace.to_chrome_json(), "byte-stable");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"rpc\""));
        assert!(json.contains("\"region\":\"3\""));
        assert!(json.contains("\"trace_id\":\"0x2a\""));
        // The annotation's quote, newline, and backslash are escaped.
        assert!(json.contains("SELECT \\\"x\\\"\\nFROM t\\\\u"));
        // The rpc span's modeled cost shows up as its duration.
        let rpc_at = json.find("\"name\":\"rpc\"").unwrap();
        let dur_at = json[rpc_at..].find("\"dur\":").unwrap() + rpc_at + 6;
        let dur: u64 = json[dur_at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap();
        assert!(dur >= 250);
    }

    #[test]
    fn thread_cost_accumulates_modeled_charges_only_while_traced() {
        let before = thread_cost_us();
        advance_us(500); // untraced: no tracer, no charge
        assert_eq!(thread_cost_us(), before);
        let tracer = Tracer::new();
        {
            let _r = tracer.root("query");
            let b = thread_cost_us();
            advance_us(100);
            let _ = now_us(); // ticks count too
            assert!(thread_cost_us() - b >= 101);
        }
    }

    #[test]
    fn chrome_json_places_executor_spans_on_lanes() {
        let tracer = Tracer::new();
        {
            let _r = tracer.root("query");
            {
                let mut t = span("task");
                t.annotate("exec", 1);
                t.annotate("host", "h1");
            }
            {
                let mut t = span("task");
                t.annotate("exec", 0);
                t.annotate("host", "h0");
            }
        }
        let json = tracer.finish().to_chrome_json();
        assert_eq!(json, tracer.finish().to_chrome_json(), "byte-stable");
        // One named lane per executor plus the driver lane, exec 0 first.
        assert!(json.contains("\"ph\":\"M\""));
        let d = json.find("\"name\":\"driver\"").unwrap();
        let e0 = json.find("\"name\":\"executor-0 (h0)\"").unwrap();
        let e1 = json.find("\"name\":\"executor-1 (h1)\"").unwrap();
        assert!(d < e0 && e0 < e1);
        // Task spans ride their executor's lane; the root stays on tid 0.
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"name\":\"query\",\"ph\":\"X\",\"ts\":0"));
    }

    /// Byte-for-byte what the hand-formatted exporter this replaced wrote
    /// for the same trace: lane metadata in executor order, spans in
    /// allocation order, every string escaped, the TraceId as a string.
    #[test]
    fn chrome_json_of_a_fixed_two_lane_trace_is_golden() {
        let span =
            |id, parent, name, start_us, end_us, attrs: &[(&'static str, &str)]| SpanRecord {
                id,
                parent,
                name,
                start_us,
                end_us,
                attrs: attrs.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            };
        let sql = "SELECT \"x\"\nFROM t\\u\t\u{1}é";
        let trace = Trace {
            trace_id: 0xfeed_beef_cafe,
            spans: vec![
                span(0, None, "query", 0, 900, &[("sql", sql)]),
                span(
                    1,
                    Some(0),
                    "task",
                    10,
                    400,
                    &[("exec", "1"), ("host", "host-1")],
                ),
                span(
                    2,
                    Some(1),
                    "rpc",
                    20,
                    270,
                    &[("region", "3"), ("bytes", "4096")],
                ),
                span(
                    3,
                    Some(0),
                    "task",
                    15,
                    800,
                    &[("exec", "0"), ("host", "h\"0")],
                ),
            ],
        };
        let lane = r#"{"name":"thread_name","ph":"M","pid":1,"tid""#;
        assert_eq!(
            trace.to_chrome_json(),
            [
                r#"{"traceEvents":["#,
                lane,
                r#":0,"args":{"name":"driver"}},"#,
                lane,
                r#":1,"args":{"name":"executor-0 (h\"0)"}},"#,
                lane,
                r#":2,"args":{"name":"executor-1 (host-1)"}},"#,
                r#"{"name":"query","ph":"X","ts":0,"dur":900,"pid":1,"tid":0,"#,
                r#""args":{"span_id":0,"sql":"SELECT \"x\"\nFROM t\\u\t\u0001é"}},"#,
                r#"{"name":"task","ph":"X","ts":10,"dur":390,"pid":1,"tid":2,"#,
                r#""args":{"span_id":1,"parent":0,"exec":"1","host":"host-1"}},"#,
                r#"{"name":"rpc","ph":"X","ts":20,"dur":250,"pid":1,"tid":0,"#,
                r#""args":{"span_id":2,"parent":1,"region":"3","bytes":"4096"}},"#,
                r#"{"name":"task","ph":"X","ts":15,"dur":785,"pid":1,"tid":1,"#,
                r#""args":{"span_id":3,"parent":0,"exec":"0","host":"h\"0"}}],"#,
                r#""displayTimeUnit":"ms","otherData":{"trace_id":"0xfeedbeefcafe"}}"#,
            ]
            .concat()
        );
    }

    #[test]
    fn descendants_walk() {
        let tracer = Tracer::new();
        {
            let _r = tracer.root("query");
            let _s = span("stage");
            let _t = span("task");
            let _rpc = span("rpc");
        }
        let trace = tracer.finish();
        let root_id = trace.roots()[0].id;
        assert_eq!(trace.descendants(root_id).len(), 3);
    }
}
