//! Physical execution: compiles a [`LogicalPlan`] into parallel tasks over
//! the executor pool — planning and dispatch. This module decides *how* an
//! operator runs (join strategy, exchange partition counts, which input of a
//! join goes first, what is shared or handed keys), cuts the work into
//! tasks and accounts for what moved; the hash kernels themselves live in
//! `hash_join` and `hash_aggregate`, over the key table of `key_table`.
//!
//! An operator returns a `Pipeline`: its output's tasks, not yet run. A
//! scan partition, an exchange partition's probe or a materialized
//! partition is one task; a filter, a projection, an alias or the probe of a
//! broadcast right input adds a step to each task of its input. Only a
//! breaker runs a stage (`Pipeline::run`): a join's build side, a shuffle
//! join, an aggregate, a sort, a limit, dynamic pruning's filtering input
//! and [`collect`]. Batches flow as [`Partition`]s; rows leave the executor
//! once, in [`collect`]. Join strategies and exchange partition counts are
//! chosen once, from the bytes that arrived.
//!
//! The plan is executed as a DAG, not a tree: each distinct subplan runs
//! once, and every later occurrence of it (`LogicalPlan::repeated_subplans`)
//! is handed the first one's partitions, produced by whichever consumer's
//! tasks ran first. Nor is it always executed in plan order: an inner join
//! whose one input is small and filtered runs that input first and hands its
//! keys to the scan its other input starts from (dynamic partition pruning,
//! `LogicalPlan::dynamic_filters`).

use crate::columnar::{
    batches_byte_size, batches_num_rows, eval_column, eval_predicate_mask, gather_rows,
    partitions_byte_size, BatchBuilder, ColumnarBatch, Partition, DEFAULT_BATCH_ROWS,
};
use crate::datasource::ScanPartition;
use crate::error::{EngineError, Result};
use crate::expr::{BoundExpr, Expr};
use crate::hash_aggregate::{hash_aggregate, BoundAgg};
use crate::hash_join::{JoinTable, Probe};
use crate::logical::{AggExpr, DynamicFilter, JoinType, LogicalPlan};
use crate::metrics::QueryMetrics;
use crate::row::Row;
use crate::scheduler::{run_stage, ExecutorConfig, SchedulerFaults, StageObs, Task};
use crate::shuffle::shuffle_batches_by_key;
use crate::source_filter::SourceFilter;
use crate::value::{DataType, Value};
use parking_lot::Mutex;
use shc_obs::trace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Bytes of input a single shuffle partition should hold. Capped by
/// [`SHUFFLE_PARTITIONS`].
const SHUFFLE_TARGET_PARTITION_BYTES: usize = 256 * 1024;

/// Upper bound on partitions produced by exchanges.
const SHUFFLE_PARTITIONS: usize = 8;

/// Partitions for an exchange of `bytes` of observed input: one per
/// [`SHUFFLE_TARGET_PARTITION_BYTES`], `1..=SHUFFLE_PARTITIONS`.
fn exchange_partitions(bytes: usize) -> usize {
    bytes
        .div_ceil(SHUFFLE_TARGET_PARTITION_BYTES)
        .clamp(1, SHUFFLE_PARTITIONS)
}

/// Everything execution needs besides the plan.
#[derive(Clone)]
pub struct ExecContext {
    pub executors: ExecutorConfig,
    pub metrics: Arc<QueryMetrics>,
    /// Build-side byte bound below which joins broadcast instead of
    /// shuffling.
    pub broadcast_threshold: usize,
    /// Rows per columnar batch.
    pub batch_size: usize,
    /// Session-level task-execution metrics: the straggler counter
    /// plus the `shc_task_run_us` histogram.
    pub task_metrics: Arc<crate::metrics::TaskMetrics>,
    /// Per-exchange-edge shuffle attribution (labeled split of the global
    /// `shuffle_bytes` counter).
    pub shuffle_edges: Arc<crate::metrics::ShuffleEdges>,
    /// Scheduler-level fault injection (tests and examples).
    pub sched_faults: Option<Arc<SchedulerFaults>>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            executors: ExecutorConfig::default(),
            metrics: QueryMetrics::new(),
            broadcast_threshold: 512 * 1024,
            batch_size: DEFAULT_BATCH_ROWS,
            task_metrics: crate::metrics::TaskMetrics::new(),
            shuffle_edges: crate::metrics::ShuffleEdges::new(),
            sched_faults: None,
        }
    }
}

// ----------------------------------------------------------------------
// Per-operator runtime profile (EXPLAIN ANALYZE)
// ----------------------------------------------------------------------

/// Per-region scan attribution: which region a scan operator actually read,
/// on which server, and how much came back. Extracted from `region_scan`
/// trace spans after the query finishes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionScanProfile {
    pub region_id: u64,
    pub server: String,
    pub rows: u64,
    /// Number of `region_scan` spans folded into this entry. >1 means the
    /// region was visited more than once (e.g. retried after a fault), so
    /// `rows` reflects work performed, not rows returned to the query.
    pub visits: u64,
}

/// Observed runtime statistics for one physical operator, mirroring the
/// logical plan tree. Built by [`OpProfile::build`] before execution,
/// handed to [`collect`] and filled in as each operator completes; rendered by
/// `DataFrame::explain_analyze`.
pub struct OpProfile {
    /// Pre-order index in the plan tree; also the `op` annotation on this
    /// operator's trace spans, which is how post-hoc attribution finds it.
    pub id: usize,
    /// Same one-line text `LogicalPlan::explain` prints for this node.
    pub describe: String,
    pub rows: AtomicU64,
    pub bytes: AtomicU64,
    pub partitions: AtomicU64,
    /// Columnar batches this operator emitted.
    pub batches: AtomicU64,
    /// Filter operators: rows evaluated by the selection bitmap.
    pub sel_in_rows: AtomicU64,
    /// Filter operators: rows the selection bitmap kept.
    pub sel_out_rows: AtomicU64,
    /// Inclusive time on the query trace's deterministic clock, µs. Zero
    /// when executed without an active tracer.
    pub elapsed_us: AtomicU64,
    /// Execution decisions actually taken (join strategy, exchange
    /// partitions, pushdown split).
    pub notes: Mutex<Vec<String>>,
    /// Scan operators only: per-region work attribution.
    pub regions: Mutex<Vec<RegionScanProfile>>,
    /// Set when this operator did not run because an identical subplan
    /// already had: the `id` of the operator whose result it was handed.
    /// Nothing below a reused operator ran, so [`walk`](Self::walk) and
    /// [`render`](Self::render) stop here.
    pub reused_from: OnceLock<usize>,
    /// Scans only: set when the scan was handed join keys as one more
    /// source filter, to how many.
    pub dynamic_filter_keys: OnceLock<usize>,
    pub children: Vec<Arc<OpProfile>>,
}

impl OpProfile {
    /// Build an empty profile tree mirroring `plan`, ids assigned pre-order.
    pub fn build(plan: &LogicalPlan) -> Arc<OpProfile> {
        let mut next = 0usize;
        Self::build_node(plan, &mut next)
    }

    fn build_node(plan: &LogicalPlan, next: &mut usize) -> Arc<OpProfile> {
        let id = *next;
        *next += 1;
        let children = plan
            .children()
            .into_iter()
            .map(|c| Self::build_node(c, next))
            .collect();
        Arc::new(OpProfile {
            id,
            describe: plan.describe(),
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            partitions: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            sel_in_rows: AtomicU64::new(0),
            sel_out_rows: AtomicU64::new(0),
            elapsed_us: AtomicU64::new(0),
            notes: Mutex::new(Vec::new()),
            regions: Mutex::new(Vec::new()),
            reused_from: OnceLock::new(),
            dynamic_filter_keys: OnceLock::new(),
            children,
        })
    }

    pub fn note(&self, text: String) {
        self.notes.lock().push(text);
    }

    /// Fold one observed region visit into the attribution table.
    pub fn add_region_scan(&self, region_id: u64, server: &str, rows: u64) {
        let mut regions = self.regions.lock();
        if let Some(r) = regions
            .iter_mut()
            .find(|r| r.region_id == region_id && r.server == server)
        {
            r.rows += rows;
            r.visits += 1;
        } else {
            regions.push(RegionScanProfile {
                region_id,
                server: server.to_string(),
                rows,
                visits: 1,
            });
        }
    }

    /// Depth-first walk over the operators that ran or were handed a
    /// result, `self` included.
    pub fn walk(&self, f: &mut dyn FnMut(&OpProfile)) {
        f(self);
        if self.reused_from.get().is_none() {
            for c in &self.children {
                c.walk(f);
            }
        }
    }

    /// Render the annotated plan tree: each operator line followed by its
    /// observed stats, notes, and (for scans) per-region attribution.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        out.push_str(&format!("{pad}{}\n", self.describe));
        out.push_str(&format!(
            "{pad}  (actual: rows={} bytes={} partitions={} time={}us)\n",
            self.rows.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.partitions.load(Ordering::Relaxed),
            self.elapsed_us.load(Ordering::Relaxed),
        ));
        let batches = self.batches.load(Ordering::Relaxed);
        if batches > 0 {
            let rows = self.rows.load(Ordering::Relaxed);
            out.push_str(&format!(
                "{pad}  (batches={batches} avg_batch_rows={:.1})\n",
                rows as f64 / batches as f64
            ));
        }
        let sel_in = self.sel_in_rows.load(Ordering::Relaxed);
        if sel_in > 0 {
            let sel_out = self.sel_out_rows.load(Ordering::Relaxed);
            out.push_str(&format!(
                "{pad}  (selectivity: {sel_out}/{sel_in} = {:.3})\n",
                sel_out as f64 / sel_in as f64
            ));
        }
        for note in self.notes.lock().iter() {
            out.push_str(&format!("{pad}  ({note})\n"));
        }
        let mut regions = self.regions.lock().clone();
        regions.sort_by(|a, b| a.region_id.cmp(&b.region_id).then(a.server.cmp(&b.server)));
        for r in &regions {
            out.push_str(&format!(
                "{pad}  (region {} @ {}: rows={} visits={})\n",
                r.region_id, r.server, r.rows, r.visits
            ));
        }
        match self.reused_from.get() {
            Some(op) => out.push_str(&format!("{pad}  (reused: result of op #{op})\n")),
            None => {
                for c in &self.children {
                    c.render_into(indent + 1, out);
                }
            }
        }
    }
}

/// Partitions of the first occurrence of each repeated subplan, held until
/// the last occurrence has taken them. Lives for one execution: a failed
/// query drops it, so nothing is left behind to be reused.
struct SharedResults {
    /// Every occurrence of a repeated subplan, by node address (stable while
    /// the plan is borrowed for execution), to its slot.
    slot_of: HashMap<*const LogicalPlan, usize>,
    slots: Vec<SharedSlot>,
}

struct SharedSlot {
    /// Occurrences that have not been handed the result yet.
    waiting: usize,
    /// `None` until the first occurrence has been offered, and again once
    /// the last one has taken it.
    partitions: Option<Vec<Arc<Mutex<SharedPart>>>>,
    /// Timeline label and operator of the first occurrence's tasks.
    stage: Stage,
    /// Profile id of the operator that produced `partitions`.
    producer: Option<usize>,
}

/// One partition of a shared subplan's output. Its task runs once, inside
/// whichever occurrence's consumer runs first, and every occurrence is
/// handed what it produced.
enum SharedPart {
    /// The source and steps that produce it, not yet run.
    Pending(Task),
    Ready(Partition),
}

impl SharedResults {
    fn of(repeated: &[Vec<&LogicalPlan>]) -> SharedResults {
        let mut shared = SharedResults {
            slot_of: HashMap::new(),
            slots: Vec::new(),
        };
        for group in repeated {
            for node in group {
                shared
                    .slot_of
                    .insert(*node as *const LogicalPlan, shared.slots.len());
            }
            shared.slots.push(SharedSlot {
                waiting: group.len() - 1,
                partitions: None,
                stage: ("", None),
                producer: None,
            });
        }
        shared
    }

    fn slot(&mut self, plan: &LogicalPlan) -> Option<&mut SharedSlot> {
        let slot = *self.slot_of.get(&(plan as *const LogicalPlan))?;
        Some(&mut self.slots[slot])
    }

    /// The result of an earlier occurrence of `plan`, with the id of the
    /// operator that produced it.
    fn take(&mut self, plan: &LogicalPlan, ctx: &ExecContext) -> Option<(Pipeline, Option<usize>)> {
        let slot = self.slot(plan)?;
        let out = shared_pipeline(slot.partitions.as_ref()?, slot.stage, ctx);
        slot.waiting -= 1;
        if slot.waiting == 0 {
            slot.partitions = None;
        }
        Some((out, slot.producer))
    }

    /// The first occurrence of a repeated subplan: keep a handle on its
    /// output for the later ones. Its tasks are not run here; the first
    /// consumer to run runs them, with its own steps.
    fn offer(
        &mut self,
        plan: &LogicalPlan,
        out: Pipeline,
        ctx: &ExecContext,
        prof: Option<&Arc<OpProfile>>,
    ) -> Pipeline {
        let Some(slot) = self.slot(plan) else {
            return out;
        };
        slot.producer = prof.map(|p| p.id);
        if let Some(p) = prof {
            p.note(format!(
                "op #{}: result shared with {} later operator(s)",
                p.id, slot.waiting
            ));
        }
        slot.stage = out.stage;
        let parts: Vec<SharedPart> = match out.input {
            Input::Done(parts) => parts.into_iter().map(SharedPart::Ready).collect(),
            Input::Tasks(tasks) => fuse(tasks, out.steps, &ctx.metrics)
                .into_iter()
                .map(SharedPart::Pending)
                .collect(),
        };
        let parts: Vec<_> = parts.into_iter().map(|p| Arc::new(Mutex::new(p))).collect();
        let mut first = shared_pipeline(&parts, slot.stage, ctx);
        first.join_notes = out.join_notes;
        slot.partitions = Some(parts);
        first
    }
}

/// An occurrence's output of a shared subplan: the partitions themselves
/// once every one is produced (an `Arc` per column), else a task each that
/// produces it unless another occurrence's stage already did.
fn shared_pipeline(parts: &[Arc<Mutex<SharedPart>>], stage: Stage, ctx: &ExecContext) -> Pipeline {
    let ready: Option<Vec<Partition>> = parts
        .iter()
        .map(|part| match &*part.lock() {
            SharedPart::Ready(out) => Some(out.clone()),
            SharedPart::Pending(_) => None,
        })
        .collect();
    if let Some(out) = ready {
        record_stage_memory(&out, ctx);
        return Pipeline::done(out);
    }
    let tasks = parts.iter().map(|part| {
        let (preferred, retries) = match &*part.lock() {
            SharedPart::Pending(task) => (task.preferred_host.clone(), task.retries),
            SharedPart::Ready(_) => (None, 0),
        };
        let part = Arc::clone(part);
        Task::new(preferred, move |host| {
            let mut part = part.lock();
            let out = match &mut *part {
                SharedPart::Pending(task) => (task.run)(host)?,
                SharedPart::Ready(out) => out.clone(),
            };
            *part = SharedPart::Ready(out.clone());
            Ok(out)
        })
        .with_retries(retries)
    });
    Pipeline::new(Input::Tasks(tasks.collect()), stage)
}

/// The keys one filtering input of a join produced, for the scans they
/// restrict.
struct KeySet {
    /// Distinct and non-NULL, in SQL order; `None` when the input turned out
    /// larger than a broadcast, which is too large to be worth listing.
    keys: Option<Vec<Value>>,
    /// Profile id of the operator that produced them.
    op: Option<usize>,
}

/// Dynamic partition pruning over one execution: which scans may be handed
/// join keys, which joins collect them, and what has been collected so far.
struct DynamicPruning<'a> {
    /// Scans that may be handed keys, by node address, until they run.
    filters: HashMap<*const LogicalPlan, DynamicFilter<'a>>,
    /// Joins with a filtering input, by node address: that input — it runs
    /// before the other one — and the key expressions to evaluate over it.
    joins: HashMap<*const LogicalPlan, (&'a LogicalPlan, Vec<&'a Expr>)>,
    /// Key sets collected so far, by the address of their key expression.
    keys: HashMap<*const Expr, KeySet>,
    /// Filtering inputs that ran before their join was reached (its other
    /// input is a repeated subplan whose scan ran under another join), kept
    /// for the join to take.
    ahead: HashMap<*const LogicalPlan, Vec<Partition>>,
    /// Set while such an input runs: nothing inside it runs a second one
    /// ahead, so no chain of them can lead back to an operator under way.
    running_ahead: bool,
    /// The plan and its profile tree, to find the profile node of an input
    /// that runs ahead.
    root: Option<(&'a LogicalPlan, Arc<OpProfile>)>,
}

impl<'a> DynamicPruning<'a> {
    fn of(
        plan: &'a LogicalPlan,
        repeated: &[Vec<&'a LogicalPlan>],
        profile: Option<&Arc<OpProfile>>,
    ) -> DynamicPruning<'a> {
        let found = plan.dynamic_filters(repeated);
        let mut joins: HashMap<_, (&'a LogicalPlan, Vec<&'a Expr>)> = HashMap::new();
        for source in found.iter().flat_map(|f| &f.sources) {
            let (_, keys) = joins
                .entry(source.join as *const LogicalPlan)
                .or_insert((source.side, Vec::new()));
            if !keys.iter().any(|k| std::ptr::eq(*k, source.key)) {
                keys.push(source.key);
            }
        }
        DynamicPruning {
            filters: found
                .into_iter()
                .map(|f| (f.scan as *const LogicalPlan, f))
                .collect(),
            joins,
            keys: HashMap::new(),
            ahead: HashMap::new(),
            running_ahead: false,
            root: profile.map(|p| (plan, Arc::clone(p))),
        }
    }

    /// Collect the key sets `keys` names over the output of `side`, unless
    /// a run ahead of the join already has.
    fn collect_keys(
        &mut self,
        side: &LogicalPlan,
        keys: &[&'a Expr],
        parts: &[Partition],
        ctx: &ExecContext,
        prof: Option<&Arc<OpProfile>>,
    ) -> Result<()> {
        let small = partitions_byte_size(parts) <= ctx.broadcast_threshold;
        let schema = side.schema();
        for &key in keys {
            if self.keys.contains_key(&(key as *const Expr)) {
                continue;
            }
            let values = if small {
                let bound = key.bind(schema)?;
                let mut values = Vec::new();
                for batch in parts.iter().flatten() {
                    let column = eval_column(&bound, DataType::Binary, batch)?;
                    values.extend((0..batch.num_rows()).map(|i| column.value(i)));
                }
                Some(distinct_keys(values))
            } else {
                None
            };
            self.keys.insert(
                key,
                KeySet {
                    keys: values,
                    op: prof.map(|p| p.id),
                },
            );
        }
        Ok(())
    }
}

/// The distinct non-NULL values among `values`, in SQL order. Equality is
/// the join's: `Int32(5)` and `Int64(5)` are one key, the first one seen.
fn distinct_keys(values: impl IntoIterator<Item = Value>) -> Vec<Value> {
    let mut keys: Vec<Value> = values.into_iter().filter(|v| !v.is_null()).collect();
    keys.sort_by(Value::sort_cmp);
    keys.dedup_by(|later, first| later.group_eq(first));
    keys
}

/// How many runs of consecutive integers the sorted `keys` form (any other
/// key is a run of its own): the contiguous key ranges a source that keeps
/// its rows in key order is asked for.
fn key_runs(keys: &[Value]) -> usize {
    let mut runs = 0;
    let mut last: Option<i64> = None;
    for key in keys {
        let this = key.as_i64();
        let continues = matches!((last, this), (Some(l), Some(t)) if l.checked_add(1) == Some(t));
        runs += usize::from(!continues);
        last = this;
    }
    runs
}

/// What one execution carries from operator to operator besides batches.
struct PlanState<'a> {
    shared: SharedResults,
    dynamic: DynamicPruning<'a>,
}

impl<'a> PlanState<'a> {
    fn of(plan: &'a LogicalPlan, profile: Option<&Arc<OpProfile>>) -> PlanState<'a> {
        let repeated = plan.repeated_subplans();
        PlanState {
            shared: SharedResults::of(&repeated),
            dynamic: DynamicPruning::of(plan, &repeated, profile),
        }
    }
}

/// The profile node of `target`, found by walking `plan` and its profile
/// tree side by side.
fn profile_of(
    plan: &LogicalPlan,
    prof: &Arc<OpProfile>,
    target: &LogicalPlan,
) -> Option<Arc<OpProfile>> {
    if std::ptr::eq(plan, target) {
        return Some(Arc::clone(prof));
    }
    plan.children()
        .into_iter()
        .zip(&prof.children)
        .find_map(|(c, p)| profile_of(c, p, target))
}

/// Execute a plan to completion, returning all rows at the driver. With a
/// `profile` built by [`OpProfile::build`] from the same plan, each
/// operator's runtime statistics are recorded into its node.
pub fn collect(
    plan: &LogicalPlan,
    ctx: &ExecContext,
    profile: Option<&Arc<OpProfile>>,
) -> Result<Vec<Row>> {
    Ok(gather_rows(execute(plan, ctx, profile)?))
}

/// Execute a plan, returning partitioned output.
fn execute(
    plan: &LogicalPlan,
    ctx: &ExecContext,
    profile: Option<&Arc<OpProfile>>,
) -> Result<Vec<Partition>> {
    execute_node(plan, ctx, &mut PlanState::of(plan, profile), profile)?.run(ctx)
}

/// Static span name for an operator (span names must not allocate).
fn op_name(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan { .. } => "scan",
        LogicalPlan::Filter { .. } => "filter",
        LogicalPlan::Projection { .. } => "project",
        LogicalPlan::Join { .. } => "join",
        LogicalPlan::Aggregate { .. } => "aggregate",
        LogicalPlan::Sort { .. } => "sort",
        LogicalPlan::Limit { .. } => "limit",
        LogicalPlan::SubqueryAlias { .. } => "alias",
        LogicalPlan::Values { .. } => "values",
    }
}

/// The `i`th child of a profile node, when profiling at all.
fn child(prof: Option<&Arc<OpProfile>>, i: usize) -> Option<&Arc<OpProfile>> {
    prof.and_then(|p| p.children.get(i))
}

// ----------------------------------------------------------------------
// Pipelines
// ----------------------------------------------------------------------

/// Timeline label and operator of a stage.
type Stage = (&'static str, Option<usize>);

/// What an operator's output counts as, besides its profile's rows, bytes
/// and batches: nothing more (batches handed on, as by a column projection,
/// an alias or a reused result), batches it built (`batches_built`,
/// `batch_rows`), or batches a scan built from what it read (also
/// `scan_rows`, `scan_bytes`).
#[derive(Clone, Copy, PartialEq)]
enum Emits {
    Passed,
    Built,
    Scanned,
}

/// What one step counted for one operator in one task attempt.
#[derive(Default)]
struct Counts {
    rows: u64,
    bytes: u64,
    batches: u64,
    /// A filter's rows read and kept.
    sel_in: u64,
    sel_out: u64,
    /// Trace-clock time from the attempt's start to the operator's output,
    /// its input's included, as `OpProfile::elapsed_us` is inclusive.
    us: u64,
}

/// What one task attempt counted, by operator. It reaches the query's
/// metrics and the operators' profiles only once the attempt succeeds, so a
/// retried task counts nothing twice.
struct Tally {
    /// `trace::thread_cost_us` when the attempt started.
    start: u64,
    counted: Vec<(Option<Arc<OpProfile>>, Emits, Counts)>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            start: trace::thread_cost_us(),
            counted: Vec::new(),
        }
    }

    /// `part` as the output of `prof`'s operator.
    fn emitted(&mut self, prof: Option<&Arc<OpProfile>>, part: &Partition, emits: Emits) {
        let counts = Counts {
            rows: batches_num_rows(part) as u64,
            bytes: batches_byte_size(part) as u64,
            batches: part.len() as u64,
            us: trace::thread_cost_us() - self.start,
            ..Counts::default()
        };
        self.counted.push((prof.cloned(), emits, counts));
    }

    fn flush(self, m: &QueryMetrics) {
        for (prof, emits, c) in self.counted {
            if emits != Emits::Passed {
                m.add(&m.batches_built, c.batches);
                m.add(&m.batch_rows, c.rows);
            }
            if emits == Emits::Scanned {
                m.add(&m.scan_rows, c.rows);
                m.add(&m.scan_bytes, c.bytes);
            }
            if let Some(p) = prof {
                p.rows.fetch_add(c.rows, Ordering::Relaxed);
                p.bytes.fetch_add(c.bytes, Ordering::Relaxed);
                p.batches.fetch_add(c.batches, Ordering::Relaxed);
                p.sel_in_rows.fetch_add(c.sel_in, Ordering::Relaxed);
                p.sel_out_rows.fetch_add(c.sel_out, Ordering::Relaxed);
                p.elapsed_us.fetch_add(c.us, Ordering::Relaxed);
            }
        }
    }
}

/// A narrow operator, applied inside a task to the partition it produced.
type Step = Arc<dyn Fn(Partition, &mut Tally) -> Result<Partition> + Send + Sync>;

/// What an operator returns: its output, not yet produced.
struct Pipeline {
    input: Input,
    /// Applied in order to what each task's source produced.
    steps: Vec<Step>,
    /// The stage that runs the tasks.
    stage: Stage,
    /// Each broadcast join whose left input probes inside these tasks: its
    /// profile and its right input's bytes. Its `strategy=` note needs the
    /// left input's bytes too, so `run` writes it.
    join_notes: Vec<(Arc<OpProfile>, usize)>,
}

enum Input {
    /// Materialized, with no step: a step turns it into a task each.
    Done(Vec<Partition>),
    Tasks(Vec<Task>),
}

impl Pipeline {
    fn new(input: Input, stage: Stage) -> Pipeline {
        Pipeline {
            input,
            steps: Vec::new(),
            stage,
            join_notes: Vec::new(),
        }
    }

    fn done(parts: Vec<Partition>) -> Pipeline {
        Pipeline::new(Input::Done(parts), ("", None))
    }

    /// Partitions it produces, one per task.
    fn len(&self) -> usize {
        match &self.input {
            Input::Done(parts) => parts.len(),
            Input::Tasks(tasks) => tasks.len(),
        }
    }

    /// The output, once materialized.
    fn output(&self) -> Option<&[Partition]> {
        match &self.input {
            Input::Done(parts) => Some(parts),
            Input::Tasks(_) => None,
        }
    }

    /// Every task runs `step` over the partition it produced. Materialized
    /// partitions become one task each, whose stage is recorded under
    /// `label` and `prof`'s operator.
    fn then(
        mut self,
        label: &'static str,
        prof: Option<&Arc<OpProfile>>,
        step: impl Fn(Partition, &mut Tally) -> Result<Partition> + Send + Sync + 'static,
    ) -> Pipeline {
        if let Input::Done(parts) = self.input {
            self.input = Input::Tasks(parts.into_iter().map(|p| once_task(p, Ok)).collect());
            self.stage = (label, prof.map(|p| p.id));
        }
        self.steps.push(Arc::new(step));
        self
    }

    /// The output, counted as `prof`'s operator's and as `emits` says:
    /// inside each task, or here when materialized.
    fn emits(self, prof: Option<&Arc<OpProfile>>, emits: Emits, m: &QueryMetrics) -> Pipeline {
        if let Some(p) = prof {
            p.partitions.store(self.len() as u64, Ordering::Relaxed);
        }
        let prof = prof.cloned();
        if let Some(parts) = self.output() {
            let mut tally = Tally::new();
            for part in parts {
                tally.emitted(prof.as_ref(), part, emits);
            }
            tally.flush(m);
            return self;
        }
        self.then("", None, move |part, tally| {
            tally.emitted(prof.as_ref(), &part, emits);
            Ok(part)
        })
    }

    /// Produce the output: run the tasks, each with every step, as one
    /// stage, unless it is materialized already.
    fn run(self, ctx: &ExecContext) -> Result<Vec<Partition>> {
        let tasks = match self.input {
            Input::Done(parts) => return Ok(parts),
            Input::Tasks(tasks) => fuse(tasks, self.steps, &ctx.metrics),
        };
        let obs = StageObs {
            task_metrics: Some(Arc::clone(&ctx.task_metrics)),
            label: self.stage.0,
            op: self.stage.1,
            faults: ctx.sched_faults.clone(),
        };
        let out = run_stage(&ctx.executors, tasks, &ctx.metrics, &obs)?;
        record_stage_memory(&out, ctx);
        for (p, right_bytes) in self.join_notes {
            let left_bytes = p.children[0].bytes.load(Ordering::Relaxed) as usize;
            p.note(JoinStrategy::BroadcastRight.note(left_bytes, right_bytes, ctx));
        }
        Ok(out)
    }

    /// The output's bytes, running it first unless it is materialized.
    fn materialize(&mut self, ctx: &ExecContext) -> Result<usize> {
        if let Input::Tasks(_) = self.input {
            let pipeline = std::mem::replace(self, Pipeline::done(Vec::new()));
            *self = Pipeline::done(pipeline.run(ctx)?);
        }
        Ok(self.output().map_or(0, partitions_byte_size))
    }
}

/// `tasks`, each running `steps` in order over the partition it produced;
/// what the steps counted is flushed once the attempt succeeded.
fn fuse(tasks: Vec<Task>, steps: Vec<Step>, metrics: &Arc<QueryMetrics>) -> Vec<Task> {
    let steps = Arc::new(steps);
    let fused = tasks.into_iter().map(|mut task| {
        let metrics = Arc::clone(metrics);
        let steps = Arc::clone(&steps);
        let mut run = task.run;
        task.run = Box::new(move |host| {
            let mut tally = Tally::new();
            let mut part = run(host)?;
            for step in steps.iter() {
                part = step(part, &mut tally)?;
            }
            tally.flush(&metrics);
            Ok(part)
        });
        task
    });
    fused.collect()
}

/// A filter step: each batch's predicate evaluates to a selection bitmap,
/// then a single gather keeps the selected rows columnar; a batch none of
/// whose rows are selected is dropped. Rows read and kept count on `prof`.
fn filter(
    predicate: BoundExpr,
    prof: Option<&Arc<OpProfile>>,
) -> impl Fn(Partition, &mut Tally) -> Result<Partition> + Send + Sync + 'static {
    let prof = prof.cloned();
    move |batches, tally| {
        let mut out = Vec::with_capacity(batches.len());
        let sel_in = batches_num_rows(&batches) as u64;
        for batch in batches {
            let mask = eval_predicate_mask(&predicate, &batch)?;
            if mask.count_ones() > 0 {
                out.push(batch.select(&mask));
            }
        }
        let sel_out = batches_num_rows(&out) as u64;
        let counts = Counts {
            sel_in,
            sel_out,
            ..Counts::default()
        };
        tally.counted.push((prof.clone(), Emits::Passed, counts));
        Ok(out)
    }
}

/// Recursive execution; `prof` is the profile node for *this* operator
/// (children line up with the plan's children, in order).
fn execute_node<'a>(
    plan: &'a LogicalPlan,
    ctx: &ExecContext,
    state: &mut PlanState<'a>,
    prof: Option<&Arc<OpProfile>>,
) -> Result<Pipeline> {
    if let Some(out) = state.dynamic.ahead.remove(&(plan as *const LogicalPlan)) {
        // Ran ahead of its join, profiled and counted then.
        return Ok(Pipeline::done(out));
    }
    if let Some((out, producer)) = state.shared.take(plan, ctx) {
        // This subplan already ran elsewhere in the query, or runs inside
        // whichever of its consumers runs first: no stage, no RPC of its
        // own — only its output shape shows in the profile.
        ctx.metrics.add(&ctx.metrics.subplans_reused, 1);
        if let (Some(p), Some(producer)) = (prof, producer) {
            let _ = p.reused_from.set(producer);
        }
        return Ok(out.emits(prof, Emits::Passed, &ctx.metrics));
    }
    let mut sp = trace::span(op_name(plan));
    if sp.is_active() {
        if let Some(p) = prof {
            sp.annotate("op", p.id);
        }
    }
    let t0 = trace::now_us();
    let out = match plan {
        LogicalPlan::Scan {
            provider,
            projection,
            filters,
            ..
        } => exec_scan(
            plan,
            provider,
            projection.as_deref(),
            filters,
            ctx,
            state,
            prof,
        ),
        LogicalPlan::Filter {
            predicate, input, ..
        } => {
            let bound = predicate.bind(input.schema())?;
            let input = execute_node(input, ctx, state, child(prof, 0))?;
            let out = input.then("map", prof, filter(bound, prof));
            Ok(out.emits(prof, Emits::Built, &ctx.metrics))
        }
        LogicalPlan::Projection {
            exprs,
            input,
            schema,
        } => {
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(e, _)| e.bind(input.schema()))
                .collect::<Result<_>>()?;
            // A column reference is the input's column (an Arc copy), so a
            // projection of nothing else hands its input's batches on.
            let emits = match bound.iter().all(|e| matches!(e, BoundExpr::Column(..))) {
                true => Emits::Passed,
                false => Emits::Built,
            };
            // Where no type derives, the column is built `Binary` (boxed).
            let out_dtypes = schema.data_types();
            let input = execute_node(input, ctx, state, child(prof, 0))?;
            let out = input.then("map", prof, move |batches, _| {
                let project = |batch: ColumnarBatch| {
                    let columns = bound.iter().zip(&out_dtypes);
                    let columns = columns.map(|(e, &dtype)| eval_column(e, dtype, &batch));
                    let columns = columns.collect::<Result<_>>()?;
                    Ok(ColumnarBatch::with_row_count(columns, batch.num_rows()))
                };
                batches.into_iter().map(project).collect()
            });
            Ok(out.emits(prof, emits, &ctx.metrics))
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
            ..
        } => exec_join(plan, left, right, on, *join_type, ctx, state, prof),
        LogicalPlan::Aggregate {
            group,
            aggs,
            input,
            lookups,
            ..
        } => {
            if let (Some(p), false) = (prof, lookups.is_empty()) {
                p.note(format!("aggregated below lookups: {}", lookups.join(", ")));
            }
            exec_aggregate(plan, group, aggs, input, ctx, state, prof)
        }
        LogicalPlan::Sort { keys, input, .. } => exec_sort(keys, input, ctx, state, prof),
        LogicalPlan::Limit { n, input, .. } => {
            // The first `n` rows in partition order, gathered to one
            // partition; the batch the limit falls in is cut.
            let mut left = *n;
            let mut out = Vec::new();
            for batch in execute_node(input, ctx, state, child(prof, 0))?
                .run(ctx)?
                .into_iter()
                .flatten()
            {
                if left == 0 {
                    break;
                }
                let batch = if batch.num_rows() > left {
                    // The one batch a limit builds.
                    ctx.metrics.add(&ctx.metrics.batches_built, 1);
                    ctx.metrics.add(&ctx.metrics.batch_rows, left as u64);
                    batch.gather(&(0..left as u32).collect::<Vec<_>>())
                } else {
                    batch
                };
                left -= batch.num_rows();
                out.push(batch);
            }
            Ok(Pipeline::done(vec![out]).emits(prof, Emits::Passed, &ctx.metrics))
        }
        LogicalPlan::SubqueryAlias { input, .. } => {
            let input = execute_node(input, ctx, state, child(prof, 0))?;
            Ok(input.emits(prof, Emits::Passed, &ctx.metrics))
        }
        LogicalPlan::Values { schema, rows } => {
            let mut batches = BatchBuilder::new(schema.data_types(), ctx.batch_size);
            rows.iter().for_each(|row| batches.push_values(row));
            let batches = batches.finish();
            Ok(Pipeline::done(vec![batches]).emits(prof, Emits::Built, &ctx.metrics))
        }
    }?;
    if let Some(p) = prof {
        // Building a pipeline runs only the breakers below it; its tasks
        // count their own time (`Tally`).
        let elapsed = t0.and_then(|start| trace::now_us().map(|end| end.saturating_sub(start)));
        p.elapsed_us
            .fetch_add(elapsed.unwrap_or(0), Ordering::Relaxed);
    }
    Ok(state.shared.offer(plan, out, ctx, prof))
}

fn exec_sort<'a>(
    keys: &[(Expr, bool)],
    input: &'a LogicalPlan,
    ctx: &ExecContext,
    state: &mut PlanState<'a>,
    prof: Option<&Arc<OpProfile>>,
) -> Result<Pipeline> {
    let schema = input.schema();
    let bound: Vec<(BoundExpr, bool)> = keys
        .iter()
        .map(|(e, asc)| Ok((e.bind(schema)?, *asc)))
        .collect::<Result<_>>()?;
    // Gathered to the driver as one batch and sorted there; no rows, no
    // batch.
    let input = execute_node(input, ctx, state, child(prof, 0))?.run(ctx)?;
    let input = input.concat();
    let batches = match input.is_empty() {
        true => Vec::new(),
        false => sorted(&ColumnarBatch::concat(&input), &bound, ctx.batch_size)?,
    };
    Ok(Pipeline::done(vec![batches]).emits(prof, Emits::Built, &ctx.metrics))
}

/// The rows of `all` ordered by `keys` (each ascending or not) and cut into
/// batches of `batch_size`: the key values are evaluated once, a permutation
/// of the rows is ordered by them, and the rows are gathered in that order.
fn sorted(all: &ColumnarBatch, keys: &[(BoundExpr, bool)], batch_size: usize) -> Result<Partition> {
    let n = all.num_rows();
    let values: Vec<Vec<Value>> = keys
        .iter()
        .map(|(e, _)| {
            let key = eval_column(e, DataType::Binary, all)?;
            Ok((0..n).map(|i| key.value(i)).collect())
        })
        .collect::<Result<_>>()?;
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        for (key, (_, asc)) in values.iter().zip(keys) {
            let ord = key[a as usize].sort_cmp(&key[b as usize]);
            if ord != std::cmp::Ordering::Equal {
                return if *asc { ord } else { ord.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    });
    let batches = order.chunks(batch_size.max(1));
    Ok(batches.map(|rows| all.gather(rows)).collect())
}

// ----------------------------------------------------------------------
// Scan
// ----------------------------------------------------------------------

/// The keys the joins above a scan produced for it: `None` unless every
/// consumer of the scan's rows is covered by a key set that was small enough
/// to list. Filtering inputs of joins the plan has not reached yet run here,
/// ahead of their place, and keep their partitions for the join to take.
fn dynamic_filter_keys<'a>(
    filter: &DynamicFilter<'a>,
    ctx: &ExecContext,
    state: &mut PlanState<'a>,
) -> Result<Option<(Vec<Value>, Vec<usize>)>> {
    for source in &filter.sources {
        if state
            .dynamic
            .keys
            .contains_key(&(source.key as *const Expr))
        {
            continue;
        }
        if state.dynamic.running_ahead {
            return Ok(None);
        }
        let prof = state
            .dynamic
            .root
            .as_ref()
            .and_then(|(plan, prof)| profile_of(plan, prof, source.side));
        state.dynamic.running_ahead = true;
        let parts = execute_node(source.side, ctx, state, prof.as_ref()).and_then(|p| p.run(ctx));
        state.dynamic.running_ahead = false;
        let parts = parts?;
        state
            .dynamic
            .collect_keys(source.side, &[source.key], &parts, ctx, prof.as_ref())?;
        state
            .dynamic
            .ahead
            .insert(source.side as *const LogicalPlan, parts);
    }
    let mut all = Vec::new();
    let mut ops = Vec::new();
    for source in &filter.sources {
        match state.dynamic.keys.get(&(source.key as *const Expr)) {
            Some(KeySet {
                keys: Some(keys),
                op,
            }) => {
                all.extend(keys.iter().cloned());
                ops.extend(*op);
            }
            _ => return Ok(None),
        }
    }
    Ok(Some((distinct_keys(all), ops)))
}

fn exec_scan<'a>(
    plan: &'a LogicalPlan,
    provider: &Arc<dyn crate::datasource::TableProvider>,
    projection: Option<&[usize]>,
    filters: &[Expr],
    ctx: &ExecContext,
    state: &mut PlanState<'a>,
    prof: Option<&Arc<OpProfile>>,
) -> Result<Pipeline> {
    // Translate pushable predicates to source form; remember which engine
    // expression each came from.
    let mut translated: Vec<SourceFilter> = Vec::new();
    let mut residual_exprs: Vec<crate::expr::Expr> = Vec::new();
    let mut pairs: Vec<(crate::expr::Expr, SourceFilter)> = Vec::new();
    for f in filters {
        match SourceFilter::from_expr(f) {
            Some(sf) => {
                translated.push(sf.clone());
                pairs.push((f.clone(), sf));
            }
            None => residual_exprs.push(f.clone()),
        }
    }
    // Ask the provider which of the pushed filters it will NOT fully apply
    // (Spark's unhandledFilters) — exactly those must be re-applied here.
    let unhandled = provider.unhandled_filters(&translated);
    for (expr, sf) in pairs {
        if unhandled.contains(&sf) {
            residual_exprs.push(expr);
        }
    }
    let scan_schema = plan.schema();
    let residual_count = residual_exprs.len();
    let residual: Option<BoundExpr> = residual_exprs
        .into_iter()
        .reduce(|a, b| a.and(b))
        .map(|e| e.bind(scan_schema))
        .transpose()?;

    let effective_projection = if provider.supports_projection() {
        projection
    } else {
        None
    };
    // Join keys from the other side of a join above go to the source as one
    // more filter. It only narrows what is read: the join tests every row
    // itself, so the filter is neither re-applied here nor ever asked about
    // in `unhandled_filters`.
    let pushed = translated.len() - unhandled.len();
    let mut dynamic_note = None;
    if let Some(filter) = state.dynamic.filters.remove(&(plan as *const LogicalPlan)) {
        if let Some((keys, ops)) = dynamic_filter_keys(&filter, ctx, state)? {
            ctx.metrics.add(&ctx.metrics.dynamic_filters, 1);
            if let Some(p) = prof {
                let _ = p.dynamic_filter_keys.set(keys.len());
                let ops: Vec<String> = ops.iter().map(|op| format!("#{op}")).collect();
                dynamic_note = Some(format!(
                    "dynamic filter: {} keys from op {} → {} range(s)",
                    keys.len(),
                    ops.join(", "),
                    key_runs(&keys)
                ));
            }
            translated.push(SourceFilter::In(filter.column, keys));
        }
    }
    let partitions = provider
        .scan(effective_projection, &translated)
        .map_err(|e| EngineError::DataSource(e.to_string()))?;

    // Record the pushdown split actually taken: how many predicates the
    // source accepted vs how many the engine re-applies, and how many
    // partitions survived the provider's pruning.
    if let Some(p) = prof {
        p.note(format!(
            "pushdown: {pushed} filter(s) at source, {residual_count} residual, projection {}",
            if effective_projection.is_some() {
                "pushed"
            } else {
                "full-width"
            }
        ));
        if let Some(note) = dynamic_note {
            p.note(note);
        }
        p.note(format!("partitions after pruning: {}", partitions.len()));
    }

    let batch_size = ctx.batch_size.max(1);
    let op_id = prof.map(|p| p.id);
    let tasks: Vec<Task> = partitions
        .into_iter()
        .enumerate()
        .map(|(part_index, part): (usize, Arc<dyn ScanPartition>)| {
            let preferred = part.preferred_host().map(String::from);
            Task::new(preferred, move |running_on| {
                // `region_scan` spans emitted by the provider nest under
                // this one; the `op` annotation ties them back to this
                // operator for per-region attribution.
                let mut psp = trace::span("scan_partition");
                if psp.is_active() {
                    if let Some(id) = op_id {
                        psp.annotate("op", id);
                    }
                    psp.annotate("partition", part_index);
                    psp.annotate("desc", part.describe());
                }
                let mut out: Partition = Vec::new();
                part.execute(running_on, batch_size, &mut |batch| {
                    if batch.num_rows() > 0 {
                        out.push(batch);
                    }
                    Ok(())
                })?;
                Ok(out)
            })
            .with_retries(ctx.executors.task_retries)
        })
        .collect();
    // The residual filter is the scan's own step: its selectivity shows on
    // the scan, and what it keeps is what the scan emits.
    let mut scan = Pipeline::new(Input::Tasks(tasks), ("scan", op_id));
    if let Some(residual) = residual {
        scan = scan.then("scan", prof, filter(residual, prof));
    }
    Ok(scan.emits(prof, Emits::Scanned, &ctx.metrics))
}

// ----------------------------------------------------------------------
// Join
// ----------------------------------------------------------------------

/// A physical join strategy, chosen from build/probe input sizes.
#[derive(Clone, Copy, Debug)]
enum JoinStrategy {
    /// Ship the right side to every left partition (classic broadcast).
    BroadcastRight,
    /// Hash-side swap: the left side is the small one — broadcast it and
    /// probe with right partitions instead.
    BroadcastLeft,
    /// Shuffle both sides into `n` partitions, building the hash table on
    /// the smaller side.
    Shuffle { n: usize, build_left: bool },
}

impl JoinStrategy {
    fn describe(self) -> String {
        match self {
            JoinStrategy::BroadcastRight => "broadcast".to_string(),
            JoinStrategy::BroadcastLeft => "broadcast-left".to_string(),
            JoinStrategy::Shuffle { n, build_left } => format!(
                "shuffle(n={n}, build={})",
                if build_left { "left" } else { "right" }
            ),
        }
    }

    /// The `strategy=` profile note.
    fn note(self, left_bytes: usize, right_bytes: usize, ctx: &ExecContext) -> String {
        format!(
            "strategy={} (left_bytes={left_bytes}, right_bytes={right_bytes}, threshold={})",
            self.describe(),
            ctx.broadcast_threshold
        )
    }
}

/// Pick a join strategy from the byte sizes of its inputs, observed once
/// they ran. A small right input of an inner join is broadcast whatever the
/// left one holds, so `left` runs here only when the right one is not small;
/// otherwise its own tasks probe the table.
fn choose_join_strategy(
    left: &mut Pipeline,
    right_bytes: usize,
    join_type: JoinType,
    ctx: &ExecContext,
) -> Result<JoinStrategy> {
    if join_type == JoinType::Inner && right_bytes <= ctx.broadcast_threshold {
        return Ok(JoinStrategy::BroadcastRight);
    }
    let left_bytes = left.materialize(ctx)?;
    if join_type == JoinType::Inner && left_bytes <= ctx.broadcast_threshold {
        return Ok(JoinStrategy::BroadcastLeft);
    }
    // Left joins must observe every left row, so the build side is always
    // the right; inner joins build whichever side is smaller.
    let build_left = join_type == JoinType::Inner && left_bytes < right_bytes;
    let n = exchange_partitions(left_bytes + right_bytes);
    Ok(JoinStrategy::Shuffle { n, build_left })
}

#[allow(clippy::too_many_arguments)]
fn exec_join<'a>(
    plan: &'a LogicalPlan,
    left: &'a LogicalPlan,
    right: &'a LogicalPlan,
    on: &[(Expr, Expr)],
    join_type: JoinType,
    ctx: &ExecContext,
    state: &mut PlanState<'a>,
    prof: Option<&Arc<OpProfile>>,
) -> Result<Pipeline> {
    let left_schema = left.schema();
    let right_schema = right.schema();
    let left_keys: Vec<BoundExpr> = on
        .iter()
        .map(|(l, _)| l.bind(left_schema))
        .collect::<Result<_>>()?;
    let right_keys: Vec<BoundExpr> = on
        .iter()
        .map(|(_, r)| r.bind(right_schema))
        .collect::<Result<_>>()?;
    let left_dtypes = left_schema.data_types();
    let right_dtypes = right_schema.data_types();

    // An input whose keys a scan under the other one can use runs first,
    // whichever it is; its keys are collected before that scan starts.
    let filtering = state
        .dynamic
        .joins
        .get(&(plan as *const LogicalPlan))
        .cloned();
    let run_input = |i: usize, state: &mut PlanState<'a>| {
        let input = if i == 0 { left } else { right };
        let out = execute_node(input, ctx, state, child(prof, i))?;
        let Some((_, keys)) = filtering.as_ref().filter(|(f, _)| std::ptr::eq(*f, input)) else {
            return Ok(out);
        };
        let parts = out.run(ctx)?;
        state
            .dynamic
            .collect_keys(input, keys, &parts, ctx, child(prof, i))?;
        if let (Some(p), Some(first)) = (prof, child(prof, i)) {
            p.note(format!(
                "dynamic filter: filtering side op #{} ran first",
                first.id
            ));
        }
        Ok::<_, EngineError>(Pipeline::done(parts))
    };
    let (mut left_input, right_input) = match &filtering {
        Some((side, _)) if std::ptr::eq(*side, right) => {
            let right_input = run_input(1, state)?;
            (run_input(0, state)?, right_input)
        }
        _ => (run_input(0, state)?, run_input(1, state)?),
    };
    let right_parts = right_input.run(ctx)?;
    let right_bytes = partitions_byte_size(&right_parts);
    let strategy = choose_join_strategy(&mut left_input, right_bytes, join_type, ctx)?;
    // A left input that probes inside its own tasks has its size known only
    // once they ran, and `run` writes the note then.
    let left_bytes = left_input.output().map(partitions_byte_size);
    let mut join_note = None;
    if let Some(p) = prof {
        match left_bytes {
            Some(left_bytes) => p.note(strategy.note(left_bytes, right_bytes, ctx)),
            None => join_note = Some((Arc::clone(p), right_bytes)),
        }
    }

    // Which input is built into the table; the other one probes it.
    let build_left = match strategy {
        JoinStrategy::BroadcastLeft => true,
        JoinStrategy::BroadcastRight => false,
        JoinStrategy::Shuffle { build_left, .. } => build_left,
    };
    let (left_input, right_parts) = match strategy {
        JoinStrategy::Shuffle { n, .. } => {
            // Each side of the exchange is its own labeled edge, keyed by
            // the join operator's plan position.
            let op = prof.map(|p| p.id).unwrap_or(0);
            let shuffle = |parts, keys: &[BoundExpr], side: &str| {
                let edge = format!("join#{op}:{side}");
                let edge = Some((&*ctx.shuffle_edges, edge.as_str()));
                shuffle_batches_by_key(parts, keys, n, &ctx.metrics, edge)
            };
            (
                Pipeline::done(shuffle(left_input.run(ctx)?, &left_keys, "left")?),
                shuffle(right_parts, &right_keys, "right")?,
            )
        }
        _ => {
            let (build_bytes, _) = build_first(build_left, left_bytes, Some(right_bytes));
            let (_, copies) = build_first(build_left, left_input.len(), right_parts.len());
            let copies = copies.max(1) as u64;
            ctx.metrics.add(
                &ctx.metrics.broadcast_bytes,
                build_bytes.unwrap_or(0) as u64 * copies,
            );
            (left_input, right_parts)
        }
    };
    let (build_keys, probe_keys) = build_first(build_left, left_keys, right_keys);
    let (build_dtypes, _) = build_first(build_left, left_dtypes, right_dtypes);
    let probe = Arc::new(Probe {
        keys: probe_keys,
        build_is_left: build_left,
        emit_unmatched: join_type == JoinType::Left && !build_left,
        batch_size: ctx.batch_size.max(1),
    });
    let mut out = if let JoinStrategy::Shuffle { .. } = strategy {
        // One table per exchange partition, built by the task that probes it.
        let build = Arc::new((build_keys, build_dtypes));
        let probe_task = |parts| {
            let (build, probe) = (Arc::clone(&build), Arc::clone(&probe));
            once_task(parts, move |(bpart, ppart)| {
                JoinTable::build(vec![bpart], &build.0, &build.1)?.probe(ppart, &probe)
            })
        };
        let (build_parts, probe_parts) = build_first(build_left, left_input.run(ctx)?, right_parts);
        let pairs = build_parts.into_iter().zip(probe_parts);
        let tasks = pairs.map(probe_task).collect();
        Pipeline::new(Input::Tasks(tasks), ("probe", prof.map(|p| p.id)))
    } else {
        // One table, built here; every task of the other input probes it as
        // one more step.
        let (build_input, probe_input) =
            build_first(build_left, left_input, Pipeline::done(right_parts));
        let table = JoinTable::build(build_input.run(ctx)?, &build_keys, &build_dtypes)?;
        probe_input.then("probe", prof, move |part, _| table.probe(part, &probe))
    };
    out.join_notes.extend(join_note);
    Ok(out.emits(prof, Emits::Built, &ctx.metrics))
}

// ----------------------------------------------------------------------
// Aggregate
// ----------------------------------------------------------------------

fn exec_aggregate<'a>(
    plan: &LogicalPlan,
    group: &[(Expr, String)],
    aggs: &[(AggExpr, String)],
    input: &'a LogicalPlan,
    ctx: &ExecContext,
    state: &mut PlanState<'a>,
    prof: Option<&Arc<OpProfile>>,
) -> Result<Pipeline> {
    let schema = input.schema();
    let group_exprs: Vec<BoundExpr> = group
        .iter()
        .map(|(e, _)| e.bind(schema))
        .collect::<Result<_>>()?;
    let bound_aggs: Vec<BoundAgg> = aggs
        .iter()
        .map(|(a, _)| {
            Ok(BoundAgg {
                template: a.func.accumulator(),
                arg: a.arg.as_ref().map(|e| e.bind(schema)).transpose()?,
            })
        })
        .collect::<Result<_>>()?;

    let input_parts = execute_node(input, ctx, state, child(prof, 0))?.run(ctx)?;
    let n_out = exchange_partitions(partitions_byte_size(&input_parts));
    if let Some(p) = prof {
        p.note(format!("exchange_partitions={n_out}"));
    }

    // Partial aggregation per input partition, exchange of the partial
    // states by group-key hash, finalisation into batches of the operator's
    // output schema: all three on this thread (`hash_aggregate`).
    let out_dtypes = plan.schema().data_types();
    let batch_size = ctx.batch_size.max(1);
    let (out, moved) = hash_aggregate(
        input_parts,
        &group_exprs,
        &bound_aggs,
        &out_dtypes,
        n_out,
        batch_size,
    )?;
    ctx.metrics.add(&ctx.metrics.shuffle_bytes, moved.bytes);
    ctx.metrics.add(&ctx.metrics.shuffle_rows, moved.rows);
    ctx.shuffle_edges.record(
        &format!("agg#{}", prof.map(|p| p.id).unwrap_or(0)),
        moved.bytes,
        moved.rows,
    );
    record_stage_memory(&out, ctx);
    Ok(Pipeline::done(out).emits(prof, Emits::Built, &ctx.metrics))
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// `(build, probe)` of a join's `(left, right)`.
fn build_first<T>(build_left: bool, left: T, right: T) -> (T, T) {
    if build_left {
        (left, right)
    } else {
        (right, left)
    }
}

/// A task that hands `input` to `f`. The first attempt consumes it, and
/// without a retry budget there is no second.
fn once_task<T: Send + 'static>(
    input: T,
    f: impl Fn(T) -> Result<Partition> + Send + 'static,
) -> Task {
    let mut input = Some(input);
    Task::new(None, move |_| {
        let input = input
            .take()
            .ok_or_else(|| EngineError::Execution("task input already consumed".into()))?;
        f(input)
    })
}

fn record_stage_memory(partitions: &[Partition], ctx: &ExecContext) {
    ctx.metrics
        .record_materialized(partitions_byte_size(partitions) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::columnar::ColumnarBatch;
    use crate::expr::Expr;
    use crate::memtable::MemTable;
    use crate::reference::{canonical, canonical_multiset, evaluate};
    use crate::schema::{Field, Schema, SchemaRef};
    use crate::value::DataType;

    fn users_table() -> Arc<MemTable> {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("dept", DataType::Utf8),
            Field::new("score", DataType::Float64),
        ]);
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                Row::new(vec![
                    Value::Int64(i),
                    Value::Utf8(if i % 2 == 0 { "a" } else { "b" }.into()),
                    Value::Float64(i as f64),
                ])
            })
            .collect();
        Arc::new(MemTable::with_rows(schema, rows, 4))
    }

    fn depts_table() -> Arc<MemTable> {
        let schema = Schema::new(vec![
            Field::new("dept_name", DataType::Utf8),
            Field::new("building", DataType::Utf8),
        ]);
        let rows = vec![
            Row::new(vec![Value::Utf8("a".into()), Value::Utf8("north".into())]),
            Row::new(vec![Value::Utf8("b".into()), Value::Utf8("south".into())]),
        ];
        Arc::new(MemTable::with_rows(schema, rows, 1))
    }

    fn scan(provider: Arc<MemTable>, name: &str) -> LogicalPlan {
        LogicalPlan::scan(name.into(), name.into(), provider, None, vec![])
    }

    fn collect_profiled(
        plan: &LogicalPlan,
        ctx: &ExecContext,
    ) -> Result<(Vec<Row>, Arc<OpProfile>)> {
        let profile = OpProfile::build(plan);
        let rows = collect(plan, ctx, Some(&profile))?;
        Ok((rows, profile))
    }

    fn sorted_debug(mut rows: Vec<Row>) -> Vec<String> {
        rows.sort_by_key(|r| format!("{:?}", r.values));
        rows.iter().map(|r| format!("{r:?}")).collect()
    }

    /// The ways one plan can be executed: with the default broadcast bound,
    /// and with a zero one, under which only an empty input is broadcast.
    fn contexts() -> [ExecContext; 2] {
        [
            ExecContext::default(),
            ExecContext {
                broadcast_threshold: 0,
                ..Default::default()
            },
        ]
    }

    /// `rows` of `plan` as text two runs agree on: in order if the plan
    /// sorts, as a multiset if not (partitioning may reorder).
    fn comparable(plan: &LogicalPlan, rows: &[Row]) -> Vec<String> {
        match plan {
            LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } => canonical(rows),
            _ => canonical_multiset(rows),
        }
    }

    /// Run the plan every way; each must produce what the reference
    /// evaluator says the plan means.
    fn assert_matches_reference(plan: &LogicalPlan) {
        let expected = comparable(plan, &evaluate(plan).unwrap());
        for ctx in contexts() {
            let rows = collect(plan, &ctx, None).unwrap();
            assert_eq!(comparable(plan, &rows), expected, "{}", plan.explain());
        }
    }

    #[test]
    fn and_and_or_skip_their_right_side_where_their_left_side_decided() {
        // Casting "a" or "b" to an integer is an error, so a row that
        // reaches the cast fails the query.
        let cast = || {
            let dept = Box::new(Expr::col("dept"));
            let cast = Expr::Cast {
                expr: dept,
                to: DataType::Int32,
            };
            cast.gt(Expr::lit(1))
        };
        for predicate in [
            Expr::col("id").lt(Expr::lit(0i64)).and(cast()),
            Expr::col("id").gt_eq(Expr::lit(0i64)).or(cast()),
        ] {
            let plan = LogicalPlan::filter(predicate, scan(users_table(), "users"));
            assert_matches_reference(&plan);
        }
    }

    #[test]
    fn scan_filter_project_pipeline() {
        let ctx = ExecContext::default();
        let plan = LogicalPlan::projection(
            vec![(Expr::col("id").mul(Expr::lit(2i64)), "double".into())],
            LogicalPlan::filter(
                Expr::col("id").gt_eq(Expr::lit(15i64)),
                scan(users_table(), "users"),
            ),
        );
        let mut rows = collect(&plan, &ctx, None).unwrap();
        rows.sort_by_key(|r| r.get(0).as_i64());
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].get(0), &Value::Int64(30));
        assert!(ctx.metrics.snapshot().scan_rows >= 20);
        assert!(ctx.metrics.snapshot().batches_built > 0);
        assert_matches_reference(&plan);
    }

    #[test]
    fn pushed_filters_are_applied_even_without_translation() {
        // Filter with arithmetic can't translate to SourceFilter, so it must
        // run engine-side on the scan output.
        let ctx = ExecContext::default();
        let plan = LogicalPlan::scan(
            "users".into(),
            "users".into(),
            users_table(),
            None,
            vec![Expr::col("id").add(Expr::lit(0i64)).gt(Expr::lit(17i64))],
        );
        let rows = collect(&plan, &ctx, None).unwrap();
        assert_eq!(rows.len(), 2);
        assert_matches_reference(&plan);
    }

    #[test]
    fn scan_projection_pushdown_narrows() {
        let ctx = ExecContext::default();
        let plan = LogicalPlan::scan(
            "users".into(),
            "users".into(),
            users_table(),
            Some(vec![1]),
            vec![],
        );
        let rows = collect(&plan, &ctx, None).unwrap();
        assert!(rows.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn broadcast_join_small_right() {
        let ctx = ExecContext::default();
        let plan = LogicalPlan::join(
            scan(users_table(), "users"),
            scan(depts_table(), "depts"),
            vec![(Expr::col("dept"), Expr::col("dept_name"))],
            JoinType::Inner,
        );
        let rows = collect(&plan, &ctx, None).unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[0].len(), 5);
        let snap = ctx.metrics.snapshot();
        assert!(snap.broadcast_bytes > 0);
        assert_eq!(snap.shuffle_bytes, 0);
        assert_matches_reference(&plan);
    }

    #[test]
    fn chained_broadcast_joins_each_note_their_strategy() {
        // Both probes run inside the users scan's task (the depts scan is
        // the other one); each join's note carries the bytes its own left
        // input produced there.
        let plan = LogicalPlan::join(
            LogicalPlan::join(
                scan(users_table(), "users"),
                scan(depts_table(), "depts"),
                vec![(Expr::col("dept"), Expr::col("dept_name"))],
                JoinType::Inner,
            ),
            LogicalPlan::values(
                Schema::new(vec![Field::new("b", DataType::Utf8)]),
                vec![vec![Value::Utf8("north".into())]],
            ),
            vec![(Expr::col("building"), Expr::col("b"))],
            JoinType::Inner,
        );
        let ctx = ExecContext::default();
        let (rows, profile) = collect_profiled(&plan, &ctx).unwrap();
        assert_eq!((rows.len(), ctx.metrics.snapshot().tasks), (10, 2));
        for join in [&profile, &profile.children[0]] {
            let left_bytes = join.children[0].bytes.load(Ordering::Relaxed);
            let note = format!("strategy=broadcast (left_bytes={left_bytes}, ");
            let notes = join.notes.lock();
            assert_eq!(notes.len(), 1, "{notes:?}");
            assert!(notes[0].starts_with(&note), "{notes:?}");
        }
    }

    #[test]
    fn shuffle_join_when_right_is_large() {
        let ctx = ExecContext {
            broadcast_threshold: 0,
            ..Default::default()
        };
        let plan = LogicalPlan::join(
            scan(users_table(), "users"),
            scan(depts_table(), "depts"),
            vec![(Expr::col("dept"), Expr::col("dept_name"))],
            JoinType::Inner,
        );
        let rows = collect(&plan, &ctx, None).unwrap();
        assert_eq!(rows.len(), 20);
        assert!(ctx.metrics.snapshot().shuffle_bytes > 0);
    }

    #[test]
    fn left_join_emits_nulls_for_unmatched() {
        let ctx = ExecContext {
            broadcast_threshold: 0, // left joins always shuffle here
            ..Default::default()
        };
        // Only dept "a" exists on the right.
        let schema = Schema::new(vec![Field::new("dept_name", DataType::Utf8)]);
        let right = Arc::new(MemTable::with_rows(
            schema,
            vec![Row::new(vec![Value::Utf8("a".into())])],
            1,
        ));
        let plan = LogicalPlan::join(
            scan(users_table(), "users"),
            scan(right, "d"),
            vec![(Expr::col("dept"), Expr::col("dept_name"))],
            JoinType::Left,
        );
        let rows = collect(&plan, &ctx, None).unwrap();
        assert_eq!(rows.len(), 20);
        let unmatched = rows.iter().filter(|r| r.get(3).is_null()).count();
        assert_eq!(unmatched, 10);
        assert_matches_reference(&plan);
    }

    #[test]
    fn group_by_aggregation() {
        let ctx = ExecContext::default();
        let plan = LogicalPlan::aggregate(
            vec![(Expr::col("dept"), "dept".into())],
            vec![
                (AggExpr::new(AggFunc::Avg, Expr::col("score")), "m".into()),
                (AggExpr::count_star(), "n".into()),
            ],
            scan(users_table(), "users"),
            Vec::new(),
        );
        let mut rows = collect(&plan, &ctx, None).unwrap();
        rows.sort_by(|a, b| a.get(0).as_str().unwrap().cmp(b.get(0).as_str().unwrap()));
        assert_eq!(rows.len(), 2);
        // Evens 0..18 avg = 9, odds 1..19 avg = 10.
        assert_eq!(rows[0].get(1), &Value::Float64(9.0));
        assert_eq!(rows[0].get(2), &Value::Int64(10));
        assert_eq!(rows[1].get(1), &Value::Float64(10.0));
        assert_matches_reference(&plan);
    }

    #[test]
    fn groups_come_out_in_the_order_they_were_first_seen_run_after_run() {
        let users = scan(users_table(), "users");
        let plan = LogicalPlan::aggregate(
            vec![
                (Expr::col("dept"), "dept".into()),
                (Expr::col("id").mul(Expr::lit(3i64)), "k".into()),
            ],
            vec![(AggExpr::count_star(), "n".into())],
            users.clone(),
            Vec::new(),
        );
        // Small enough for one exchange partition: the order is that of the
        // input, partition by partition.
        let ctx = ExecContext {
            batch_size: 8,
            ..Default::default()
        };
        let first = execute(&plan, &ctx, None).unwrap();
        assert_eq!(first.len(), 1);
        let sizes: Vec<usize> = first[0].iter().map(ColumnarBatch::num_rows).collect();
        assert_eq!(sizes, vec![8, 8, 4]);
        let ints = |parts, column| {
            gather_rows(parts)
                .iter()
                .map(|r| r.get(column).as_i64().unwrap())
                .collect::<Vec<_>>()
        };
        let scanned = ints(execute(&users, &ctx, None).unwrap(), 0);
        let grouped = ints(first, 1);
        assert_eq!(grouped, scanned.iter().map(|id| id * 3).collect::<Vec<_>>());
        let again = ints(execute(&plan, &ctx, None).unwrap(), 1);
        assert_eq!(again, grouped, "a second run");
        assert_matches_reference(&plan);
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_row() {
        let ctx = ExecContext::default();
        let empty = Arc::new(MemTable::new(
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            2,
        ));
        let plan = LogicalPlan::aggregate(
            vec![],
            vec![(AggExpr::count_star(), "n".into())],
            scan(empty, "e"),
            Vec::new(),
        );
        let rows = collect(&plan, &ctx, None).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int64(0));
    }

    #[test]
    fn sort_and_limit() {
        let ctx = ExecContext::default();
        let plan = LogicalPlan::limit(
            3,
            LogicalPlan::sort(vec![(Expr::col("id"), false)], scan(users_table(), "users")),
        );
        let rows = collect(&plan, &ctx, None).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(0), &Value::Int64(19));
        assert_eq!(rows[2].get(0), &Value::Int64(17));
    }

    #[test]
    fn stddev_aggregation_matches_reference() {
        let ctx = ExecContext::default();
        let plan = LogicalPlan::aggregate(
            vec![],
            vec![(
                AggExpr::new(AggFunc::Stddev, Expr::col("score")),
                "sd".into(),
            )],
            scan(users_table(), "users"),
            Vec::new(),
        );
        let rows = collect(&plan, &ctx, None).unwrap();
        // Sample stddev of 0..19 is sqrt(35).
        match rows[0].get(0) {
            Value::Float64(v) => assert!((v - 35.0f64.sqrt()).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn memory_metrics_track_peak() {
        let ctx = ExecContext::default();
        let plan = scan(users_table(), "users");
        collect(&plan, &ctx, None).unwrap();
        let snap = ctx.metrics.snapshot();
        assert!(snap.peak_bytes > 0);
    }

    #[test]
    fn min_max_preserve_variant_through_vectorized_path() {
        // MIN/MAX must return the exact input variant even on the typed
        // batch path (they are excluded from typed updates).
        let ctx = ExecContext::default();
        let schema = Schema::new(vec![Field::new("x", DataType::Int32)]);
        let rows = vec![
            Row::new(vec![Value::Int32(7)]),
            Row::new(vec![Value::Int32(-2)]),
            Row::new(vec![Value::Int32(5)]),
        ];
        let table = Arc::new(MemTable::with_rows(schema, rows, 2));
        let plan = LogicalPlan::aggregate(
            vec![],
            vec![
                (AggExpr::new(AggFunc::Min, Expr::col("x")), "lo".into()),
                (AggExpr::new(AggFunc::Max, Expr::col("x")), "hi".into()),
            ],
            scan(table, "t"),
            Vec::new(),
        );
        let rows = collect(&plan, &ctx, None).unwrap();
        assert_eq!(format!("{:?}", rows[0].get(0)), "Int32(-2)");
        assert_eq!(format!("{:?}", rows[0].get(1)), "Int32(7)");
    }

    /// `SELECT dept, AVG(score) m FROM users GROUP BY dept`, under an alias.
    fn dept_block(users: &Arc<MemTable>, alias: &str) -> LogicalPlan {
        dept_block_from(users, alias, "users", 0)
    }

    /// The same over `users AS qualifier WHERE id >= min_id`.
    fn dept_block_from(
        users: &Arc<MemTable>,
        alias: &str,
        qualifier: &str,
        min_id: i64,
    ) -> LogicalPlan {
        LogicalPlan::subquery_alias(
            alias.into(),
            LogicalPlan::aggregate(
                vec![(Expr::col("dept"), "dept".into())],
                vec![(AggExpr::new(AggFunc::Avg, Expr::col("score")), "m".into())],
                LogicalPlan::filter(
                    Expr::col("id").gt_eq(Expr::lit(min_id)),
                    scan(Arc::clone(users), qualifier),
                ),
                Vec::new(),
            ),
        )
    }

    fn join_on_dept(left: LogicalPlan, right: LogicalPlan, right_alias: &str) -> LogicalPlan {
        LogicalPlan::join(
            left,
            right,
            vec![(
                Expr::col("l.dept"),
                Expr::col(format!("{right_alias}.dept")),
            )],
            JoinType::Inner,
        )
    }

    #[test]
    fn a_repeated_subplan_runs_once_and_is_counted_once() {
        let users = users_table();
        let shared = join_on_dept(dept_block(&users, "l"), dept_block(&users, "r"), "r");
        // The reference needs no switch: an equal-content table registered
        // separately is another provider, so both blocks run.
        let separate = join_on_dept(
            dept_block(&users, "l"),
            dept_block(&users_table(), "r"),
            "r",
        );

        let ctx = ExecContext::default();
        let rows = collect(&shared, &ctx, None).unwrap();
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.subplans_reused, 1);
        assert_eq!(snap.scan_rows, 20, "users scanned once");

        let reference_ctx = ExecContext::default();
        let reference = collect(&separate, &reference_ctx, None).unwrap();
        let reference_snap = reference_ctx.metrics.snapshot();
        assert_eq!(reference_snap.subplans_reused, 0);
        assert_eq!(reference_snap.scan_rows, 40);
        // One qualifier apart is another subplan; one filter literal apart
        // leaves only what is below the filter — the scan — to share.
        for (right, reused, scan_rows) in [
            (dept_block_from(&users, "r", "u", 0), 0, 40),
            (dept_block_from(&users, "r", "users", 1), 1, 20),
        ] {
            let ctx = ExecContext::default();
            collect(
                &join_on_dept(dept_block(&users, "l"), right, "r"),
                &ctx,
                None,
            )
            .unwrap();
            assert_eq!(ctx.metrics.snapshot().subplans_reused, reused);
            assert_eq!(ctx.metrics.snapshot().scan_rows, scan_rows);
        }
        assert_eq!(
            reference_snap.tasks - snap.tasks,
            1,
            "one scan stage less, its filter inside its one task: the table's \
             20 rows pack into one scan partition"
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(sorted_debug(rows), sorted_debug(reference));
        assert_matches_reference(&shared);
    }

    #[test]
    fn a_shared_scan_runs_inside_whichever_consumer_runs_first() {
        // The join runs its right input first, so the tasks of the later
        // occurrence produce what the first one, left, then probes with.
        let users = users_table();
        let block = |alias: &str| {
            LogicalPlan::subquery_alias(
                alias.into(),
                LogicalPlan::filter(
                    Expr::col("id").lt(Expr::lit(5i64)),
                    scan(Arc::clone(&users), "users"),
                ),
            )
        };
        let plan = join_on_dept(block("l"), block("r"), "r");
        let ctx = ExecContext::default();
        let (rows, profile) = collect_profiled(&plan, &ctx).unwrap();
        let snap = ctx.metrics.snapshot();
        assert_eq!((snap.subplans_reused, snap.scan_rows), (1, 20));
        assert_eq!(snap.tasks, 2, "one task per occurrence, none to share");
        // Pre-order: 0 join, 1 alias l, 2 filter, 3 scan, 4 alias r,
        // 5 filter (reused).
        let (producer, reused) = (&profile.children[0].children[0], &profile.children[1]);
        assert_eq!(reused.children[0].reused_from.get(), Some(&2));
        let read_kept = [&producer.sel_in_rows, &producer.sel_out_rows];
        assert_eq!(read_kept.map(|c| c.load(Ordering::Relaxed)), [20, 5]);
        assert_eq!(reused.rows.load(Ordering::Relaxed), 5);
        assert_eq!(rows.len(), 13);
        assert_matches_reference(&plan);
    }

    #[test]
    fn a_subplan_used_three_times_runs_once() {
        let users = users_table();
        let plan = join_on_dept(
            join_on_dept(dept_block(&users, "l"), dept_block(&users, "r"), "r"),
            dept_block(&users, "x"),
            "x",
        );
        let ctx = ExecContext::default();
        let rows = collect(&plan, &ctx, None).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 6);
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.subplans_reused, 2);
        assert_eq!(snap.scan_rows, 20);
    }

    #[test]
    fn a_reused_operator_profiles_its_output_and_names_its_source() {
        let users = users_table();
        let plan = join_on_dept(dept_block(&users, "l"), dept_block(&users, "r"), "r");
        let (_, profile) = collect_profiled(&plan, &ExecContext::default()).unwrap();
        // Pre-order: 0 join, 1 alias l, 2 aggregate, 3 filter, 4 scan,
        // 5 alias r, 6 aggregate (reused), 7 filter, 8 scan (never reached).
        let producer = &profile.children[0].children[0];
        let reused = &profile.children[1].children[0];
        assert_eq!((producer.id, reused.id), (2, 6));
        assert_eq!(reused.reused_from.get(), Some(&2));
        assert_eq!(producer.reused_from.get(), None);
        let shape = |p: &OpProfile| {
            [&p.rows, &p.bytes, &p.partitions, &p.batches].map(|c| c.load(Ordering::Relaxed))
        };
        assert_eq!(shape(reused), shape(producer));
        assert_eq!(reused.rows.load(Ordering::Relaxed), 2);
        assert_eq!(reused.elapsed_us.load(Ordering::Relaxed), 0);
        let mut visited = Vec::new();
        profile.walk(&mut |p| visited.push(p.id));
        assert_eq!(visited, vec![0, 1, 2, 3, 4, 5, 6]);
        let rendered = profile.render();
        assert!(rendered.contains("(reused: result of op #2)"), "{rendered}");
        assert!(
            rendered.contains("(op #2: result shared with 1 later operator(s))"),
            "{rendered}"
        );
        assert_eq!(rendered.matches("Scan: users").count(), 1, "{rendered}");
    }

    #[test]
    fn a_task_failure_inside_a_shared_subplan_is_retried_or_fails_the_query_once() {
        let users = users_table();
        let plan = join_on_dept(dept_block(&users, "l"), dept_block(&users, "r"), "r");
        let expected = sorted_debug(collect(&plan, &ExecContext::default(), None).unwrap());

        // The first attempt of the query is a scan task of the shared block.
        let faults = SchedulerFaults::new();
        faults.fail_once_on_host("localhost", "injected");
        let ctx = ExecContext {
            sched_faults: Some(Arc::clone(&faults)),
            ..Default::default()
        };
        let rows = collect(&plan, &ctx, None).unwrap();
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.task_retries, 1);
        assert_eq!(snap.subplans_reused, 1);
        assert_eq!(snap.scan_rows, 20, "the failed attempt counted nothing");
        assert_eq!(sorted_debug(rows), expected);

        // No retry budget: the query fails, once, and nothing of the failed
        // run is left for the next one to pick up.
        faults.fail_once_on_host("localhost", "injected again");
        let mut ctx = ExecContext {
            sched_faults: Some(faults),
            ..Default::default()
        };
        ctx.executors.task_retries = 0;
        let err = collect(&plan, &ctx, None).unwrap_err();
        assert!(err.to_string().contains("injected again"), "{err}");
        assert_eq!(ctx.metrics.snapshot().subplans_reused, 0);
        let rows = collect(&plan, &ctx, None).unwrap();
        assert_eq!(ctx.metrics.snapshot().subplans_reused, 1);
        assert_eq!(sorted_debug(rows), expected);

        // A scan, its filter and the probe of a broadcast `VALUES` (which
        // runs no stage) are one task: its failed first attempt counts
        // nothing, and the retry counts every step once.
        let chain = LogicalPlan::join(
            LogicalPlan::filter(Expr::col("id").lt(Expr::lit(5i64)), scan(users, "users")),
            LogicalPlan::values(
                Schema::new(vec![Field::new("d", DataType::Utf8)]),
                vec![vec![Value::Utf8("a".into())]],
            ),
            vec![(Expr::col("dept"), Expr::col("d"))],
            JoinType::Inner,
        );
        let run = |faults: Option<Arc<SchedulerFaults>>| {
            let ctx = ExecContext {
                sched_faults: faults,
                ..Default::default()
            };
            let (rows, profile) = collect_profiled(&chain, &ctx).unwrap();
            let mut steps = Vec::new();
            profile.walk(&mut |p| {
                let counters = [&p.rows, &p.batches, &p.sel_in_rows, &p.sel_out_rows];
                steps.push(counters.map(|c| c.load(Ordering::Relaxed)));
            });
            let m = ctx.metrics.snapshot();
            let counts = [m.scan_rows, m.batches_built, m.batch_rows, m.tasks];
            (sorted_debug(rows), steps, counts, m.task_retries)
        };
        let faults = SchedulerFaults::new();
        faults.fail_once_on_host("localhost", "injected");
        let (rows, steps, counts, retries) = run(Some(faults));
        assert_eq!(retries, 1);
        assert_eq!(counts[3], 1, "scan, filter and probe run as one task");
        // Join, filter, scan: rows, batches, rows a filter read and kept.
        let chained = [[3, 1, 0, 0], [5, 1, 20, 5], [20, 1, 0, 0]];
        assert_eq!(steps[..3], chained);
        assert_eq!((rows, steps, counts, 0), run(None));

        // A step that fails after the filter counted: the retried task
        // counts the filter and its output once.
        let users = scan(users_table(), "users");
        let batches = execute(&users, &ExecContext::default(), None)
            .unwrap()
            .remove(0);
        let source = Task::new(None, move |_| Ok(batches.clone())).with_retries(1);
        let predicate = Expr::col("id").lt(Expr::lit(5i64)).bind(users.schema());
        let (ctx, prof) = (ExecContext::default(), OpProfile::build(&users));
        let failed = std::sync::atomic::AtomicBool::new(false);
        let out = Pipeline::new(Input::Tasks(vec![source]), ("scan", Some(prof.id)))
            .then("scan", Some(&prof), filter(predicate.unwrap(), Some(&prof)))
            .emits(Some(&prof), Emits::Built, &ctx.metrics)
            .then("map", None, move |part, _| {
                match failed.swap(true, Ordering::Relaxed) {
                    true => Ok(part),
                    false => Err(EngineError::Execution("after the filter".into())),
                }
            })
            .run(&ctx)
            .unwrap();
        assert_eq!(batches_num_rows(&out[0]), 5);
        let counters = [
            &prof.rows,
            &prof.batches,
            &prof.sel_in_rows,
            &prof.sel_out_rows,
        ];
        assert_eq!(counters.map(|c| c.load(Ordering::Relaxed)), [5, 1, 20, 5]);
        let m = ctx.metrics.snapshot();
        assert_eq!((m.task_retries, m.batches_built, m.batch_rows), (1, 1, 5));
    }

    use crate::memtable::KeyedTable;

    type Provider = Arc<dyn crate::datasource::TableProvider>;

    /// `provider`, forwarded, except that it prunes partitions on no column,
    /// so no scan of it is ever handed join keys: the reference a plan that
    /// hands keys across its joins is compared with.
    struct NoKeyPruning(Provider);

    impl crate::datasource::TableProvider for NoKeyPruning {
        fn schema(&self) -> SchemaRef {
            self.0.schema()
        }
        fn supports_projection(&self) -> bool {
            self.0.supports_projection()
        }
        fn unhandled_filters(&self, filters: &[SourceFilter]) -> Vec<SourceFilter> {
            self.0.unhandled_filters(filters)
        }
        fn unique_key(&self) -> Option<String> {
            self.0.unique_key()
        }
        fn scan(
            &self,
            projection: Option<&[usize]>,
            filters: &[SourceFilter],
        ) -> Result<Vec<Arc<dyn ScanPartition>>> {
            self.0.scan(projection, filters)
        }
    }

    fn no_key_pruning(provider: Provider) -> Provider {
        Arc::new(NoKeyPruning(provider))
    }

    /// `f(k, v)`: forty rows, `k = v % 10`, in a table that prunes on `k`.
    fn facts() -> Arc<KeyedTable> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let rows = (0..40)
            .map(|v| Row::new(vec![Value::Int64(v % 10), Value::Int64(v)]))
            .collect();
        KeyedTable::new(MemTable::with_rows(schema, rows, 4), "k")
    }

    /// `d(dk, tag)`: keys 0..10 as `Int32` (the fact key is `Int64`), one of
    /// them twice, one row without a key.
    fn dims() -> Arc<MemTable> {
        let schema = Schema::new(vec![
            Field::new("dk", DataType::Int32),
            Field::new("tag", DataType::Utf8),
        ]);
        let mut rows: Vec<Row> = (0..10)
            .map(|dk| Row::new(vec![Value::Int32(dk), Value::Utf8("t".into())]))
            .collect();
        rows.push(Row::new(vec![Value::Int32(1), Value::Utf8("t".into())]));
        rows.push(Row::new(vec![Value::Null, Value::Utf8("t".into())]));
        Arc::new(MemTable::with_rows(schema, rows, 2))
    }

    fn scan_where(
        provider: Arc<dyn crate::datasource::TableProvider>,
        qualifier: &str,
        filters: Vec<Expr>,
    ) -> LogicalPlan {
        LogicalPlan::scan(qualifier.into(), qualifier.into(), provider, None, filters)
    }

    /// `f JOIN d ON f.k = d.dk WHERE d.dk < below`.
    fn facts_of_dims_below(facts: Provider, below: i32) -> LogicalPlan {
        LogicalPlan::join(
            scan_where(facts, "f", vec![]),
            scan_where(dims(), "d", vec![Expr::col("dk").lt(Expr::lit(below))]),
            vec![(Expr::col("f.k"), Expr::col("d.dk"))],
            JoinType::Inner,
        )
    }

    fn keys_in(values: &[i32]) -> Vec<SourceFilter> {
        vec![SourceFilter::In(
            "k".into(),
            values.iter().map(|&v| Value::Int32(v)).collect(),
        )]
    }

    #[test]
    fn a_small_filtered_input_hands_its_keys_to_the_scan_across_the_join() {
        let table = facts();
        let plan = facts_of_dims_below(table.clone(), 3);
        let ctx = ExecContext::default();
        let rows = collect(&plan, &ctx, None).unwrap();
        // Keys are distinct (1 occurs twice), not NULL, in order, and still
        // `Int32`: casting to the column's type is the source's business.
        assert_eq!(*table.offered.lock(), vec![keys_in(&[0, 1, 2])]);
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.dynamic_filters, 1);
        assert_eq!(snap.scan_rows, 12 + 4, "three keys of ten, four dims");
        assert_eq!(rows.len(), 4 + 8 + 4, "key 1 joins two dims");

        // A row without a key joins nothing and names no key; a `Filter`
        // operator is as good a predicate as a pushed one.
        let all_dims = LogicalPlan::join(
            scan_where(table.clone(), "f", vec![]),
            LogicalPlan::filter(
                Expr::col("d.tag").eq(Expr::lit("t")),
                scan_where(dims(), "d", vec![]),
            ),
            vec![(Expr::col("f.k"), Expr::col("d.dk"))],
            JoinType::Inner,
        );
        assert_eq!(
            collect(&all_dims, &ExecContext::default(), None)
                .unwrap()
                .len(),
            44
        );
        let every_key: Vec<i32> = (0..10).collect();
        assert_eq!(table.offered.lock().pop().unwrap(), keys_in(&every_key));

        // A table that prunes on no column reads all of it for the same rows.
        let unkeyed = ExecContext::default();
        let reference = facts_of_dims_below(no_key_pruning(table.clone()), 3);
        let reference = collect(&reference, &unkeyed, None).unwrap();
        assert_eq!(table.offered.lock().last().unwrap(), &vec![]);
        assert_eq!(unkeyed.metrics.snapshot().dynamic_filters, 0);
        assert_eq!(unkeyed.metrics.snapshot().scan_rows, 40 + 4);
        assert_eq!(sorted_debug(rows.clone()), sorted_debug(reference));
        assert_eq!(unkeyed.metrics.snapshot().tasks, snap.tasks);

        // The filtering input on the left.
        let LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
            ..
        } = plan
        else {
            unreachable!()
        };
        let swapped = LogicalPlan::join(
            *right,
            *left,
            on.into_iter().map(|(l, r)| (r, l)).collect(),
            join_type,
        );
        let ctx = ExecContext::default();
        let again = collect(&swapped, &ctx, None).unwrap();
        assert_eq!(table.offered.lock().last().unwrap(), &keys_in(&[0, 1, 2]));
        assert_eq!(ctx.metrics.snapshot().dynamic_filters, 1);
        assert_eq!(again.len(), rows.len());
        assert_matches_reference(&swapped);
    }

    #[test]
    fn an_empty_key_set_is_still_a_key_set() {
        let table = facts();
        let ctx = ExecContext::default();
        let rows = collect(&facts_of_dims_below(table.clone(), 0), &ctx, None).unwrap();
        assert!(rows.is_empty());
        assert_eq!(*table.offered.lock(), vec![keys_in(&[])]);
        assert_eq!(ctx.metrics.snapshot().scan_rows, 0);
    }

    #[test]
    fn no_keys_are_passed_where_the_rule_does_not_hold() {
        let table = facts();
        let below_3 = || vec![Expr::col("dk").lt(Expr::lit(3))];
        let tiny_broadcasts = ExecContext {
            broadcast_threshold: 16,
            ..Default::default()
        };
        for (join_type, key, dim_filters, ctx, why) in [
            (
                JoinType::Left,
                Expr::col("f.k"),
                below_3(),
                ExecContext::default(),
                "left join",
            ),
            (
                JoinType::Inner,
                Expr::col("f.k").add(Expr::lit(0i64)),
                below_3(),
                ExecContext::default(),
                "key wrapped in an expression",
            ),
            (
                JoinType::Inner,
                Expr::col("f.v"),
                below_3(),
                ExecContext::default(),
                "not the column the table prunes on",
            ),
            (
                JoinType::Inner,
                Expr::col("f.k"),
                vec![],
                ExecContext::default(),
                "the other input keeps every row",
            ),
            (
                JoinType::Inner,
                Expr::col("f.k"),
                below_3(),
                tiny_broadcasts,
                "the other input is larger than a broadcast",
            ),
        ] {
            let with = |facts: Provider| {
                LogicalPlan::join(
                    scan_where(facts, "f", vec![]),
                    scan_where(dims(), "d", dim_filters.clone()),
                    vec![(key.clone(), Expr::col("d.dk"))],
                    join_type,
                )
            };
            let rows = collect(&with(table.clone()), &ctx, None).unwrap();
            assert_eq!(table.offered.lock().pop().unwrap(), vec![], "{why}");
            assert_eq!(ctx.metrics.snapshot().dynamic_filters, 0, "{why}");
            let reference = collect(&with(no_key_pruning(table.clone())), &ctx, None).unwrap();
            table.offered.lock().clear();
            assert_eq!(sorted_debug(rows), sorted_debug(reference), "{why}");
        }
    }

    /// Two blocks `f JOIN d WHERE dk < 3` and `f JOIN d WHERE dk >= 2 AND
    /// dk < below` joined on `v`: the scan of `f` is a repeated subplan.
    fn two_blocks_over_one_scan(facts: Provider, second: Vec<Expr>) -> LogicalPlan {
        let block = |name: &str, dim_filters: Vec<Expr>| {
            LogicalPlan::subquery_alias(
                name.into(),
                LogicalPlan::join(
                    scan_where(facts.clone(), "f", vec![]),
                    scan_where(dims(), "d", dim_filters),
                    vec![(Expr::col("f.k"), Expr::col("d.dk"))],
                    JoinType::Inner,
                ),
            )
        };
        LogicalPlan::join(
            block("l", vec![Expr::col("dk").lt(Expr::lit(3))]),
            block("r", second),
            vec![(Expr::col("l.v"), Expr::col("r.v"))],
            JoinType::Inner,
        )
    }

    #[test]
    fn a_shared_scan_is_handed_the_union_of_its_consumers_keys() {
        let table = facts();
        let from_2_below_5 = vec![
            Expr::col("dk").gt_eq(Expr::lit(2)),
            Expr::col("dk").lt(Expr::lit(5)),
        ];
        let plan = two_blocks_over_one_scan(table.clone(), from_2_below_5.clone());
        let ctx = ExecContext::default();
        let (rows, profile) = collect_profiled(&plan, &ctx).unwrap();
        assert_eq!(*table.offered.lock(), vec![keys_in(&[0, 1, 2, 3, 4])]);
        let snap = ctx.metrics.snapshot();
        assert_eq!((snap.dynamic_filters, snap.subplans_reused), (1, 1));
        // The second block's dims ran ahead of their join, once.
        assert_eq!(snap.scan_rows, 20 + 4 + 3);
        assert_eq!(rows.len(), 4, "v with k = 2, in both blocks");
        let unkeyed = ExecContext::default();
        let reference = two_blocks_over_one_scan(no_key_pruning(table.clone()), from_2_below_5);
        let reference = collect(&reference, &unkeyed, None).unwrap();
        assert_eq!(unkeyed.metrics.snapshot().scan_rows, 40 + 4 + 3);
        assert_eq!(unkeyed.metrics.snapshot().tasks, snap.tasks);
        assert_eq!(sorted_debug(rows), sorted_debug(reference));

        // Pre-order: 0 join, 1 alias l, 2 join, 3 scan f, 4 scan d,
        // 5 alias r, 6 join, 7 scan f (reused), 8 scan d (ran ahead).
        let rendered = profile.render();
        assert!(
            rendered.contains("(dynamic filter: 5 keys from op #4, #8 → 1 range(s))"),
            "{rendered}"
        );
        for op in [4, 8] {
            let note = format!("(dynamic filter: filtering side op #{op} ran first)");
            assert!(rendered.contains(&note), "{rendered}");
        }
        let mut scans = Vec::new();
        profile.walk(&mut |p| {
            if p.describe.starts_with("Scan") {
                scans.push((
                    p.id,
                    p.rows.load(Ordering::Relaxed),
                    p.dynamic_filter_keys.get().copied(),
                ));
            }
        });
        assert_eq!(
            scans,
            vec![(3, 20, Some(5)), (4, 4, None), (7, 20, None), (8, 3, None)]
        );

        // A block whose dims keep every row reads all of `f`: nothing is
        // pushed for the other block either.
        let plan = two_blocks_over_one_scan(table.clone(), vec![]);
        let ctx = ExecContext::default();
        collect(&plan, &ctx, None).unwrap();
        assert_eq!(table.offered.lock().pop().unwrap(), vec![]);
        assert_eq!(ctx.metrics.snapshot().dynamic_filters, 0);
    }

    #[test]
    fn a_task_failure_in_the_filtering_input_is_retried_or_fails_the_query_once() {
        let table = facts();
        let plan = facts_of_dims_below(table.clone(), 3);
        let expected = sorted_debug(collect(&plan, &ExecContext::default(), None).unwrap());
        table.offered.lock().clear();

        // The filtering input runs first: the query's first task is its scan.
        let faults = SchedulerFaults::new();
        faults.fail_once_on_host("localhost", "injected");
        let ctx = ExecContext {
            sched_faults: Some(Arc::clone(&faults)),
            ..Default::default()
        };
        let rows = collect(&plan, &ctx, None).unwrap();
        let snap = ctx.metrics.snapshot();
        assert_eq!((snap.task_retries, snap.dynamic_filters), (1, 1));
        assert_eq!(snap.scan_rows, 12 + 4, "the failed attempt counted nothing");
        assert_eq!(*table.offered.lock(), vec![keys_in(&[0, 1, 2])]);
        assert_eq!(sorted_debug(rows), expected);

        // No retry budget: the query fails before the fact table is asked
        // for anything, and the next run starts from nothing.
        faults.fail_once_on_host("localhost", "injected again");
        let mut ctx = ExecContext {
            sched_faults: Some(faults),
            ..Default::default()
        };
        ctx.executors.task_retries = 0;
        let err = collect(&plan, &ctx, None).unwrap_err();
        assert!(err.to_string().contains("injected again"), "{err}");
        assert_eq!(table.offered.lock().len(), 1);
        assert_eq!(ctx.metrics.snapshot().dynamic_filters, 0);
        let rows = collect(&plan, &ctx, None).unwrap();
        assert_eq!(ctx.metrics.snapshot().dynamic_filters, 1);
        assert_eq!(sorted_debug(rows), expected);
    }

    #[test]
    fn filter_profile_records_selectivity_and_batches() {
        let plan = LogicalPlan::filter(
            Expr::col("id").lt(Expr::lit(5i64)),
            scan(users_table(), "users"),
        );
        let ctx = ExecContext::default();
        let (rows, profile) = collect_profiled(&plan, &ctx).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(profile.sel_in_rows.load(Ordering::Relaxed), 20);
        assert_eq!(profile.sel_out_rows.load(Ordering::Relaxed), 5);
        let rendered = profile.render();
        assert!(rendered.contains("selectivity: 5/20"), "{rendered}");
        assert!(rendered.contains("batches="), "{rendered}");
    }
    // ------------------------------------------------------------------
    // Shapes whose input or output used to be row vectors.
    // ------------------------------------------------------------------

    /// `SELECT dept, AVG(score) m, COUNT(*) n FROM users GROUP BY dept`.
    fn dept_stats() -> LogicalPlan {
        LogicalPlan::aggregate(
            vec![(Expr::col("dept"), "dept".into())],
            vec![
                (AggExpr::new(AggFunc::Avg, Expr::col("score")), "m".into()),
                (AggExpr::count_star(), "n".into()),
            ],
            scan(users_table(), "users"),
            Vec::new(),
        )
    }

    #[test]
    fn operators_above_an_aggregate_take_its_batches() {
        let having = LogicalPlan::filter(Expr::col("m").gt(Expr::lit(9.5)), dept_stats());
        let computed = LogicalPlan::projection(
            vec![
                (Expr::col("dept"), "dept".into()),
                (Expr::col("m").div(Expr::col("n")), "ratio".into()),
            ],
            dept_stats(),
        );
        let joined = LogicalPlan::join(
            dept_stats(),
            scan(depts_table(), "depts"),
            vec![(Expr::col("dept"), Expr::col("dept_name"))],
            JoinType::Left,
        );
        let again = LogicalPlan::aggregate(
            vec![],
            vec![
                (AggExpr::new(AggFunc::Sum, Expr::col("n")), "rows".into()),
                (AggExpr::new(AggFunc::Max, Expr::col("m")), "top".into()),
            ],
            dept_stats(),
            Vec::new(),
        );
        for plan in [having, computed, joined, again] {
            assert_matches_reference(&plan);
            // Every operator of the plan emitted batches, the aggregate and
            // what runs above it included.
            let (rows, profile) = collect_profiled(&plan, &ExecContext::default()).unwrap();
            assert!(!rows.is_empty());
            profile.walk(&mut |p| {
                assert!(p.batches.load(Ordering::Relaxed) > 0, "{}", p.describe);
            });
        }
    }

    #[test]
    fn count_star_counts_rows_that_have_no_columns_and_inputs_that_have_no_rows() {
        // An empty pushed projection: batches with a row count and nothing
        // else reach the aggregate.
        let no_columns = LogicalPlan::aggregate(
            vec![],
            vec![(AggExpr::count_star(), "n".into())],
            LogicalPlan::scan(
                "users".into(),
                "users".into(),
                users_table(),
                Some(vec![]),
                vec![],
            ),
            Vec::new(),
        );
        let parts = execute(&no_columns, &ExecContext::default(), None).unwrap();
        assert_eq!(gather_rows(parts), vec![Row::new(vec![Value::Int64(20)])]);
        assert_matches_reference(&no_columns);

        let empty = Arc::new(MemTable::new(
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            2,
        ));
        let no_rows = LogicalPlan::aggregate(
            vec![],
            vec![
                (AggExpr::count_star(), "n".into()),
                (AggExpr::new(AggFunc::Sum, Expr::col("x")), "s".into()),
            ],
            scan(empty.clone(), "e"),
            Vec::new(),
        );
        let parts = execute(&no_rows, &ExecContext::default(), None).unwrap();
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 1, "one batch");
        assert_eq!(
            gather_rows(parts),
            vec![Row::new(vec![Value::Int64(0), Value::Null])]
        );
        assert_matches_reference(&no_rows);
        // Grouped, there is no group to report.
        let grouped = LogicalPlan::aggregate(
            vec![(Expr::col("x"), "x".into())],
            vec![(AggExpr::count_star(), "n".into())],
            scan(empty, "e"),
            Vec::new(),
        );
        assert!(collect(&grouped, &ExecContext::default(), None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn values_and_limits_emit_batches() {
        let values = LogicalPlan::values(
            Schema::new(vec![
                Field::new("k", DataType::Int32),
                Field::new("s", DataType::Utf8),
            ]),
            (0..5)
                .map(|i| vec![Value::Int32(i), Value::Utf8(format!("s{i}"))])
                .collect(),
        );
        let ctx = ExecContext {
            batch_size: 2,
            ..Default::default()
        };
        let parts = execute(&values, &ctx, None).unwrap();
        let sizes: Vec<usize> = parts[0].iter().map(ColumnarBatch::num_rows).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        assert_eq!(parts[0][0].column(1).dict_size(), Some(2), "typed columns");
        assert_matches_reference(&values);

        // A limit keeps whole batches and cuts the one it falls in.
        let limit = |n| LogicalPlan::limit(n, values.clone());
        let parts = execute(&limit(3), &ctx, None).unwrap();
        let sizes: Vec<usize> = parts[0].iter().map(ColumnarBatch::num_rows).collect();
        assert_eq!(sizes, vec![2, 1]);
        for n in [0, 3, 5, 9] {
            assert_matches_reference(&limit(n));
        }
        let none = execute(&limit(0), &ctx, None).unwrap();
        assert_eq!(none.len(), 1);
        assert!(none[0].is_empty(), "no rows, no batch");
        // Above a filter that keeps nothing, and below an aggregate.
        let nothing = LogicalPlan::aggregate(
            vec![],
            vec![(AggExpr::count_star(), "n".into())],
            limit(0),
            Vec::new(),
        );
        assert_matches_reference(&nothing);
    }

    #[test]
    fn a_projection_whose_type_cannot_be_derived_builds_boxed_columns() {
        // A string compared with a number has no type the analyzer accepts;
        // evaluated, it is NULL for every row.
        let untyped = Expr::col("dept").lt(Expr::lit(1i64));
        let users = scan(users_table(), "users");
        assert!(untyped.data_type(users.schema()).is_err());
        let plan = LogicalPlan::projection(
            vec![(Expr::col("id"), "id".into()), (untyped, "u".into())],
            users,
        );
        let parts = execute(&plan, &ExecContext::default(), None).unwrap();
        let batch = parts.iter().flatten().next().unwrap();
        assert_eq!(batch.dtypes(), vec![DataType::Int64, DataType::Binary]);
        assert!(batch.column(0).i64_slice().is_some(), "derived: typed");
        assert_eq!(batch.column(1).null_count(), batch.num_rows());
        assert_matches_reference(&plan);
    }

    #[test]
    fn order_by_is_a_total_order_over_nan_null_and_signed_zero() {
        // Every 7th value NaN, every 11th NULL, zeros of both signs: the
        // comparator that called an incomparable pair equal left the rest
        // out of order.
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("x", DataType::Float64),
        ]);
        let rows: Vec<Row> = (0..500i64)
            .map(|i| {
                let x = match i {
                    _ if i % 7 == 0 => Value::Float64(f64::NAN),
                    _ if i % 11 == 0 => Value::Null,
                    _ if i % 13 == 0 => Value::Float64(if i % 2 == 0 { 0.0 } else { -0.0 }),
                    _ => Value::Float64(((i * 37) % 101 - 50) as f64 / 4.0),
                };
                Row::new(vec![Value::Int64(i), x])
            })
            .collect();
        let table = Arc::new(MemTable::with_rows(schema, rows, 3));
        for asc in [true, false] {
            let plan = LogicalPlan::sort(
                vec![(Expr::col("x"), asc), (Expr::col("i"), true)],
                scan(table.clone(), "t"),
            );
            assert_matches_reference(&plan);
            let xs: Vec<Value> = collect(&plan, &ExecContext::default(), None)
                .unwrap()
                .iter()
                .map(|r| r.get(1).clone())
                .collect();
            let (nulls, nans) = (500 / 11 + 1 - 7, 500 / 7 + 1);
            let (first, last) = if asc {
                (&xs[..nulls], &xs[xs.len() - nans..])
            } else {
                (&xs[xs.len() - nulls..], &xs[..nans])
            };
            assert!(first.iter().all(Value::is_null), "NULLs before all");
            assert!(last.iter().all(|v| v.as_f64().is_some_and(f64::is_nan)));
            let numbers: Vec<f64> = xs
                .iter()
                .filter_map(Value::as_f64)
                .filter(|x| !x.is_nan())
                .collect();
            assert!(numbers
                .windows(2)
                .all(|w| if asc { w[0] <= w[1] } else { w[0] >= w[1] }));
        }
    }

    // ------------------------------------------------------------------
    // Seeded random plans against the reference evaluator.
    // ------------------------------------------------------------------

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `table` served as `stripes` scan partitions, the i-th keeping every
    /// `stripes`-th row from the i-th on: a small MemTable scans as one
    /// partition, and the random plans want several. A `boxed` one ships
    /// full-width rows whose string columns arrive dictionary-encoded in
    /// some batches and as boxed values in the others.
    struct Striped {
        table: Arc<MemTable>,
        stripes: usize,
        boxed: bool,
    }

    struct Stripe {
        parts: Vec<Arc<dyn ScanPartition>>,
        stripes: usize,
        index: usize,
        boxed: bool,
    }

    impl crate::datasource::TableProvider for Striped {
        fn schema(&self) -> SchemaRef {
            self.table.schema()
        }
        fn supports_projection(&self) -> bool {
            !self.boxed
        }
        fn unhandled_filters(&self, filters: &[SourceFilter]) -> Vec<SourceFilter> {
            self.table.unhandled_filters(filters)
        }
        fn unique_key(&self) -> Option<String> {
            self.table.unique_key()
        }
        fn scan(
            &self,
            projection: Option<&[usize]>,
            filters: &[SourceFilter],
        ) -> Result<Vec<Arc<dyn ScanPartition>>> {
            let projection = projection.filter(|_| !self.boxed);
            let parts = self.table.scan(projection, filters)?;
            Ok((0..self.stripes)
                .map(|index| {
                    Arc::new(Stripe {
                        parts: parts.clone(),
                        stripes: self.stripes,
                        index,
                        boxed: self.boxed,
                    }) as Arc<dyn ScanPartition>
                })
                .collect())
        }
    }

    impl ScanPartition for Stripe {
        fn execute(
            &self,
            running_on: &str,
            batch_size: usize,
            on_batch: &mut dyn FnMut(ColumnarBatch) -> Result<()>,
        ) -> Result<()> {
            let (mut row, mut nth) = (0, self.index);
            for part in &self.parts {
                part.execute(running_on, batch_size, &mut |batch| {
                    let keep: Vec<u32> = (0..batch.num_rows())
                        .filter(|i| (row + i) % self.stripes == self.index)
                        .map(|i| i as u32)
                        .collect();
                    row += batch.num_rows();
                    nth += 1;
                    if keep.is_empty() {
                        return Ok(());
                    }
                    let batch = batch.gather(&keep);
                    if !self.boxed || nth % 2 == 1 {
                        return on_batch(batch);
                    }
                    let boxed = |col: &Arc<crate::columnar::Column>| {
                        if col.dict_size().is_none() {
                            return Arc::clone(col);
                        }
                        let mut values = crate::columnar::ColumnBuilder::new(DataType::Binary);
                        (0..col.len()).for_each(|i| values.push(&col.value(i)));
                        Arc::new(values.finish())
                    };
                    let columns = batch.columns().iter().map(boxed).collect();
                    on_batch(ColumnarBatch::with_row_count(columns, batch.num_rows()))
                })?;
            }
            Ok(())
        }
    }

    /// `a(ak Int32, g, x, n, f)` over 4 partitions, its strings boxed in every
    /// other batch; `b(bk Int64, tag, w, bg)` over 8 of which 2 stay empty,
    /// with a key that occurs three times and one that is NULL; `e`, `b`
    /// without rows; and the dimension `d(dk Int64, dname, dv)` twice, with
    /// `dk` declared unique and plain. NULLs in every column but `n`; `x` in
    /// quarters, so sums are exact in any order; `f` holds both zeros and
    /// whole numbers that are keys of `b`; `dk` misses some values of `ak`
    /// and holds one `ak` never takes, and two keys share a `dname`.
    fn random_plan_tables() -> [Provider; 5] {
        let a_schema = Schema::new(vec![
            Field::new("ak", DataType::Int32),
            Field::new("g", DataType::Utf8),
            Field::new("x", DataType::Float64),
            Field::new("n", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]);
        let a_rows = (0..23i64)
            .map(|i| {
                Row::new(vec![
                    if i % 6 == 5 {
                        Value::Null
                    } else {
                        Value::Int32((i % 7) as i32)
                    },
                    match i % 5 {
                        4 => Value::Null,
                        g => Value::Utf8(format!("g{}", g % 3)),
                    },
                    if i % 8 == 3 {
                        Value::Null
                    } else {
                        Value::Float64(((i * 13) % 41 - 20) as f64 / 4.0)
                    },
                    Value::Int64(i * i - 40),
                    match i % 6 {
                        0 => Value::Float64(-0.0),
                        1 => Value::Float64(0.0),
                        2 => Value::Float64(3.0),
                        3 => Value::Null,
                        4 => Value::Float64(2.5),
                        _ => Value::Float64(1.0),
                    },
                ])
            })
            .collect();
        let b_schema = Schema::new(vec![
            Field::new("bk", DataType::Int64),
            Field::new("tag", DataType::Utf8),
            Field::new("w", DataType::Int32),
            Field::new("bg", DataType::Utf8),
        ]);
        let b_keys = [
            (Some(1), Some("g1")),
            (Some(3), Some("g0")),
            (Some(3), Some("g0")),
            (None, Some("g2")),
            (Some(6), Some("g0")),
            (Some(3), None),
        ];
        let b_rows = b_keys
            .into_iter()
            .enumerate()
            .map(|(i, (bk, bg))| {
                Row::new(vec![
                    bk.map_or(Value::Null, Value::Int64),
                    Value::Utf8(format!("t{}", i % 2)),
                    Value::Int32(i as i32 * 10),
                    bg.map_or(Value::Null, |s| Value::Utf8(s.into())),
                ])
            })
            .collect();
        let d_schema = Schema::new(vec![
            Field::new("dk", DataType::Int64),
            Field::new("dname", DataType::Utf8),
            Field::new("dv", DataType::Int32),
        ]);
        let d_rows = [Some(0), Some(1), Some(2), None, Some(4), Some(5), Some(9)]
            .into_iter()
            .enumerate()
            .map(|(i, dk)| {
                Row::new(vec![
                    dk.map_or(Value::Null, Value::Int64),
                    Value::Utf8(format!("d{}", i % 3)),
                    Value::Int32(i as i32 * 7 - 10),
                ])
            })
            .collect::<Vec<_>>();
        let d = || MemTable::with_rows(d_schema.clone(), d_rows.clone(), 3);
        let striped = |table, stripes, boxed| {
            Arc::new(Striped {
                table: Arc::new(table),
                stripes,
                boxed,
            }) as Provider
        };
        [
            striped(MemTable::with_rows(a_schema, a_rows, 4), 4, true),
            striped(MemTable::with_rows(b_schema.clone(), b_rows, 8), 8, false),
            Arc::new(MemTable::new(b_schema, 2)),
            striped(d().with_unique_key("dk").unwrap(), 2, false),
            striped(d(), 2, false),
        ]
    }

    /// scan → filter? → computed projection? → join? → dimension join? →
    /// group-by? → (sort → limit?)?, each step drawn from `rng`.
    fn random_plan(rng: &mut StdRng, [a, b, e, du, dp]: &[Provider; 5]) -> LogicalPlan {
        let pushed: [Vec<Expr>; 3] = [
            vec![],
            vec![Expr::col("ak").gt_eq(Expr::lit(2))],
            vec![Expr::col("n").add(Expr::lit(0i64)).lt(Expr::lit(200i64))],
        ];
        let mut plan = scan_where(a.clone(), "a", pushed[rng.gen_range(0..3usize)].clone());
        if rng.gen_bool(0.5) {
            let predicates = [
                Expr::col("x").gt(Expr::lit(-1.5)),
                Expr::col("g")
                    .eq(Expr::lit("g1"))
                    .or(Expr::col("ak").is_null()),
                Expr::col("ak").is_not_null(),
                Expr::col("n").mul(Expr::lit(2i64)).gt(Expr::col("x")),
                // A kernel's comparison ANDed with a computed one, and a NOT.
                Expr::col("x")
                    .gt(Expr::lit(-1.5))
                    .and(Expr::col("n").mul(Expr::lit(2i64)).gt(Expr::col("x"))),
                Expr::Not(Box::new(Expr::col("g").eq(Expr::lit("g1")))),
            ];
            plan =
                LogicalPlan::filter(predicates[rng.gen_range(0..predicates.len())].clone(), plan);
        }
        if rng.gen_bool(0.5) {
            let keep = |name: &str| (Expr::col(name), name.to_string());
            plan = LogicalPlan::projection(
                vec![
                    keep("ak"),
                    keep("g"),
                    (Expr::col("x").mul(Expr::lit(2.0)), "x".into()),
                    (Expr::col("n").add(Expr::col("ak")), "n".into()),
                    keep("f"),
                ],
                plan,
            );
        }
        // A key the kernels read off a column, and the same key computed.
        let ak_computed = || Expr::col("ak").add(Expr::lit(0i64));
        let joined = rng.gen_bool(0.6);
        if joined {
            let right = if rng.gen_bool(0.8) { b } else { e };
            // One column; two of mixed widths, (Int32, Utf8) = (Int64,
            // Utf8); a computed key; a Float64 key against an Int64 one.
            let on = [
                vec![(Expr::col("ak"), Expr::col("bk"))],
                vec![
                    (Expr::col("ak"), Expr::col("bk")),
                    (Expr::col("g"), Expr::col("bg")),
                ],
                vec![(ak_computed(), Expr::col("bk"))],
                vec![(Expr::col("f"), Expr::col("bk"))],
            ];
            plan = LogicalPlan::join(
                plan,
                scan_where(right.clone(), "b", vec![]),
                on[rng.gen_range(0..on.len())].clone(),
                if rng.gen_bool(0.5) {
                    JoinType::Inner
                } else {
                    JoinType::Left
                },
            );
        }
        // A lookup of `d` by `ak`, on a declared unique key or not, with a
        // filter of its own or not.
        let looked_up = rng.gen_bool(0.6);
        if looked_up {
            let d = if rng.gen_bool(0.5) { du } else { dp };
            let filters = match rng.gen_bool(0.3) {
                true => vec![Expr::col("dv").gt(Expr::lit(0))],
                false => vec![],
            };
            plan = LogicalPlan::join(
                plan,
                scan_where(d.clone(), "d", filters),
                vec![(Expr::col("ak"), Expr::col("dk"))],
                if rng.gen_bool(0.8) {
                    JoinType::Inner
                } else {
                    JoinType::Left
                },
            );
        }
        if rng.gen_bool(0.6) {
            let mut groups: Vec<Vec<&str>> = vec![
                vec![],
                vec!["g"],
                vec!["ak"],
                vec!["g", "ak"],
                vec!["f"],
                vec!["ak + 0"],
                vec!["g", "ak + 0"],
            ];
            if joined {
                groups.extend([vec!["g", "tag"], vec!["bk"], vec!["f", "bg"]]);
            }
            if looked_up && rng.gen_bool(0.6) {
                groups = vec![
                    vec!["dname", "dk"],
                    vec!["g", "dname", "ak"],
                    vec!["dk"],
                    vec!["dname"],
                ];
            }
            let agg = |f, c: &str| (AggExpr::new(f, Expr::col(c)), format!("{f:?}_{c}"));
            let mut aggs = vec![
                (AggExpr::count_star(), "rows".to_string()),
                agg(AggFunc::Count, "x"),
                agg(AggFunc::Sum, "n"),
                agg(AggFunc::Sum, "x"),
                agg(AggFunc::Avg, "x"),
                agg(AggFunc::Min, "x"),
                agg(AggFunc::Max, "n"),
                agg(AggFunc::Stddev, "x"),
            ];
            if joined {
                aggs.push(agg(AggFunc::Sum, "w"));
            }
            if looked_up && rng.gen_bool(0.3) {
                aggs.push(agg(AggFunc::Sum, "dv"));
            }
            // Any non-empty selection of them, in order.
            let mask = rng.gen_range(1..1u32 << aggs.len());
            let mut bit = 0;
            aggs.retain(|_| {
                bit += 1;
                mask >> (bit - 1) & 1 == 1
            });
            let group = groups[rng.gen_range(0..groups.len())]
                .iter()
                .map(|c| match *c {
                    "ak + 0" => (ak_computed(), "k".to_string()),
                    c => (Expr::col(c), c.to_string()),
                })
                .collect();
            plan = LogicalPlan::aggregate(group, aggs, plan, Vec::new());
        }
        if rng.gen_bool(0.5) {
            // By every output column, so only rows equal throughout tie;
            // group keys come first and decide before an inexact float can.
            // Before them, one computed key: whether the first is NULL.
            let schema = plan.schema();
            let names = schema.field_names();
            let computed = (Expr::col(names[0]).is_null(), rng.gen_bool(0.5));
            let columns = names.into_iter().map(|c| (Expr::col(c), rng.gen_bool(0.5)));
            let keys = std::iter::once(computed).chain(columns).collect();
            plan = LogicalPlan::sort(keys, plan);
            if rng.gen_bool(0.5) {
                plan = LogicalPlan::limit(rng.gen_range(0..9usize), plan);
            }
        }
        plan
    }

    #[test]
    fn random_plans_agree_with_the_reference_evaluator() {
        let tables = random_plan_tables();
        let mut rng = StdRng::seed_from_u64(2018);
        let mut moved = 0;
        // Joins run per strategy, by the text of its profile note.
        let strategies = [
            "broadcast (",
            "broadcast-left (",
            "build=left)",
            "build=right)",
        ];
        let mut ran = [0usize; 4];
        for case in 0..400 {
            let plan = random_plan(&mut rng, &tables);
            let expected = comparable(&plan, &evaluate(&plan).unwrap());
            // As built, and as the optimizer rewrites it: an aggregate over
            // the lookup of `d` moves below it when `dk` is declared unique.
            let optimized = crate::optimizer::optimize(plan.clone()).unwrap();
            moved += usize::from(moved_below(&optimized));
            // Only empty inputs broadcast; 150 B, inside the 89–180 B a scan
            // of `b` or `d` holds and above the smaller left inputs, so either
            // side may be the one broadcast; the default, above every input.
            for broadcast_threshold in [0, 150, ExecContext::default().broadcast_threshold] {
                let ctx = ExecContext {
                    broadcast_threshold,
                    batch_size: [2, DEFAULT_BATCH_ROWS][case % 2],
                    ..Default::default()
                };
                for run in [&plan, &optimized] {
                    let (rows, profile) = collect_profiled(run, &ctx).unwrap();
                    assert_eq!(
                        comparable(&plan, &rows),
                        expected,
                        "case {case}, broadcast_threshold={broadcast_threshold}:\n{}",
                        run.explain()
                    );
                    profile.walk(&mut |p| {
                        for note in p.notes.lock().iter().filter(|n| n.starts_with("strategy=")) {
                            for (count, strategy) in ran.iter_mut().zip(strategies) {
                                *count += usize::from(note.contains(strategy));
                            }
                        }
                    });
                }
            }
        }
        assert!(moved >= 10, "the rule moved {moved} aggregates");
        assert!(
            ran.iter().all(|&n| n > 0),
            "joins run per strategy: {ran:?}"
        );
    }

    /// Does `plan` hold an aggregate the optimizer moved below lookups?
    fn moved_below(plan: &LogicalPlan) -> bool {
        matches!(plan, LogicalPlan::Aggregate { lookups, .. } if !lookups.is_empty())
            || plan.children().into_iter().any(moved_below)
    }

    /// `sql` analyzed over empty tables of q39's four, each keyed on its
    /// row key as the workload declares them.
    fn q39_plan(sql: &str) -> LogicalPlan {
        let session = crate::session::Session::new_default();
        let table = |columns: &[(&str, DataType)], key: &str| {
            let fields = columns.iter().map(|&(c, t)| Field::new(c, t)).collect();
            let table = MemTable::new(Schema::new(fields), 2);
            match key {
                "" => table,
                key => table.with_unique_key(key).unwrap(),
            }
        };
        use DataType::{Int32, Int64, Utf8};
        for (name, columns, key) in [
            (
                "date_dim",
                &[("d_date_sk", Int64), ("d_year", Int32), ("d_moy", Int32)][..],
                "d_date_sk",
            ),
            (
                "item",
                &[("i_item_sk", Int64), ("i_item_id", Utf8)][..],
                "i_item_sk",
            ),
            (
                "warehouse",
                &[("w_warehouse_sk", Int64), ("w_warehouse_name", Utf8)][..],
                "w_warehouse_sk",
            ),
            (
                "inventory",
                &[
                    ("inv_date_sk", Int64),
                    ("inv_item_sk", Int64),
                    ("inv_warehouse_sk", Int64),
                    ("inv_quantity_on_hand", Int32),
                ][..],
                "",
            ),
        ] {
            session.register_table(name, Arc::new(table(columns, key)));
        }
        session.sql(sql).unwrap().plan().clone()
    }

    #[test]
    fn every_node_holds_the_schema_derived_from_scratch() {
        let tables = random_plan_tables();
        let mut rng = StdRng::seed_from_u64(2018);
        let q39 = [crate::q39::q39a(2001, 1), crate::q39::q39b(2001, 1)];
        let plans = (0..400)
            .map(|_| random_plan(&mut rng, &tables))
            .chain(q39.iter().map(|sql| q39_plan(sql)));
        for plan in plans {
            plan.assert_schemas_fresh();
            crate::optimizer::optimize(plan)
                .unwrap()
                .assert_schemas_fresh();
        }
    }

    #[test]
    fn optimizing_q39a_derives_at_most_two_schemas_a_node() {
        use crate::logical::SCHEMA_BUILDS;
        let plan = q39_plan(&crate::q39::q39a(2001, 1));
        let nodes = plan.node_count();
        let before = SCHEMA_BUILDS.with(|n| n.get());
        let optimized = crate::optimizer::optimize(plan).unwrap();
        let built = SCHEMA_BUILDS.with(|n| n.get()) - before;
        assert!(moved_below(&optimized), "the plan the workload runs");
        assert!(built <= 2 * nodes, "{built} schemas for {nodes} nodes");
    }

    #[test]
    fn folding_q39a_derives_no_schema() {
        use crate::logical::SCHEMA_BUILDS;
        let plan = q39_plan(&crate::q39::q39a(2001, 1));
        let before = SCHEMA_BUILDS.with(|n| n.get());
        let folded = crate::optimizer::fold_plan(plan).unwrap();
        assert_eq!(
            SCHEMA_BUILDS.with(|n| n.get()) - before,
            0,
            "q39a folds nothing"
        );
        folded.assert_schemas_fresh();
    }
}
