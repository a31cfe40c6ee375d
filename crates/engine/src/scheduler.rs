//! Task scheduler: a fixed set of executor lanes, each pinned to a
//! simulated host, running tasks with locality preferences.
//!
//! Mirrors the paper's execution model (§VI): the driver builds one task per
//! region server, tasks carry a preferred location, and the scheduler makes
//! a best effort to run each task on its preferred executor — falling back
//! to the least-loaded lane, where the simulated network then charges the
//! remote-read penalty.
//!
//! ## Determinism & observability
//!
//! Placement is decided **at submit time**: every task is assigned to an
//! executor lane (preferred host first, then least-loaded, ties to the
//! lowest lane index). A stage then runs in rounds. In each round every
//! lane with queued work drains its queue and hands back its finished
//! tasks, its failed tasks with retries left, and its lane clock. The
//! driver re-places the failed ones, in task order, onto a
//! deterministically chosen *other* lane, and runs another round while
//! anything is queued. A retry so starts after all of its new lane's
//! earlier work, and the sequence of attempts each lane runs — and
//! therefore every lane-relative timestamp — is identical across runs
//! regardless of thread interleaving, or of which thread ran a lane.
//!
//! ## Threads
//!
//! The driver runs the round's first lane with work on its own thread, so
//! a one-lane round (a one-task stage, a retry round, one executor) hands
//! nothing off. Every other lane goes to a worker parked on a channel: the
//! driver thread keeps its idle workers' mailboxes and spawns a worker only
//! when none is idle, so its pool grows to the peak number of concurrent
//! lanes and then stops. A lane job owns everything it uses, and a worker
//! drops the job before it replies, so a parked worker holds nothing of a
//! finished stage. The driver parks the round's workers again once every
//! lane has replied; they exit when the driver thread does.
//!
//! Every stage records per-task [`TaskProfile`]s (queue wait, per-attempt
//! modeled cost measured via [`shc_obs::trace::thread_cost_us`], full
//! attempt chains including failures) into the query's [`TaskTimeline`].
//! At stage end a straggler detector flags tasks whose winning run cost
//! exceeds `max(k × median, floor)` and journals a `category=straggler`
//! event.

use crate::columnar::{batches_byte_size, batches_num_rows, Partition};
use crate::error::{EngineError, Result};
use crate::metrics::{QueryMetrics, TaskMetrics};
use crate::task_timeline::{TaskAttempt, TaskProfile, TaskTimeline};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;

/// The closure type a task runs: receives the hostname of the executor it
/// landed on and produces one partition's batches. `FnMut` (not `FnOnce`)
/// so a failed attempt can be re-run on another executor.
pub type TaskFn = Box<dyn FnMut(&str) -> Result<Partition> + Send>;

/// A unit of work: runs on some executor and produces one partition.
pub struct Task {
    pub preferred_host: Option<String>,
    pub run: TaskFn,
    /// How many times a failed attempt may be re-run (0 = fail fast).
    pub retries: u32,
}

impl Task {
    pub fn new(
        preferred_host: Option<String>,
        run: impl FnMut(&str) -> Result<Partition> + Send + 'static,
    ) -> Self {
        Task {
            preferred_host,
            run: Box::new(run),
            retries: 0,
        }
    }

    /// Allow up to `retries` re-runs after failed attempts. Retried tasks
    /// are re-placed onto another executor lane, so a task whose preferred
    /// executor keeps failing it can land somewhere else.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }
}

/// Executor pool configuration.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Number of executor lanes: the driver runs one, parked workers the
    /// rest.
    pub num_executors: usize,
    /// Hosts the executors are placed on, round-robin. With Spark-on-YARN
    /// co-location this is the set of region-server hostnames.
    pub hosts: Vec<String>,
    /// Default retry budget for data-source tasks (Spark's
    /// `spark.task.maxFailures - 1` analog).
    pub task_retries: u32,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            num_executors: 4,
            hosts: vec!["localhost".to_string()],
            task_retries: 1,
        }
    }
}

/// What a scheduler fault rule injects into a matching task attempt.
#[derive(Debug)]
enum Injection {
    /// Add this much modeled virtual-µs to the attempt's cost (charged in
    /// full by the scheduler at stage end).
    DelayUs(u64),
    /// Fail the attempt before the closure runs.
    Fail(String),
}

#[derive(Debug)]
struct FaultRule {
    host: String,
    injection: Injection,
}

/// Deterministic fault injection for the scheduler, keyed by executor
/// host: slow a host down (straggler seeding) or fail attempts on it
/// (retry/re-placement testing). Rules fire in registration order, at most
/// one per attempt. The driver draws each attempt's verdict when it places
/// the attempt, in placement order, so consumption is deterministic.
#[derive(Debug, Default)]
pub struct SchedulerFaults {
    rules: Mutex<Vec<FaultRule>>,
}

impl SchedulerFaults {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The first attempt on `host` is slowed by `us` modeled microseconds.
    pub fn delay_once_on_host(&self, host: &str, us: u64) {
        self.rules.lock().push(FaultRule {
            host: host.to_string(),
            injection: Injection::DelayUs(us),
        });
    }

    /// The first attempt on `host` fails with `msg` (before running).
    pub fn fail_once_on_host(&self, host: &str, msg: &str) {
        self.rules.lock().push(FaultRule {
            host: host.to_string(),
            injection: Injection::Fail(msg.to_string()),
        });
    }

    /// Consume and return the injection for the next attempt on `host`.
    fn next(&self, host: &str) -> Option<Injection> {
        let mut rules = self.rules.lock();
        let at = rules.iter().position(|rule| rule.host == host)?;
        Some(rules.remove(at).injection)
    }
}

/// Straggler cutoff multiplier: a task is a straggler when its winning run
/// cost exceeds `max(STRAGGLER_K × stage median, STRAGGLER_MIN_RUN_US)`.
const STRAGGLER_K: f64 = 3.0;

/// Absolute floor (virtual µs) under which nothing is a straggler — keeps
/// tick-level noise in trivial stages from firing the detector.
const STRAGGLER_MIN_RUN_US: u64 = 1_000;

/// Observability context for one scheduler stage: where to record task
/// profiles and task metrics, and which faults to inject. The default
/// records nothing and injects nothing.
pub struct StageObs {
    /// Per-query timeline receiving this stage's [`TaskProfile`]s.
    pub timeline: Option<Arc<TaskTimeline>>,
    /// Session-level task metrics (run histogram, straggler counter).
    pub task_metrics: Option<Arc<TaskMetrics>>,
    /// Stage label for the timeline (`scan`, `probe`, `map`, …).
    pub label: &'static str,
    /// Operator id (pre-order index in the physical plan) when known.
    pub op: Option<usize>,
    /// Fault injection for this stage's attempts.
    pub faults: Option<Arc<SchedulerFaults>>,
}

impl Default for StageObs {
    fn default() -> Self {
        StageObs {
            timeline: None,
            task_metrics: None,
            label: "stage",
            op: None,
            faults: None,
        }
    }
}

/// One task's scheduling state; the driver places it on a lane's queue
/// for a round and gets it back when the lane has run it.
struct Slot {
    index: usize,
    preferred: Option<String>,
    run: TaskFn,
    retries: u32,
    queue_wait_us: u64,
    attempts: Vec<TaskAttempt>,
    /// Fault verdict for the next attempt, drawn when it was placed.
    injection: Option<Injection>,
    /// Injected delay of every attempt so far; kept out of the public
    /// profile and charged to the query clock at stage end.
    injected_us: u64,
}

/// A slot whose last attempt is final, plus that attempt's outcome.
struct Finished {
    slot: Slot,
    outcome: Result<Partition>,
}

/// What a lane hands back after draining its queue for one round.
struct LaneRound {
    finished: Vec<Finished>,
    /// Slots whose last attempt failed with retries left.
    failed: Vec<Slot>,
    /// The lane's clock after its last attempt.
    clock: u64,
}

/// Deterministic placement: preferred host's least-loaded lane when the
/// host has one, otherwise the least-loaded lane overall; ties go to the
/// lowest lane index.
fn place(preferred: Option<&str>, hosts: &[String], load: &[usize]) -> usize {
    let candidates: Vec<usize> = match preferred {
        Some(p) if hosts.iter().any(|h| h == p) => {
            (0..hosts.len()).filter(|&i| hosts[i] == p).collect()
        }
        _ => (0..hosts.len()).collect(),
    };
    // A pool has a lane 0, whatever else it has.
    candidates
        .into_iter()
        .min_by_key(|&i| (load[i], i))
        .unwrap_or(0)
}

/// Deterministic re-placement for attempt `attempts_done` of a task whose
/// previous attempt ran on lane `from`: some *other* lane when one exists.
fn replace_lane(from: usize, attempts_done: u32, n_exec: usize) -> usize {
    if n_exec <= 1 {
        return 0;
    }
    let mut t = (from + attempts_done as usize) % n_exec;
    if t == from {
        t = (t + 1) % n_exec;
    }
    t
}

/// One attempt of a task on `host`: its outcome and the modeled delay
/// `injection` added. A panic in the task's closure is caught here and
/// becomes the attempt's error, so it is retried, re-placed or reported
/// like any other failure instead of leaving its stage waiting for a
/// result that never comes.
fn run_attempt(
    run: &mut TaskFn,
    host: &str,
    injection: Option<Injection>,
) -> (Result<Partition>, u64) {
    let injected_us = match injection {
        Some(Injection::Fail(msg)) => return (Err(EngineError::Execution(msg)), 0),
        Some(Injection::DelayUs(us)) => us,
        None => 0,
    };
    // The closure's captures are not looked at again after a panic: a retry
    // calls it afresh and a failed task's state is dropped with it.
    let outcome = catch_unwind(AssertUnwindSafe(|| run(host))).unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown payload".to_string());
        Err(EngineError::Execution(format!("task panicked: {what}")))
    });
    (outcome, injected_us)
}

/// Run a batch of tasks as one observed stage: records per-task profiles
/// into the stage's timeline and detects stragglers on the virtual clock.
pub fn run_stage(
    config: &ExecutorConfig,
    tasks: Vec<Task>,
    metrics: &Arc<QueryMetrics>,
    obs: &StageObs,
) -> Result<Vec<Partition>> {
    let n_tasks = tasks.len();
    if n_tasks == 0 {
        return Ok(Vec::new());
    }
    let n_exec = config.num_executors.max(1);
    let hosts: Vec<String> = (0..n_exec)
        .map(|i| {
            config
                .hosts
                .get(i % config.hosts.len().max(1))
                .cloned()
                .unwrap_or_else(|| "localhost".to_string())
        })
        .collect();

    metrics.add(&metrics.tasks, n_tasks as u64);
    let preferred = tasks.iter().filter(|t| t.preferred_host.is_some()).count() as u64;
    metrics.add(&metrics.preferred_tasks, preferred);
    let stage_id = obs
        .timeline
        .as_ref()
        .map(|tl| tl.begin_stage(obs.label, obs.op))
        .unwrap_or(0);
    let verdict = |lane: usize| obs.faults.as_ref().and_then(|f| f.next(&hosts[lane]));

    // Submit-time placement: one FIFO queue per executor lane.
    let mut queues: Vec<Vec<Slot>> = (0..n_exec).map(|_| Vec::new()).collect();
    let mut load = vec![0usize; n_exec];
    for (index, task) in tasks.into_iter().enumerate() {
        let lane = place(task.preferred_host.as_deref(), &hosts, &load);
        load[lane] += 1;
        queues[lane].push(Slot {
            index,
            preferred: task.preferred_host,
            run: task.run,
            retries: task.retries,
            queue_wait_us: 0,
            attempts: Vec::new(),
            injection: verdict(lane),
            injected_us: 0,
        });
    }

    // Rounds: every lane with queued work drains its queue, then the driver
    // re-places the failed slots that have retries left, in task order,
    // behind everything their new lane has run.
    let mut clocks = vec![0u64; n_exec];
    let mut finished = Vec::with_capacity(n_tasks);
    // Lanes may run on parked workers: carry the driver's trace context
    // across so task/RPC spans attach to the active query trace.
    let trace_ctx = shc_obs::trace::capture();
    while queues.iter().any(|q| !q.is_empty()) {
        let mut jobs = queues
            .iter_mut()
            .enumerate()
            .filter(|(_, queue)| !queue.is_empty())
            .map(|(lane, queue)| LaneJob {
                lane,
                host: hosts[lane].clone(),
                queue: std::mem::take(queue),
                clock: clocks[lane],
                metrics: Arc::clone(metrics),
                trace_ctx: trace_ctx.clone(),
            });
        let own = jobs.next().expect("a lane has queued work");
        let (reply, replies) = mpsc::channel();
        let busy: Vec<Mailbox> = jobs.map(|job| hand_off(job, &reply)).collect();
        drop(reply);
        let mut rounds = vec![(own.lane, catch_unwind(AssertUnwindSafe(|| own.run())))];
        for _ in &busy {
            // A worker that died without replying took its lane's tasks.
            let round = replies
                .recv()
                .map_err(|_| EngineError::Execution("executor lane panicked".into()))?;
            rounds.push(round);
        }
        // Every lane has replied, so no worker still holds this round's work.
        IDLE.with(|idle| idle.borrow_mut().extend(busy));
        let mut failed = Vec::new();
        for (lane, round) in rounds {
            // A task's panic is its attempt's error; a lane's is a bug.
            let round =
                round.map_err(|_| EngineError::Execution("executor lane panicked".into()))?;
            clocks[lane] = round.clock;
            finished.extend(round.finished);
            failed.extend(round.failed);
        }
        failed.sort_by_key(|slot| slot.index);
        for mut slot in failed {
            let attempts_done = slot.attempts.len() as u32;
            metrics.add(&metrics.task_retries, 1);
            shc_obs::trace::record_event(
                shc_obs::Severity::Warn,
                "scheduler",
                format!(
                    "task {} retry (attempt {} of {})",
                    slot.index,
                    attempts_done + 1,
                    slot.retries + 1
                ),
            );
            let from = slot.attempts.last().map_or(0, |a| a.exec);
            let lane = replace_lane(from, attempts_done, n_exec);
            slot.injection = verdict(lane);
            queues[lane].push(slot);
        }
    }

    finished.sort_by_key(|f| f.slot.index);
    finalize_stage(stage_id, finished, obs)
}

/// One lane's work for a round. It owns everything the lane uses, so a
/// parked worker can run it and keep nothing once it is done.
struct LaneJob {
    lane: usize,
    host: String,
    queue: Vec<Slot>,
    clock: u64,
    metrics: Arc<QueryMetrics>,
    trace_ctx: Option<shc_obs::TraceContext>,
}

impl LaneJob {
    fn run(self) -> LaneRound {
        let _trace_ctx = shc_obs::TraceContext::adopt_opt(self.trace_ctx.as_ref());
        run_lane(self.lane, &self.host, self.queue, self.clock, &self.metrics)
    }
}

/// A lane's round, or the panic that ended it, with the lane's index.
type LaneReply = (usize, std::thread::Result<LaneRound>);

/// A parked lane worker's channel: a lane job and where to send its reply.
type Mailbox = Sender<(LaneJob, Sender<LaneReply>)>;

thread_local! {
    /// This thread's idle lane workers. Only the thread that spawned a
    /// worker hands it work, so they need no lock; a worker exits when its
    /// mailbox is dropped, at the latest when this thread ends.
    static IDLE: RefCell<Vec<Mailbox>> = const { RefCell::new(Vec::new()) };
    /// Lane workers this thread has spawned.
    pub(crate) static SPAWNED: Cell<usize> = const { Cell::new(0) };
}

/// Send `job` to an idle lane worker, spawning one when none is idle.
/// Returns the worker's mailbox, to be parked again once it has replied.
fn hand_off(job: LaneJob, reply: &Sender<LaneReply>) -> Mailbox {
    let mailbox = IDLE
        .with(|idle| idle.borrow_mut().pop())
        .unwrap_or_else(spawn_worker);
    mailbox
        .send((job, reply.clone()))
        .expect("a lane worker runs while its mailbox exists");
    mailbox
}

/// Start a lane worker. It is never joined: it catches its lanes' panics
/// and replies with them, so a detached worker hides none.
fn spawn_worker() -> Mailbox {
    let (mailbox, jobs) = mpsc::channel::<(LaneJob, Sender<LaneReply>)>();
    std::thread::Builder::new()
        .name("shc-lane".into())
        .spawn(move || {
            for (job, reply) in jobs {
                let lane = job.lane;
                let round = catch_unwind(AssertUnwindSafe(|| job.run()));
                // The driver waits for every reply of its round.
                let _ = reply.send((lane, round));
            }
        })
        .expect("spawn a lane worker");
    SPAWNED.with(|n| n.set(n.get() + 1));
    mailbox
}

/// Drain one lane's queue for a round, starting at the lane's `clock`: its
/// lane-relative virtual time, which advances by the modeled cost of each
/// attempt the lane runs. All timeline timestamps use it (never the shared
/// query clock) so profiles are byte-identical across runs.
fn run_lane(
    lane: usize,
    host: &str,
    queue: Vec<Slot>,
    mut clock: u64,
    metrics: &QueryMetrics,
) -> LaneRound {
    let mut finished = Vec::new();
    let mut failed = Vec::new();
    for mut slot in queue {
        if slot.attempts.is_empty() {
            slot.queue_wait_us = clock;
        }
        let attempt = slot.attempts.len() as u32 + 1;
        let local = slot.preferred.as_deref() == Some(host);
        if local {
            metrics.add(&metrics.local_tasks, 1);
        }
        let mut sp = shc_obs::trace::span("task");
        if sp.is_active() {
            sp.annotate("index", slot.index);
            sp.annotate("host", host);
            sp.annotate("exec", lane);
            sp.annotate("attempt", attempt);
            sp.annotate("local", local);
            if let Some(tid) = shc_obs::trace::current_trace_id() {
                sp.annotate("trace_id", format_args!("{tid:#x}"));
            }
        }
        // Attempt cost on the trace's deterministic clock, measured as this
        // thread's charge delta (other lanes' concurrent charges don't leak
        // in). Injected delays are noted here but only charged to the query
        // clock at stage end.
        let cost0 = shc_obs::trace::thread_cost_us();
        let (outcome, injected_us) = run_attempt(&mut slot.run, host, slot.injection.take());
        let cost = shc_obs::trace::thread_cost_us().saturating_sub(cost0) + injected_us;
        drop(sp);
        slot.injected_us += injected_us;
        slot.attempts.push(TaskAttempt {
            attempt,
            exec: lane,
            host: host.to_string(),
            start_us: clock,
            end_us: clock + cost,
            cost_us: cost,
            error: outcome.as_ref().err().map(|e| e.to_string()),
            winner: false,
        });
        clock += cost;
        match outcome {
            Err(_) if attempt <= slot.retries => failed.push(slot),
            outcome => finished.push(Finished { slot, outcome }),
        }
    }
    LaneRound {
        finished,
        failed,
        clock,
    }
}

/// Stage-end analysis on the driver: straggler detection, deferred clock
/// charging, histogram recording, and timeline persistence. `finished`
/// holds every task once, in task order.
fn finalize_stage(
    stage_id: u64,
    finished: Vec<Finished>,
    obs: &StageObs,
) -> Result<Vec<Partition>> {
    // Straggler cutoff from the winning run costs of *successful* tasks.
    let mut runs: Vec<u64> = finished
        .iter()
        .filter(|f| f.outcome.is_ok())
        .filter_map(|f| f.slot.attempts.last().map(|a| a.cost_us))
        .collect();
    runs.sort_unstable();
    let cutoff = if runs.len() >= 2 {
        let median = runs[(runs.len() - 1) / 2];
        Some(((median as f64 * STRAGGLER_K) as u64).max(STRAGGLER_MIN_RUN_US))
    } else {
        None
    };

    let traced = shc_obs::trace::active();
    let trace_id = shc_obs::trace::current_trace_id().unwrap_or(0);
    let mut injected_us = 0;
    let mut profiles = Vec::with_capacity(finished.len());
    let mut results = Vec::with_capacity(finished.len());
    for Finished { mut slot, outcome } in finished {
        injected_us += slot.injected_us;
        // The winner is the last attempt of a task that succeeded.
        let last = slot.attempts.len() - 1;
        slot.attempts[last].winner = outcome.is_ok();
        let run_us = slot.attempts[last].cost_us;
        let straggler = outcome.is_ok() && cutoff.is_some_and(|c| run_us > c);
        if straggler {
            if let Some(tm) = &obs.task_metrics {
                tm.add(&tm.stragglers, 1);
            }
            shc_obs::trace::record_event(
                shc_obs::Severity::Warn,
                "straggler",
                format!(
                    "stage {} task {} ran {}us (cutoff {}us, k={})",
                    stage_id,
                    slot.index,
                    run_us,
                    cutoff.unwrap_or(0),
                    STRAGGLER_K
                ),
            );
        }
        if traced {
            if let Some(tm) = &obs.task_metrics {
                tm.run_us.record_with_exemplar(run_us, trace_id);
            }
        }
        if obs.timeline.is_some() {
            // Sizing an output walks its columns (dictionary columns row by
            // row): only when a profile will hold the numbers.
            let (rows, bytes) = match &outcome {
                Ok(p) => (batches_num_rows(p) as u64, batches_byte_size(p) as u64),
                Err(_) => (0, 0),
            };
            let (host, exec) = (slot.attempts[last].host.clone(), slot.attempts[last].exec);
            profiles.push(TaskProfile {
                stage_id,
                task_index: slot.index,
                local: slot.preferred.as_deref() == Some(host.as_str()),
                preferred_host: slot.preferred,
                host,
                exec,
                queue_wait_us: slot.queue_wait_us,
                run_us,
                rows,
                bytes,
                straggler,
                attempts: slot.attempts,
            });
        }
        results.push(outcome);
    }
    // Every injected delay is charged in full: the stage waited it out.
    shc_obs::trace::advance_us(injected_us);
    if let Some(tl) = &obs.timeline {
        tl.record_tasks(profiles);
    }
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarBatch;
    use crate::row::Row;
    use crate::value::{DataType, Value};

    /// A one-row partition: `id`, and the host that produced it.
    fn one_row(id: i64, host: &str) -> Partition {
        let row = Row::new(vec![Value::Int64(id), Value::Utf8(host.to_string())]);
        vec![ColumnarBatch::from_rows(
            &[DataType::Int64, DataType::Utf8],
            &[row],
        )]
    }

    fn first_row(part: &Partition) -> Row {
        part[0].row_at(0)
    }

    fn mk_task(host: Option<&str>, id: i64) -> Task {
        Task::new(host.map(String::from), move |running_on| {
            Ok(one_row(id, running_on))
        })
    }

    #[test]
    fn results_preserve_task_order() {
        let cfg = ExecutorConfig {
            num_executors: 4,
            hosts: vec!["h0".into(), "h1".into()],
            task_retries: 1,
        };
        let metrics = QueryMetrics::new();
        let tasks: Vec<Task> = (0..20).map(|i| mk_task(None, i)).collect();
        let results = run_stage(&cfg, tasks, &metrics, &StageObs::default()).unwrap();
        assert_eq!(results.len(), 20);
        for (i, part) in results.into_iter().enumerate() {
            assert_eq!(first_row(&part).get(0), &Value::Int64(i as i64));
        }
        assert_eq!(metrics.snapshot().tasks, 20);
    }

    #[test]
    fn locality_preference_is_honored_when_possible() {
        let cfg = ExecutorConfig {
            num_executors: 2,
            hosts: vec!["h0".into(), "h1".into()],
            task_retries: 1,
        };
        let metrics = QueryMetrics::new();
        let tasks = vec![
            mk_task(Some("h0"), 0),
            mk_task(Some("h1"), 1),
            mk_task(Some("h0"), 2),
            mk_task(Some("h1"), 3),
        ];
        let results = run_stage(&cfg, tasks, &metrics, &StageObs::default()).unwrap();
        // Placement is static and preferred-host-first: every task runs on
        // its preferred host when that host has an executor.
        let local = results
            .into_iter()
            .enumerate()
            .filter(|(i, part)| {
                let want = if i % 2 == 0 { "h0" } else { "h1" };
                first_row(part).get(1).as_str() == Some(want)
            })
            .count();
        assert!(local >= 2, "local = {local}");
        assert!(metrics.snapshot().local_tasks >= 2);
    }

    #[test]
    fn unknown_preferred_host_falls_back() {
        let cfg = ExecutorConfig {
            num_executors: 1,
            hosts: vec!["h0".into()],
            task_retries: 1,
        };
        let metrics = QueryMetrics::new();
        let results = run_stage(
            &cfg,
            vec![mk_task(Some("mars"), 7)],
            &metrics,
            &StageObs::default(),
        )
        .unwrap();
        assert_eq!(first_row(&results[0]).get(1).as_str(), Some("h0"));
        assert_eq!(metrics.snapshot().local_tasks, 0);
    }

    #[test]
    fn a_panicking_task_fails_or_is_retried_on_every_lane() {
        // Under a watchdog: the regression is a stage that never returns.
        let (done, watchdog) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for n_exec in 1..=3usize {
                let cfg = ExecutorConfig {
                    num_executors: n_exec,
                    hosts: (0..n_exec).map(|i| format!("h{i}")).collect(),
                    task_retries: 0,
                };
                // One task per lane, each lane's in turn panicking on its
                // first attempt.
                for (bad, retries) in (0..n_exec).flat_map(|bad| [(bad, 0), (bad, 1)]) {
                    let tasks: Vec<Task> = (0..n_exec)
                        .map(|i| {
                            let host = format!("h{i}");
                            let mut attempts = 0;
                            Task::new(Some(host), move |running_on| {
                                attempts += 1;
                                assert!(i != bad || attempts > 1, "lane {i} blew up");
                                Ok(one_row(i as i64, running_on))
                            })
                            .with_retries(retries)
                        })
                        .collect();
                    let metrics = QueryMetrics::new();
                    let outcome = run_stage(&cfg, tasks, &metrics, &StageObs::default());
                    if retries == 0 {
                        let err = outcome.unwrap_err().to_string();
                        assert!(err.contains("task panicked: lane"), "{err}");
                    } else {
                        let parts = outcome.unwrap();
                        assert_eq!(parts.len(), n_exec);
                        let ran_on = first_row(&parts[bad]).get(1).clone();
                        let elsewhere = format!("h{}", (bad + 1) % n_exec);
                        assert_eq!(ran_on.as_str(), Some(elsewhere.as_str()));
                        assert_eq!(metrics.snapshot().task_retries, 1);
                    }
                }
            }
            // The workers that ran those lanes are parked again: the next
            // stage runs on both lanes and starts no thread.
            let spawned = SPAWNED.with(Cell::get);
            assert_eq!(ran_on(&lanes(2), 2), ["h0", "h1"]);
            assert_eq!(SPAWNED.with(Cell::get), spawned);
            done.send(()).unwrap();
        });
        watchdog
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a stage with a panicking task returned");
    }

    /// A panic payload that panics when it is dropped. The scheduler drops
    /// a task's payload after catching it, so this panic ends the lane.
    struct Bomb;

    impl Drop for Bomb {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                panic!("payload dropped");
            }
        }
    }

    #[test]
    fn a_lane_panic_is_an_error_on_either_thread() {
        // Lane 0 runs on the driver, lane 1 on a parked worker.
        for bad in 0..2 {
            let tasks = (0..2)
                .map(|i| {
                    Task::new(Some(format!("h{i}")), move |on| {
                        if i == bad {
                            std::panic::panic_any(Bomb);
                        }
                        Ok(one_row(i as i64, on))
                    })
                })
                .collect();
            let metrics = QueryMetrics::new();
            let err = run_stage(&lanes(2), tasks, &metrics, &StageObs::default()).unwrap_err();
            assert_eq!(err.to_string(), "execution error: executor lane panicked");
        }
        let spawned = SPAWNED.with(Cell::get);
        assert_eq!(ran_on(&lanes(2), 2), ["h0", "h1"]);
        assert_eq!(SPAWNED.with(Cell::get), spawned, "the worker survived");
    }

    /// `n` lanes on hosts `h0..hn`, no retries.
    fn lanes(n: usize) -> ExecutorConfig {
        ExecutorConfig {
            num_executors: n,
            hosts: (0..n).map(|i| format!("h{i}")).collect(),
            task_retries: 0,
        }
    }

    /// Run one stage of `n` tasks, task `i` preferring host `h{i % lanes}`,
    /// and return the host each task ran on.
    fn ran_on(cfg: &ExecutorConfig, n: usize) -> Vec<String> {
        let tasks = (0..n)
            .map(|i| mk_task(Some(&cfg.hosts[i % cfg.hosts.len()]), i as i64))
            .collect();
        let metrics = QueryMetrics::new();
        run_stage(cfg, tasks, &metrics, &StageObs::default())
            .unwrap()
            .iter()
            .map(|part| first_row(part).get(1).as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn parked_lanes_are_reused_across_stages() {
        let spawned = || SPAWNED.with(Cell::get);
        // The driver runs a one-lane stage itself.
        let before = spawned();
        for _ in 0..50 {
            assert_eq!(ran_on(&lanes(1), 2), ["h0", "h0"]);
        }
        assert_eq!(spawned(), before, "a one-lane pool spawned a thread");
        // A two-lane stage needs one worker; the next 200 reuse it.
        ran_on(&lanes(2), 2);
        let warm = spawned();
        assert!(warm <= before + 1, "{} threads for one lane", warm - before);
        for _ in 0..200 {
            assert_eq!(ran_on(&lanes(2), 2), ["h0", "h1"]);
        }
        assert_eq!(spawned(), warm, "a stage round spawned a thread");
    }

    #[test]
    fn a_parked_lane_keeps_nothing_of_its_stage() {
        let captured = Arc::new(());
        let weak = Arc::downgrade(&captured);
        let metrics = QueryMetrics::new();
        let tracer = shc_obs::Tracer::new();
        {
            let _root = tracer.root("query");
            let tasks = (0..4)
                .map(|i| {
                    let captured = Arc::clone(&captured);
                    Task::new(Some(format!("h{}", i % 2)), move |on| {
                        let _ = &captured;
                        Ok(one_row(i, on))
                    })
                })
                .collect();
            drop(captured);
            run_stage(&lanes(2), tasks, &metrics, &StageObs::default()).unwrap();
        }
        assert!(
            weak.upgrade().is_none(),
            "a task closure outlived its stage"
        );
        assert_eq!(Arc::strong_count(&metrics), 1, "a lane kept the metrics");
    }

    #[test]
    fn task_errors_propagate() {
        let cfg = ExecutorConfig::default();
        let metrics = QueryMetrics::new();
        let bad = Task::new(None, |_| Err(EngineError::Execution("boom".into())));
        let err = run_stage(&cfg, vec![bad], &metrics, &StageObs::default()).unwrap_err();
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn empty_task_list_is_ok() {
        let cfg = ExecutorConfig::default();
        let metrics = QueryMetrics::new();
        assert!(run_stage(&cfg, vec![], &metrics, &StageObs::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn failed_task_is_retried_and_recovers() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let cfg = ExecutorConfig {
            num_executors: 2,
            hosts: vec!["h0".into(), "h1".into()],
            task_retries: 1,
        };
        let metrics = QueryMetrics::new();
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        let flaky = Task::new(None, move |_host| {
            if c.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(EngineError::Execution("executor lost".into()))
            } else {
                Ok(one_row(1, ""))
            }
        })
        .with_retries(1);
        let results = run_stage(&cfg, vec![flaky], &metrics, &StageObs::default()).unwrap();
        assert_eq!(first_row(&results[0]).get(0), &Value::Int64(1));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(metrics.snapshot().task_retries, 1);
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_batch() {
        let cfg = ExecutorConfig::default();
        let metrics = QueryMetrics::new();
        let bad =
            Task::new(None, |_| Err(EngineError::Execution("always down".into()))).with_retries(2);
        let err = run_stage(&cfg, vec![bad], &metrics, &StageObs::default()).unwrap_err();
        assert!(err.to_string().contains("always down"));
        assert_eq!(metrics.snapshot().task_retries, 2);
    }

    #[test]
    fn more_tasks_than_executors_completes() {
        let cfg = ExecutorConfig {
            num_executors: 2,
            hosts: vec!["h0".into()],
            task_retries: 1,
        };
        let metrics = QueryMetrics::new();
        let tasks: Vec<Task> = (0..100).map(|i| mk_task(None, i)).collect();
        let results = run_stage(&cfg, tasks, &metrics, &StageObs::default()).unwrap();
        assert_eq!(results.len(), 100);
    }

    #[test]
    fn retry_records_full_attempt_chain() {
        let cfg = ExecutorConfig {
            num_executors: 2,
            hosts: vec!["h0".into(), "h1".into()],
            task_retries: 1,
        };
        let metrics = QueryMetrics::new();
        let faults = SchedulerFaults::new();
        faults.fail_once_on_host("h0", "executor lost");
        let tl = TaskTimeline::new(0, 64);
        let obs = StageObs {
            timeline: Some(Arc::clone(&tl)),
            faults: Some(faults),
            label: "scan",
            ..StageObs::default()
        };
        let task = mk_task(Some("h0"), 5).with_retries(1);
        let results = run_stage(&cfg, vec![task], &metrics, &obs).unwrap();
        assert_eq!(results.len(), 1);
        let tasks = tl.tasks();
        assert_eq!(tasks.len(), 1);
        let t = &tasks[0];
        assert_eq!(t.attempts.len(), 2, "failed attempt kept in the chain");
        assert!(t.attempts[0]
            .error
            .as_deref()
            .unwrap()
            .contains("executor lost"));
        assert!(!t.attempts[0].winner);
        assert!(t.attempts[1].winner);
        assert_ne!(t.attempts[0].exec, t.attempts[1].exec, "re-placed");
        assert_eq!(t.host, "h1");
        assert!(!t.local, "winning attempt ran off the preferred host");
    }

    #[test]
    fn straggler_detected_deterministically() {
        let cfg = ExecutorConfig {
            num_executors: 3,
            hosts: vec!["h0".into(), "h1".into(), "h2".into()],
            task_retries: 1,
        };
        let run = || {
            let metrics = QueryMetrics::new();
            let faults = SchedulerFaults::new();
            faults.delay_once_on_host("h1", 50_000);
            let tl = TaskTimeline::new(0, 64);
            let tm = TaskMetrics::new();
            let obs = StageObs {
                timeline: Some(Arc::clone(&tl)),
                task_metrics: Some(Arc::clone(&tm)),
                faults: Some(faults),
                label: "scan",
                ..StageObs::default()
            };
            let tracer = shc_obs::Tracer::new();
            {
                let _root = tracer.root("query");
                let tasks: Vec<Task> = (0..3)
                    .map(|i| {
                        let pref = format!("h{i}");
                        Task::new(Some(pref), move |_| Ok(one_row(i, "")))
                    })
                    .collect();
                run_stage(&cfg, tasks, &metrics, &obs).unwrap();
            }
            (tl, tm)
        };
        let (tl, tm) = run();
        // The delayed task is flagged once, in the counter and the stage.
        assert_eq!(tm.snapshot().stragglers, 1);
        assert_eq!(tl.stage_stats()[0].stragglers, 1);
        let straggler = tl
            .tasks()
            .into_iter()
            .find(|t| t.straggler)
            .expect("straggler profiled");
        assert_eq!(straggler.host, "h1");
        assert!(straggler.attempts[0].winner);
        // Same-config runs produce byte-identical timelines.
        assert_eq!(tl.render(), run().0.render());
    }

    #[test]
    fn a_retry_starts_where_its_new_lanes_own_work_ended() {
        let cfg = ExecutorConfig {
            num_executors: 2,
            hosts: vec!["h0".into(), "h1".into()],
            task_retries: 1,
        };
        let run = || {
            let metrics = QueryMetrics::new();
            let faults = SchedulerFaults::new();
            faults.fail_once_on_host("h0", "executor lost");
            faults.fail_once_on_host("h0", "executor lost");
            let tl = TaskTimeline::new(0, 64);
            let obs = StageObs {
                timeline: Some(Arc::clone(&tl)),
                faults: Some(faults),
                label: "scan",
                ..StageObs::default()
            };
            let tracer = shc_obs::Tracer::new();
            {
                let _root = tracer.root("query");
                let tasks: Vec<Task> = (0..4)
                    .map(|i| {
                        Task::new(Some(format!("h{}", i % 2)), move |_| {
                            shc_obs::trace::advance_us(100);
                            Ok(one_row(i, ""))
                        })
                        .with_retries(1)
                    })
                    .collect();
                run_stage(&cfg, tasks, &metrics, &obs).unwrap();
            }
            assert_eq!(metrics.snapshot().task_retries, 2);
            tl
        };
        let tl = run();
        let tasks = tl.tasks();
        // h0's tasks 0 and 2 fail before running; h1 runs tasks 1 and 3 in
        // 0..200, then both retries behind them, in task order.
        let spans = |i: usize| -> Vec<(usize, u64, u64, bool)> {
            tasks[i]
                .attempts
                .iter()
                .map(|a| (a.exec, a.start_us, a.end_us, a.winner))
                .collect()
        };
        assert_eq!(spans(0), [(0, 0, 0, false), (1, 200, 300, true)]);
        assert_eq!(spans(2), [(0, 0, 0, false), (1, 300, 400, true)]);
        assert_eq!(spans(1), [(1, 0, 100, true)]);
        assert_eq!(spans(3), [(1, 100, 200, true)]);
        let render = tl.render();
        for _ in 0..20 {
            assert_eq!(run().render(), render, "byte-identical timelines");
        }
    }

    #[test]
    fn queue_wait_is_lane_relative_and_deterministic() {
        let cfg = ExecutorConfig {
            num_executors: 1,
            hosts: vec!["h0".into()],
            task_retries: 0,
        };
        let run = || {
            let metrics = QueryMetrics::new();
            let tl = TaskTimeline::new(0, 64);
            let obs = StageObs {
                timeline: Some(Arc::clone(&tl)),
                label: "map",
                ..StageObs::default()
            };
            let tracer = shc_obs::Tracer::new();
            {
                let _root = tracer.root("query");
                let tasks: Vec<Task> = (0..3)
                    .map(|i| {
                        Task::new(None, move |_| {
                            shc_obs::trace::advance_us(100);
                            Ok(one_row(i, ""))
                        })
                    })
                    .collect();
                run_stage(&cfg, tasks, &metrics, &obs).unwrap();
            }
            tl
        };
        let tl = run();
        let tasks = tl.tasks();
        // One lane, FIFO: each task waits behind the previous ones' costs.
        assert_eq!(tasks[0].queue_wait_us, 0);
        assert!(tasks[1].queue_wait_us >= 100);
        assert!(tasks[2].queue_wait_us >= tasks[1].queue_wait_us + 100);
        assert_eq!(tl.render(), run().render(), "byte-identical timelines");
    }
}
