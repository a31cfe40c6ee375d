//! Per-query task-execution timeline: the scheduler's flight recorder.
//!
//! Every stage the scheduler runs appends one [`TaskProfile`] per task into
//! a bounded per-query [`TaskTimeline`]: where the task wanted to run vs
//! where it ran, how long it waited behind earlier work on its executor
//! lane, the modeled cost of every attempt (failed ones included — attempt
//! chains survive retries), and the rows/bytes it produced.
//! [`TaskTimeline::stage_stats`] aggregates the profiles into per-stage
//! skew statistics (rows/bytes min/median/max, skew ratio, locality hit
//! ratio, straggler count) — the numbers
//! behind `system.task_timeline`, `system.stage_stats`, the `skew:` /
//! `locality:` lines in `explain_analyze`, and the `stage_skew_high`
//! alert.
//!
//! All times are **lane-relative virtual microseconds**: each executor
//! lane starts at 0 for the stage and advances by the modeled cost of the
//! attempts it runs, so the same query over the same data yields a
//! byte-identical timeline regardless of thread interleaving (the shared
//! query clock, by contrast, interleaves charges from all lanes).

use parking_lot::Mutex;

/// One attempt of one task: where it ran and what it cost. Failed attempts
/// keep their error; the attempt that produced the task's result is marked
/// `winner`: the last attempt of a task that succeeded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskAttempt {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Executor lane index the attempt ran on.
    pub exec: usize,
    /// Host of that executor.
    pub host: String,
    /// Lane-relative virtual µs at which the attempt started.
    pub start_us: u64,
    /// Lane-relative virtual µs at which the attempt finished.
    pub end_us: u64,
    /// Modeled cost charged by the attempt (`end_us - start_us`).
    pub cost_us: u64,
    /// Failure message when the attempt errored (retry cause).
    pub error: Option<String>,
    pub winner: bool,
}

/// The full execution record of one task within a stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskProfile {
    pub stage_id: u64,
    pub task_index: usize,
    /// Locality preference the task was submitted with, if any.
    pub preferred_host: Option<String>,
    /// Host of the winning attempt.
    pub host: String,
    /// Executor lane of the winning attempt.
    pub exec: usize,
    /// Whether the winning attempt ran on the preferred host.
    pub local: bool,
    /// Lane-relative µs the task waited before its first attempt started.
    pub queue_wait_us: u64,
    /// Modeled cost of the winning attempt.
    pub run_us: u64,
    /// Rows in the partition the task produced.
    pub rows: u64,
    /// Bytes in the partition the task produced.
    pub bytes: u64,
    /// Flagged by the detector: `run_us` exceeded the stage cutoff.
    pub straggler: bool,
    /// Every attempt, in order — failed ones included.
    pub attempts: Vec<TaskAttempt>,
}

/// One scheduler stage: a batch of tasks submitted together.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageRecord {
    pub stage_id: u64,
    /// What the stage computed: `scan`, `probe`, `map`, …
    pub label: &'static str,
    /// Operator id (pre-order index in the physical plan) when known.
    pub op: Option<usize>,
}

/// Aggregated per-stage statistics over the tasks of one stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StageStats {
    pub stage_id: u64,
    pub label: &'static str,
    pub tasks: u64,
    pub rows_min: u64,
    pub rows_median: u64,
    pub rows_max: u64,
    pub bytes_min: u64,
    pub bytes_median: u64,
    pub bytes_max: u64,
    /// `rows_max / rows_median` (bytes fallback when the rows median is 0);
    /// `None` when the stage moved no data at all. > 1 means the hottest
    /// partition is that many times larger than the typical one.
    pub skew_ratio: Option<f64>,
    /// Fraction of locality-preferring tasks whose winning attempt ran on
    /// the preferred host; `None` when no task carried a preference.
    pub locality_hit_ratio: Option<f64>,
    pub queue_wait_max_us: u64,
    pub run_min_us: u64,
    pub run_median_us: u64,
    pub run_max_us: u64,
    pub stragglers: u64,
}

#[derive(Default)]
struct TimelineInner {
    next_stage_id: u64,
    stages: Vec<StageRecord>,
    tasks: Vec<TaskProfile>,
    /// Profiles discarded once `tasks` hit the capacity bound.
    dropped: u64,
}

/// Bounded per-query recorder of stage and task profiles. One is created
/// per traced `collect()` and kept by the session (joinable on TraceId via
/// `system.task_timeline` / `system.stage_stats`).
pub struct TaskTimeline {
    trace_id: u64,
    capacity: usize,
    inner: Mutex<TimelineInner>,
}

/// Default bound on profiles kept per query.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 4096;

impl TaskTimeline {
    pub fn new(trace_id: u64, capacity: usize) -> std::sync::Arc<Self> {
        std::sync::Arc::new(TaskTimeline {
            trace_id,
            capacity: capacity.max(1),
            inner: Mutex::new(TimelineInner::default()),
        })
    }

    /// TraceId of the query this timeline records (0 = anonymous).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Open the next stage, returning its id. Stage ids are allocated in
    /// submission order (scheduler stages are serialized on the driver).
    pub fn begin_stage(&self, label: &'static str, op: Option<usize>) -> u64 {
        let mut inner = self.inner.lock();
        let stage_id = inner.next_stage_id;
        inner.next_stage_id += 1;
        inner.stages.push(StageRecord {
            stage_id,
            label,
            op,
        });
        stage_id
    }

    /// Append the finished profiles of one stage, dropping (and counting)
    /// whatever exceeds the capacity bound.
    pub fn record_tasks(&self, profiles: Vec<TaskProfile>) {
        let mut inner = self.inner.lock();
        for p in profiles {
            if inner.tasks.len() < self.capacity {
                inner.tasks.push(p);
            } else {
                inner.dropped += 1;
            }
        }
    }

    pub fn stages(&self) -> Vec<StageRecord> {
        self.inner.lock().stages.clone()
    }

    pub fn tasks(&self) -> Vec<TaskProfile> {
        self.inner.lock().tasks.clone()
    }

    /// Profiles discarded because the timeline was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Aggregate the recorded profiles into per-stage statistics, in stage
    /// order. Stages whose profiles were all dropped report zero tasks.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        let inner = self.inner.lock();
        inner
            .stages
            .iter()
            .map(|stage| {
                let tasks: Vec<&TaskProfile> = inner
                    .tasks
                    .iter()
                    .filter(|t| t.stage_id == stage.stage_id)
                    .collect();
                stats_for(stage, &tasks)
            })
            .collect()
    }

    /// Deterministic text rendering of the whole timeline — stage stats
    /// plus every task's attempt chain. Two same-seed runs of the same
    /// query must render byte-identically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in self.stage_stats() {
            out.push_str(&format!(
                "stage {} [{}]: tasks={} rows={}/{}/{} bytes={}/{}/{} skew={} locality={} \
                 wait_max={}us run={}/{}/{}us stragglers={}\n",
                s.stage_id,
                s.label,
                s.tasks,
                s.rows_min,
                s.rows_median,
                s.rows_max,
                s.bytes_min,
                s.bytes_median,
                s.bytes_max,
                s.skew_ratio
                    .map(|r| format!("{r:.2}"))
                    .unwrap_or_else(|| "-".into()),
                s.locality_hit_ratio
                    .map(|r| format!("{r:.2}"))
                    .unwrap_or_else(|| "-".into()),
                s.queue_wait_max_us,
                s.run_min_us,
                s.run_median_us,
                s.run_max_us,
                s.stragglers,
            ));
            let mut tasks = self.tasks();
            tasks.retain(|t| t.stage_id == s.stage_id);
            tasks.sort_by_key(|t| t.task_index);
            for t in tasks {
                out.push_str(&format!(
                    "  task {} pref={} host={} exec={} local={} wait={}us run={}us \
                     rows={} bytes={} straggler={}\n",
                    t.task_index,
                    t.preferred_host.as_deref().unwrap_or("-"),
                    t.host,
                    t.exec,
                    t.local,
                    t.queue_wait_us,
                    t.run_us,
                    t.rows,
                    t.bytes,
                    t.straggler,
                ));
                for a in &t.attempts {
                    out.push_str(&format!(
                        "    attempt {} exec={} host={} [{}..{}] {}us{}{}\n",
                        a.attempt,
                        a.exec,
                        a.host,
                        a.start_us,
                        a.end_us,
                        a.cost_us,
                        if a.winner { " winner" } else { "" },
                        a.error
                            .as_deref()
                            .map(|e| format!(" error={e}"))
                            .unwrap_or_default(),
                    ));
                }
            }
        }
        if self.dropped() > 0 {
            out.push_str(&format!("(+{} task profiles dropped)\n", self.dropped()));
        }
        out
    }
}

/// Lower median of a sorted sample (deterministic for even sizes).
fn median_sorted(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[(sorted.len() - 1) / 2]
    }
}

fn stats_for(stage: &StageRecord, tasks: &[&TaskProfile]) -> StageStats {
    let mut rows: Vec<u64> = tasks.iter().map(|t| t.rows).collect();
    let mut bytes: Vec<u64> = tasks.iter().map(|t| t.bytes).collect();
    let mut runs: Vec<u64> = tasks.iter().map(|t| t.run_us).collect();
    rows.sort_unstable();
    bytes.sort_unstable();
    runs.sort_unstable();
    let rows_median = median_sorted(&rows);
    let bytes_median = median_sorted(&bytes);
    let rows_max = rows.last().copied().unwrap_or(0);
    let bytes_max = bytes.last().copied().unwrap_or(0);
    let skew_ratio = if rows_median > 0 {
        Some(rows_max as f64 / rows_median as f64)
    } else if bytes_median > 0 {
        Some(bytes_max as f64 / bytes_median as f64)
    } else {
        None
    };
    let preferred = tasks.iter().filter(|t| t.preferred_host.is_some()).count();
    let local = tasks
        .iter()
        .filter(|t| t.preferred_host.is_some() && t.local)
        .count();
    StageStats {
        stage_id: stage.stage_id,
        label: stage.label,
        tasks: tasks.len() as u64,
        rows_min: rows.first().copied().unwrap_or(0),
        rows_median,
        rows_max,
        bytes_min: bytes.first().copied().unwrap_or(0),
        bytes_median,
        bytes_max,
        skew_ratio,
        locality_hit_ratio: if preferred > 0 {
            Some(local as f64 / preferred as f64)
        } else {
            None
        },
        queue_wait_max_us: tasks.iter().map(|t| t.queue_wait_us).max().unwrap_or(0),
        run_min_us: runs.first().copied().unwrap_or(0),
        run_median_us: median_sorted(&runs),
        run_max_us: runs.last().copied().unwrap_or(0),
        stragglers: tasks.iter().filter(|t| t.straggler).count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(stage: u64, idx: usize, rows: u64, run: u64) -> TaskProfile {
        TaskProfile {
            stage_id: stage,
            task_index: idx,
            preferred_host: Some("h0".into()),
            host: "h0".into(),
            exec: 0,
            local: true,
            queue_wait_us: idx as u64,
            run_us: run,
            rows,
            bytes: rows * 24,
            straggler: false,
            attempts: vec![TaskAttempt {
                attempt: 1,
                exec: 0,
                host: "h0".into(),
                start_us: 0,
                end_us: run,
                cost_us: run,
                error: None,
                winner: true,
            }],
        }
    }

    #[test]
    fn stage_stats_report_skew_and_locality() {
        let tl = TaskTimeline::new(7, 128);
        let sid = tl.begin_stage("scan", Some(2));
        tl.record_tasks(vec![
            profile(sid, 0, 200, 400),
            profile(sid, 1, 5, 10),
            profile(sid, 2, 5, 10),
            profile(sid, 3, 5, 10),
        ]);
        let stats = tl.stage_stats();
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.tasks, 4);
        assert_eq!((s.rows_min, s.rows_median, s.rows_max), (5, 5, 200));
        assert_eq!(s.skew_ratio, Some(40.0));
        assert_eq!(s.locality_hit_ratio, Some(1.0));
        assert_eq!((s.run_min_us, s.run_median_us, s.run_max_us), (10, 10, 400));
        assert_eq!(s.queue_wait_max_us, 3);
    }

    #[test]
    fn empty_stage_has_no_ratios() {
        let tl = TaskTimeline::new(0, 4);
        tl.begin_stage("map", None);
        let s = &tl.stage_stats()[0];
        assert_eq!(s.tasks, 0);
        assert_eq!(s.skew_ratio, None);
        assert_eq!(s.locality_hit_ratio, None);
    }

    #[test]
    fn capacity_bound_drops_and_counts() {
        let tl = TaskTimeline::new(0, 2);
        let sid = tl.begin_stage("scan", None);
        tl.record_tasks((0..5).map(|i| profile(sid, i, 1, 1)).collect());
        assert_eq!(tl.tasks().len(), 2);
        assert_eq!(tl.dropped(), 3);
        assert!(tl.render().contains("(+3 task profiles dropped)"));
    }

    #[test]
    fn render_is_deterministic_and_shows_attempt_chains() {
        let mk = || {
            let tl = TaskTimeline::new(9, 16);
            let sid = tl.begin_stage("scan", Some(1));
            let mut p = profile(sid, 0, 10, 50);
            p.attempts.insert(
                0,
                TaskAttempt {
                    attempt: 1,
                    exec: 1,
                    host: "h1".into(),
                    start_us: 0,
                    end_us: 5,
                    cost_us: 5,
                    error: Some("executor lost".into()),
                    winner: false,
                },
            );
            p.attempts[1].attempt = 2;
            tl.record_tasks(vec![p]);
            tl.render()
        };
        let a = mk();
        assert_eq!(a, mk());
        assert!(a.contains("error=executor lost"));
        assert!(a.contains("winner"));
    }
}
