//! Per-query task-execution timeline, read from the query's trace.
//!
//! The scheduler records every stage it runs as a `stage` span (annotated
//! with its `label`, its operator `op` when known, and the straggler
//! `cutoff` it applied) and every task attempt as a `task` span under it,
//! annotated with where the attempt ran (`index`, `attempt`, `exec`,
//! `host`, `preferred`), its lane-relative interval (`lane_start_us`,
//! `lane_end_us`) and its outcome (`error`, or the `rows`/`bytes` it
//! produced). [`TaskTimeline::of`] rebuilds one [`TaskProfile`] per task
//! from those spans: where the task wanted to run vs where it ran, how
//! long it waited behind earlier work on its executor lane, the modeled
//! cost of every attempt (failed ones included — attempt chains survive
//! retries), and the rows/bytes it produced.
//! [`TaskTimeline::stage_stats`] aggregates the profiles into per-stage
//! skew statistics (rows/bytes min/median/max, skew ratio, locality hit
//! ratio, straggler count) — the numbers behind `system.task_timeline`,
//! `system.stage_stats`, the `skew:` / `locality:` lines in
//! `explain_analyze`, and the `stage_skew_high` alert.
//!
//! All times are **lane-relative virtual microseconds**: each executor
//! lane starts at 0 for the stage and advances by the modeled cost of the
//! attempts it runs, so the same query over the same data yields a
//! byte-identical timeline regardless of thread interleaving (the spans'
//! own intervals, on the shared query clock, interleave charges from all
//! lanes).

use shc_obs::{SpanRecord, Trace};
use std::collections::HashMap;

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
    /// The stage's position among the query's stages, from 0.
    pub stage_id: u64,
    /// What the stage computed: `scan`, `probe`, `map`, …
    pub label: String,
    /// Operator id (pre-order index in the physical plan) when known.
    pub op: Option<usize>,
}

/// Aggregated per-stage statistics over the tasks of one stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StageStats {
    pub stage_id: u64,
    pub label: String,
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

/// The stage and task records of one finished query, as its trace holds
/// them. Tasks are in stage order, and in task order within a stage.
#[derive(Clone, Debug, Default)]
pub struct TaskTimeline {
    trace_id: u64,
    stages: Vec<StageRecord>,
    tasks: Vec<TaskProfile>,
}

/// One `task` span, read: the attempt plus what its task carries.
struct SeenAttempt {
    stage: u64,
    index: usize,
    preferred: Option<String>,
    rows: u64,
    bytes: u64,
    attempt: TaskAttempt,
}

fn num(span: &SpanRecord, key: &str) -> Option<u64> {
    span.attr(key).and_then(|v| v.parse().ok())
}

impl TaskTimeline {
    /// Read the timeline of the query `trace` recorded: its `stage` spans
    /// in allocation order (so in submission order), each with the `task`
    /// spans under it. One pass over the spans — a parent precedes its
    /// children — plus a sort of the attempts.
    pub fn of(trace: &Trace) -> TaskTimeline {
        let mut stages = Vec::new();
        let mut cutoffs = Vec::new();
        // Stage span id → its position in `stages`.
        let mut stage_of: HashMap<u64, u64> = HashMap::new();
        let mut seen = Vec::new();
        for span in &trace.spans {
            match span.name {
                "stage" => {
                    let stage_id = stages.len() as u64;
                    stage_of.insert(span.id, stage_id);
                    stages.push(StageRecord {
                        stage_id,
                        label: span.attr("label").unwrap_or("stage").to_string(),
                        op: num(span, "op").map(|op| op as usize),
                    });
                    cutoffs.push(num(span, "cutoff"));
                }
                "task" => {
                    let Some(&stage) = span.parent.and_then(|p| stage_of.get(&p)) else {
                        continue;
                    };
                    let start_us = num(span, "lane_start_us").unwrap_or(0);
                    let end_us = num(span, "lane_end_us").unwrap_or(start_us);
                    seen.push(SeenAttempt {
                        stage,
                        index: num(span, "index").unwrap_or(0) as usize,
                        preferred: span.attr("preferred").map(str::to_string),
                        rows: num(span, "rows").unwrap_or(0),
                        bytes: num(span, "bytes").unwrap_or(0),
                        attempt: TaskAttempt {
                            attempt: num(span, "attempt").unwrap_or(1) as u32,
                            exec: num(span, "exec").unwrap_or(0) as usize,
                            host: span.attr("host").unwrap_or_default().to_string(),
                            start_us,
                            end_us,
                            cost_us: end_us.saturating_sub(start_us),
                            error: span.attr("error").map(str::to_string),
                            winner: false,
                        },
                    });
                }
                _ => {}
            }
        }
        seen.sort_by_key(|s| (s.stage, s.index, s.attempt.attempt));

        let mut tasks: Vec<TaskProfile> = Vec::new();
        for s in seen {
            match tasks.last_mut() {
                Some(t) if (t.stage_id, t.task_index) == (s.stage, s.index) => {
                    t.attempts.push(s.attempt);
                    (t.rows, t.bytes) = (s.rows, s.bytes);
                }
                _ => tasks.push(TaskProfile {
                    stage_id: s.stage,
                    task_index: s.index,
                    preferred_host: s.preferred,
                    host: String::new(),
                    exec: 0,
                    local: false,
                    queue_wait_us: s.attempt.start_us,
                    run_us: 0,
                    rows: s.rows,
                    bytes: s.bytes,
                    straggler: false,
                    attempts: vec![s.attempt],
                }),
            }
        }
        // The last attempt decides: it ran the task to its result or error.
        for t in &mut tasks {
            let last = t.attempts.last_mut().expect("a task has an attempt");
            last.winner = last.error.is_none();
            t.host = last.host.clone();
            t.exec = last.exec;
            t.run_us = last.cost_us;
            t.local = t.preferred_host.as_deref() == Some(t.host.as_str());
            t.straggler = last.winner && cutoffs[t.stage_id as usize].is_some_and(|c| t.run_us > c);
        }
        TaskTimeline {
            trace_id: trace.trace_id,
            stages,
            tasks,
        }
    }

    /// TraceId of the query this timeline records (0 = anonymous).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    pub fn tasks(&self) -> &[TaskProfile] {
        &self.tasks
    }

    /// The tasks of one stage, in task order.
    fn tasks_of(&self, stage_id: u64) -> &[TaskProfile] {
        let from = self.tasks.partition_point(|t| t.stage_id < stage_id);
        let to = self.tasks.partition_point(|t| t.stage_id <= stage_id);
        &self.tasks[from..to]
    }

    /// Aggregate the task profiles into per-stage statistics, in stage
    /// order.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.stages
            .iter()
            .map(|stage| stats_for(stage, self.tasks_of(stage.stage_id)))
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
            for t in self.tasks_of(s.stage_id) {
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

fn stats_for(stage: &StageRecord, tasks: &[TaskProfile]) -> StageStats {
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
        label: stage.label.clone(),
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

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        attrs: &[(&'static str, &str)],
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_us: id,
            end_us: id + 1,
            attrs: attrs.iter().map(|(k, v)| (*k, v.to_string())).collect(),
        }
    }

    /// The `task` span of a successful first attempt on `h0`, preferring
    /// `h0`, that waited `index` µs and ran `run` µs.
    fn task(id: u64, stage: u64, index: usize, rows: u64, run: u64) -> SpanRecord {
        let wait = index as u64;
        let attrs = [
            ("index", index.to_string()),
            ("attempt", "1".into()),
            ("exec", "0".into()),
            ("host", "h0".into()),
            ("preferred", "h0".into()),
            ("lane_start_us", wait.to_string()),
            ("lane_end_us", (wait + run).to_string()),
            ("rows", rows.to_string()),
            ("bytes", (rows * 24).to_string()),
        ];
        let attrs: Vec<_> = attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
        span(id, Some(stage), "task", &attrs)
    }

    fn trace(spans: Vec<SpanRecord>) -> Trace {
        Trace { trace_id: 7, spans }
    }

    #[test]
    fn stage_stats_report_skew_and_locality() {
        let tl = TaskTimeline::of(&trace(vec![
            span(0, None, "query", &[]),
            span(1, Some(0), "stage", &[("label", "scan"), ("op", "2")]),
            task(2, 1, 0, 200, 400),
            task(3, 1, 1, 5, 10),
            task(4, 1, 2, 5, 10),
            task(5, 1, 3, 5, 10),
        ]));
        assert_eq!(tl.trace_id(), 7);
        assert_eq!(tl.stages()[0].op, Some(2));
        let stats = tl.stage_stats();
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.tasks, 4);
        assert_eq!((s.rows_min, s.rows_median, s.rows_max), (5, 5, 200));
        assert_eq!(s.skew_ratio, Some(40.0));
        assert_eq!(s.locality_hit_ratio, Some(1.0));
        assert_eq!((s.run_min_us, s.run_median_us, s.run_max_us), (10, 10, 400));
        assert_eq!(s.queue_wait_max_us, 3);
        // No cutoff on the stage span, no straggler.
        assert_eq!(s.stragglers, 0);
    }

    #[test]
    fn empty_stage_has_no_ratios() {
        let tl = TaskTimeline::of(&trace(vec![
            span(0, None, "query", &[]),
            span(1, Some(0), "stage", &[("label", "map")]),
        ]));
        let s = &tl.stage_stats()[0];
        assert_eq!(s.tasks, 0);
        assert_eq!(s.skew_ratio, None);
        assert_eq!(s.locality_hit_ratio, None);
    }

    #[test]
    fn render_is_deterministic_and_shows_attempt_chains() {
        let failed = span(
            2,
            Some(1),
            "task",
            &[
                ("index", "0"),
                ("attempt", "1"),
                ("exec", "1"),
                ("host", "h1"),
                ("preferred", "h0"),
                ("lane_start_us", "0"),
                ("lane_end_us", "5"),
                ("error", "executor lost"),
            ],
        );
        let mut retry = task(3, 1, 0, 10, 50);
        retry.attrs[1].1 = "2".into();
        let tl = TaskTimeline::of(&trace(vec![
            span(0, None, "query", &[]),
            span(1, Some(0), "stage", &[("label", "scan"), ("cutoff", "40")]),
            retry,
            failed,
        ]));
        let t = &tl.tasks()[0];
        assert_eq!(t.attempts.len(), 2, "both attempts, in attempt order");
        assert!(!t.attempts[0].winner);
        assert!(t.attempts[1].winner);
        assert!(t.local && t.straggler, "50us ran past the 40us cutoff");
        assert_eq!(
            tl.render(),
            "stage 0 [scan]: tasks=1 rows=10/10/10 bytes=240/240/240 skew=1.00 \
             locality=1.00 wait_max=0us run=50/50/50us stragglers=1\n\
             \x20 task 0 pref=h0 host=h0 exec=0 local=true wait=0us run=50us rows=10 \
             bytes=240 straggler=true\n\
             \x20   attempt 1 exec=1 host=h1 [0..5] 5us error=executor lost\n\
             \x20   attempt 2 exec=0 host=h0 [0..50] 50us winner\n"
        );
    }
}
