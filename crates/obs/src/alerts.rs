//! Declarative threshold alerting over metric readings, evaluated on the
//! caller's virtual clock.
//!
//! An [`AlertRule`] names a metric-valued closure, a threshold, and a
//! debounce window: the rule *fires* only after the reading has breached the
//! threshold continuously for the debounce duration (measured on whatever
//! deterministic clock the caller passes to [`AlertEngine::evaluate`] —
//! never wall time), and *clears* on the first healthy reading. Debounce is
//! what separates "the block-cache hit ratio dipped for one scan" from "the
//! working set stopped fitting"; evaluating on the virtual clock is what
//! makes the fire/clear sequence reproducible in tests.
//!
//! A firing rule can carry an **exemplar**: a TraceId sampled by a second
//! closure at fire time (typically the latest exemplar of the offending
//! latency histogram), so an alert links to one concrete, exportable trace
//! instead of an aggregate.

use crate::export::TextExporter;
use crate::tsdb::Tsdb;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Direction of a threshold breach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Comparison {
    /// Breach when the reading is strictly below the threshold
    /// (e.g. a hit *ratio* collapsing).
    Below,
    /// Breach when the reading is strictly above the threshold
    /// (e.g. a retry *count* spiking).
    Above,
}

impl Comparison {
    pub fn as_str(&self) -> &'static str {
        match self {
            Comparison::Below => "below",
            Comparison::Above => "above",
        }
    }
}

/// Lifecycle of a rule, in escalation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// Last reading was healthy (or absent).
    Ok,
    /// Breaching, but for less than the debounce window.
    Pending,
    /// Breached continuously past the debounce window.
    Firing,
}

impl AlertState {
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

type ValueFn = Box<dyn Fn() -> Option<f64> + Send + Sync>;
type ExemplarFn = Box<dyn Fn() -> u64 + Send + Sync>;

/// One declarative threshold rule. Build with [`AlertRule::new`], optionally
/// attach an exemplar sampler, then [`AlertEngine::add_rule`] it.
pub struct AlertRule {
    pub name: String,
    pub comparison: Comparison,
    pub threshold: f64,
    /// The reading must breach continuously for this long (virtual ms)
    /// before the rule fires. Zero fires on the first breaching evaluation.
    pub debounce_ms: u64,
    value_fn: ValueFn,
    exemplar_fn: Option<ExemplarFn>,
}

impl AlertRule {
    /// Rule over a metric reading. `value_fn` returning `None` (metric not
    /// yet populated) counts as healthy.
    pub fn new(
        name: impl Into<String>,
        comparison: Comparison,
        threshold: f64,
        debounce_ms: u64,
        value_fn: impl Fn() -> Option<f64> + Send + Sync + 'static,
    ) -> Self {
        AlertRule {
            name: name.into(),
            comparison,
            threshold,
            debounce_ms,
            value_fn: Box::new(value_fn),
            exemplar_fn: None,
        }
    }

    /// Rule over the **growth rate** of a [`Tsdb`] series: the reading is
    /// `tsdb.rate(series, window_ms)` — change per virtual second across the
    /// trailing window. A series with fewer than two in-window samples reads
    /// `None` (healthy), so rate rules stay quiet until the scrape loop has
    /// produced a slope to judge. This is how the instantaneous-gauge engine
    /// expresses the collapse predictors: backlog *growth*, stall *rate*.
    pub fn rate_over_window(
        name: impl Into<String>,
        comparison: Comparison,
        threshold: f64,
        debounce_ms: u64,
        tsdb: Arc<Tsdb>,
        series: impl Into<String>,
        window_ms: u64,
    ) -> Self {
        let series = series.into();
        Self::new(name, comparison, threshold, debounce_ms, move || {
            tsdb.rate(&series, window_ms)
        })
    }

    /// Sample a TraceId at fire time so the alert points at a concrete trace.
    pub fn with_exemplar(mut self, exemplar_fn: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        self.exemplar_fn = Some(Box::new(exemplar_fn));
        self
    }
}

/// Frozen per-rule status, as surfaced by `system.alerts`.
#[derive(Clone, Debug)]
pub struct AlertStatus {
    pub name: String,
    pub state: AlertState,
    pub comparison: Comparison,
    pub threshold: f64,
    /// Most recent reading (`None` before the first populated evaluation).
    pub value: Option<f64>,
    /// Virtual-ms timestamp when the current breach began (0 when healthy).
    pub breaching_since_ms: u64,
    /// Times this rule has transitioned into [`AlertState::Firing`].
    pub fired_count: u64,
    /// TraceId sampled at the most recent fire (0 = none).
    pub exemplar_trace_id: u64,
}

/// A state transition returned by [`AlertEngine::evaluate`].
#[derive(Clone, Debug, PartialEq)]
pub struct AlertTransition {
    pub name: String,
    /// `true` = fired, `false` = cleared.
    pub fired: bool,
    pub value: Option<f64>,
}

struct RuleState {
    rule: AlertRule,
    state: AlertState,
    breach_since_ms: Option<u64>,
    last_value: Option<f64>,
    fired_count: u64,
    exemplar_trace_id: u64,
}

/// Holds rules and their debounce state; evaluated explicitly on a
/// caller-supplied virtual clock (there is no background thread — ticks
/// happen at well-defined points such as a `system.alerts` scan).
#[derive(Default)]
pub struct AlertEngine {
    rules: Mutex<Vec<RuleState>>,
    fired_total: AtomicU64,
}

impl AlertEngine {
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::default())
    }

    pub fn add_rule(&self, rule: AlertRule) {
        self.rules.lock().push(RuleState {
            rule,
            state: AlertState::Ok,
            breach_since_ms: None,
            last_value: None,
            fired_count: 0,
            exemplar_trace_id: 0,
        });
    }

    /// Read every rule's metric and step its fire/clear state machine at
    /// virtual time `now_ms`. Returns the transitions this tick produced,
    /// in rule-registration order (deterministic).
    pub fn evaluate(&self, now_ms: u64) -> Vec<AlertTransition> {
        let mut transitions = Vec::new();
        for rs in self.rules.lock().iter_mut() {
            let value = (rs.rule.value_fn)();
            rs.last_value = value;
            let breaching = match (value, rs.rule.comparison) {
                (None, _) => false,
                (Some(v), Comparison::Below) => v < rs.rule.threshold,
                (Some(v), Comparison::Above) => v > rs.rule.threshold,
            };
            if breaching {
                let since = *rs.breach_since_ms.get_or_insert(now_ms);
                if rs.state != AlertState::Firing {
                    if now_ms.saturating_sub(since) >= rs.rule.debounce_ms {
                        rs.state = AlertState::Firing;
                        rs.fired_count += 1;
                        self.fired_total.fetch_add(1, Ordering::Relaxed);
                        rs.exemplar_trace_id =
                            rs.rule.exemplar_fn.as_ref().map(|f| f()).unwrap_or(0);
                        transitions.push(AlertTransition {
                            name: rs.rule.name.clone(),
                            fired: true,
                            value,
                        });
                    } else {
                        rs.state = AlertState::Pending;
                    }
                }
            } else {
                if rs.state == AlertState::Firing {
                    transitions.push(AlertTransition {
                        name: rs.rule.name.clone(),
                        fired: false,
                        value,
                    });
                }
                rs.state = AlertState::Ok;
                rs.breach_since_ms = None;
            }
        }
        transitions
    }

    /// Frozen statuses, rule-registration order.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        self.rules
            .lock()
            .iter()
            .map(|rs| AlertStatus {
                name: rs.rule.name.clone(),
                state: rs.state,
                comparison: rs.rule.comparison,
                threshold: rs.rule.threshold,
                value: rs.last_value,
                breaching_since_ms: rs.breach_since_ms.unwrap_or(0),
                fired_count: rs.fired_count,
                exemplar_trace_id: rs.exemplar_trace_id,
            })
            .collect()
    }

    /// Prometheus exposition: one `alert_firing` gauge sample per rule (with
    /// an escaped `alert` label) plus the lifetime `alerts_fired_total`
    /// counter. Rule order is registration order, so output is stable.
    pub fn exposition(&self, prefix: &str) -> String {
        let mut e = TextExporter::new();
        let statuses = self.statuses();
        let samples: Vec<(String, f64)> = statuses
            .iter()
            .map(|s| {
                (
                    Tsdb::series_name(&format!("{prefix}alert_firing"), &[("alert", &s.name)]),
                    if s.state == AlertState::Firing {
                        1.0
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        e.gauge_samples(
            &format!("{prefix}alert_firing"),
            "Whether each alert rule is currently firing (1) or not (0).",
            &samples,
        );
        e.counter_with_help(
            &format!("{prefix}alerts_fired_total"),
            "Alert fire transitions over the engine's lifetime.",
            self.fired_total.load(Ordering::Relaxed),
        );
        e.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn shared_value(initial: u64) -> (Arc<AtomicU64>, impl Fn() -> Option<f64> + Send + Sync) {
        let v = Arc::new(AtomicU64::new(initial));
        let v2 = Arc::clone(&v);
        (v, move || Some(v2.load(Ordering::Relaxed) as f64))
    }

    #[test]
    fn fires_after_debounce_and_clears() {
        let (v, read) = shared_value(10);
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule::new(
            "retry_spike",
            Comparison::Above,
            5.0,
            100,
            read,
        ));
        // First breaching tick: pending, not yet fired.
        assert!(engine.evaluate(1_000).is_empty());
        assert_eq!(engine.statuses()[0].state, AlertState::Pending);
        // Still inside the debounce window.
        assert!(engine.evaluate(1_050).is_empty());
        // Past the window: fires exactly once.
        let t = engine.evaluate(1_100);
        assert_eq!(t.len(), 1);
        assert!(t[0].fired);
        assert_eq!(t[0].name, "retry_spike");
        assert!(
            engine.evaluate(1_200).is_empty(),
            "no refire while breaching"
        );
        assert_eq!(engine.statuses()[0].fired_count, 1);
        // Healthy reading clears.
        v.store(0, Ordering::Relaxed);
        let t = engine.evaluate(1_300);
        assert_eq!(t.len(), 1);
        assert!(!t[0].fired);
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
    }

    #[test]
    fn below_comparison_and_zero_debounce() {
        let (v, read) = shared_value(90);
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule::new(
            "hit_ratio_low",
            Comparison::Below,
            50.0,
            0,
            read,
        ));
        assert!(engine.evaluate(10).is_empty(), "90 is healthy");
        v.store(40, Ordering::Relaxed);
        let t = engine.evaluate(20);
        assert_eq!(t.len(), 1, "zero debounce fires immediately");
        assert!(t[0].fired);
        assert_eq!(t[0].value, Some(40.0));
    }

    #[test]
    fn interrupted_breach_restarts_debounce() {
        let (v, read) = shared_value(10);
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule::new("flappy", Comparison::Above, 5.0, 100, read));
        assert!(engine.evaluate(0).is_empty()); // pending since t=0
        v.store(0, Ordering::Relaxed);
        assert!(engine.evaluate(50).is_empty()); // healthy: debounce resets
        v.store(10, Ordering::Relaxed);
        assert!(
            engine.evaluate(120).is_empty(),
            "new breach window starts at 120"
        );
        let t = engine.evaluate(220);
        assert_eq!(t.len(), 1);
        assert!(t[0].fired);
    }

    #[test]
    fn missing_reading_is_healthy() {
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule::new("empty", Comparison::Below, 0.5, 0, || None));
        assert!(engine.evaluate(0).is_empty());
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
        assert_eq!(engine.statuses()[0].value, None);
    }

    #[test]
    fn exemplar_sampled_at_fire_time() {
        let (_, read) = shared_value(10);
        let exemplar = Arc::new(AtomicU64::new(0xbeef));
        let ex2 = Arc::clone(&exemplar);
        let engine = AlertEngine::new();
        engine.add_rule(
            AlertRule::new("with_ex", Comparison::Above, 5.0, 0, read)
                .with_exemplar(move || ex2.load(Ordering::Relaxed)),
        );
        engine.evaluate(0);
        let status = &engine.statuses()[0];
        assert_eq!(status.state, AlertState::Firing);
        assert_eq!(status.exemplar_trace_id, 0xbeef);
        assert_eq!(status.fired_count, 1);
    }

    #[test]
    fn rate_rule_fires_on_series_growth() {
        let tsdb = Tsdb::new(32);
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule::rate_over_window(
            "backlog_growth",
            Comparison::Above,
            100.0, // bytes per virtual second
            0,
            Arc::clone(&tsdb),
            "backlog_bytes",
            5_000,
        ));
        // No samples yet: reading is None, rule stays healthy.
        assert!(engine.evaluate(0).is_empty());
        assert_eq!(engine.statuses()[0].value, None);
        // Flat series: rate 0, still healthy.
        tsdb.record("backlog_bytes", 0, 1_000.0);
        tsdb.record("backlog_bytes", 1_000, 1_000.0);
        assert!(engine.evaluate(1_000).is_empty());
        // Ramp: +4000 bytes over 2s = 2000/s > 100 → fires.
        tsdb.record("backlog_bytes", 2_000, 3_000.0);
        tsdb.record("backlog_bytes", 3_000, 5_000.0);
        let t = engine.evaluate(3_000);
        assert_eq!(t.len(), 1);
        assert!(t[0].fired);
        // Backlog drains: negative rate clears the alert.
        tsdb.record("backlog_bytes", 9_000, 0.0);
        let t = engine.evaluate(9_000);
        assert_eq!(t.len(), 1);
        assert!(!t[0].fired);
    }

    #[test]
    fn exposition_escapes_label_and_is_stable() {
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule::new(
            "weird\"name",
            Comparison::Above,
            1.0,
            0,
            || Some(5.0),
        ));
        engine.add_rule(AlertRule::new("calm", Comparison::Above, 1.0, 0, || {
            Some(0.0)
        }));
        engine.evaluate(0);
        let text = engine.exposition("shc_");
        assert!(text.contains("shc_alert_firing{alert=\"weird\\\"name\"} 1\n"));
        assert!(text.contains("shc_alert_firing{alert=\"calm\"} 0\n"));
        assert!(text.contains("shc_alerts_fired_total 1\n"));
        // Deterministic: same engine state renders byte-identically.
        assert_eq!(text, engine.exposition("shc_"));
    }
}
