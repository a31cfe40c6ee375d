//! # shc-obs — observability primitives for the SHC reproduction
//!
//! This crate sits *below* both `shc-engine` and `shc-kvstore` (which never
//! depend on each other) and provides the shared instrumentation substrate:
//!
//! - [`trace`]: deterministic hierarchical spans (query → stage → task →
//!   RPC) on a per-query virtual clock, recorded into per-thread buffers and
//!   merged into a single [`trace::Trace`] tree. No wall-clock reads.
//! - [`hist`]: log-bucketed, fixed-memory, mergeable latency histograms
//!   with p50/p95/p99 accessors.
//! - [`events`]: a bounded, severity-tagged flight-recorder journal of
//!   structured events, timestamped on the layers' virtual clocks and
//!   correlated to queries by TraceId.
//! - [`alerts`]: declarative threshold rules over metric readings,
//!   debounced on a virtual clock, with TraceId exemplars at fire time.
//! - [`tsdb`]: a bounded per-series time-series store fed by virtual-clock
//!   scrapes, with the trailing-window `rate()` query that powers
//!   rate-based alert rules; one store per cluster.
//! - [`json`]: the workspace's one JSON tree, parser and writer (catalogs
//!   and Avro schemas in; traces and `BENCH` lines out).
//! - [`export`]: a Prometheus-style text exposition builder.
//! - [`metrics_registry!`]: a macro that generates counter/histogram
//!   registries (struct + snapshot + `snapshot()`/`reset()`/`delta_since()`
//!   plus name/value iteration for the exporter), so a newly added counter
//!   can never silently miss `snapshot()` or `reset()`, and deltas always
//!   use `saturating_sub` (a `reset()` between two snapshots must not panic
//!   on unsigned subtraction).

pub mod alerts;
pub mod events;
pub mod export;
pub mod hist;
pub mod json;
pub mod trace;
pub mod tsdb;

pub use alerts::{AlertEngine, AlertRule, AlertState, AlertStatus, AlertTransition, Comparison};
pub use events::{Event, EventJournal, Severity};
pub use export::TextExporter;
pub use hist::{BucketExemplar, Histogram, HistogramSnapshot};
pub use trace::{span, SpanGuard, SpanRecord, Trace, TraceContext, Tracer};
pub use tsdb::{Labels, Sample, Tsdb};

/// Generate a metrics registry: a struct of relaxed `AtomicU64` counters,
/// high-water marks ("watermarks", updated via `fetch_max`, whose delta is a
/// `max` rather than a difference) and [`Histogram`]s, together with its
/// snapshot struct and the full snapshot/reset/delta/export plumbing.
///
/// ```
/// shc_obs::metrics_registry! {
///     /// Example registry.
///     pub struct MyMetrics => snapshot MySnapshot {
///         counters { /// Things that happened.
///                    events, }
///         watermarks { /// Largest batch seen.
///                      peak_batch, }
///         histograms { /// Latency of each event (µs).
///                      event_us, }
///     }
/// }
/// let m = MyMetrics::new();
/// m.add(&m.events, 2);
/// m.peak_batch.fetch_max(7, std::sync::atomic::Ordering::Relaxed);
/// m.event_us.record(100);
/// let snap = m.snapshot();
/// assert_eq!(snap.events, 2);
/// assert_eq!(snap.delta_since(&MySnapshot::default()).peak_batch, 7);
/// ```
///
/// Generated API (on the registry): `new() -> Arc<Self>`, `add`,
/// `snapshot()`, `reset()`. On the snapshot: `delta_since()` (saturating),
/// `counter_values()` and `histogram_values()` for the exporter, and the
/// usual `Clone + Copy + Debug + Default + PartialEq + Eq` derives.
#[macro_export]
macro_rules! metrics_registry {
    (
        $(#[$struct_meta:meta])*
        pub struct $name:ident => snapshot $snap:ident {
            counters { $( $(#[doc = $c_doc:expr])* $counter:ident, )* }
            watermarks { $( $(#[doc = $w_doc:expr])* $watermark:ident, )* }
            histograms { $( $(#[doc = $h_doc:expr])* $hist:ident, )* }
        }
    ) => {
        $(#[$struct_meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            $( $(#[doc = $c_doc])* pub $counter: ::std::sync::atomic::AtomicU64, )*
            $( $(#[doc = $w_doc])* pub $watermark: ::std::sync::atomic::AtomicU64, )*
            $( $(#[doc = $h_doc])* pub $hist: $crate::hist::Histogram, )*
        }

        impl $name {
            pub fn new() -> ::std::sync::Arc<Self> {
                ::std::sync::Arc::new(Self::default())
            }

            pub fn add(&self, counter: &::std::sync::atomic::AtomicU64, value: u64) {
                counter.fetch_add(value, ::std::sync::atomic::Ordering::Relaxed);
            }

            /// Point-in-time snapshot of every counter and histogram.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $counter: self.$counter.load(::std::sync::atomic::Ordering::Relaxed), )*
                    $( $watermark: self.$watermark.load(::std::sync::atomic::Ordering::Relaxed), )*
                    $( $hist: self.$hist.snapshot(), )*
                }
            }

            /// Reset everything to zero (between experiment runs).
            pub fn reset(&self) {
                $( self.$counter.store(0, ::std::sync::atomic::Ordering::Relaxed); )*
                $( self.$watermark.store(0, ::std::sync::atomic::Ordering::Relaxed); )*
                $( self.$hist.reset(); )*
            }

            /// All scalar fields (counters then watermarks), declaration order.
            pub const COUNTER_NAMES: &'static [&'static str] =
                &[ $( stringify!($counter), )* $( stringify!($watermark), )* ];

            /// All histogram fields, declaration order.
            pub const HISTOGRAM_NAMES: &'static [&'static str] =
                &[ $( stringify!($hist), )* ];
        }

        /// Frozen view of the registry.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[doc = $c_doc])* pub $counter: u64, )*
            $( $(#[doc = $w_doc])* pub $watermark: u64, )*
            $( $(#[doc = $h_doc])* pub $hist: $crate::hist::HistogramSnapshot, )*
        }

        impl $snap {
            /// Work done since `earlier`. Counters subtract saturating (a
            /// `reset()` in between yields zeros, never a debug-build
            /// underflow panic); watermarks keep the larger high-water mark;
            /// histograms diff bucket-wise.
            pub fn delta_since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $counter: self.$counter.saturating_sub(earlier.$counter), )*
                    $( $watermark: self.$watermark.max(earlier.$watermark), )*
                    $( $hist: self.$hist.delta_since(&earlier.$hist), )*
                }
            }

            /// `(name, value)` for every scalar field, declaration order.
            pub fn counter_values(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![
                    $( (stringify!($counter), self.$counter), )*
                    $( (stringify!($watermark), self.$watermark), )*
                ]
            }

            /// `(name, snapshot)` for every histogram field.
            pub fn histogram_values(
                &self,
            ) -> ::std::vec::Vec<(&'static str, $crate::hist::HistogramSnapshot)> {
                ::std::vec![ $( (stringify!($hist), self.$hist), )* ]
            }

            /// Render this snapshot as Prometheus-style text exposition with
            /// every metric name prefixed by `prefix`. Counters export as
            /// `counter`, watermarks as `gauge`, histograms as `summary`.
            /// Each metric's doc comment becomes its `# HELP` line.
            pub fn exposition(&self, prefix: &str) -> ::std::string::String {
                let mut e = $crate::export::TextExporter::new();
                e.counters_with_help(prefix, &[ $(
                    (stringify!($counter), concat!($($c_doc),*), self.$counter),
                )* ]);
                $(
                    e.gauge_with_help(
                        &::std::format!("{prefix}{}", stringify!($watermark)),
                        concat!($($w_doc),*),
                        self.$watermark as f64,
                    );
                )*
                e.summaries_with_help(prefix, &[ $(
                    (stringify!($hist), concat!($($h_doc),*), self.$hist),
                )* ]);
                e.finish()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    metrics_registry! {
        /// Registry used only by these tests.
        pub struct TestMetrics => snapshot TestSnapshot {
            counters {
                /// a
                alpha,
                /// b
                beta,
            }
            watermarks {
                /// peak
                high_water,
            }
            histograms {
                /// latency
                lat_us,
            }
        }
    }

    #[test]
    fn generated_registry_round_trip() {
        let m = TestMetrics::new();
        m.add(&m.alpha, 3);
        m.add(&m.beta, 5);
        m.high_water
            .fetch_max(9, std::sync::atomic::Ordering::Relaxed);
        m.lat_us.record(100);
        m.lat_us.record(200);
        let s = m.snapshot();
        assert_eq!(s.alpha, 3);
        assert_eq!(s.high_water, 9);
        assert_eq!(s.lat_us.count, 2);
        m.reset();
        assert_eq!(m.snapshot(), TestSnapshot::default());
    }

    #[test]
    fn delta_saturates_across_reset() {
        let m = TestMetrics::new();
        m.add(&m.alpha, 10);
        let before = m.snapshot();
        m.reset();
        m.add(&m.alpha, 2);
        let delta = m.snapshot().delta_since(&before);
        // 2 - 10 saturates to 0 instead of panicking / wrapping.
        assert_eq!(delta.alpha, 0);
    }

    #[test]
    fn delta_keeps_watermark_max() {
        let m = TestMetrics::new();
        m.high_water
            .fetch_max(100, std::sync::atomic::Ordering::Relaxed);
        let before = m.snapshot();
        m.high_water
            .fetch_max(40, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(m.snapshot().delta_since(&before).high_water, 100);
    }

    #[test]
    fn names_cover_every_field() {
        assert_eq!(TestMetrics::COUNTER_NAMES, &["alpha", "beta", "high_water"]);
        assert_eq!(TestMetrics::HISTOGRAM_NAMES, &["lat_us"]);
        let s = TestSnapshot::default();
        assert_eq!(s.counter_values().len(), 3);
        assert_eq!(s.histogram_values().len(), 1);
    }

    #[test]
    fn exposition_contains_all_metrics() {
        let m = TestMetrics::new();
        m.add(&m.alpha, 1);
        m.lat_us.record(50);
        let text = m.snapshot().exposition("test_");
        assert!(text.contains("test_alpha 1\n"));
        assert!(text.contains("# TYPE test_lat_us summary\n"));
        assert!(text.contains("test_lat_us_count 1\n"));
    }

    #[test]
    fn exposition_derives_help_from_doc_comments() {
        let text = TestSnapshot::default().exposition("test_");
        assert!(text.contains("# HELP test_alpha a\n"));
        assert!(text.contains("# HELP test_high_water peak\n"));
        assert!(text.contains("# HELP test_lat_us latency\n"));
        let help_at = text.find("# HELP test_alpha").unwrap();
        let type_at = text.find("# TYPE test_alpha").unwrap();
        assert!(help_at < type_at);
    }
}
