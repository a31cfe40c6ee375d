//! Prometheus-style text exposition.
//!
//! The format is the classic text exposition: a `# HELP` line (when help
//! text is available) and a `# TYPE` line per metric, plain `name value`
//! samples for counters, and `summary`-style quantile samples plus
//! `_sum`/`_count` for histograms. It is line-oriented on purpose, so a
//! metric name can be `grep`ped out of the output.

use crate::hist::HistogramSnapshot;

/// Incremental builder for a text exposition document.
#[derive(Debug, Default)]
pub struct TextExporter {
    out: String,
}

impl TextExporter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Escape HELP text per the Prometheus text format: backslash and
    /// newline become `\\` and `\n` (backslash first, so an escape is never
    /// itself re-escaped).
    pub fn escape_help(help: &str) -> String {
        help.replace('\\', "\\\\").replace('\n', "\\n")
    }

    /// Escape a label value per the Prometheus text format: backslash,
    /// double quote, and newline become `\\`, `\"`, and `\n`.
    pub fn escape_label_value(value: &str) -> String {
        value
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    }

    /// Emit a `# HELP` line. Skipped when `help` is empty; backslashes and
    /// newlines are escaped (the exposition format is line-oriented).
    fn help_line(&mut self, name: &str, help: &str) {
        let help = help.trim();
        if help.is_empty() {
            return;
        }
        let escaped = Self::escape_help(help);
        self.out.push_str(&format!("# HELP {name} {escaped}\n"));
    }

    /// Emit one counter sample with its `# TYPE` header.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counter_with_help(name, "", value);
    }

    /// [`counter`](Self::counter) preceded by a `# HELP` line.
    pub fn counter_with_help(&mut self, name: &str, help: &str, value: u64) {
        self.help_line(name, help);
        self.out.push_str(&format!("# TYPE {name} counter\n"));
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// Emit a gauge (used for high-water marks and ratios).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauge_with_help(name, "", value);
    }

    /// [`gauge`](Self::gauge) preceded by a `# HELP` line.
    pub fn gauge_with_help(&mut self, name: &str, help: &str, value: f64) {
        self.help_line(name, help);
        self.out.push_str(&format!("# TYPE {name} gauge\n"));
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// Emit one gauge family with several labelled samples: a single
    /// `# HELP`/`# TYPE` header for `family`, then each `(sample_line,
    /// value)` pair verbatim. Callers pre-render the labelled sample name
    /// (escaping label values with
    /// [`escape_label_value`](Self::escape_label_value)).
    pub fn gauge_samples(&mut self, family: &str, help: &str, samples: &[(String, f64)]) {
        self.help_line(family, help);
        self.out.push_str(&format!("# TYPE {family} gauge\n"));
        for (sample, value) in samples {
            self.out.push_str(&format!("{sample} {value}\n"));
        }
    }

    /// Emit a histogram as a summary: p50/p95/p99 quantiles, sum, count, max.
    pub fn summary(&mut self, name: &str, h: &HistogramSnapshot) {
        self.summary_with_help(name, "", h);
    }

    /// [`summary`](Self::summary) preceded by a `# HELP` line.
    pub fn summary_with_help(&mut self, name: &str, help: &str, h: &HistogramSnapshot) {
        self.help_line(name, help);
        self.out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
            self.out
                .push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
        }
        self.out.push_str(&format!("{name}_sum {}\n", h.sum));
        self.out.push_str(&format!("{name}_count {}\n", h.count));
        self.out.push_str(&format!("{name}_max {}\n", h.max));
    }

    /// Emit every `(name, value)` counter pair under a common prefix.
    pub fn counters(&mut self, prefix: &str, values: &[(&'static str, u64)]) {
        for (name, value) in values {
            self.counter(&format!("{prefix}{name}"), *value);
        }
    }

    /// Emit every `(name, help, value)` counter triple under a common prefix.
    pub fn counters_with_help(&mut self, prefix: &str, values: &[(&'static str, &str, u64)]) {
        for (name, help, value) in values {
            self.counter_with_help(&format!("{prefix}{name}"), help, *value);
        }
    }

    /// Emit every `(name, snapshot)` histogram pair under a common prefix.
    pub fn summaries(&mut self, prefix: &str, hists: &[(&'static str, HistogramSnapshot)]) {
        for (name, h) in hists {
            self.summary(&format!("{prefix}{name}"), h);
        }
    }

    /// Emit every `(name, help, snapshot)` histogram triple under a prefix.
    pub fn summaries_with_help(
        &mut self,
        prefix: &str,
        hists: &[(&'static str, &str, HistogramSnapshot)],
    ) {
        for (name, help, h) in hists {
            self.summary_with_help(&format!("{prefix}{name}"), help, h);
        }
    }

    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn counter_lines_are_greppable() {
        let mut e = TextExporter::new();
        e.counter("shc_store_rpc_count", 42);
        let text = e.finish();
        assert!(text.contains("# TYPE shc_store_rpc_count counter\n"));
        assert!(text.contains("shc_store_rpc_count 42\n"));
    }

    #[test]
    fn summary_emits_quantiles_sum_count() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(1000);
        }
        let mut e = TextExporter::new();
        e.summary("shc_store_rpc_latency_us", &h.snapshot());
        let text = e.finish();
        assert!(text.contains("shc_store_rpc_latency_us{quantile=\"0.5\"} 1000\n"));
        assert!(text.contains("shc_store_rpc_latency_us{quantile=\"0.99\"} 1000\n"));
        assert!(text.contains("shc_store_rpc_latency_us_sum 10000\n"));
        assert!(text.contains("shc_store_rpc_latency_us_count 10\n"));
    }

    #[test]
    fn help_lines_precede_type_lines() {
        let mut e = TextExporter::new();
        e.counter_with_help("m_events", " Things that happened. ", 7);
        e.gauge_with_help("m_peak", "High-water\nmark.", 3.5);
        let text = e.finish();
        assert!(text.contains("# HELP m_events Things that happened.\n"));
        // The embedded newline is escaped, keeping the format line-oriented.
        assert!(text.contains("# HELP m_peak High-water\\nmark.\n"));
        let help_at = text.find("# HELP m_events").unwrap();
        let type_at = text.find("# TYPE m_events").unwrap();
        assert!(help_at < type_at, "HELP must precede TYPE");
    }

    #[test]
    fn empty_help_is_omitted() {
        let mut e = TextExporter::new();
        e.counter_with_help("m_events", "   ", 1);
        let text = e.finish();
        assert!(!text.contains("# HELP"));
        assert!(text.contains("# TYPE m_events counter\n"));
    }

    #[test]
    fn help_escapes_backslash_before_newline() {
        let mut e = TextExporter::new();
        e.counter_with_help("m_x", "path C:\\tmp\nsecond line", 1);
        let text = e.finish();
        assert!(text.contains("# HELP m_x path C:\\\\tmp\\nsecond line\n"));
        // Exactly one physical line per HELP entry.
        assert_eq!(text.lines().filter(|l| l.starts_with("# HELP")).count(), 1);
    }

    #[test]
    fn label_values_escape_quotes_backslashes_newlines() {
        assert_eq!(TextExporter::escape_label_value("plain"), "plain");
        assert_eq!(
            TextExporter::escape_label_value("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd"
        );
    }

    #[test]
    fn gauge_samples_share_one_header() {
        let mut e = TextExporter::new();
        e.gauge_samples(
            "m_alert_firing",
            "Firing state.",
            &[
                ("m_alert_firing{alert=\"a\"}".to_string(), 1.0),
                ("m_alert_firing{alert=\"b\"}".to_string(), 0.0),
            ],
        );
        let text = e.finish();
        assert_eq!(text.matches("# TYPE m_alert_firing gauge").count(), 1);
        assert!(text.contains("m_alert_firing{alert=\"a\"} 1\n"));
        assert!(text.contains("m_alert_firing{alert=\"b\"} 0\n"));
    }

    #[test]
    fn summary_with_help_keeps_samples() {
        let h = Histogram::new();
        h.record(10);
        let mut e = TextExporter::new();
        e.summary_with_help("m_lat_us", "Latency.", &h.snapshot());
        let text = e.finish();
        assert!(text.contains("# HELP m_lat_us Latency.\n"));
        assert!(text.contains("m_lat_us_sum 10\n"));
        assert!(text.contains("m_lat_us_count 1\n"));
    }
}
