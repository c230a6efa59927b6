//! Metrics exposition: Prometheus-style text and a JSON snapshot.
//!
//! Both formats render the same [`MetricsSnapshot`]. Counter totals are
//! deterministic; histogram summaries (being wall-clock) are not — the
//! determinism contract covers *which* metrics exist and the counter
//! values, never timing.

use crate::metrics::Counter;
use crate::trace::escape_json;

/// Summary of one registered histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Registered name, either plain (`"tick"`) or `family:label`
    /// (`"stage:power"`).
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples, nanoseconds.
    pub sum_ns: u64,
    /// Mean sample, nanoseconds.
    pub mean_ns: f64,
    /// Estimated median, nanoseconds.
    pub p50_ns: u64,
    /// Estimated 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// Estimated 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
}

impl HistSnapshot {
    /// Splits the registered name into a Prometheus metric family and an
    /// optional label: `"stage:power"` becomes
    /// (`mpt_stage_seconds`, `Some(("stage", "power"))`), a plain
    /// `"tick"` becomes (`mpt_tick_seconds`, `None`).
    #[must_use]
    pub(crate) fn family(&self) -> (String, Option<(&str, &str)>) {
        match self.name.split_once(':') {
            Some((fam, label)) => (format!("mpt_{fam}_seconds"), Some((fam, label))),
            None => (format!("mpt_{}_seconds", self.name), None),
        }
    }
}

/// A point-in-time copy of every metric a recorder holds.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every pre-registered counter, in id order.
    pub counters: Vec<(String, u64)>,
    /// Every registered histogram, in id order.
    pub histograms: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter by exposition name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The deterministic half of the snapshot: counter names and values
    /// only — bit-identical across worker counts for the same workload.
    #[must_use]
    pub fn deterministic_counters(&self) -> Vec<(String, u64)> {
        self.counters.clone()
    }

    /// Renders the Prometheus-style text exposition: counters as
    /// `counter` metrics, histograms as `summary` metrics in seconds with
    /// p50/p95/p99 quantiles. Every family carries a `# HELP` line before
    /// its `# TYPE` line, as the exposition format prescribes.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let help = Counter::help_for_name(name).unwrap_or("Event counter.");
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        let s = |ns: f64| ns * 1e-9;
        let mut helped: Vec<String> = Vec::new();
        for h in &self.histograms {
            let (family, label) = h.family();
            let tag = |quantile: &str| match label {
                Some((k, v)) => format!("{{{k}=\"{v}\",quantile=\"{quantile}\"}}"),
                None => format!("{{quantile=\"{quantile}\"}}"),
            };
            let bare = match label {
                Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
                None => String::new(),
            };
            // One HELP/TYPE pair per family — labelled histograms of the
            // same family ("stage:power", "stage:thermal") share it.
            if !helped.contains(&family) {
                out.push_str(&format!(
                    "# HELP {family} Latency summary in seconds (p50/p95/p99).\n"
                ));
                out.push_str(&format!("# TYPE {family} summary\n"));
                helped.push(family.clone());
            }
            for (q, ns) in [("0.5", h.p50_ns), ("0.95", h.p95_ns), ("0.99", h.p99_ns)] {
                out.push_str(&format!("{family}{} {:e}\n", tag(q), s(ns as f64)));
            }
            out.push_str(&format!("{family}_sum{bare} {:e}\n", s(h.sum_ns as f64)));
            out.push_str(&format!("{family}_count{bare} {}\n", h.count));
        }
        out
    }

    /// Renders the snapshot as JSON (no external dependencies: the
    /// grammar here is numbers, strings and two array fields).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {value}", escape_json(name)));
        }
        out.push_str("\n  },\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"sum_ns\": {}, \"mean_ns\": {:.1}, \
                 \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                escape_json(&h.name),
                h.count,
                h.sum_ns,
                h.mean_ns,
                h.p50_ns,
                h.p95_ns,
                h.p99_ns,
                h.max_ns
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("mpt_ticks_total".into(), 100),
                ("mpt_events_migration_total".into(), 2),
            ],
            histograms: vec![HistSnapshot {
                name: "stage:power".into(),
                count: 100,
                sum_ns: 1_000_000,
                mean_ns: 10_000.0,
                p50_ns: 8191,
                p95_ns: 16383,
                p99_ns: 16383,
                max_ns: 20_000,
            }],
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("# HELP mpt_ticks_total Simulator ticks executed.\n"));
        assert!(text.contains("# TYPE mpt_ticks_total counter"));
        assert!(text.contains("mpt_ticks_total 100"));
        assert!(text.contains("# HELP mpt_stage_seconds "));
        assert!(text.contains("# TYPE mpt_stage_seconds summary"));
        assert!(text.contains("mpt_stage_seconds{stage=\"power\",quantile=\"0.5\"}"));
        assert!(text.contains("mpt_stage_seconds_count{stage=\"power\"} 100"));
    }

    #[test]
    fn prometheus_every_family_has_one_help_and_type() {
        let mut snap = sample();
        snap.histograms.push(HistSnapshot {
            name: "stage:thermal".into(),
            ..snap.histograms[0].clone()
        });
        let text = snap.to_prometheus();
        // Two histograms of the same family share one HELP/TYPE pair.
        assert_eq!(text.matches("# HELP mpt_stage_seconds ").count(), 1);
        assert_eq!(text.matches("# TYPE mpt_stage_seconds ").count(), 1);
        // Every exposed metric line belongs to a family introduced by a
        // HELP line; every HELP is immediately followed by its TYPE.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let fam = rest.split_whitespace().next().unwrap();
                assert!(
                    lines[i + 1].starts_with(&format!("# TYPE {fam} ")),
                    "HELP for {fam} not followed by TYPE"
                );
            }
        }
    }

    #[test]
    fn json_snapshot_shape() {
        let json = sample().to_json();
        assert!(json.contains("\"mpt_ticks_total\": 100"));
        assert!(json.contains("\"name\": \"stage:power\""));
        assert!(json.contains("\"p95_ns\": 16383"));
    }

    #[test]
    fn family_split() {
        let h = sample().histograms[0].clone();
        assert_eq!(
            h.family(),
            ("mpt_stage_seconds".to_owned(), Some(("stage", "power")))
        );
    }
}
