//! The command's result line and the shared run options.

use std::path::PathBuf;

use crate::checks::Inject;
use crate::stats::{median, peak_rss_mb, quantile};

/// Options every workload runs with.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// A deliberate corruption, for the checks' self-tests.
    pub inject: Option<Inject>,
    /// This run's working directory under the current directory, for
    /// its registries; removed when the run ends.
    pub work: PathBuf,
    /// Host parallelism: the daemon's worker width, the sweep's jobs,
    /// and the load generator's connections.
    pub jobs: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (refused, shed, expired or errored).
    pub failed: u64,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends the end-to-end metrics every workload reports, from its
    /// unit-of-work latencies (ms), its throughput and its set-up times.
    ///
    /// # Errors
    ///
    /// When there are no samples, or peak memory cannot be read.
    pub fn push_end_to_end(
        &mut self,
        latencies_ms: &[f64],
        throughput: f64,
        setups: &[f64],
    ) -> Result<(), String> {
        let q = |p: f64| quantile(latencies_ms, p).ok_or("no completed operations");
        self.push("p50_ms", q(0.5)?, "ms");
        self.push("p90_ms", q(0.9)?, "ms");
        self.push("throughput_per_s", throughput, "1/s");
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        self.push("ok_share", ok / self.attempted.max(1) as f64, "ratio");
        self.push("setup_s", median(setups).ok_or("no set-up")?, "s");
        self.push("peak_rss_mb", peak_rss_mb()?, "MiB");
        Ok(())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float in JSON syntax with all its digits (shortest
/// round-trip form; integral values keep a `.0`).
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') && !s.contains('.') {
        s.replacen('e', ".0e", 1)
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.push("p50_ms", 1.25, "ms");
        r.push("count", 7.0, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
        assert_eq!(json_number(1e300), "1.0e300");
        assert_eq!(json_number(0.1), "0.1");
    }
}
