//! Metric aggregates: counters, high-water gauges and histograms.
//!
//! Every aggregate merges with a commutative, associative operation
//! (sum, max, bucket-wise sum), so per-thread buffers collapse to the
//! **same** totals regardless of how work was divided across workers —
//! the property the sweep engine's `jobs=1` vs `jobs=N` determinism
//! test relies on.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::write_escaped;

/// Number of power-of-two histogram buckets: bucket 0 holds zeros,
/// bucket `i > 0` holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use paraconv_obs::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(3);
/// h.record(4);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 7);
/// assert_eq!(h.min(), 0);
/// assert_eq!(h.max(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// The bucket index a value falls into.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive lower bound of bucket `i`.
    #[must_use]
    pub fn bucket_lower(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value: the histogram `n` calls
    /// to [`record`](Self::record) would leave, in O(1).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = &mut self.buckets[Self::bucket_of(value)];
        *bucket = bucket.saturating_add(n);
    }

    /// Merges another histogram into this one (bucket-wise sums).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    #[must_use]
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The number of samples in bucket `i` (0 when out of range).
    #[must_use]
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Rebuilds a histogram from its serialized parts — the shape
    /// [`MetricsSnapshot::to_jsonl`] and the postmortem artifact
    /// store: summary statistics plus `(lower_bound, count)` pairs for
    /// the non-empty buckets. Returns `None` when the parts are
    /// inconsistent: a lower bound that is not a real bucket boundary,
    /// bucket counts that do not sum to `count`, `min > max`, or
    /// summary values on an empty histogram.
    #[must_use]
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: &[(u64, u64)],
    ) -> Option<Histogram> {
        if count == 0 {
            if sum != 0 || min != 0 || max != 0 || !buckets.is_empty() {
                return None;
            }
            return Some(Histogram::new());
        }
        if min > max {
            return None;
        }
        let mut h = Histogram {
            count,
            sum,
            min,
            max,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        let mut total = 0u64;
        for &(lo, c) in buckets {
            let i = Self::bucket_of(lo);
            if Self::bucket_lower(i) != lo || c == 0 {
                return None;
            }
            if h.buckets[i] != 0 {
                return None; // duplicate bucket
            }
            h.buckets[i] = c;
            total = total.checked_add(c)?;
        }
        if total != count {
            return None;
        }
        Some(h)
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs in
    /// ascending bound order.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lower(i), c))
            .collect()
    }

    /// The inclusive upper bound of bucket `i` (the largest value that
    /// falls into it): `bucket_lower(i + 1) - 1`, or `u64::MAX` for
    /// the last bucket.
    #[must_use]
    pub fn bucket_upper(i: usize) -> u64 {
        if i + 1 >= HISTOGRAM_BUCKETS {
            u64::MAX
        } else {
            Self::bucket_lower(i + 1) - 1
        }
    }

    /// The `q`-quantile of the recorded samples under **fixed,
    /// deterministic bucket-interpolation rules** — the same inputs
    /// produce the same answer on every platform and at every worker
    /// count, so quantiles are safe to embed in byte-compared
    /// artifacts.
    ///
    /// The rules, exactly:
    ///
    /// 1. An empty histogram reports 0; `q <= 0` reports [`min`];
    ///    `q >= 1` reports [`max`](Self::max).
    /// 2. The target rank is `ceil(q * count)`, clamped to
    ///    `[1, count]`.
    /// 3. Buckets are scanned in ascending order until the cumulative
    ///    count reaches the rank. The winning bucket's inclusive
    ///    bounds are first narrowed to the observed `[min, max]`; the
    ///    value is then linearly interpolated (integer arithmetic,
    ///    truncating) between the narrowed bounds by the rank's
    ///    position among that bucket's samples. A bucket holding a
    ///    single sample reports its narrowed upper bound — so the top
    ///    quantiles of a distribution whose largest sample sits alone
    ///    in the last bucket report that sample, not a bucket edge.
    /// 4. The result is clamped to the observed `[min, max]`, so a
    ///    histogram holding one distinct value reports that value at
    ///    every quantile.
    ///
    /// [`min`]: Self::min
    ///
    /// # Examples
    ///
    /// ```
    /// use paraconv_obs::Histogram;
    ///
    /// let mut h = Histogram::new();
    /// for v in [1, 2, 3, 100] {
    ///     h.record(v);
    /// }
    /// assert_eq!(h.quantile(0.5), 2);
    /// assert_eq!(h.quantile(1.0), 100);
    /// ```
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        // ceil(q * count) without float-precision surprises at the
        // top: clamp into [1, count].
        let rank = (q * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Bucket bounds narrowed to the observed [min, max].
                let lo = Self::bucket_lower(i).max(self.min());
                let hi = Self::bucket_upper(i).min(self.max);
                // Position of the rank among this bucket's `c`
                // samples, in [0, c-1]; interpolate on the narrowed
                // span with truncating integer math.
                let pos = rank - seen - 1;
                let span = hi.saturating_sub(lo);
                let value = if c <= 1 {
                    hi
                } else {
                    // span/(c-1) scaling via u128: span can be up to
                    // ~2^63, pos up to c-1.
                    lo + u64::try_from(u128::from(span) * u128::from(pos) / u128::from(c - 1))
                        .unwrap_or(span)
                };
                return value.clamp(self.min(), self.max);
            }
            seen += c;
        }
        self.max
    }
}

/// A point-in-time view of every metric recorded so far.
///
/// Snapshots deliberately contain **no wall-clock data**: every value
/// derives from simulated quantities, so two runs of the same workload
/// produce byte-identical snapshots at any worker count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic sums, keyed by metric name.
    pub counters: BTreeMap<String, u64>,
    /// High-water marks (merged with `max`), keyed by metric name.
    pub gauges: BTreeMap<String, u64>,
    /// Sample distributions, keyed by metric name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A counter's value, 0 when never incremented.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's high-water mark, 0 when never set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges another snapshot into this one.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            let g = self.gauges.entry(name.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Renders the snapshot as a JSONL event stream: one JSON object
    /// per line, counters first, then gauges, then histograms, each
    /// group in name order — a deterministic serialization.
    ///
    /// Line shapes:
    ///
    /// ```json
    /// {"type":"counter","name":"sim.tasks","value":128}
    /// {"type":"gauge","name":"sim.cache.peak_occupancy","max":12}
    /// {"type":"histogram","name":"sim.transfer.latency","count":3,"sum":9,"min":1,"max":4,"buckets":[[1,1],[2,1],[4,1]]}
    /// ```
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            write_escaped(&mut out, name);
            out.push_str(&format!(",\"value\":{value}}}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            write_escaped(&mut out, name);
            out.push_str(&format!(",\"max\":{value}}}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            write_escaped(&mut out, name);
            out.push_str(&format!(
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            ));
            for (i, (lo, c)) in h.nonzero_buckets().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{lo},{c}]"));
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# TYPE` comments, sanitized metric names
    /// under a `paraconv_` prefix, and cumulative `_bucket{le="…"}`
    /// series for histograms. Output is deterministic: groups in
    /// fixed order (counters, gauges, histograms), names sorted.
    ///
    /// Dots and any other non-`[a-zA-Z0-9_]` characters in metric
    /// names become underscores (`sim.tasks` → `paraconv_sim_tasks`).
    /// Gauges here are high-water marks, so they are exposed as
    /// Prometheus gauges that only ever rise.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let n = prometheus_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for i in 0..HISTOGRAM_BUCKETS {
                let c = h.bucket_count(i);
                if c == 0 {
                    continue;
                }
                cumulative += c;
                let le = Histogram::bucket_upper(i);
                out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
            out.push_str(&format!("{n}_sum {}\n", h.sum()));
            out.push_str(&format!("{n}_count {}\n", h.count()));
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{n}_quantile{{quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
        }
        out
    }
}

/// Sanitizes a metric name for the Prometheus exposition format:
/// every character outside `[a-zA-Z0-9_]` becomes `_`, and the result
/// is prefixed with `paraconv_`.
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("paraconv_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Validates Prometheus text-exposition lines: every line must be a
/// `#` comment or `name[{label="value",…}] <integer-or-float>` with a
/// legal metric name. Returns the number of sample (non-comment)
/// lines.
///
/// This is the line-format checker CI runs over emitted expositions —
/// a structural check, deliberately stricter than "Prometheus would
/// probably accept it".
///
/// # Errors
///
/// The first offending line, as `line <n>: <reason>`.
pub fn check_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = match line.split_once(' ') {
            Some(parts) => parts,
            None => return Err(format!("line {n}: expected `name value`")),
        };
        let name = match name_part.split_once('{') {
            Some((name, labels)) => {
                let Some(labels) = labels.strip_suffix('}') else {
                    return Err(format!("line {n}: unterminated label set"));
                };
                for pair in labels.split(',') {
                    let Some((k, v)) = pair.split_once('=') else {
                        return Err(format!("line {n}: label `{pair}` is not key=\"value\""));
                    };
                    if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return Err(format!("line {n}: label `{pair}` is not key=\"value\""));
                    }
                }
                name
            }
            None => name_part,
        };
        let mut chars = name.chars();
        let legal_start = chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
        if !legal_start || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("line {n}: illegal metric name `{name}`"));
        }
        if value_part.is_empty() || value_part.parse::<f64>().is_err() {
            return Err(format!("line {n}: `{value_part}` is not a number"));
        }
        samples += 1;
    }
    Ok(samples)
}

/// Validates a metrics JSONL export ([`MetricsSnapshot::to_jsonl`]):
/// every non-blank line is a JSON object with a known `type` and a
/// string `name`. Returns the number of metric lines.
///
/// # Errors
///
/// The first offending line as `line <n>: <reason>`, or a note that
/// the export holds no metric lines at all.
pub fn check_metrics_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let obj = serde_json::from_str(line).map_err(|e| format!("line {n}: {e}"))?;
        let kind = obj
            .get("type")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("line {n}: missing `type`"))?;
        if !matches!(kind, "counter" | "gauge" | "histogram") {
            return Err(format!("line {n}: unknown type `{kind}`"));
        }
        if obj
            .get("name")
            .and_then(serde_json::Value::as_str)
            .is_none()
        {
            return Err(format!("line {n}: missing string `name`"));
        }
        count += 1;
    }
    if count == 0 {
        return Err("no metric lines".into());
    }
    Ok(count)
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "counter    {name:<36} {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "gauge(max) {name:<36} {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "histogram  {name:<36} count={} sum={} min={} max={} mean={:.2} p50={} p90={} p99={}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_lower(0), 0);
        assert_eq!(Histogram::bucket_lower(1), 1);
        assert_eq!(Histogram::bucket_lower(3), 4);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let samples = [0u64, 1, 5, 9, 1024, u64::MAX];
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record(s);
            } else {
                right.record(s);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn record_n_matches_repeated_recording() {
        for (value, n) in [(7u64, 5u64), (0, 3), (u64::MAX / 2, 3), (9, 0)] {
            let mut repeated = Histogram::new();
            repeated.record(1);
            for _ in 0..n {
                repeated.record(value);
            }
            let mut batched = Histogram::new();
            batched.record(1);
            batched.record_n(value, n);
            assert_eq!(batched, repeated, "value {value} n {n}");
        }
    }

    #[test]
    fn record_n_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.record_n(u64::MAX / 2, 3);
        assert_eq!((h.count(), h.sum(), h.max()), (3, u64::MAX, u64::MAX / 2));
        h.record_n(1, u64::MAX);
        assert_eq!((h.count(), h.min()), (u64::MAX, 1));
        assert_eq!(h.bucket_count(Histogram::bucket_of(1)), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_zero_min() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        let mut a = MetricsSnapshot::new();
        a.counters.insert("c".into(), 3);
        a.gauges.insert("g".into(), 10);
        let mut b = MetricsSnapshot::new();
        b.counters.insert("c".into(), 4);
        b.gauges.insert("g".into(), 7);
        b.gauges.insert("h".into(), 2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 7);
        assert_eq!(ab.gauge("g"), 10);
        assert_eq!(ab.gauge("h"), 2);
    }

    #[test]
    fn record_zero_lands_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1)]);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn record_u64_max_lands_in_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.bucket_count(HISTOGRAM_BUCKETS - 1), 1);
        assert_eq!(h.min(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // sum saturates rather than wrapping
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.quantile(0.99), u64::MAX);
    }

    #[test]
    fn bucket_of_and_bucket_lower_round_trip_every_power_of_two() {
        for exp in 0..64u32 {
            let v = 1u64 << exp;
            let i = Histogram::bucket_of(v);
            // A power of two is the lower bound of its own bucket…
            assert_eq!(Histogram::bucket_lower(i), v, "2^{exp}");
            // …and the value one below it closes the previous bucket.
            if v > 1 {
                let prev = Histogram::bucket_of(v - 1);
                assert_eq!(prev, i - 1, "2^{exp} - 1");
                assert_eq!(Histogram::bucket_upper(prev), v - 1, "2^{exp} - 1");
            }
        }
        assert_eq!(Histogram::bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_round_trips_through_its_parts() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 9, 1024, u64::MAX] {
            h.record(v);
        }
        let rebuilt =
            Histogram::from_parts(h.count(), h.sum(), h.min(), h.max(), &h.nonzero_buckets())
                .expect("own parts are consistent");
        assert_eq!(rebuilt, h);
        assert_eq!(
            Histogram::from_parts(0, 0, 0, 0, &[]),
            Some(Histogram::new())
        );
        // 3 is inside bucket [2,3], not a boundary.
        assert!(Histogram::from_parts(2, 6, 3, 3, &[(3, 2)]).is_none());
        // Counts must sum to `count`.
        assert!(Histogram::from_parts(3, 6, 1, 4, &[(1, 1), (4, 1)]).is_none());
        assert!(Histogram::from_parts(1, 0, 5, 4, &[(4, 1)]).is_none());
    }

    #[test]
    fn quantiles_follow_the_documented_rules() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1); // q <= 0 → min
        assert_eq!(h.quantile(1.0), 100); // q >= 1 → max
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(0.99), 100);

        // A single distinct value reports itself at every quantile.
        let mut one = Histogram::new();
        for _ in 0..10 {
            one.record(7);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 7, "q={q}");
        }

        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn prometheus_exposition_passes_the_line_checker() {
        let mut s = MetricsSnapshot::new();
        s.counters.insert("sim.tasks".into(), 42);
        s.gauges.insert("sim.cache.peak_occupancy".into(), 7);
        let mut h = Histogram::new();
        for v in [1u64, 3, 900] {
            h.record(v);
        }
        s.histograms.insert("sim.transfer.latency".into(), h);
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE paraconv_sim_tasks counter\n"));
        assert!(text.contains("paraconv_sim_tasks 42\n"));
        assert!(text.contains("paraconv_sim_cache_peak_occupancy 7\n"));
        assert!(text.contains("paraconv_sim_transfer_latency_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("paraconv_sim_transfer_latency_count 3\n"));
        assert!(text.contains("paraconv_sim_transfer_latency_quantile{quantile=\"0.5\"} 3\n"));
        let samples = check_prometheus(&text).expect("checker accepts own output");
        assert!(samples >= 10, "expected >= 10 sample lines, got {samples}");
    }

    #[test]
    fn prometheus_checker_rejects_malformed_lines() {
        assert!(check_prometheus("no_value_here").is_err());
        assert!(check_prometheus("9starts_with_digit 1").is_err());
        assert!(check_prometheus("name{unterminated=\"x\" 1").is_err());
        assert!(check_prometheus("name{k=unquoted} 1").is_err());
        assert!(check_prometheus("name not-a-number").is_err());
        assert_eq!(check_prometheus("# just a comment\n"), Ok(0));
        assert_eq!(check_prometheus("ok{le=\"+Inf\"} 3\n"), Ok(1));
    }

    #[test]
    fn metrics_jsonl_checker_accepts_exports_and_rejects_garbage() {
        let mut s = MetricsSnapshot::new();
        s.counters.insert("dp.fills".into(), 3);
        s.gauges.insert("peak".into(), 9);
        let mut h = Histogram::new();
        h.record(4);
        s.histograms.insert("lat".into(), h);
        assert_eq!(check_metrics_jsonl(&s.to_jsonl()), Ok(3));
        assert_eq!(
            check_metrics_jsonl("\n{\"type\":\"gauge\",\"name\":\"g\"}\n\n"),
            Ok(1)
        );
        for bad in [
            "",
            "\n  \n",
            "not json",
            "{\"name\":\"x\"}",
            "{\"type\":\"timer\",\"name\":\"x\"}",
            "{\"type\":\"counter\"}",
            "{\"type\":\"counter\",\"name\":7}",
        ] {
            assert!(check_metrics_jsonl(bad).is_err(), "accepted {bad:?}");
        }
        let err = check_metrics_jsonl("{\"type\":\"counter\",\"name\":\"a\"}\n{}")
            .expect_err("second line lacks a type");
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn jsonl_is_deterministic_and_line_per_metric() {
        let mut s = MetricsSnapshot::new();
        s.counters.insert("b.count".into(), 2);
        s.counters.insert("a.count".into(), 1);
        s.gauges.insert("peak".into(), 9);
        let mut h = Histogram::new();
        h.record(3);
        s.histograms.insert("lat".into(), h);
        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        // Counters sort by name, groups in fixed order.
        assert!(lines[0].contains("\"a.count\""));
        assert!(lines[1].contains("\"b.count\""));
        assert!(lines[2].contains("\"gauge\""));
        assert!(lines[3].contains("\"histogram\""));
        assert_eq!(jsonl, s.to_jsonl());
    }

    proptest::proptest! {
        #[test]
        fn histogram_merge_is_commutative(
            xs in proptest::collection::vec(0u64..=u64::MAX, 0..64),
            ys in proptest::collection::vec(0u64..=u64::MAX, 0..64),
        ) {
            let mut a = Histogram::new();
            for &v in &xs {
                a.record(v);
            }
            let mut b = Histogram::new();
            for &v in &ys {
                b.record(v);
            }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            proptest::prop_assert_eq!(&ab, &ba);

            // Merging also matches recording everything into one
            // histogram, and quantiles agree on the merged view.
            let mut whole = Histogram::new();
            for &v in xs.iter().chain(&ys) {
                whole.record(v);
            }
            proptest::prop_assert_eq!(&ab, &whole);
            proptest::prop_assert_eq!(ab.quantile(0.5), whole.quantile(0.5));
        }
    }
}
