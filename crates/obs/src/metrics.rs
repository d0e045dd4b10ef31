//! Typed metrics registry.
//!
//! Unifies the workspace's scattered counters (synthesis cache hits,
//! dirty wakeups, compressed steps, fault detections, …) behind one
//! snapshot/merge API.  A [`Metrics`] table maps dotted names to typed
//! values: monotone counters (merge by sum), gauges (merge keeps the
//! maximum — used for sizes and rates where the campaign-wide extreme is
//! the interesting value), and histograms (count/sum/min/max, merge
//! pointwise).  The verification service keeps one registry and returns
//! a snapshot in its `Telemetry` reply.

use std::collections::BTreeMap;
use std::fmt;

/// Number of exponential buckets a [`Histogram`] tracks.
///
/// Upper bounds are powers of two from `2^-26` (≈15 ns in seconds) to
/// `2^25` (≈3.4 s in microseconds — or 33 Ms in seconds), so both of the
/// workspace's unit conventions (seconds and microseconds) land with
/// useful resolution. The last bucket additionally absorbs everything
/// above its bound.
pub const HISTOGRAM_BUCKETS: usize = 52;

/// Upper bound of bucket `i` (inclusive): `2^(i - 26)`.
fn bucket_bound(i: usize) -> f64 {
    f64::powi(2.0, i as i32 - 26)
}

/// A count/sum/min/max summary of observed samples, with exponential
/// buckets supporting [`Histogram::quantile`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
    /// Exponential bucket counts; bucket `i` holds observations `v` with
    /// `bound(i-1) < v <= bound(i)` where `bound(i) = 2^(i-26)`. The
    /// first bucket also takes everything at or below its bound, the
    /// last everything above.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// The bucket index a value falls into (total over all reals:
    /// non-finite and tiny values clamp into the edge buckets).
    fn bucket_index(value: f64) -> usize {
        (0..HISTOGRAM_BUCKETS - 1)
            .find(|&i| value <= bucket_bound(i))
            .unwrap_or(HISTOGRAM_BUCKETS - 1)
    }

    /// Folds one observation in.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Arithmetic mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) from the buckets: the
    /// upper bound of the bucket containing the `ceil(q·count)`-th
    /// smallest observation, clamped into `[min, max]`. The estimate is
    /// guaranteed to land in the **same bucket** as the true quantile of
    /// the observed samples (the property the sorted-vector oracle test
    /// checks); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Some(bucket_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Pointwise merge with another histogram; bucket counts add, so the
    /// merged bucket total still equals the merged `count`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// A typed metric value.
///
/// The `Histogram` variant inlines its bucket array: a registry holds a
/// few dozen entries at most, and `Copy` keeps the shard-merge and
/// snapshot paths free of clones and indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone counter; merges by sum.
    Counter(u64),
    /// Point-in-time value; merges by maximum.
    Gauge(f64),
    /// Sample summary; merges pointwise.
    Histogram(Histogram),
}

/// The registry: dotted metric names to typed values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    entries: BTreeMap<String, MetricValue>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Adds to a counter, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different type.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self
            .entries
            .entry(name.to_owned())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Sets a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different type.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self
            .entries
            .entry(name.to_owned())
            .or_insert(MetricValue::Gauge(value))
        {
            MetricValue::Gauge(v) => *v = value,
            other => panic!("metric `{name}` is not a gauge: {other:?}"),
        }
    }

    /// Observes one histogram sample.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different type.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self
            .entries
            .entry(name.to_owned())
            .or_insert(MetricValue::Histogram(Histogram::default()))
        {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    /// Reads one metric.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.entries.get(name).copied()
    }

    /// Reads a counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Iterates `(name, value)` in sorted name order — the snapshot API
    /// serializers walk.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another registry into this one.  Counters add, gauges
    /// keep the maximum, histograms merge pointwise.
    ///
    /// # Panics
    ///
    /// Panics if a name is registered with different types on the two
    /// sides.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, value) in &other.entries {
            match self.entries.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(*value);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    match (slot.get_mut(), value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                        (a, b) => panic!("metric `{name}` type mismatch: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    /// Renders the registry in a Prometheus-style text exposition format:
    /// one `name value` line per counter/gauge, and `_count`/`_sum` plus
    /// `{quantile="…"}` lines (p50/p90/p99) per histogram. Dots and
    /// dashes in names flatten to underscores.
    pub fn exposition(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.entries {
            let flat = name.replace(['.', '-'], "_");
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {flat} counter");
                    let _ = writeln!(out, "{flat} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {flat} gauge");
                    let _ = writeln!(out, "{flat} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {flat} summary");
                    for q in [0.5, 0.9, 0.99] {
                        let value = h.quantile(q).unwrap_or(0.0);
                        let _ = writeln!(out, "{flat}{{quantile=\"{q}\"}} {value}");
                    }
                    let _ = writeln!(out, "{flat}_count {}", h.count);
                    let _ = writeln!(out, "{flat}_sum {}", h.sum);
                }
            }
        }
        out
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return writeln!(f, "(no metrics recorded)");
        }
        writeln!(f, "{:<44} {:>10} {:>22}", "metric", "type", "value")?;
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    writeln!(f, "{:<44} {:>10} {:>22}", name, "counter", v)?;
                }
                MetricValue::Gauge(v) => {
                    writeln!(f, "{:<44} {:>10} {:>22.3}", name, "gauge", v)?;
                }
                MetricValue::Histogram(h) => {
                    writeln!(
                        f,
                        "{:<44} {:>10} {:>22}",
                        name,
                        "histogram",
                        format!("n={} mean={:.3}", h.count, h.mean())
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_merge_by_sum() {
        let mut a = Metrics::new();
        a.counter_add("cache.hits", 3);
        a.counter_add("cache.hits", 2);
        let mut b = Metrics::new();
        b.counter_add("cache.hits", 10);
        b.counter_add("faults.detected", 1);
        a.merge(&b);
        assert_eq!(a.counter("cache.hits"), 15);
        assert_eq!(a.counter("faults.detected"), 1);
        assert_eq!(a.counter("absent"), 0);
    }

    #[test]
    fn gauges_merge_by_maximum() {
        let mut a = Metrics::new();
        a.gauge_set("shard.wall_s", 1.5);
        let mut b = Metrics::new();
        b.gauge_set("shard.wall_s", 0.75);
        a.merge(&b);
        assert_eq!(a.get("shard.wall_s"), Some(MetricValue::Gauge(1.5)));
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        let mut m = Metrics::new();
        for v in [4.0, 1.0, 7.0] {
            m.observe("sample.atoms", v);
        }
        let Some(MetricValue::Histogram(h)) = m.get("sample.atoms") else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 7.0);
        assert!((h.mean() - 4.0).abs() < 1e-9);
        let mut other = Metrics::new();
        other.observe("sample.atoms", 0.5);
        m.merge(&other);
        let Some(MetricValue::Histogram(h)) = m.get("sample.atoms") else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.5);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn type_confusion_panics() {
        let mut m = Metrics::new();
        m.gauge_set("x", 1.0);
        m.counter_add("x", 1);
    }

    #[test]
    fn gauges_are_last_write_within_a_registry_but_max_across_merges() {
        // Shard-local writes follow last-write-wins (a gauge is a point
        // in time); the cross-shard merge keeps the maximum, so the
        // campaign-wide extreme survives no matter the merge order.
        let mut a = Metrics::new();
        a.gauge_set("lease.workers", 8.0);
        a.gauge_set("lease.workers", 2.0);
        assert_eq!(a.get("lease.workers"), Some(MetricValue::Gauge(2.0)));
        let mut b = Metrics::new();
        b.gauge_set("lease.workers", 5.0);
        a.merge(&b);
        assert_eq!(a.get("lease.workers"), Some(MetricValue::Gauge(5.0)));
        b.merge(&a);
        assert_eq!(b.get("lease.workers"), Some(MetricValue::Gauge(5.0)));
    }

    #[test]
    fn histogram_merge_preserves_bucket_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [1e-6, 0.003, 0.004, 1.5] {
            a.observe(v);
        }
        for v in [0.004, 250.0] {
            b.observe(v);
        }
        let bucket_4ms = Histogram::bucket_index(0.004);
        let a_4ms = a.buckets[bucket_4ms];
        let b_4ms = b.buckets[bucket_4ms];
        a.merge(&b);
        assert_eq!(a.count, 6);
        assert_eq!(
            a.buckets.iter().sum::<u64>(),
            a.count,
            "every observation stays in exactly one bucket across merge"
        );
        assert_eq!(a.buckets[bucket_4ms], a_4ms + b_4ms);
    }

    #[test]
    fn empty_registry_merges_are_identities() {
        let mut filled = Metrics::new();
        filled.counter_add("c", 3);
        filled.observe("h", 1.25);
        let reference = filled.clone();

        // Merging an empty registry in changes nothing.
        filled.merge(&Metrics::new());
        assert_eq!(filled, reference);

        // Merging into an empty registry copies everything, buckets
        // included.
        let mut empty = Metrics::new();
        empty.merge(&reference);
        assert_eq!(empty, reference);
    }

    #[test]
    fn quantile_estimate_shares_a_bucket_with_the_sorted_vector_oracle() {
        // Property: for any observation set and any q, the bucketed
        // estimate lands in the same exponential bucket as the exact
        // quantile read off the sorted vector. testkit shrinks any
        // counterexample to a minimal observation list.
        testkit::Checker::new("quantile_estimate_shares_a_bucket_with_the_sorted_vector_oracle")
            .cases(200)
            .run(
                |src| {
                    let n = src.usize_in(1, 40);
                    let values: Vec<f64> = (0..n)
                        .map(|_| {
                            // Magnitudes spanning the bucket range,
                            // microseconds to kiloseconds.
                            let mantissa = src.u64_in(1, 1000) as f64 / 250.0;
                            let exponent = src.usize_in(0, 12) as i32 - 6;
                            mantissa * f64::powi(10.0, exponent)
                        })
                        .collect();
                    let q = src.u64_in(1, 100) as f64 / 100.0;
                    (values, q)
                },
                |(values, q)| {
                    let mut h = Histogram::default();
                    for v in values {
                        h.observe(*v);
                    }
                    let mut sorted = values.clone();
                    sorted.sort_by(f64::total_cmp);
                    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                    let exact = sorted[rank - 1];
                    let estimate = h.quantile(*q).expect("non-empty histogram");
                    assert_eq!(
                        Histogram::bucket_index(estimate),
                        Histogram::bucket_index(exact),
                        "estimate {estimate} strays from oracle {exact} at q={q}"
                    );
                    assert!(estimate >= h.min && estimate <= h.max);
                },
            );
    }

    #[test]
    fn quantiles_of_extremes_and_empty_histograms_behave() {
        assert_eq!(Histogram::default().quantile(0.5), None);
        let mut h = Histogram::default();
        h.observe(4.0);
        assert_eq!(h.quantile(0.01), Some(4.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
    }

    #[test]
    fn exposition_renders_counters_gauges_and_quantiles() {
        let mut m = Metrics::new();
        m.counter_add("server.jobs", 12);
        m.gauge_set("cache.bytes", 512.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.observe("server.job-wall", v);
        }
        let text = m.exposition();
        assert!(text.contains("server_jobs 12"));
        assert!(text.contains("# TYPE cache_bytes gauge"));
        assert!(text.contains("server_job_wall_count 4"));
        assert!(text.contains("server_job_wall{quantile=\"0.5\"}"));
        assert!(text.contains("server_job_wall{quantile=\"0.99\"}"));
    }

    #[test]
    fn display_renders_all_three_types() {
        let mut m = Metrics::new();
        m.counter_add("c", 7);
        m.gauge_set("g", 2.5);
        m.observe("h", 1.0);
        let text = m.to_string();
        assert!(text.contains("counter"));
        assert!(text.contains("gauge"));
        assert!(text.contains("histogram"));
    }
}
