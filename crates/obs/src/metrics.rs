//! The verification service's metrics registry.
//!
//! A [`Metrics`] table maps dotted names to typed values: monotone
//! counters and histograms (count/sum/min/max plus exponential buckets
//! for quantile estimates). The server keeps one registry and returns a
//! snapshot of it in its `Telemetry` reply.

use std::collections::BTreeMap;

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
}

/// A typed metric value.
///
/// The `Histogram` variant inlines its bucket array: a registry holds a
/// few dozen entries at most, and `Copy` keeps the snapshot path free of
/// clones and indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Sample summary.
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

    /// Iterates `(name, value)` in sorted name order — the snapshot API
    /// serializers walk.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add() {
        let mut m = Metrics::new();
        m.counter_add("cache.hits", 3);
        m.counter_add("cache.hits", 2);
        m.counter_add("faults.detected", 1);
        assert_eq!(m.get("cache.hits"), Some(MetricValue::Counter(5)));
        assert_eq!(m.get("faults.detected"), Some(MetricValue::Counter(1)));
        assert_eq!(m.get("absent"), None);
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        let mut m = Metrics::new();
        for v in [4.0, 1.0, 7.0, 0.004] {
            m.observe("sample.atoms", v);
        }
        let Some(MetricValue::Histogram(h)) = m.get("sample.atoms") else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 12.004);
        assert_eq!(h.min, 0.004);
        assert_eq!(h.max, 7.0);
        assert_eq!(
            h.buckets.iter().sum::<u64>(),
            h.count,
            "every observation lands in exactly one bucket"
        );
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn type_confusion_panics() {
        let mut m = Metrics::new();
        m.observe("x", 1.0);
        m.counter_add("x", 1);
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
}
