//! Return-value coverage — the paper's C.(%) metric.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Tracks, per key (operation), which of the specified return values have
/// been observed.
///
/// # Examples
///
/// ```
/// use stimuli::ReturnCoverage;
///
/// let mut cov = ReturnCoverage::new();
/// cov.declare("write", &[1, 2, 4]);
/// cov.record("write", 1);
/// cov.record("write", 7); // unspecified values are counted separately
/// assert!((cov.percent("write") - 33.33).abs() < 0.1);
/// assert_eq!(cov.unspecified("write"), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ReturnCoverage {
    entries: BTreeMap<String, Entry>,
}

#[derive(Clone, Debug, Default)]
struct Entry {
    spec: BTreeSet<i32>,
    seen: BTreeSet<i32>,
    unspecified: u64,
    observations: u64,
}

impl ReturnCoverage {
    /// Creates an empty collector.
    pub fn new() -> Self {
        ReturnCoverage::default()
    }

    /// Declares the specified return values for a key. Re-declaring a key
    /// extends its specification.
    pub fn declare(&mut self, key: &str, spec: &[i32]) {
        let entry = self.entries.entry(key.to_owned()).or_default();
        entry.spec.extend(spec.iter().copied());
    }

    /// Records an observed return value.
    ///
    /// # Panics
    ///
    /// Panics if the key was never declared (harness bug).
    pub fn record(&mut self, key: &str, value: i32) {
        let entry = self
            .entries
            .get_mut(key)
            .unwrap_or_else(|| panic!("coverage key `{key}` not declared"));
        entry.observations += 1;
        if entry.spec.contains(&value) {
            entry.seen.insert(value);
        } else {
            entry.unspecified += 1;
        }
    }

    /// Coverage of one key in percent (0 when nothing is specified).
    ///
    /// # Panics
    ///
    /// Panics if the key was never declared.
    pub fn percent(&self, key: &str) -> f64 {
        let entry = self
            .entries
            .get(key)
            .unwrap_or_else(|| panic!("coverage key `{key}` not declared"));
        if entry.spec.is_empty() {
            return 0.0;
        }
        100.0 * entry.seen.len() as f64 / entry.spec.len() as f64
    }

    /// Coverage of one key in percent; `None` if the key was never
    /// declared. The non-panicking form of [`ReturnCoverage::percent`],
    /// for callers merging collectors that may not all declare the same
    /// keys (for example a campaign whose shard list is empty).
    pub fn percent_of(&self, key: &str) -> Option<f64> {
        self.entries.get(key)?;
        Some(self.percent(key))
    }

    /// Number of observations outside the specification for a key.
    pub fn unspecified(&self, key: &str) -> u64 {
        self.entries.get(key).map_or(0, |e| e.unspecified)
    }

    /// Number of observations recorded for a key.
    pub fn observations(&self, key: &str) -> u64 {
        self.entries.get(key).map_or(0, |e| e.observations)
    }

    /// Folds another collector into this one: specifications are unioned,
    /// observed values are unioned, unspecified/observation counts are
    /// summed. Campaign runners use this to reduce per-shard coverage into
    /// one campaign-wide C.(%) table.
    pub fn merge(&mut self, other: &ReturnCoverage) {
        for (key, theirs) in &other.entries {
            let entry = self.entries.entry(key.clone()).or_default();
            entry.spec.extend(theirs.spec.iter().copied());
            entry.seen.extend(theirs.seen.iter().copied());
            entry.unspecified += theirs.unspecified;
            entry.observations += theirs.observations;
        }
    }

    /// Mean coverage over all declared keys, in percent.
    pub fn overall_percent(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.entries.keys().map(|k| self.percent(k)).sum();
        sum / self.entries.len() as f64
    }

    /// Iterates over declared keys.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }
}

impl fmt::Display for ReturnCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (key, entry) in &self.entries {
            writeln!(
                f,
                "{key}: {}/{} specified values seen ({:.1}%), {} unspecified",
                entry.seen.len(),
                entry.spec.len(),
                self.percent(key),
                entry.unspecified
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The specified values of `key` in `0..10` not yet seen, read through
    /// the public API: recording a value raises the percentage exactly
    /// when it is specified and unseen.
    fn missing(cov: &ReturnCoverage, key: &str) -> Vec<i32> {
        (0..10)
            .filter(|&value| {
                let mut probe = cov.clone();
                probe.record(key, value);
                probe.percent(key) > cov.percent(key)
            })
            .collect()
    }

    #[test]
    fn percent_counts_distinct_specified_values() {
        let mut cov = ReturnCoverage::new();
        cov.declare("op", &[1, 2, 3, 4]);
        cov.record("op", 1);
        cov.record("op", 1);
        cov.record("op", 2);
        assert!((cov.percent("op") - 50.0).abs() < f64::EPSILON);
        assert_eq!(cov.observations("op"), 3);
        assert_eq!(missing(&cov, "op"), vec![3, 4]);
    }

    #[test]
    fn unspecified_values_do_not_count() {
        let mut cov = ReturnCoverage::new();
        cov.declare("op", &[1]);
        cov.record("op", 9);
        assert_eq!(cov.percent("op"), 0.0);
        assert_eq!(cov.unspecified("op"), 1);
    }

    #[test]
    fn overall_is_mean_over_keys() {
        let mut cov = ReturnCoverage::new();
        cov.declare("a", &[1, 2]);
        cov.declare("b", &[1]);
        cov.record("a", 1);
        cov.record("b", 1);
        assert!((cov.overall_percent() - 75.0).abs() < f64::EPSILON);
        assert_eq!(cov.keys().count(), 2);
    }

    #[test]
    fn merge_unions_seen_and_sums_counts() {
        let mut a = ReturnCoverage::new();
        a.declare("op", &[1, 2, 3, 4]);
        a.record("op", 1);
        a.record("op", 9);
        let mut b = ReturnCoverage::new();
        b.declare("op", &[1, 2, 3, 4]);
        b.declare("other", &[7]);
        b.record("op", 2);
        b.record("op", 1);
        b.record("other", 7);
        a.merge(&b);
        assert!((a.percent("op") - 50.0).abs() < f64::EPSILON);
        assert_eq!(a.observations("op"), 4);
        assert_eq!(a.unspecified("op"), 1);
        assert!((a.percent("other") - 100.0).abs() < f64::EPSILON);
        assert_eq!(missing(&a, "op"), vec![3, 4]);
    }

    #[test]
    fn merge_with_empty_collector_is_identity_both_ways() {
        let mut a = ReturnCoverage::new();
        a.declare("op", &[1, 2]);
        a.record("op", 1);
        a.merge(&ReturnCoverage::new());
        assert!((a.percent("op") - 50.0).abs() < f64::EPSILON);
        assert_eq!(a.observations("op"), 1);

        let mut empty = ReturnCoverage::new();
        empty.merge(&a);
        assert!((empty.percent("op") - 50.0).abs() < f64::EPSILON);
        assert_eq!(empty.observations("op"), 1);
        assert_eq!(empty.keys().count(), 1);
    }

    #[test]
    fn merge_with_disjoint_keys_keeps_both_sides_intact() {
        let mut a = ReturnCoverage::new();
        a.declare("read", &[1, 3]);
        a.record("read", 1);
        let mut b = ReturnCoverage::new();
        b.declare("write", &[1, 2, 4, 5]);
        b.record("write", 2);
        b.record("write", 4);
        a.merge(&b);
        assert_eq!(a.keys().count(), 2);
        assert!((a.percent("read") - 50.0).abs() < f64::EPSILON);
        assert!((a.percent("write") - 50.0).abs() < f64::EPSILON);
        assert_eq!(missing(&a, "read"), vec![3]);
        assert_eq!(missing(&a, "write"), vec![1, 5]);
        // `b` was only borrowed: its own state is untouched.
        assert_eq!(b.keys().count(), 1);
        assert_eq!(b.observations("write"), 2);
    }

    #[test]
    fn merge_extends_a_declared_but_unobserved_key() {
        // A shard that declared coverage but completed zero cases must not
        // erase another shard's observations — and vice versa.
        let mut a = ReturnCoverage::new();
        a.declare("op", &[1, 2]);
        let mut b = ReturnCoverage::new();
        b.declare("op", &[1, 2, 3]);
        b.record("op", 3);
        a.merge(&b);
        assert_eq!(missing(&a, "op"), vec![1, 2]);
        assert!((a.percent("op") - (100.0 / 3.0)).abs() < 1e-9);
        assert_eq!(a.unspecified("op"), 0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn recording_unknown_key_panics() {
        ReturnCoverage::new().record("nope", 1);
    }

    #[test]
    fn display_summarises() {
        let mut cov = ReturnCoverage::new();
        cov.declare("read", &[1, 3]);
        cov.record("read", 3);
        let text = cov.to_string();
        assert!(text.contains("read"));
        assert!(text.contains("50.0%"));
    }
}
