//! A dependency-free wall-clock micro-benchmark harness.
//!
//! The offline substitute for Criterion: warm up, run a fixed number of
//! samples, report min / mean / max. No statistics beyond that — the workspace's
//! bench targets compare *shapes and orders of magnitude*, which min/mean
//! already expose, and the harness must build with no registry access.

use std::time::{Duration, Instant};

/// Timing summary of one benchmark.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark label.
    pub name: String,
    /// Samples taken.
    pub samples: u32,
    /// Fastest sample.
    pub min: Duration,
    /// Mean over all samples.
    pub mean: Duration,
    /// Slowest sample.
    pub max: Duration,
}

impl std::fmt::Display for Sample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} {:>12?} min {:>12?} mean {:>12?} max ({} samples)",
            self.name, self.min, self.mean, self.max, self.samples
        )
    }
}

/// A group of benchmarks printed as one table, mirroring the
/// `criterion_group!` layout the benches previously used.
#[derive(Debug, Default)]
pub struct Bench {
    results: Vec<Sample>,
}

impl Bench {
    /// An empty benchmark group.
    pub fn new(title: &str) -> Self {
        println!("== {title}");
        Bench::default()
    }

    /// Times `f` (one warm-up call, then `samples` measured calls) and
    /// prints the row immediately.
    pub fn run<R>(&mut self, name: &str, samples: u32, mut f: impl FnMut() -> R) -> &Sample {
        assert!(samples > 0, "need at least one sample");
        let _warmup = f();
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        let mut total = Duration::ZERO;
        for _ in 0..samples {
            let t0 = Instant::now();
            let r = f();
            let dt = t0.elapsed();
            std::hint::black_box(&r);
            min = min.min(dt);
            max = max.max(dt);
            total += dt;
        }
        let sample = Sample {
            name: name.to_owned(),
            samples,
            min,
            mean: total / samples,
            max,
        };
        println!("   {sample}");
        self.results.push(sample);
        self.results.last().expect("just pushed")
    }

    /// All rows measured so far.
    pub fn results(&self) -> &[Sample] {
        &self.results
    }
}

/// Number of samples per bench, scaled by `TESTKIT_CASES` the same way the
/// property suites scale: quick by default, deeper when asked.
pub fn samples(default: u32) -> u32 {
    std::env::var("TESTKIT_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|v| (v / 10).clamp(1, 10_000) as u32)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_plausible_times() {
        let mut b = Bench::new("timing-selftest");
        let s = b.run("spin", 3, || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.min <= s.mean && s.mean <= s.max);
        assert_eq!(b.results().len(), 1);
    }
}
