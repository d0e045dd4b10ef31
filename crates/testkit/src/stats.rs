//! Statistics helpers for testing hypothesis-testing code.
//!
//! The statistical-model-checking crate implements estimators (SPRT,
//! Chernoff fixed-sample) whose *error probabilities* are the contract
//! under test. Proving such a contract needs a Bernoulli source with a
//! **known** success probability — exactly what a seeded [`Bernoulli`]
//! stream provides: feed the estimator synthetic outcomes of known `p`
//! across a seed sweep and count how often it decides wrongly.

use crate::rng::Rng;

/// A seeded Bernoulli stream with known success probability.
///
/// Deterministic in `(seed, p)`: the same stream on every platform, so
/// decision counts over a fixed seed sweep are exact regression values,
/// not flaky statistics.
///
/// # Examples
///
/// ```
/// use testkit::Bernoulli;
///
/// let outcomes: Vec<bool> = Bernoulli::new(7, 0.25).take(1000).collect();
/// let successes = outcomes.iter().filter(|&&b| b).count();
/// assert!((200..300).contains(&successes), "{successes}");
/// ```
#[derive(Clone, Debug)]
pub struct Bernoulli {
    rng: Rng,
    p: f64,
}

impl Bernoulli {
    /// Creates a stream producing `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn new(seed: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Bernoulli {
            rng: Rng::new(seed),
            p,
        }
    }

    /// Draws the next outcome.
    pub fn draw(&mut self) -> bool {
        self.rng.bernoulli(self.p)
    }
}

impl Iterator for Bernoulli {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        Some(self.draw())
    }
}

/// A seeded `bernoulli(p)` stream — shorthand for [`Bernoulli::new`]
/// (seeded with [`crate::DEFAULT_SEED`]) when the caller only varies `p`.
pub fn bernoulli(p: f64) -> Bernoulli {
    Bernoulli::new(crate::DEFAULT_SEED, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_in_seed_and_p() {
        let a: Vec<bool> = Bernoulli::new(42, 0.3).take(200).collect();
        let b: Vec<bool> = Bernoulli::new(42, 0.3).take(200).collect();
        assert_eq!(a, b);
        let c: Vec<bool> = Bernoulli::new(43, 0.3).take(200).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn extremes_are_exact() {
        assert!(Bernoulli::new(1, 1.0).take(500).all(|b| b));
        assert!(!Bernoulli::new(1, 0.0).take(500).any(|b| b));
    }

    #[test]
    fn empirical_rate_tracks_p() {
        for (seed, p) in [(1u64, 0.1), (2, 0.5), (3, 0.9)] {
            let n = 20_000;
            let hits = Bernoulli::new(seed, p).take(n).filter(|&b| b).count();
            let rate = hits as f64 / n as f64;
            assert!((rate - p).abs() < 0.02, "p={p} rate={rate}");
        }
    }

    #[test]
    fn stream_position_is_independent_of_p() {
        // Both streams consume one draw per outcome, so a stream used for
        // auxiliary draws after k outcomes stays aligned regardless of p.
        let mut a = Bernoulli::new(9, 0.2);
        let mut b = Bernoulli::new(9, 0.8);
        for _ in 0..100 {
            a.draw();
            b.draw();
        }
        assert_eq!(a.rng.next_u64(), b.rng.next_u64());
    }
}
