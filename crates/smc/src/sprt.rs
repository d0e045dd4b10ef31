//! Wald's sequential probability ratio test and the Okamoto/Chernoff
//! fixed-sample bound, over Bernoulli outcomes.
//!
//! A statistical campaign asks `P(G intact) >= theta?` and answers it from
//! per-sample pass/fail outcomes. Two estimators:
//!
//! * [`Sprt`] — Wald's sequential test of `H_holds: p >= theta + delta`
//!   against `H_fails: p <= theta - delta` with error bounds `alpha`
//!   (false "fails") and `beta` (false "holds"). It consumes outcomes one
//!   at a time and stops the moment the accumulated log-likelihood ratio
//!   crosses a threshold — typically orders of magnitude before the
//!   fixed-sample bound when the true rate sits away from `theta`.
//! * [`chernoff_sample_bound`] — the fixed sample count `N >=
//!   ln(2/alpha) / (2 epsilon^2)` after which the empirical rate is within
//!   `epsilon` of the true rate with confidence `1 - alpha` (Okamoto's
//!   form of the Hoeffding/Chernoff bound). The campaign reports it next
//!   to the samples the SPRT actually spent.

/// The hypothesis-test query: is the per-sample success probability at
/// least `theta`?
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SmcQuery {
    /// Success-probability threshold under test.
    pub theta: f64,
    /// Half-width of the indifference region `(theta - delta, theta +
    /// delta)`; inside it either answer is acceptable.
    pub delta: f64,
    /// Bound on the probability of wrongly answering "fails" when `p >=
    /// theta + delta` (type-I error).
    pub alpha: f64,
    /// Bound on the probability of wrongly answering "holds" when `p <=
    /// theta - delta` (type-II error).
    pub beta: f64,
}

impl SmcQuery {
    /// A query with the campaign default error budget
    /// `alpha = beta = 0.05`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < theta - delta` and `theta + delta < 1`: both
    /// simple hypotheses must be proper probabilities.
    pub fn new(theta: f64, delta: f64) -> Self {
        Self::with_errors(theta, delta, 0.05, 0.05)
    }

    /// A fully parameterised query.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (see [`SmcQuery::new`]) or error
    /// bounds outside `(0, 1)`.
    pub fn with_errors(theta: f64, delta: f64, alpha: f64, beta: f64) -> Self {
        assert!(delta > 0.0, "indifference half-width must be positive");
        assert!(
            theta - delta > 0.0 && theta + delta < 1.0,
            "hypotheses p0={} and p1={} must lie strictly inside (0, 1)",
            theta - delta,
            theta + delta
        );
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        assert!(beta > 0.0 && beta < 1.0, "beta must be in (0, 1)");
        Self {
            theta,
            delta,
            alpha,
            beta,
        }
    }

    /// The simple alternative `p0 = theta - delta` ("fails" hypothesis).
    pub fn p0(&self) -> f64 {
        self.theta - self.delta
    }

    /// The simple null `p1 = theta + delta` ("holds" hypothesis).
    pub fn p1(&self) -> f64 {
        self.theta + self.delta
    }
}

/// Outcome of a decided sequential test.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SmcDecision {
    /// `p >= theta` accepted (the property's success rate clears the
    /// threshold) with type-II error at most `beta`.
    Holds,
    /// `p < theta` accepted with type-I error at most `alpha`.
    Fails,
}

/// Wald's SPRT over a Bernoulli stream, consumed incrementally.
///
/// The accumulated statistic is the log-likelihood ratio of `H_fails`
/// against `H_holds`; per Wald's approximation the test accepts `Fails`
/// once it rises above `ln((1 - beta) / alpha)` and `Holds` once it falls
/// below `ln(beta / (1 - alpha))`.
#[derive(Clone, Debug)]
pub struct Sprt {
    /// Log-likelihood increment of a success (negative: successes favour
    /// `Holds`).
    success_step: f64,
    /// Log-likelihood increment of a failure (positive).
    failure_step: f64,
    upper: f64,
    lower: f64,
    llr: f64,
    samples: u64,
}

impl Sprt {
    /// Starts a fresh test for `query`.
    pub fn new(query: SmcQuery) -> Self {
        let (p0, p1) = (query.p0(), query.p1());
        Sprt {
            success_step: (p0 / p1).ln(),
            failure_step: ((1.0 - p0) / (1.0 - p1)).ln(),
            upper: ((1.0 - query.beta) / query.alpha).ln(),
            lower: (query.beta / (1.0 - query.alpha)).ln(),
            llr: 0.0,
            samples: 0,
        }
    }

    /// Feeds one Bernoulli outcome; returns the decision if this outcome
    /// crossed a threshold. Observing past a decision is allowed (the
    /// statistic keeps accumulating) but campaigns stop at the first
    /// `Some`.
    pub fn observe(&mut self, success: bool) -> Option<SmcDecision> {
        self.samples += 1;
        self.llr += if success {
            self.success_step
        } else {
            self.failure_step
        };
        self.decision()
    }

    /// The current decision, if any threshold has been crossed.
    pub fn decision(&self) -> Option<SmcDecision> {
        if self.llr >= self.upper {
            Some(SmcDecision::Fails)
        } else if self.llr <= self.lower {
            Some(SmcDecision::Holds)
        } else {
            None
        }
    }

    /// Outcomes consumed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Okamoto/Chernoff fixed-sample bound: the smallest `N` with
/// `P(|p_hat - p| >= epsilon) <= alpha` for every `p`, i.e.
/// `N = ceil(ln(2 / alpha) / (2 epsilon^2))`.
///
/// # Panics
///
/// Panics unless `epsilon` and `alpha` are in `(0, 1)`.
pub fn chernoff_sample_bound(epsilon: f64, alpha: f64) -> u64 {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    ((2.0 / alpha).ln() / (2.0 * epsilon * epsilon)).ceil() as u64
}

/// Two-sided Hoeffding confidence interval at level `1 - alpha` around the
/// empirical rate `successes / samples`, clamped to `[0, 1]`.
///
/// # Panics
///
/// Panics if `samples == 0` or `successes > samples`.
pub fn hoeffding_interval(successes: u64, samples: u64, alpha: f64) -> (f64, f64) {
    assert!(samples > 0, "interval needs at least one sample");
    assert!(successes <= samples, "successes cannot exceed samples");
    let p_hat = successes as f64 / samples as f64;
    let half = ((2.0 / alpha).ln() / (2.0 * samples as f64)).sqrt();
    ((p_hat - half).max(0.0), (p_hat + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sprt_accepts_holds_on_an_all_success_stream() {
        let mut sprt = Sprt::new(SmcQuery::new(0.8, 0.05));
        let mut decision = None;
        for _ in 0..10_000 {
            decision = sprt.observe(true);
            if decision.is_some() {
                break;
            }
        }
        assert_eq!(decision, Some(SmcDecision::Holds));
        assert!(
            sprt.samples() < 200,
            "all-success stream must decide quickly, took {}",
            sprt.samples()
        );
    }

    #[test]
    fn sprt_accepts_fails_on_an_all_failure_stream() {
        let mut sprt = Sprt::new(SmcQuery::new(0.8, 0.05));
        let mut decision = None;
        for _ in 0..10_000 {
            decision = sprt.observe(false);
            if decision.is_some() {
                break;
            }
        }
        assert_eq!(decision, Some(SmcDecision::Fails));
        assert!(sprt.samples() < 10, "failures are strong evidence here");
    }

    #[test]
    fn thresholds_follow_walds_approximation() {
        let sprt = Sprt::new(SmcQuery::with_errors(0.9, 0.05, 0.05, 0.05));
        assert!((sprt.upper - (0.95f64 / 0.05).ln()).abs() < 1e-12);
        assert!((sprt.lower - (0.05f64 / 0.95).ln()).abs() < 1e-12);
        assert!(sprt.success_step < 0.0 && sprt.failure_step > 0.0);
    }

    #[test]
    fn chernoff_bound_matches_the_closed_form() {
        // ln(2/0.05) / (2 * 0.025^2) = 3.68887945.../0.00125 = 2951.1...
        assert_eq!(chernoff_sample_bound(0.025, 0.05), 2952);
        // Tighter epsilon costs quadratically more samples.
        assert!(chernoff_sample_bound(0.01, 0.05) > 4 * chernoff_sample_bound(0.025, 0.05));
    }

    #[test]
    fn hoeffding_interval_contains_the_point_estimate_and_clamps() {
        let (lo, hi) = hoeffding_interval(90, 100, 0.05);
        assert!(lo < 0.9 && 0.9 < hi);
        let (lo, hi) = hoeffding_interval(100, 100, 0.05);
        assert!(lo < 1.0);
        assert_eq!(hi, 1.0);
        let (lo, _) = hoeffding_interval(0, 100, 0.05);
        assert_eq!(lo, 0.0);
    }

    #[test]
    #[should_panic(expected = "inside (0, 1)")]
    fn degenerate_queries_are_rejected() {
        let _ = SmcQuery::new(0.99, 0.05);
    }
}
