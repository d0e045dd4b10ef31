//! The statistics oracle: SPRT and Chernoff estimation exercised on
//! synthetic Bernoulli streams of *known* rate, so every probabilistic
//! guarantee is checked against ground truth.
//!
//! The streams come from `testkit::Bernoulli` (seeded SplitMix64), which
//! makes every assertion deterministic: the seed sweep is a fixed family
//! of streams, not a flaky re-roll.

use sctc_smc::{chernoff_sample_bound, hoeffding_interval, SmcDecision, SmcQuery, Sprt};
use testkit::Bernoulli;

/// Runs one SPRT over a seeded stream until it decides or `cap` outcomes
/// are spent.
fn decide(query: SmcQuery, seed: u64, p: f64, cap: u64) -> (Option<SmcDecision>, u64) {
    let mut sprt = Sprt::new(query);
    let mut stream = Bernoulli::new(seed, p);
    for _ in 0..cap {
        if let Some(decision) = sprt.observe(stream.draw()) {
            return (Some(decision), sprt.samples());
        }
    }
    (None, sprt.samples())
}

#[test]
fn sprt_false_fails_rate_stays_within_alpha_across_a_seed_sweep() {
    // True rate 0.9 sits above p1 = theta + delta = 0.85: answering
    // `Fails` is a type-I error, bounded by alpha = 0.05. 200 seeded
    // streams give a deterministic error count to hold the budget to.
    let query = SmcQuery::with_errors(0.8, 0.05, 0.05, 0.05);
    let cap = chernoff_sample_bound(query.delta, query.alpha);
    let trials = 200;
    let mut wrong = 0;
    let mut undecided = 0;
    for seed in 0..trials {
        match decide(query, seed, 0.9, cap).0 {
            Some(SmcDecision::Fails) => wrong += 1,
            Some(SmcDecision::Holds) => {}
            None => undecided += 1,
        }
    }
    // Budget alpha * trials = 10, with headroom for Wald's approximation.
    assert!(wrong <= 14, "{wrong}/{trials} false `Fails` answers");
    assert_eq!(undecided, 0, "a rate this clear must always decide");
}

#[test]
fn sprt_false_holds_rate_stays_within_beta_across_a_seed_sweep() {
    let query = SmcQuery::with_errors(0.8, 0.05, 0.05, 0.05);
    let cap = chernoff_sample_bound(query.delta, query.alpha);
    let trials = 200;
    let mut wrong = 0;
    for seed in 0..trials {
        if decide(query, seed, 0.7, cap).0 == Some(SmcDecision::Holds) {
            wrong += 1;
        }
    }
    assert!(wrong <= 14, "{wrong}/{trials} false `Holds` answers");
}

#[test]
fn sprt_decides_clear_rates_far_below_the_chernoff_budget() {
    // The whole point of the sequential test: a rate well away from the
    // indifference region needs a small fraction of the fixed-sample
    // budget. Average over the seed sweep so one lucky stream cannot
    // carry the assertion.
    let query = SmcQuery::with_errors(0.95, 0.025, 0.05, 0.05);
    let bound = chernoff_sample_bound(query.delta, query.alpha);
    let trials = 100;
    let mut spent_total = 0u64;
    let mut wrong = 0u64;
    for seed in 0..trials {
        let (decision, spent) = decide(query, seed, 0.9, bound);
        if decision != Some(SmcDecision::Fails) {
            // 0.9 < p0 = 0.925, so `Holds` here is a type-II error —
            // permitted at rate beta, not forbidden.
            wrong += 1;
        }
        spent_total += spent;
    }
    assert!(
        wrong <= 8,
        "{wrong}/{trials} answers beyond the beta budget"
    );
    let mean = spent_total / trials;
    assert!(
        mean * 10 < bound,
        "mean {mean} samples should undercut the {bound}-sample budget 10x"
    );
}

#[test]
fn sprt_pinned_regressions() {
    // Exact pinned cases: any change to the SPRT arithmetic (steps,
    // thresholds, fold order) shows up as a different decision point on
    // these specific streams.
    let query = SmcQuery::with_errors(0.95, 0.025, 0.05, 0.05);
    assert_eq!(
        decide(query, 42, 0.9, 10_000),
        (Some(SmcDecision::Fails), 62)
    );
    assert_eq!(
        decide(query, 7, 0.99, 10_000),
        (Some(SmcDecision::Holds), 78)
    );
    let tight = SmcQuery::with_errors(0.8, 0.05, 0.01, 0.01);
    assert_eq!(
        decide(tight, 42, 0.5, 10_000),
        (Some(SmcDecision::Fails), 13)
    );
}

#[test]
fn fixed_sample_estimate_lands_within_epsilon_across_a_seed_sweep() {
    // Okamoto's bound promises |p_hat - p| < epsilon with confidence
    // 1 - alpha after N samples. Across 100 seeded streams at N for
    // (0.05, 0.05), a miss budget of alpha would be 5; every one of
    // these fixed streams lands inside.
    let n = chernoff_sample_bound(0.05, 0.05);
    assert_eq!(n, 738);
    let mut misses = 0;
    for seed in 0..100u64 {
        let successes = Bernoulli::new(seed, 0.6)
            .take(n as usize)
            .filter(|&b| b)
            .count() as u64;
        let p_hat = successes as f64 / n as f64;
        if (p_hat - 0.6).abs() >= 0.05 {
            misses += 1;
        }
        let (lo, hi) = hoeffding_interval(successes, n, 0.05);
        assert!(
            lo <= 0.6 + 1e-9 && 0.6 - 1e-9 <= hi,
            "seed {seed}: CI [{lo}, {hi}]"
        );
    }
    assert!(misses <= 5, "{misses}/100 estimates missed by >= epsilon");
}

#[test]
fn indifference_region_rates_may_run_long_but_never_lie_loudly() {
    // At p = theta exactly (inside the indifference region) either answer
    // is acceptable; the test only must not spin forever on a generous
    // cap. Count decisions to document the behaviour.
    let query = SmcQuery::with_errors(0.8, 0.05, 0.05, 0.05);
    let cap = 4 * chernoff_sample_bound(query.delta, query.alpha);
    let mut decided = 0;
    for seed in 0..50u64 {
        if decide(query, seed, 0.8, cap).0.is_some() {
            decided += 1;
        }
    }
    assert!(
        decided >= 40,
        "SPRT terminates w.p. 1; {decided}/50 decided"
    );
}
