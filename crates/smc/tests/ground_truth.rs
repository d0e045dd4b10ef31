//! Ground-truth cross-checks: the statistical estimate against rates that
//! are *exactly* computable.
//!
//! Two oracles:
//! * the planted-rate workload, whose success probability is
//!   `1 - fail_per_mille / 1000` by construction, and
//! * the pooled faults workload, small enough to run every plan in the
//!   pool exhaustively through the detection-matrix path.

use sctc_campaign::FlowKind;
use sctc_smc::{pool_exhaustive, run_smc_campaign, SmcMethod, SmcQuery, SmcSpec, SmcVerdict};

/// The pooled spec shared by the exhaustive and sampled runs: the
/// torn-write mutant under fully-faulted 12-case sessions, 16 plans in
/// the pool. At these parameters 4 of the 16 plans land a power cut in
/// the torn window, so the exact rate is 0.75 — mixed enough to make the
/// oracle interesting.
fn pooled_spec() -> SmcSpec {
    SmcSpec::faults(FlowKind::Derived, 12, 20080310)
        .with_program(faults::EswProgram::TornWrite)
        .with_fault_percent(100)
        .with_pool(16)
}

#[test]
fn exhaustive_pool_rate_is_deterministic_and_mixed() {
    let truth = pool_exhaustive(&pooled_spec());
    assert_eq!(
        truth,
        pool_exhaustive(&pooled_spec()),
        "oracle must be pure"
    );
    assert_eq!(truth.len(), 16);
    let successes = truth.iter().filter(|&&b| b).count();
    assert!(
        successes > 0 && successes < 16,
        "pool must mix outcomes to be an interesting oracle: {successes}/16"
    );
}

#[test]
fn sampled_estimate_brackets_the_exhaustive_rate() {
    let spec = pooled_spec()
        .with_method(SmcMethod::FixedChernoff)
        .with_max_samples(150)
        .with_jobs(2);
    let truth = pool_exhaustive(&spec);
    let exact = truth.iter().filter(|&&b| b).count() as f64 / truth.len() as f64;
    let report = run_smc_campaign(&spec);
    assert_eq!(report.samples, 150);
    let (lo, hi) = report.confidence_interval();
    assert!(
        lo <= exact && exact <= hi,
        "exact rate {exact} outside CI [{lo}, {hi}] (p_hat {})",
        report.p_hat()
    );
    assert!(
        (report.p_hat() - exact).abs() < 0.15,
        "estimate {} strays from exact {exact}",
        report.p_hat()
    );
}

#[test]
fn sprt_verdict_agrees_with_the_exhaustive_rate() {
    let base = pooled_spec();
    let truth = pool_exhaustive(&base);
    let exact = truth.iter().filter(|&&b| b).count() as f64 / truth.len() as f64;

    // Query clearly below the exact rate: the property must hold.
    let below = (exact - 0.2).clamp(0.1, 0.9);
    let holds = run_smc_campaign(
        &base
            .with_query(SmcQuery::new(below, 0.05))
            .with_max_samples(400)
            .with_jobs(2),
    );
    assert_eq!(
        holds.verdict,
        SmcVerdict::Holds,
        "theta {below} vs exact {exact}"
    );

    // Query clearly above it: the property must fail.
    let above = (exact + 0.2).clamp(0.1, 0.9);
    let fails = run_smc_campaign(
        &base
            .with_query(SmcQuery::new(above, 0.05))
            .with_max_samples(400)
            .with_jobs(2),
    );
    assert_eq!(
        fails.verdict,
        SmcVerdict::Fails,
        "theta {above} vs exact {exact}"
    );
}

#[test]
fn planted_rate_campaign_estimates_the_planted_probability() {
    // 30% planted failures, fixed-sample estimation: p_hat must land near
    // the constructed p = 0.7 and the per-class breakdown must show the
    // power cut on every sample (both ESW variants run the same script).
    let spec = SmcSpec::planted_torn(FlowKind::Derived, 300, 99)
        .with_method(SmcMethod::FixedChernoff)
        .with_query(SmcQuery::new(0.7, 0.1))
        .with_max_samples(120)
        .with_jobs(2);
    let report = run_smc_campaign(&spec);
    assert!(
        (report.p_hat() - 0.7).abs() < 0.1,
        "p_hat {} strays from planted 0.7",
        report.p_hat()
    );
    let cuts = report
        .matrix
        .records
        .iter()
        .filter(|r| r.class == "power-loss" && r.fired)
        .count() as u64;
    assert_eq!(cuts, report.samples, "every sample runs the scripted cut");
}
