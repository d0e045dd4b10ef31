//! The early-stopping determinism contract: verdict, accepted-sample
//! count and report fingerprint are bit-identical for any `--jobs`, even
//! when the sequential test stops mid-plan and the raced tail of the
//! worker pool completes speculative samples.

use sctc_campaign::FlowKind;
use sctc_smc::{run_smc_campaign, SmcMethod, SmcQuery, SmcSpec, SmcVerdict};
use testkit::Checker;

#[test]
fn planted_campaign_is_jobs_independent_with_early_stopping() {
    // 10% planted failures against theta = 0.95: the SPRT stops deep
    // inside the sample plan, so jobs = 8 races plenty of speculative
    // samples past the decision point — none may leak into the report.
    let spec = SmcSpec::planted_torn(FlowKind::Derived, 100, 42);
    let solo = run_smc_campaign(&spec.with_jobs(1));
    let pool = run_smc_campaign(&spec.with_jobs(8));
    assert_eq!(solo.verdict, SmcVerdict::Fails);
    assert_eq!(solo.verdict, pool.verdict);
    assert_eq!(solo.samples, pool.samples);
    assert_eq!(solo.successes, pool.successes);
    assert_eq!(solo.fingerprint(), pool.fingerprint());
    assert_eq!(solo.canonical(), pool.canonical());
    assert!(
        solo.samples < solo.chernoff_bound,
        "SPRT must stop early for the race to matter: {} vs {}",
        solo.samples,
        solo.chernoff_bound
    );
    // The raced tail is real work, just not reported work.
    assert_eq!(solo.discarded, 0);
    assert!(pool.issued >= pool.samples);

    // The same 10% plant probed from the other side: against theta = 0.8
    // the SPRT must accept, again well inside the Chernoff budget.
    let spec = spec.with_query(SmcQuery::new(0.8, 0.05));
    let solo = run_smc_campaign(&spec.with_jobs(1));
    let pool = run_smc_campaign(&spec.with_jobs(8));
    assert_eq!(solo.verdict, SmcVerdict::Holds);
    assert!(
        solo.samples < solo.chernoff_bound,
        "SPRT must accept before the fixed budget: {} vs {}",
        solo.samples,
        solo.chernoff_bound
    );
    assert_eq!(solo.fingerprint(), pool.fingerprint());
}

#[test]
fn faults_campaign_is_jobs_independent() {
    let spec = SmcSpec::faults(FlowKind::Derived, 4, 7)
        .with_query(SmcQuery::new(0.8, 0.1))
        .with_max_samples(40);
    let solo = run_smc_campaign(&spec.with_jobs(1));
    let pool = run_smc_campaign(&spec.with_jobs(8));
    assert_eq!(solo.verdict, pool.verdict);
    assert_eq!(solo.fingerprint(), pool.fingerprint());
}

#[test]
fn fixed_chernoff_campaign_is_jobs_independent() {
    // No early stopping here — the fixed-sample path must agree too.
    let spec = SmcSpec::planted_torn(FlowKind::Derived, 300, 5)
        .with_method(SmcMethod::FixedChernoff)
        .with_max_samples(60);
    let solo = run_smc_campaign(&spec.with_jobs(1));
    let pool = run_smc_campaign(&spec.with_jobs(6));
    assert_eq!(solo.verdict, pool.verdict);
    assert_eq!(solo.samples, 60);
    assert_eq!(pool.samples, 60);
    assert_eq!(solo.discarded, 0);
    assert_eq!(pool.discarded, 0);
    assert_eq!(solo.fingerprint(), pool.fingerprint());
}

#[test]
fn early_stop_determinism_holds_across_random_specs() {
    // The property, with shrinking: for any (seed, planted rate, query)
    // the decision point is a pure function of the canonical outcome
    // sequence. Rates near the threshold make the SPRT meander — the
    // interesting region for ordering bugs — and the per-mille knob
    // controls where the stop lands inside the plan.
    Checker::new("smc_early_stop_jobs_independence")
        .cases(6)
        .run(
            |src| {
                let seed = src.u64_in(0, u64::MAX / 2);
                let fail_per_mille = src.u32_in(0, 400);
                let theta_pct = src.u32_in(60, 90);
                let jobs = src.usize_in(2, 8);
                (seed, fail_per_mille, theta_pct, jobs)
            },
            |&(seed, fail_per_mille, theta_pct, jobs)| {
                let query = SmcQuery::new(f64::from(theta_pct) / 100.0, 0.05);
                let spec = SmcSpec::planted_torn(FlowKind::Derived, fail_per_mille, seed)
                    .with_query(query)
                    .with_max_samples(120);
                let solo = run_smc_campaign(&spec.with_jobs(1));
                let pool = run_smc_campaign(&spec.with_jobs(jobs));
                assert_eq!(solo.verdict, pool.verdict, "verdict raced");
                assert_eq!(solo.samples, pool.samples, "decision point raced");
                assert_eq!(
                    solo.fingerprint(),
                    pool.fingerprint(),
                    "report fingerprint raced"
                );
            },
        );
}
