//! Fault campaigns must be a pure function of `(flow, cases, chunk, seed,
//! percent)`: the worker count changes wall-clock only, never a record,
//! a verdict, or the matrix fingerprint.

use faults::{run_fault_campaign, FaultCampaignSpec};
use sctc_temporal::Verdict;
use testkit::Checker;

#[test]
fn derived_fault_campaign_is_jobs_independent() {
    let spec = FaultCampaignSpec::derived(120, 20080310)
        .with_chunk(10)
        .with_fault_percent(40);
    let serial = run_fault_campaign(&spec.clone().with_jobs(1));
    let parallel = run_fault_campaign(&spec.with_jobs(6));
    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 6);
    assert_eq!(serial.matrix.canonical(), parallel.matrix.canonical());
    assert_eq!(serial.matrix.fingerprint(), parallel.matrix.fingerprint());
    assert!(
        !serial.matrix.records.is_empty(),
        "a 40% fault campaign must schedule faults"
    );
    assert!(
        serial.matrix.test_cases >= 120,
        "recovery cases come on top"
    );
}

#[test]
fn micro_fault_campaign_is_jobs_independent() {
    let spec = FaultCampaignSpec::micro(8, 7)
        .with_chunk(3)
        .with_fault_percent(60);
    let serial = run_fault_campaign(&spec.clone().with_jobs(1));
    let parallel = run_fault_campaign(&spec.clone().with_jobs(2));
    assert_eq!(serial.matrix.canonical(), parallel.matrix.canonical());
    assert_eq!(serial.matrix.fingerprint(), parallel.matrix.fingerprint());
    // The naive reference engine must grade the micro flow's faults alike.
    let naive = run_fault_campaign(&spec.with_engine(sctc_core::EngineKind::Naive).with_jobs(2));
    assert_eq!(serial.matrix.canonical(), naive.matrix.canonical());
    assert_eq!(serial.matrix.fingerprint(), naive.matrix.fingerprint());
}

#[test]
fn prop_fault_matrix_is_pure_in_plan_seed_and_chunk() {
    Checker::new("fault_campaign_jobs_independence")
        .cases(5)
        .run(
            |src| {
                (
                    src.u64_in(8, 32),
                    src.u64_in(3, 12),
                    src.u64_in(0, u64::MAX),
                    src.u64_in(2, 6),
                    src.u64_in(20, 70),
                )
            },
            |&(cases, chunk, seed, jobs, percent)| {
                let spec = FaultCampaignSpec::derived(cases, seed)
                    .with_chunk(chunk)
                    .with_fault_percent(percent as u32);
                let serial = run_fault_campaign(&spec.clone().with_jobs(1));
                let parallel = run_fault_campaign(&spec.with_jobs(jobs as usize));
                assert_eq!(serial.matrix.canonical(), parallel.matrix.canonical());
                assert_eq!(serial.matrix.fingerprint(), parallel.matrix.fingerprint());
            },
        );
}

#[test]
fn healthy_esw_never_serves_a_torn_write_under_the_fault_campaign() {
    let report = run_fault_campaign(
        &FaultCampaignSpec::derived(200, 11)
            .with_chunk(25)
            .with_jobs(4),
    );
    // `G intact` can never finitely validate, but it must not be violated:
    // the healthy torn-write discipline never serves the erased marker.
    assert_ne!(report.matrix.verdict_of("intact"), Some(Verdict::False));
    // Every fired power loss went through the full recovery protocol.
    for r in report
        .matrix
        .records
        .iter()
        .filter(|r| r.class == "power-loss" && r.fired)
    {
        assert!(r.recovered.is_some(), "unfinalised recovery: {r:?}");
        assert!(r.recovery_ops >= 2, "recovery ran startup: {r:?}");
    }
}

#[test]
fn both_engines_detect_the_same_faults() {
    // The matrix fingerprint hashes every fault consequence and verdict;
    // it must not depend on the monitoring engine, only the work counters
    // (outside the fingerprint) may differ.
    let spec = FaultCampaignSpec::derived(60, 20080310)
        .with_chunk(10)
        .with_fault_percent(40)
        .with_jobs(4);
    let driven = run_fault_campaign(&spec);
    let naive = run_fault_campaign(
        &spec
            .clone()
            .with_engine(sctc_core::EngineKind::Naive)
            .with_jobs(1),
    );
    assert_eq!(driven.matrix.canonical(), naive.matrix.canonical());
    assert_eq!(driven.matrix.fingerprint(), naive.matrix.fingerprint());
    assert_eq!(
        naive.matrix.monitoring.atoms_evaluated,
        naive.matrix.monitoring.atoms_total
    );
    assert!(
        driven.matrix.monitoring.atoms_evaluated < driven.matrix.monitoring.atoms_total,
        "change-driven sampling must skip clean atoms: {:?}",
        driven.matrix.monitoring
    );
}

#[test]
fn both_engines_grade_the_torn_write_scenario_alike() {
    // The scripted power cut under the torn mutant is the sharpest
    // engine-coverage probe: `G intact` must flip to `False` at the same
    // point regardless of engine, and the healthy ESW must stay clean.
    use faults::scenario::{run_scenario_observed, ScenarioObs};
    use faults::EswProgram;
    use sctc_campaign::FlowKind;
    use sctc_core::EngineKind;

    for engine in [EngineKind::Compiled, EngineKind::Naive] {
        let obs = ScenarioObs {
            engine,
            ..ScenarioObs::default()
        };
        let (torn, _) = run_scenario_observed(FlowKind::Derived, EswProgram::TornWrite, 5_000, obs);
        assert_eq!(
            torn.verdict_of("intact"),
            Verdict::False,
            "{engine:?} must catch the torn write"
        );
        let (healthy, _) =
            run_scenario_observed(FlowKind::Derived, EswProgram::Healthy, 5_000, obs);
        assert_ne!(
            healthy.verdict_of("intact"),
            Verdict::False,
            "{engine:?} must not flag the healthy ESW"
        );
    }
}
