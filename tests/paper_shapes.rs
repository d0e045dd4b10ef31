//! Shape assertions for the paper's evaluation (Section 4): who finishes,
//! who aborts, what trends hold — at laptop scale.

use esw_verify::case_study::{run_derived_single, ExperimentConfig, Op};
use esw_verify::cpu::IsaKind;
use esw_verify::sctc::EngineKind;
use sctc_bench::{fig7, spec_for, synthesis_stats_for_bound, Scale};

fn tiny_scale() -> Scale {
    Scale {
        micro_cases: 3,
        derived_cases: 30,
        checker_budget: std::time::Duration::from_secs(5),
        seed: 1,
        jobs: 1,
    }
}

#[test]
fn fig7_shape_blast_aborts_cbmc_unwinds() {
    for row in fig7(tiny_scale()) {
        assert_eq!(
            row.blast_result, "Exception",
            "{}: the BLAST baseline must abort on the EEE software",
            row.op
        );
        assert!(
            row.cbmc_result.contains("unwind") || row.cbmc_result.contains("resource"),
            "{}: the CBMC baseline must exhaust resources, got `{}`",
            row.op,
            row.cbmc_result
        );
    }
}

#[test]
fn fig8_shape_no_violations_and_coverage() {
    // One representative derived-model run per Fig. 8 column (TB-1000,
    // TB-10000, No-TB); no property may be violated ("no false positives
    // or false negatives") and the testbench must reach meaningful
    // coverage.
    for op in [Op::Read, Op::Refresh] {
        for bound in [Some(1000u64), Some(10_000), None] {
            let outcome = run_derived_single(
                op,
                ExperimentConfig {
                    seed: 5,
                    cases: 60,
                    bound,
                    fault_percent: 10,
                    engine: EngineKind::Compiled,
                    isa: IsaKind::Word32,
                    max_ticks: u64::MAX / 2,
                    profile: false,
                },
            );
            assert!(outcome.violations.is_empty(), "{op} bound {bound:?}");
            assert!(outcome.anomalies.is_empty(), "{op} bound {bound:?}");
            assert_eq!(outcome.report.test_cases, 60);
        }
    }
    let outcome = run_derived_single(
        Op::Read,
        ExperimentConfig {
            seed: 5,
            cases: 60,
            bound: Some(1000),
            fault_percent: 10,
            engine: EngineKind::Compiled,
            isa: IsaKind::Word32,
            max_ticks: u64::MAX / 2,
            profile: false,
        },
    );
    assert!(
        outcome.coverage_of(Op::Read) >= 50.0,
        "coverage {:.1}",
        outcome.coverage_of(Op::Read)
    );
}

#[test]
fn coverage_grows_with_test_cases() {
    // Section 4.3: configurations running more test cases achieve better
    // coverage (the paper's no-TB columns).
    let few = run_derived_single(
        Op::Write,
        ExperimentConfig {
            seed: 11,
            cases: 4,
            bound: Some(1000),
            fault_percent: 10,
            engine: EngineKind::Compiled,
            isa: IsaKind::Word32,
            max_ticks: u64::MAX / 2,
            profile: false,
        },
    );
    let many = run_derived_single(
        Op::Write,
        ExperimentConfig {
            seed: 11,
            cases: 250,
            bound: Some(1000),
            fault_percent: 10,
            engine: EngineKind::Compiled,
            isa: IsaKind::Word32,
            max_ticks: u64::MAX / 2,
            profile: false,
        },
    );
    assert!(
        many.coverage_of(Op::Write) > few.coverage_of(Op::Write),
        "coverage must grow: {} vs {}",
        few.coverage_of(Op::Write),
        many.coverage_of(Op::Write)
    );
    assert!(
        (many.coverage_of(Op::Write) - 100.0).abs() < f64::EPSILON,
        "250 cases must cover all Write return codes, got {:.1}",
        many.coverage_of(Op::Write)
    );
}

#[test]
fn ar_generation_time_grows_with_bound() {
    // Section 4.3: "The subcolumn V.T. in column TB includes large
    // AR-automaton generation time."
    let small = synthesis_stats_for_bound(Some(100));
    let large = synthesis_stats_for_bound(Some(10_000));
    assert!(
        large.states > 10 * small.states,
        "states: {} vs {}",
        small.states,
        large.states
    );
    assert!(
        large.generation_time >= small.generation_time,
        "generation time must not shrink with the bound"
    );
}

#[test]
fn baseline_spec_is_well_formed() {
    for op in Op::ALL {
        let spec = spec_for(op);
        assert_eq!(spec.observed, "eee_last_ret");
        assert!(spec.allowed.contains(&1), "{op}: EEE_OK always allowed");
        assert_eq!(spec.inputs.len(), 8);
    }
}
