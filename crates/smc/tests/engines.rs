//! Engine-equivalence under statistical sampling: the change-driven
//! compiled engine and the naive reference stepper must grade every
//! sample identically — same verdicts, same decision point, same report
//! fingerprint.

use sctc_campaign::FlowKind;
use sctc_core::EngineKind;
use sctc_smc::{run_smc_campaign, SmcQuery, SmcSpec};

const ENGINES: [EngineKind; 2] = [EngineKind::Compiled, EngineKind::Naive];

#[test]
fn planted_campaign_fingerprint_is_engine_independent() {
    let reports: Vec<_> = ENGINES
        .iter()
        .map(|&engine| {
            run_smc_campaign(
                &SmcSpec::planted_torn(FlowKind::Derived, 150, 13)
                    .with_max_samples(80)
                    .with_engine(engine)
                    .with_jobs(2),
            )
        })
        .collect();
    for report in &reports[1..] {
        assert_eq!(reports[0].verdict, report.verdict);
        assert_eq!(reports[0].samples, report.samples);
        assert_eq!(reports[0].fingerprint(), report.fingerprint());
    }
}

#[test]
fn faults_campaign_fingerprint_is_engine_independent() {
    // Random fault sessions (bit flips, stuck-ats, power cuts) under both
    // engines: the naive stepper sees exactly the same fault-perturbed
    // traces as the change-driven engine and must agree sample by sample.
    let reports: Vec<_> = ENGINES
        .iter()
        .map(|&engine| {
            run_smc_campaign(
                &SmcSpec::faults(FlowKind::Derived, 4, 31)
                    .with_query(SmcQuery::new(0.8, 0.1))
                    .with_max_samples(30)
                    .with_engine(engine)
                    .with_jobs(2),
            )
        })
        .collect();
    for report in &reports[1..] {
        assert_eq!(reports[0].verdict, report.verdict);
        assert_eq!(reports[0].samples, report.samples);
        assert_eq!(reports[0].fingerprint(), report.fingerprint());
    }
}
