//! Power-loss acceptance: one scenario, two ESW variants, two flows.
//!
//! The scripted scenario commits record 3, then cuts power between the
//! two flash programs of a write to record 5. The healthy ESW programs
//! value-then-tag, so the torn slot stays invisible; the mutated variant
//! programs tag-then-value, so recovery serves a record whose value word
//! is still erased (`-1`). The online-monitored `intact` property
//! (`G intact`, with `intact := eee_read_value != -1`) must separate the
//! two — in **both** verification flows.

use esw_verify::campaign::FlowKind;
use esw_verify::faults::scenario::run_scenario;
use esw_verify::faults::EswProgram;
use esw_verify::temporal::Verdict;

const FLOWS: [(FlowKind, u64); 2] = [
    (FlowKind::Derived, 5_000),
    (FlowKind::Microprocessor, 200_000),
];

#[test]
fn healthy_esw_recovers_and_hides_the_torn_write_in_both_flows() {
    for (flow, bound) in FLOWS {
        let outcome = run_scenario(flow, EswProgram::Healthy, bound);
        assert_ne!(outcome.verdict_of("intact"), Verdict::False, "{flow:?}");
        assert_ne!(outcome.verdict_of("recovery"), Verdict::False, "{flow:?}");
        let cut = outcome.cut();
        assert!(cut.fired, "{flow:?}: the cut must trigger");
        assert_eq!(cut.recovered, Some(true), "{flow:?}");
        // Record 3 survived the power loss; the torn write to record 5
        // stayed invisible.
        assert_eq!(cut.survived, 1, "{flow:?}");
        assert_eq!(cut.corrupted, 0, "{flow:?}");
    }
}

#[test]
fn torn_write_bug_is_caught_by_the_intact_property_in_both_flows() {
    for (flow, bound) in FLOWS {
        let outcome = run_scenario(flow, EswProgram::TornWrite, bound);
        assert_eq!(
            outcome.verdict_of("intact"),
            Verdict::False,
            "{flow:?}: the served torn write must violate G intact"
        );
        assert!(
            outcome.cut().corrupted >= 1,
            "{flow:?}: the read-back must flag the served torn write"
        );
    }
}
