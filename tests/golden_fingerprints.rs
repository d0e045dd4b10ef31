//! Golden fingerprints: small campaigns whose results are pinned as
//! constants recorded from an earlier build.
//!
//! Every determinism suite compares two runs of the same build (jobs 1 vs
//! N, engine vs engine), so a change that shifts every run the same way —
//! a different program image, a reordered stimulus, a moved verdict —
//! passes all of them. This file compares each run against a value that
//! does not come from the build under test. Each campaign runs at jobs 1
//! and 2; both must hit the pinned value.
//!
//! A deliberate semantic change re-pins these constants; the failure
//! message prints the new value and the canonical rendering behind it.
//!
//! Each run's monitoring counters ([`MonitorCounters`]) are pinned too.
//! They sit outside every fingerprint, yet they are what the performance
//! ledger's `core.*` rows read, so a checker shortcut that skips work
//! must still count exactly what the per-sample path counts.
//!
//! The campaigns' scheduler counters ([`KernelStats`]) are pinned beside
//! them: the ledger's `sim.*` rows read them, and a kernel change that
//! moves a resume, a delta cycle or a time advance must say so here.
//!
//! Below the campaigns sit the synthesized tables themselves: the FNV-1a
//! of every transition and every state verdict of each workload property's
//! AR-automaton, read through [`ArAutomaton`]'s public `step` and
//! `verdict`, so the pin holds whatever the automaton stores inside.

use esw_verify::campaign::{run_campaign, CampaignFingerprint, CampaignSpec, FlowKind};
use esw_verify::case_study::{response_property, Op};
use esw_verify::cpu::IsaKind;
use esw_verify::faults::scenario::{run_scenario_observed, ScenarioObs};
use esw_verify::faults::{
    intact_property, recovery_property, run_fault_campaign, EswProgram, FaultCampaignSpec,
};
use esw_verify::sctc::{MonitorCounters, WitnessConfig};
use esw_verify::sim::KernelStats;
use esw_verify::smc::{run_smc_campaign, SmcSpec};
use esw_verify::temporal::{fnv1a64, ArAutomaton, Formula, Verdict};

const JOBS: [usize; 2] = [1, 2];
/// Recovery bound of the micro-flow fault units, in clock cycles. A
/// tenth of the production 200,000 keeps the recovery automaton's
/// synthesis cheap in debug builds.
const MICRO_RECOVERY_BOUND: u64 = 20_000;

const DERIVED_CAMPAIGN: u64 = 0xb8b1_38de_7ee6_345d;
/// Campaign fingerprints are encoding-independent, so Word32 and Comp16
/// share one value.
const MICRO_CAMPAIGN: u64 = 0xdc1b_630f_3638_4cab;
const MICRO_FAULT_MATRIX: u64 = 0x4e17_1744_d4d1_69cf;
const SMC_FAULTS_TORN_MICRO: u64 = 0xd9ec_502d_acad_113f;
const SMC_PLANTED_TORN_DERIVED: u64 = 0x0754_3f64_252e_9b2a;
const DERIVED_FAULT_MATRIX: u64 = 0x7743_ff70_a803_66be;
const SMC_PLANTED_TORN_MICRO: u64 = 0x89a2_b620_2c4e_4ad4;

/// Checker samples and monitoring counters of each pinned run, at every
/// job count. The micro campaign's counters, like its fingerprint, are the
/// same on both encodings.
const DERIVED_CAMPAIGN_WORK: (u64, MonitorCounters) = (5653, counters(9702, 79142, 38751, 1454));
const MICRO_CAMPAIGN_WORK: (u64, MonitorCounters) = (7704, counters(2115, 107856, 53784, 312));
/// Scheduler counters of each pinned campaign, summed over its shard
/// kernels: resumes, delta cycles, events fired, time advances.
const DERIVED_CAMPAIGN_KERNEL: KernelStats = kernel(11398, 11394, 5737, 5653);
const MICRO_CAMPAIGN_KERNEL: KernelStats = kernel(30942, 23208, 15471, 15468);
const MICRO_FAULT_MATRIX_WORK: MonitorCounters = counters(14, 16974, 11310, 10);
/// SMC reports merge the counters of the accepted samples only, which the
/// canonical-order fold makes independent of the job count.
const SMC_FAULTS_TORN_MICRO_WORK: MonitorCounters = counters(32, 45165, 30098, 24);
const SMC_PLANTED_TORN_DERIVED_WORK: MonitorCounters = counters(240, 63084, 41643, 192);
const DERIVED_FAULT_MATRIX_WORK: MonitorCounters = counters(88, 22242, 14804, 72);
/// Accepted samples and merged counters of the micro planted-torn report.
const SMC_PLANTED_TORN_MICRO_WORK: (u64, MonitorCounters) = (6, counters(120, 215238, 142649, 96));

/// State count and [`table_hash`] of each pinned property's automaton.
/// The response template over `Op::Read`, per bound; 20,000 is the
/// micro-bounded workload's automaton.
const RESPONSE_TABLES: [(Option<u64>, usize, u64); 5] = [
    (Some(100), 103, 0xc616_9d7d_0e3d_0887),
    (Some(1_000), 1003, 0x3ead_6b94_88c2_e7e7),
    (Some(10_000), 10003, 0x1b78_fd38_cb9f_a087),
    (Some(20_000), 20003, 0x470a_0fb6_0179_01bb),
    (None, 2, 0x7d2f_a62a_249d_5284),
];
const RECOVERY_TABLES: [(u64, usize, u64); 2] = [
    (5_000, 5003, 0xd8e5_5c1f_f45c_3907),
    (20_000, 20003, 0xf973_4ee0_6cf4_75cb),
];
const INTACT_TABLE: (usize, u64) = (2, 0x2ea4_f7c3_eb9d_acda);
/// The production recovery bound: the smc-faults workload's automaton.
const RECOVERY_TABLE_200K: (usize, u64) = (200_003, 0xfd35_aa31_20c2_72f3);

/// The scripted power-loss scenario on each flow and program, with
/// witness capture and the property-timeline VCD switched on: the
/// fingerprint of [`scenario_canonical`], every witness's property and
/// decision sample, and the FNV-1a of the rendered VCD. The healthy runs
/// decide nothing (both properties stay pending), so they capture no
/// witness and render the same canonical text on both flows.
type ScenarioGolden = (
    FlowKind,
    EswProgram,
    u64,
    &'static [(&'static str, u64)],
    u64,
);
const SCENARIOS: [ScenarioGolden; 4] = [
    (
        FlowKind::Derived,
        EswProgram::Healthy,
        0xfcae_b066_9805_4604,
        &[],
        0xe504_4ffb_8601_12e9,
    ),
    (
        FlowKind::Derived,
        EswProgram::TornWrite,
        0xfd24_0198_f164_887c,
        &[("intact", 1456)],
        0x63fd_171b_40d5_344a,
    ),
    (
        FlowKind::Microprocessor,
        EswProgram::Healthy,
        0xfcae_b066_9805_4604,
        &[],
        0x23d2_f418_18ad_9a58,
    ),
    (
        FlowKind::Microprocessor,
        EswProgram::TornWrite,
        0x1485_d56e_d424_02fb,
        &[("intact", 9804)],
        0x9325_d39f_76d1_93af,
    ),
];

const fn counters(
    atoms_evaluated: u64,
    atoms_total: u64,
    steps_compressed: u64,
    dirty_wakeups: u64,
) -> MonitorCounters {
    MonitorCounters {
        atoms_evaluated,
        atoms_total,
        steps_compressed,
        dirty_wakeups,
    }
}

const fn kernel(
    resumes: u64,
    delta_cycles: u64,
    events_fired: u64,
    time_advances: u64,
) -> KernelStats {
    KernelStats {
        resumes,
        delta_cycles,
        events_fired,
        time_advances,
    }
}

/// Every field of a campaign fingerprint, one per line, in a fixed order.
fn campaign_canonical(fp: &CampaignFingerprint) -> String {
    let mut out = format!(
        "cases={} samples={} ticks={} resumes={}\n",
        fp.test_cases, fp.samples, fp.sim_ticks, fp.resumes
    );
    for (name, verdict, violating, decided) in &fp.properties {
        out.push_str(&format!(
            "property {name} {verdict:?} violating={violating:?} decided={decided}\n"
        ));
    }
    out.push_str(&format!(
        "coverage={:?} overall={}\n",
        fp.coverage_bits, fp.overall_bits
    ));
    for line in fp.violations.iter().chain(&fp.anomalies) {
        out.push_str(&format!("{line}\n"));
    }
    out.push_str(&format!("shards={:?}\n", fp.shard_cases));
    out
}

fn assert_golden(name: &str, jobs: usize, pinned: u64, got: u64, canonical: &str) {
    assert_eq!(
        got, pinned,
        "{name} at jobs={jobs}: fingerprint {got:#018x} != pinned {pinned:#018x}\n{canonical}"
    );
}

fn assert_work<T: PartialEq + std::fmt::Debug>(name: &str, jobs: usize, pinned: T, got: T) {
    assert_eq!(
        got, pinned,
        "{name} at jobs={jobs}: monitoring work {got:?} != pinned {pinned:?}"
    );
}

fn check_campaign(
    name: &str,
    spec: &CampaignSpec,
    pinned: u64,
    work: (u64, MonitorCounters),
    kernel: KernelStats,
) {
    for jobs in JOBS {
        let report = run_campaign(&spec.clone().with_jobs(jobs));
        let canonical = campaign_canonical(&report.fingerprint());
        assert_golden(
            name,
            jobs,
            pinned,
            fnv1a64(canonical.as_bytes()),
            &canonical,
        );
        assert_work(name, jobs, work, (report.samples, report.monitoring));
        assert_eq!(
            report.kernel, kernel,
            "{name} at jobs={jobs}: kernel counters {:?} != pinned {kernel:?}",
            report.kernel
        );
    }
}

#[test]
fn derived_campaign_matches_its_golden_fingerprint() {
    let spec = CampaignSpec::derived(40, 20080310).with_chunk(10);
    check_campaign(
        "derived campaign",
        &spec,
        DERIVED_CAMPAIGN,
        DERIVED_CAMPAIGN_WORK,
        DERIVED_CAMPAIGN_KERNEL,
    );
}

#[test]
fn micro_campaigns_match_their_golden_fingerprints_on_both_encodings() {
    for isa in [IsaKind::Word32, IsaKind::Comp16] {
        let spec = CampaignSpec::micro(6, 7).with_chunk(2).with_isa(isa);
        check_campaign(
            &format!("micro campaign {isa:?}"),
            &spec,
            MICRO_CAMPAIGN,
            MICRO_CAMPAIGN_WORK,
            MICRO_CAMPAIGN_KERNEL,
        );
    }
}

#[test]
fn micro_fault_matrix_matches_its_golden_fingerprint() {
    let mut spec = FaultCampaignSpec::micro(6, 7)
        .with_chunk(3)
        .with_fault_percent(60);
    spec.recovery_bound = MICRO_RECOVERY_BOUND;
    for jobs in JOBS {
        let matrix = run_fault_campaign(&spec.clone().with_jobs(jobs)).matrix;
        assert_golden(
            "micro fault matrix",
            jobs,
            MICRO_FAULT_MATRIX,
            matrix.fingerprint(),
            &matrix.canonical(),
        );
        assert_work(
            "micro fault matrix",
            jobs,
            MICRO_FAULT_MATRIX_WORK,
            matrix.monitoring,
        );
    }
}

#[test]
fn derived_fault_matrix_matches_its_golden_fingerprint() {
    let spec = FaultCampaignSpec::derived(40, 7)
        .with_chunk(10)
        .with_fault_percent(60);
    for jobs in JOBS {
        let matrix = run_fault_campaign(&spec.clone().with_jobs(jobs)).matrix;
        assert_golden(
            "derived fault matrix",
            jobs,
            DERIVED_FAULT_MATRIX,
            matrix.fingerprint(),
            &matrix.canonical(),
        );
        assert_work(
            "derived fault matrix",
            jobs,
            DERIVED_FAULT_MATRIX_WORK,
            matrix.monitoring,
        );
    }
}

#[test]
fn micro_planted_torn_smc_report_matches_its_golden_fingerprint() {
    let mut spec = SmcSpec::planted_torn(FlowKind::Microprocessor, 300, 5).with_max_samples(6);
    spec.recovery_bound = MICRO_RECOVERY_BOUND;
    let name = "smc planted torn (micro)";
    for jobs in JOBS {
        let report = run_smc_campaign(&spec.with_jobs(jobs));
        assert_golden(
            name,
            jobs,
            SMC_PLANTED_TORN_MICRO,
            report.fingerprint(),
            &report.canonical(),
        );
        assert_work(
            name,
            jobs,
            SMC_PLANTED_TORN_MICRO_WORK,
            (report.samples, report.matrix.monitoring),
        );
    }
}

/// Verdicts, fault records, observations and witness decisions of one
/// scenario run, one per line.
fn scenario_canonical(
    outcome: &esw_verify::faults::scenario::ScenarioOutcome,
    report: &esw_verify::sctc::RunReport,
) -> String {
    let mut out = String::new();
    for (name, verdict) in &outcome.properties {
        out.push_str(&format!("property {name} {verdict:?}\n"));
    }
    for record in &outcome.records {
        out.push_str(&format!("{record:?}\n"));
    }
    for (request, ret, value) in &outcome.observations {
        out.push_str(&format!("{request:?} ret={ret} value={value}\n"));
    }
    for w in &report.witnesses {
        out.push_str(&format!(
            "witness {} {:?} decided_at={:?}\n",
            w.property, w.verdict, w.decided_at
        ));
    }
    out
}

#[test]
fn observed_scenarios_match_their_golden_fingerprints() {
    let obs = ScenarioObs {
        witnesses: Some(WitnessConfig {
            capture_true: true,
            ..WitnessConfig::default()
        }),
        vcd: true,
        ..ScenarioObs::default()
    };
    for (flow, program, pinned, decisions, vcd) in SCENARIOS {
        let bound = match flow {
            FlowKind::Derived => 5_000,
            FlowKind::Microprocessor => MICRO_RECOVERY_BOUND,
        };
        let (outcome, report) = run_scenario_observed(flow, program, bound, obs);
        let canonical = scenario_canonical(&outcome, &report);
        let name = format!("scenario {flow:?} {program:?}");
        assert_golden(&name, 1, pinned, fnv1a64(canonical.as_bytes()), &canonical);
        let got: Vec<(&str, u64)> = report
            .witnesses
            .iter()
            .map(|w| {
                (
                    w.property.as_str(),
                    w.decided_at.expect("witnesses are decided"),
                )
            })
            .collect();
        assert_eq!(got, decisions, "{name}: witness decisions");
        let rendered = report.vcd.as_ref().expect("vcd enabled").render();
        assert_eq!(
            fnv1a64(rendered.as_bytes()),
            vcd,
            "{name}: VCD fingerprint {:#018x}",
            fnv1a64(rendered.as_bytes())
        );
    }
}

#[test]
fn smc_reports_match_their_golden_fingerprints() {
    let mut faults = SmcSpec::faults(FlowKind::Microprocessor, 4, 11)
        .with_program(EswProgram::TornWrite)
        .with_max_samples(4);
    faults.recovery_bound = MICRO_RECOVERY_BOUND;
    let planted = SmcSpec::planted_torn(FlowKind::Derived, 300, 5).with_max_samples(12);
    for (name, spec, pinned, work) in [
        (
            "smc faults (torn write, micro)",
            faults,
            SMC_FAULTS_TORN_MICRO,
            SMC_FAULTS_TORN_MICRO_WORK,
        ),
        (
            "smc planted torn (derived)",
            planted,
            SMC_PLANTED_TORN_DERIVED,
            SMC_PLANTED_TORN_DERIVED_WORK,
        ),
    ] {
        for jobs in JOBS {
            let report = run_smc_campaign(&spec.with_jobs(jobs));
            assert_golden(
                name,
                jobs,
                pinned,
                report.fingerprint(),
                &report.canonical(),
            );
            assert_work(name, jobs, work, report.matrix.monitoring);
        }
    }
}

/// FNV-1a over an automaton's whole table, state by state: every
/// `step(state, valuation)` as four little-endian bytes, then the state's
/// verdict as one byte.
fn table_hash(automaton: &ArAutomaton) -> u64 {
    let mut bytes = Vec::new();
    for state in 0..automaton.state_count() as u32 {
        for valuation in 0..automaton.columns() as u64 {
            bytes.extend_from_slice(&automaton.step(state, valuation).to_le_bytes());
        }
        bytes.push(match automaton.verdict(state) {
            Verdict::Pending => 0,
            Verdict::True => 1,
            Verdict::False => 2,
        });
    }
    fnv1a64(&bytes)
}

fn assert_table(name: &str, formula: &Formula, (states, hash): (usize, u64)) {
    let automaton = ArAutomaton::synthesize(formula).expect("workload properties synthesize");
    let got = (automaton.state_count(), table_hash(&automaton));
    assert_eq!(
        got,
        (states, hash),
        "{name} ({formula}): table (states, hash) ({}, {:#018x}) != pinned ({states}, {hash:#018x})",
        got.0,
        got.1
    );
}

#[test]
fn synthesized_tables_match_their_golden_hashes() {
    for (bound, states, hash) in RESPONSE_TABLES {
        let name = format!("response {bound:?}");
        assert_table(&name, &response_property(Op::Read, bound), (states, hash));
    }
    for (bound, states, hash) in RECOVERY_TABLES {
        let name = format!("recovery {bound}");
        assert_table(&name, &recovery_property(bound), (states, hash));
    }
    assert_table("intact", &intact_property(), INTACT_TABLE);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "synthesizes the 200k-state recovery automaton; run in release"
)]
fn production_recovery_table_matches_its_golden_hash() {
    assert_table(
        "recovery 200000",
        &recovery_property(200_000),
        RECOVERY_TABLE_200K,
    );
}
