//! A fixed power-loss scenario that separates a correct torn-write
//! discipline from a broken one.
//!
//! The script commits one record, then cuts power exactly between the two
//! flash programs of a second write. The healthy ESW programs the value
//! word before the tag, so the interrupted slot stays invisible:
//! recovery finds the committed record intact and the torn id absent. The
//! [`EswProgram::TornWrite`] variant swaps the order (tag before value) —
//! after the same cut the tag is visible with an erased value word,
//! recovery serves `-1`, and the `intact` property (`G intact`) goes
//! `False`.

use eee::{Op, Request};
use sctc_campaign::FlowKind;
use sctc_core::{EngineKind, RunReport, WitnessConfig};
use sctc_temporal::Verdict;

use crate::campaign::{run_session, EswProgram};
use crate::matrix::{FaultRecord, ShardMatrix};
use crate::plan::{FaultEvent, FaultPlan, PlannedFault};
use crate::session::FaultSession;

/// Result of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Property verdicts (`recovery`, `intact`).
    pub properties: Vec<(String, Verdict)>,
    /// The fault records (exactly one: the power loss).
    pub records: Vec<FaultRecord>,
    /// Observed (request, return code, read value) for every finished
    /// case, recovery protocol included.
    pub observations: Vec<(Request, i32, i32)>,
}

impl ScenarioOutcome {
    /// The verdict of one property.
    ///
    /// # Panics
    ///
    /// Panics if the property was not registered.
    pub fn verdict_of(&self, name: &str) -> Verdict {
        self.properties
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .expect("scenario registers the property")
    }

    /// The power-loss fault record.
    ///
    /// # Panics
    ///
    /// Panics if the scenario produced no record.
    pub fn cut(&self) -> &FaultRecord {
        self.records.first().expect("scenario schedules one cut")
    }
}

/// The scenario script: bring-up, one committed record, then the write the
/// cut interrupts, then post-recovery probes of both ids.
fn script() -> Vec<Request> {
    vec![
        Request::new(Op::Format, 0, 0),
        Request::new(Op::Startup1, 0, 0),
        Request::new(Op::Startup2, 0, 0),
        Request::new(Op::Write, 3, 42),
        Request::new(Op::Write, 5, 7),
        Request::new(Op::Read, 3, 0),
        Request::new(Op::Read, 5, 0),
    ]
}

/// The cut: two device cycles into case 4 (`Write(5, 7)`) — after the
/// first of the write's two flash programs completes, before the second
/// is issued.
fn cut_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![PlannedFault {
            case_index: 4,
            event: FaultEvent::PowerLoss {
                after_device_cycles: 2,
            },
        }],
    }
}

/// Observability switches for a scenario run (all off by default — the
/// plain scenario is bit-identical to the pre-diagnosis-layer one).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScenarioObs {
    /// Capture a counterexample witness for every violated property.
    pub witnesses: Option<WitnessConfig>,
    /// Record property-timeline VCD channels (verdict + atoms per
    /// property) into [`RunReport::vcd`].
    pub vcd: bool,
    /// Enable the span profiler.
    pub profile: bool,
    /// Monitoring engine for both scenario properties (defaults to the
    /// change-driven compiled engine; equivalence tests swap in `Naive` to
    /// prove the scenario verdicts are engine-independent).
    pub engine: EngineKind,
}

/// Runs the power-loss scenario on `program` under the chosen flow.
/// `recovery_bound` is in samples (statements / clock cycles).
pub fn run_scenario(flow: FlowKind, program: EswProgram, recovery_bound: u64) -> ScenarioOutcome {
    run_scenario_observed(flow, program, recovery_bound, ScenarioObs::default()).0
}

/// Like [`run_scenario`], with the diagnosis layer switched on: the full
/// [`RunReport`] comes back alongside the outcome, carrying witnesses,
/// the VCD document and the span profile as requested by `obs`.
pub fn run_scenario_observed(
    flow: FlowKind,
    program: EswProgram,
    recovery_bound: u64,
    obs: ScenarioObs,
) -> (ScenarioOutcome, RunReport) {
    let (matrix, observations, report) =
        run_scripted(flow, program, recovery_bound, u64::MAX / 2, obs);
    let outcome = ScenarioOutcome {
        properties: matrix.properties,
        records: matrix.records,
        observations,
    };
    (outcome, report)
}

/// The scenario as one fault unit — the [`ShardMatrix`] a statistical
/// campaign grades — simulated for at most `max_ticks`.
pub fn run_scenario_unit(
    flow: FlowKind,
    program: EswProgram,
    recovery_bound: u64,
    max_ticks: u64,
    obs: ScenarioObs,
) -> ShardMatrix {
    run_scripted(flow, program, recovery_bound, max_ticks, obs).0
}

fn run_scripted(
    flow: FlowKind,
    program: EswProgram,
    recovery_bound: u64,
    max_ticks: u64,
    obs: ScenarioObs,
) -> (ShardMatrix, Vec<(Request, i32, i32)>, RunReport) {
    let session = |flash| FaultSession::scripted(script(), &cut_plan(), flash);
    run_session(flow, program, recovery_bound, max_ticks, obs, session)
}
