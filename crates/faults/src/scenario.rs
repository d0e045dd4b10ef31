//! A fixed power-loss scenario that separates a correct torn-write
//! discipline from a broken one.
//!
//! The script commits one record, then cuts power exactly between the two
//! flash programs of a second write. The healthy ESW programs the value
//! word before the tag, so the interrupted slot stays invisible:
//! recovery finds the committed record intact and the torn id absent. The
//! [`torn_write_ir`] variant swaps the order (tag before value) — after
//! the same cut the tag is visible with an erased value word, recovery
//! serves `-1`, and the `intact` property (`G intact`) goes `False`.

use std::rc::Rc;

use eee::{share_flash, DataFlash, FlashMemory, FlashMmio, FlashReadWindow, Op, Request};
use eee::{FLASH_READ_BASE, FLASH_READ_LEN, FLASH_REG_BASE, FLASH_REG_LEN};
use minic::codegen::{compile, CodegenOptions};
use minic::ir::IrProgram;
use minic::Interp;
use sctc_campaign::FlowKind;
use sctc_core::{DerivedModelFlow, EngineKind, MicroprocessorFlow, RunReport, WitnessConfig};
use sctc_temporal::Verdict;

use crate::campaign::{
    bind_recovery_derived, bind_recovery_micro, intact_property, recovery_property, EswProgram,
};
use crate::matrix::FaultRecord;
use crate::plan::{FaultEvent, FaultPlan, PlannedFault};
use crate::session::{FaultInterpDriver, FaultSession, FaultSocDriver};

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

/// An ESW variant with the torn-write discipline inverted: the tag word is
/// programmed before the value word, so a power loss between the two
/// leaves a *visible* record with an erased (`-1`) value. Built once per
/// thread ([`EswProgram::ir`]).
///
/// # Panics
///
/// Panics if the mutation no longer applies to the embedded source.
pub fn torn_write_ir() -> Rc<IrProgram> {
    EswProgram::TornWrite.ir()
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

/// Runs the power-loss scenario on `ir` under the chosen flow.
/// `recovery_bound` is in samples (statements / clock cycles).
pub fn run_scenario(flow: FlowKind, ir: Rc<IrProgram>, recovery_bound: u64) -> ScenarioOutcome {
    run_scenario_observed(flow, ir, recovery_bound, ScenarioObs::default()).0
}

/// Like [`run_scenario`], with the diagnosis layer switched on: the full
/// [`RunReport`] comes back alongside the outcome, carrying witnesses,
/// the VCD document and the span profile as requested by `obs`.
pub fn run_scenario_observed(
    flow: FlowKind,
    ir: Rc<IrProgram>,
    recovery_bound: u64,
    obs: ScenarioObs,
) -> (ScenarioOutcome, RunReport) {
    match flow {
        FlowKind::Derived => run_derived(ir, recovery_bound, obs),
        FlowKind::Microprocessor => run_micro(ir, recovery_bound, obs),
    }
}

/// Convenience: the healthy (in-tree) ESW, built once per thread
/// ([`EswProgram::ir`]).
pub fn healthy_ir() -> Rc<IrProgram> {
    EswProgram::Healthy.ir()
}

fn run_derived(
    ir: Rc<IrProgram>,
    recovery_bound: u64,
    obs: ScenarioObs,
) -> (ScenarioOutcome, RunReport) {
    let flash = share_flash(DataFlash::new());
    let interp = Interp::new(ir, Box::new(FlashMemory::new(flash.clone())));
    let mut flow = DerivedModelFlow::new(interp);
    apply_obs_derived(&mut flow, obs);
    let handle = flow.interp();
    let [recovery_props, intact_props] = bind_recovery_derived(&handle);
    flow.add_property(
        "recovery",
        &recovery_property(recovery_bound),
        recovery_props,
        obs.engine,
    )
    .expect("recovery property binds");
    flow.add_property("intact", &intact_property(), intact_props, obs.engine)
        .expect("intact property binds");
    let session = FaultSession::scripted(script(), &cut_plan(), flash);
    let records = session.records_handle();
    let observations = session.observations_handle();
    let report = flow
        .run(Box::new(FaultInterpDriver::new(session)), u64::MAX / 2)
        .expect("derived scenario runs");
    let outcome = ScenarioOutcome {
        properties: report
            .properties
            .iter()
            .map(|p| (p.name.clone(), p.verdict))
            .collect(),
        records: records.take(),
        observations: observations.take(),
    };
    (outcome, report)
}

fn apply_obs_derived(flow: &mut DerivedModelFlow, obs: ScenarioObs) {
    if let Some(cfg) = obs.witnesses {
        flow.enable_witnesses(cfg);
    }
    if obs.vcd {
        flow.enable_vcd();
    }
    if obs.profile {
        let _ = flow.enable_profiler();
    }
}

fn apply_obs_micro(flow: &mut MicroprocessorFlow, obs: ScenarioObs) {
    if let Some(cfg) = obs.witnesses {
        flow.enable_witnesses(cfg);
    }
    if obs.vcd {
        flow.enable_vcd();
    }
    if obs.profile {
        let _ = flow.enable_profiler();
    }
}

fn run_micro(
    ir: Rc<IrProgram>,
    recovery_bound: u64,
    obs: ScenarioObs,
) -> (ScenarioOutcome, RunReport) {
    let compiled = compile(&ir, CodegenOptions::default()).expect("scenario program compiles");
    let addrs = eee::driver::MailboxAddrs::from_compiled(&compiled);
    // The driver still pokes these mailbox words by raw address.
    let tb_reset = compiled.global_addr("tb_reset");
    let eee_read_value = compiled.global_addr("eee_read_value");
    let flash = share_flash(DataFlash::new());

    let mut flow = MicroprocessorFlow::new(compiled, 0x0004_0000, 10);
    apply_obs_micro(&mut flow, obs);
    flow.set_flag_global("flag");
    {
        let soc = flow.soc();
        let mut soc = soc.borrow_mut();
        soc.mem.map_device(
            FLASH_REG_BASE,
            FLASH_REG_LEN,
            Box::new(FlashMmio::new(flash.clone())),
        );
        soc.mem.map_device(
            FLASH_READ_BASE,
            FLASH_READ_LEN,
            Box::new(FlashReadWindow::new(flash.clone())),
        );
    }
    let soc = flow.soc();
    let [recovery_props, intact_props] = bind_recovery_micro(&soc);
    flow.add_property(
        "recovery",
        &recovery_property(recovery_bound),
        recovery_props,
        obs.engine,
    )
    .expect("recovery property binds");
    flow.add_property("intact", &intact_property(), intact_props, obs.engine)
        .expect("intact property binds");
    let session = FaultSession::scripted(script(), &cut_plan(), flash);
    let records = session.records_handle();
    let observations = session.observations_handle();
    let driver = FaultSocDriver::new(session, addrs, tb_reset, eee_read_value);
    let report = flow
        .run(Box::new(driver), u64::MAX / 2)
        .expect("microprocessor scenario runs");
    let outcome = ScenarioOutcome {
        properties: report
            .properties
            .iter()
            .map(|p| (p.name.clone(), p.verdict))
            .collect(),
        records: records.take(),
        observations: observations.take(),
    };
    (outcome, report)
}
