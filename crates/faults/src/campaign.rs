//! Sharded fault campaigns over both verification flows.
//!
//! Reuses the campaign crate's deterministic shard planning and worker
//! pool: the global [`FaultPlan`] is generated once from the campaign seed
//! and sliced per shard, so the merged [`DetectionMatrix`] — fingerprint
//! included — is a pure function of `(flow, cases, chunk, seed, percent)`
//! and bit-identical for any `--jobs` value.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use eee::driver::MailboxAddrs;
use eee::{
    build_ir, compiled_program, derived_testbench, micro_testbench, share_flash, DataFlash,
    Request, SharedFlash, EEE_SOURCE,
};
use minic::codegen::{compile, CodegenOptions, CompiledProgram};
use minic::ir::IrProgram;
use minic::SharedInterp;
use sctc_campaign::{default_chunk, resolve_jobs, run_shards, shard_plan, FlowKind, ShardSpec};
use sctc_core::{esw, sym, trace, EngineKind, Proposition, RunReport};
use sctc_cpu::{IsaKind, SharedSoc};
use sctc_temporal::{parse, Formula};

use crate::matrix::{DetectionMatrix, ShardMatrix};
use crate::plan::FaultPlan;
use crate::scenario::ScenarioObs;
use crate::session::{FaultInterpDriver, FaultSession, FaultSocDriver};

/// Specification of one fault-injection campaign.
#[derive(Clone, Debug)]
pub struct FaultCampaignSpec {
    /// The flow to run.
    pub flow: FlowKind,
    /// Total planned test cases (recovery cases come on top).
    pub cases: u64,
    /// Campaign seed: shard request seeds and the fault plan derive from
    /// it.
    pub seed: u64,
    /// Worker threads (`0` = all available cores).
    pub jobs: usize,
    /// Cases per shard (`0` = [`default_chunk`]).
    pub chunk: u64,
    /// Per-case fault probability, in percent.
    pub fault_percent: u32,
    /// Sample bound of the recovery property `G (reset -> F[<=b]
    /// initialized)` — statements for the derived flow, clock cycles for
    /// the microprocessor flow.
    pub recovery_bound: u64,
    /// Monitoring engine.
    pub engine: EngineKind,
    /// Simulation-tick budget per shard.
    pub max_ticks: u64,
    /// Enables the span profiler in every shard; timings are merged into
    /// [`DetectionMatrix::spans`], outside the fingerprint.
    pub profile: bool,
}

impl FaultCampaignSpec {
    /// A derived-flow fault campaign: statement-granular sampling, 35% of
    /// the cases faulted.
    pub fn derived(cases: u64, seed: u64) -> Self {
        FaultCampaignSpec {
            flow: FlowKind::Derived,
            cases,
            seed,
            jobs: 0,
            chunk: 0,
            fault_percent: 35,
            recovery_bound: 5_000,
            engine: EngineKind::Compiled,
            max_ticks: u64::MAX / 2,
            profile: false,
        }
    }

    /// A microprocessor-flow fault campaign; the recovery bound is in
    /// clock cycles, so it is far larger than the derived one.
    pub fn micro(cases: u64, seed: u64) -> Self {
        FaultCampaignSpec {
            flow: FlowKind::Microprocessor,
            recovery_bound: 200_000,
            ..FaultCampaignSpec::derived(cases, seed)
        }
    }

    /// Sets the worker count (`0` = all available cores).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the shard chunk size (`0` = [`default_chunk`]).
    pub fn with_chunk(mut self, chunk: u64) -> Self {
        self.chunk = chunk;
        self
    }

    /// Sets the per-case fault probability in percent.
    pub fn with_fault_percent(mut self, percent: u32) -> Self {
        self.fault_percent = percent;
        self
    }

    /// Sets the monitoring engine. Matrix fingerprints are engine-
    /// independent: [`EngineKind::Naive`] must detect exactly the same
    /// faults as the default change-driven pipeline.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Enables (or disables) the span profiler in every shard.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }
}

/// Result of a fault campaign.
#[derive(Clone, Debug)]
pub struct FaultCampaignReport {
    /// Worker threads used.
    pub jobs: usize,
    /// Campaign wall-clock.
    pub wall: Duration,
    /// The merged detection/recovery matrix.
    pub matrix: DetectionMatrix,
}

/// The recovery property: every reset is followed by a re-initialized
/// emulation within `bound` samples.
pub fn recovery_property(bound: u64) -> Formula {
    parse(&format!("G (reset -> F[<={bound}] initialized)"))
        .expect("recovery property template parses")
}

/// The torn-write property: the served read value is never the erased
/// marker, i.e. no half-programmed record is ever handed to the
/// application.
pub fn intact_property() -> Formula {
    parse("G intact").expect("intact property template parses")
}

/// Binds `reset`/`initialized`/`intact` against the derived model.
pub fn bind_recovery_derived(interp: &SharedInterp) -> [Vec<Box<dyn Proposition>>; 2] {
    [
        vec![
            esw::global_nonzero("reset", interp.clone(), "tb_reset"),
            esw::global_nonzero("initialized", interp.clone(), "eee_ready"),
        ],
        vec![esw::global_ne(
            "intact",
            interp.clone(),
            "eee_read_value",
            -1,
        )],
    ]
}

/// Binds `reset`/`initialized`/`intact` against the microprocessor model.
/// The observed globals — `tb_reset`, `eee_ready`, `eee_read_value` — are
/// resolved by name through the memory's attached symbol map; the resolved
/// atoms (and all campaign fingerprints) match the former address-based
/// binding exactly.
pub fn bind_recovery_micro(soc: &SharedSoc) -> [Vec<Box<dyn Proposition>>; 2] {
    [
        vec![
            sym::word_nonzero("reset", soc.clone(), "tb_reset"),
            sym::word_nonzero("initialized", soc.clone(), "eee_ready"),
        ],
        vec![sym::word_ne(
            "intact",
            soc.clone(),
            "eee_read_value",
            (-1i32) as u32,
        )],
    ]
}

fn flow_name(flow: FlowKind) -> &'static str {
    match flow {
        FlowKind::Derived => "derived",
        FlowKind::Microprocessor => "micro",
    }
}

/// Runs a fault campaign: plans shards and the fault schedule up front,
/// fans the shards out over the worker pool, merges the matrices.
pub fn run_fault_campaign(spec: &FaultCampaignSpec) -> FaultCampaignReport {
    let jobs = resolve_jobs(spec.jobs);
    let chunk = if spec.chunk > 0 {
        spec.chunk
    } else {
        default_chunk(spec.cases)
    };
    let plan = shard_plan(spec.cases, chunk, spec.seed);
    let fault_plan = FaultPlan::generate(spec.seed, spec.cases, spec.fault_percent);
    let trace_id = trace::current();
    let shards_done = AtomicU64::new(0);
    let total_shards = plan.len() as u64;
    let t0 = Instant::now();
    let outcomes = run_shards(&plan, jobs, |shard| {
        let _trace = trace::adopt(trace_id);
        trace::emit(
            "shard.dispatch",
            &[("shard", shard.index), ("cases", shard.cases)],
        );
        let local = fault_plan.for_shard(shard.start_case, shard.cases);
        let matrix = run_fault_shard(spec, shard, &local);
        let done = shards_done.fetch_add(1, Ordering::Relaxed) + 1;
        trace::emit(
            "shard.done",
            &[("shard", shard.index), ("cases", shard.cases)],
        );
        trace::progress(done, total_shards);
        matrix
    });
    FaultCampaignReport {
        jobs,
        wall: t0.elapsed(),
        matrix: DetectionMatrix::merge(flow_name(spec.flow), spec.cases, outcomes),
    }
}

fn run_fault_shard(
    spec: &FaultCampaignSpec,
    shard: &ShardSpec,
    local_plan: &FaultPlan,
) -> ShardMatrix {
    let unit = FaultUnitSpec {
        flow: spec.flow,
        program: EswProgram::Healthy,
        request_seed: shard.seed,
        cases: shard.cases,
        recovery_bound: spec.recovery_bound,
        engine: spec.engine,
        max_ticks: spec.max_ticks,
        profile: spec.profile,
    };
    let mut matrix = run_fault_unit(&unit, local_plan);
    matrix.start_case = shard.start_case;
    matrix
}

/// Which ESW build a fault unit exercises.
///
/// The torn-write mutant programs the record tag before the value, so a
/// power loss between the two flash programs leaves a *visible* record
/// with an erased value — the planted bug that statistical campaigns
/// quantify (`P(G intact)` drops below 1 exactly as often as a random cut
/// lands in that window).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum EswProgram {
    /// The in-tree, correct EEPROM emulation.
    #[default]
    Healthy,
    /// The tag-before-value mutant that can serve torn writes.
    TornWrite,
}

thread_local! {
    static TORN_WRITE_IR: Rc<IrProgram> = Rc::new(lower_torn_write());
    static TORN_WRITE_IMAGE: Rc<CompiledProgram> = Rc::new(
        compile(&EswProgram::TornWrite.ir(), CodegenOptions::default())
            .expect("torn-write mutant compiles"),
    );
}

impl EswProgram {
    /// The program's IR, parsed and lowered once per thread (the healthy
    /// build is [`eee::build_ir`]).
    ///
    /// # Panics
    ///
    /// Panics if the torn-write mutation no longer applies to the embedded
    /// source.
    pub fn ir(self) -> Rc<IrProgram> {
        match self {
            EswProgram::Healthy => build_ir(),
            EswProgram::TornWrite => TORN_WRITE_IR.with(Rc::clone),
        }
    }

    /// The program compiled with the default layout and encoding, once per
    /// thread.
    fn image(self) -> Rc<CompiledProgram> {
        match self {
            EswProgram::Healthy => compiled_program(IsaKind::Word32),
            EswProgram::TornWrite => TORN_WRITE_IMAGE.with(Rc::clone),
        }
    }
}

/// Builds the torn-write mutant: the embedded source with the tag program
/// and the value program of a record write swapped, parsed and lowered.
fn lower_torn_write() -> IrProgram {
    let tag_line = "            r = dfa_program(w, 12451840 + id);";
    let value_line = "            r = dfa_program(w + 1, value);";
    let staged = EEE_SOURCE.replacen(tag_line, "__TORN_SWAP__", 1);
    assert_ne!(staged, EEE_SOURCE, "tag-program anchor must apply");
    let staged = staged.replacen(
        value_line,
        "            r = dfa_program(w, 12451840 + id); // BUG: tag first",
        1,
    );
    assert!(
        staged.contains("// BUG: tag first"),
        "value-program anchor must apply"
    );
    let source = staged.replacen(
        "__TORN_SWAP__",
        "            r = dfa_program(w + 1, value); // BUG: value second",
        1,
    );
    assert!(!source.contains("__TORN_SWAP__"), "swap must complete");
    minic::lower(&minic::parse(&source).expect("mutant parses")).expect("mutant lowers")
}

/// One self-contained fault-session run: a campaign shard, or one sample
/// of a statistical campaign. `Send`-safe by construction (the `!Send`
/// flow is built inside [`run_fault_unit`]), so worker threads can build
/// units freely.
#[derive(Copy, Clone, Debug)]
pub struct FaultUnitSpec {
    /// The flow to run.
    pub flow: FlowKind,
    /// The ESW build under test.
    pub program: EswProgram,
    /// Seed of the request stimulus stream.
    pub request_seed: u64,
    /// Planned test cases (recovery cases come on top).
    pub cases: u64,
    /// Sample bound of the recovery property.
    pub recovery_bound: u64,
    /// Monitoring engine.
    pub engine: EngineKind,
    /// Simulation-tick budget.
    pub max_ticks: u64,
    /// Enables the span profiler.
    pub profile: bool,
}

/// Runs one fault-session unit against `plan` and reduces it to a
/// [`ShardMatrix`] (with `start_case = 0`; campaign callers rebase it).
/// This is the shared execution path of the sharded fault campaign and
/// the SMC sampler — both produce matrices through the exact same flow
/// construction, property binding, and record plumbing.
pub fn run_fault_unit(unit: &FaultUnitSpec, plan: &FaultPlan) -> ShardMatrix {
    let obs = ScenarioObs {
        profile: unit.profile,
        engine: unit.engine,
        ..ScenarioObs::default()
    };
    let session = |flash| FaultSession::from_plan(unit.request_seed, unit.cases, plan, flash);
    run_session(
        unit.flow,
        unit.program,
        unit.recovery_bound,
        unit.max_ticks,
        obs,
        session,
    )
    .0
}

/// Runs one monitored fault session, the single path behind campaign
/// shards, SMC samples and the scripted scenario: `program` on the `eee`
/// testbench of `flow`, `recovery` and `intact` registered with `obs`'s
/// engine and switches, and the session `start` builds over the
/// testbench's flash driving the cases for at most `max_ticks`.
///
/// Returns the unit's matrix, every finished case's observation, and the
/// full report (witnesses, VCD and spans as `obs` asks).
pub(crate) fn run_session(
    flow: FlowKind,
    program: EswProgram,
    recovery_bound: u64,
    max_ticks: u64,
    obs: ScenarioObs,
    start: impl FnOnce(SharedFlash) -> FaultSession,
) -> (ShardMatrix, Vec<(Request, i32, i32)>, RunReport) {
    let flash = share_flash(DataFlash::new());
    let session = start(flash.clone());
    let records = session.records_handle();
    let observations = session.observations_handle();
    // The flows share their checker-facing methods by name, not by trait.
    macro_rules! monitored_run {
        ($flow:ident, $props:expr, $driver:expr) => {{
            if let Some(cfg) = obs.witnesses {
                $flow.enable_witnesses(cfg);
            }
            if obs.vcd {
                $flow.enable_vcd();
            }
            if obs.profile {
                let _ = $flow.enable_profiler();
            }
            let [recovery, intact] = $props;
            let recovery_formula = recovery_property(recovery_bound);
            $flow
                .add_property("recovery", &recovery_formula, recovery, obs.engine)
                .expect("recovery property binds by construction");
            $flow
                .add_property("intact", &intact_property(), intact, obs.engine)
                .expect("intact property binds by construction");
            $flow.run(Box::new($driver), max_ticks)
        }};
    }
    let report = match flow {
        FlowKind::Derived => {
            let mut flow = derived_testbench(program.ir(), &flash);
            let props = bind_recovery_derived(&flow.interp());
            monitored_run!(flow, props, FaultInterpDriver::new(session))
        }
        FlowKind::Microprocessor => {
            let image = program.image();
            // The driver pokes the mailbox words by raw address.
            let driver = FaultSocDriver::new(
                session,
                MailboxAddrs::from_compiled(&image),
                image.global_addr("tb_reset"),
                image.global_addr("eee_read_value"),
            );
            let mut flow = micro_testbench(image, &flash);
            let props = bind_recovery_micro(&flow.soc());
            monitored_run!(flow, props, driver)
        }
    }
    .expect("fault sessions run without scheduler errors");
    let matrix = ShardMatrix {
        start_case: 0,
        test_cases: report.test_cases,
        records: records.take(),
        properties: report
            .properties
            .iter()
            .map(|p| (p.name.clone(), p.verdict))
            .collect(),
        monitoring: report.monitoring,
        spans: report.spans.clone(),
    };
    (matrix, observations.take(), report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_program_is_built_once_per_thread() {
        for program in [EswProgram::Healthy, EswProgram::TornWrite] {
            assert!(Rc::ptr_eq(&program.ir(), &program.ir()), "{program:?}");
            assert!(
                Rc::ptr_eq(&program.image(), &program.image()),
                "{program:?}"
            );
        }
        assert!(!Rc::ptr_eq(
            &EswProgram::Healthy.ir(),
            &EswProgram::TornWrite.ir()
        ));
        let fresh = compile(&lower_torn_write(), CodegenOptions::default()).expect("compiles");
        let memo = EswProgram::TornWrite.image();
        assert_eq!(memo.text, fresh.text);
        assert_eq!(memo.global_addrs, fresh.global_addrs);
        assert_ne!(memo.text, EswProgram::Healthy.image().text);
    }
}
