//! Cross-substrate differential oracles for the EEPROM-emulation case study.
//!
//! The repo contains four independent executions of the same embedded
//! software: the mini-C **interpreter**, the program **compiled to the
//! microprocessor model**, the **derived-model flow** (the paper's
//! approach 2 packaging of the interpreter), and the hand-written native
//! **reference model**. This module packages all four behind a single
//! [`DiffHarness`] so a generated request script can be replayed on every
//! substrate and the observed behaviours — return code per request, plus
//! the read-back value for successful `Read`s — compared for agreement.
//!
//! Scripts must be fault-free (no flash-fault injection): the native
//! reference models the fault-free semantics only, so a script with faults
//! has no single expected behaviour to compare against.

use testkit::{DiffHarness, Source};

use crate::c::{ExecState, Interp};
use crate::case_study::driver::MailboxAddrs;
use crate::case_study::{
    build_ir, compiled_program, derived_testbench, flash_soc, share_flash, DataFlash, FlashMemory,
    Op, RefEee, Request, RetCode, ScriptedInterpDriver, NUM_IDS,
};
use crate::cpu::IsaKind;

/// What one substrate observes for one request: the return code, and the
/// value read back when the request was a successful `Read` (`None`
/// otherwise — other operations leave the read-value mailbox untouched, so
/// comparing it would report stale-state differences, not behaviour).
pub type EeeStep = (i32, Option<i32>);

/// A substrate's observation of a whole script.
pub type EeeObs = Vec<EeeStep>;

fn observe(op: Op, ret: i32, value: i32) -> EeeStep {
    let read = (op == Op::Read && ret == RetCode::Ok.code()).then_some(value);
    (ret, read)
}

/// Runs a script on the hand-written native reference model.
fn run_reference(script: &[Request]) -> EeeObs {
    let mut model = RefEee::new();
    script
        .iter()
        .map(|&req| {
            let (ret, value) = model.apply(req);
            (ret.code(), value)
        })
        .collect()
}

/// Runs a script on the statement-level mini-C interpreter over a fresh
/// flash model.
pub fn run_interpreter(script: &[Request]) -> EeeObs {
    let flash = share_flash(DataFlash::new());
    let mut interp = Interp::new(build_ir(), Box::new(FlashMemory::new(flash)));
    script
        .iter()
        .map(|req| {
            interp.set_global_by_name("req_op", req.op.code());
            interp.set_global_by_name("req_arg0", req.arg0);
            interp.set_global_by_name("req_arg1", req.arg1);
            interp.start_main().expect("EEE program has a main");
            let state = interp.run(10_000_000);
            assert!(
                matches!(state, ExecState::Finished(_)),
                "interpreter did not finish {req:?}: {state:?}"
            );
            observe(
                req.op,
                interp.global_by_name("eee_last_ret"),
                interp.global_by_name("eee_read_value"),
            )
        })
        .collect()
}

/// Runs a script on the software compiled to the microprocessor model
/// with the default 32-bit instruction encoding.
fn run_compiled_cpu(script: &[Request]) -> EeeObs {
    run_compiled_cpu_isa(script, IsaKind::Word32)
}

/// Runs a script on the software compiled to the microprocessor model,
/// with the flash mapped as an MMIO device, under the given instruction
/// encoding. The two encodings must observe identical behaviour — the
/// harness compares them on every differential run.
pub fn run_compiled_cpu_isa(script: &[Request], isa: IsaKind) -> EeeObs {
    let compiled = compiled_program(isa);
    let addrs = MailboxAddrs::from_compiled(&compiled);
    let read_value_addr = compiled.global_addr("eee_read_value");
    let mut soc = flash_soc(&compiled, &share_flash(DataFlash::new()));
    script
        .iter()
        .map(|req| {
            soc.mem
                .write_u32(addrs.req_op, req.op.code() as u32)
                .expect("mailbox in RAM");
            soc.mem
                .write_u32(addrs.req_arg0, req.arg0 as u32)
                .expect("mailbox in RAM");
            soc.mem
                .write_u32(addrs.req_arg1, req.arg1 as u32)
                .expect("mailbox in RAM");
            soc.reset_cpu();
            let mut budget = 10_000_000u64;
            while !soc.cpu.is_halted() {
                assert!(soc.fault.is_none(), "CPU fault on {req:?}: {:?}", soc.fault);
                budget = budget
                    .checked_sub(1)
                    .unwrap_or_else(|| panic!("{req:?} must halt within budget"));
                soc.cycle();
            }
            let peek = |addr: u32| soc.mem.peek_u32(addr).expect("mailbox in RAM") as i32;
            observe(req.op, peek(addrs.eee_last_ret), peek(read_value_addr))
        })
        .collect()
}

/// Runs a script through the derived-model flow (approach 2): the
/// interpreter driven by the discrete-event kernel, one statement per step.
pub fn run_derived_flow(script: &[Request]) -> EeeObs {
    let flow = derived_testbench(build_ir(), &share_flash(DataFlash::new()));
    let driver = ScriptedInterpDriver::new(script.to_vec());
    let observed = driver.observations();
    flow.run(Box::new(driver), u64::MAX / 2)
        .expect("derived flow runs");
    let out = observed
        .borrow()
        .iter()
        .map(|&(req, ret, value)| observe(req.op, ret, value))
        .collect();
    out
}

/// Candidate simplifications for one request, simplest first. Used by the
/// harness when shrinking a diverging script.
pub fn simplify_request(req: &Request) -> Vec<Request> {
    let mut out = Vec::new();
    if req.op != Op::Read || req.arg0 != 0 || req.arg1 != 0 {
        out.push(Request::new(Op::Read, 0, 0));
    }
    if req.arg0 > 0 {
        out.push(Request::new(req.op, 0, req.arg1));
    }
    if req.arg1 > 0 {
        out.push(Request::new(req.op, req.arg0, 0));
    }
    out
}

/// Builds the full five-substrate differential harness. The native
/// reference model is the first (reference) substrate; the compiled
/// program runs twice, once per instruction encoding.
pub fn eee_harness() -> DiffHarness<Request, EeeObs> {
    DiffHarness::new()
        .substrate("reference", |s: &[Request]| run_reference(s))
        .substrate("interp", |s: &[Request]| run_interpreter(s))
        .substrate("cpu", |s: &[Request]| run_compiled_cpu(s))
        .substrate("cpu-c16", |s: &[Request]| {
            run_compiled_cpu_isa(s, IsaKind::Comp16)
        })
        .substrate("derived", |s: &[Request]| run_derived_flow(s))
        .simplify_with(simplify_request)
}

/// Draws a fault-free request script from a testkit [`Source`]: the
/// Format/Startup1/Startup2 bring-up preamble followed by up to `max_tail`
/// constrained-random requests (mostly valid ids, occasionally out of
/// range to exercise the parameter checks).
pub fn gen_script(src: &mut Source<'_>, max_tail: usize) -> Vec<Request> {
    let mut script = vec![
        Request::new(Op::Format, 0, 0),
        Request::new(Op::Startup1, 0, 0),
        Request::new(Op::Startup2, 0, 0),
    ];
    let tail = src.usize_in(0, max_tail);
    for _ in 0..tail {
        let op = src.weighted(&[
            (Op::Read, 28),
            (Op::Write, 28),
            (Op::Format, 4),
            (Op::Prepare, 10),
            (Op::Refresh, 10),
            (Op::Startup1, 10),
            (Op::Startup2, 10),
        ]);
        let id = if src.chance(8) {
            src.pick(&[-2, -1, 16, 99])
        } else {
            src.i32_in(0, NUM_IDS - 1)
        };
        let value = src.i32_in(0, 1_000_000);
        script.push(Request::new(op, id, value));
    }
    script
}
