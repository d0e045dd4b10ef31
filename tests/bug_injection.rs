//! No-false-negatives check: deliberately broken variants of the embedded
//! software must be caught — by the temporal monitors (bounded-response
//! violations) or by the reference oracle (wrong results). The paper's
//! claim "we can verify the properties without having any false positives
//! or false negatives" needs both directions; the healthy-software runs
//! cover the no-false-positive half.

use std::cell::RefCell;
use std::rc::Rc;

use esw_verify::c::codegen::{compile, CodegenOptions};
use esw_verify::c::{lower, parse, ExecState, Interp};
use esw_verify::case_study::driver::MailboxAddrs;
use esw_verify::case_study::flash::{
    FlashMmio, FlashReadWindow, FLASH_READ_BASE, FLASH_READ_LEN, FLASH_REG_BASE, FLASH_REG_LEN,
};
use esw_verify::case_study::{
    bind_derived, bind_micro, response_property, share_flash, DataFlash, FlashMemory, Op, RefEee,
    Request, EEE_SOURCE,
};
use esw_verify::cpu::Soc;
use esw_verify::sctc::{DerivedModelFlow, EngineKind, InterpDriver, MicroprocessorFlow, SocDriver};
use esw_verify::temporal::Verdict;

/// Builds the case-study IR from a mutated source.
fn mutated_ir(from: &str, to: &str) -> Rc<esw_verify::c::ir::IrProgram> {
    let source = EEE_SOURCE.replace(from, to);
    assert_ne!(source, EEE_SOURCE, "mutation must apply");
    Rc::new(lower(&parse(&source).expect("mutant parses")).expect("mutant type-checks"))
}

/// Drives one read request against a ready emulation.
struct OneRead {
    phase: usize,
}

impl InterpDriver for OneRead {
    fn case_finished(&mut self, _interp: &mut Interp) {}

    fn next_case(&mut self, interp: &mut Interp) -> bool {
        let script = [
            Request::new(Op::Format, 0, 0),
            Request::new(Op::Startup1, 0, 0),
            Request::new(Op::Startup2, 0, 0),
            Request::new(Op::Write, 3, 42),
            Request::new(Op::Read, 3, 0),
        ];
        let Some(req) = script.get(self.phase) else {
            return false;
        };
        self.phase += 1;
        interp.set_global_by_name("req_op", req.op.code());
        interp.set_global_by_name("req_arg0", req.arg0);
        interp.set_global_by_name("req_arg1", req.arg1);
        interp.start_main().expect("main exists");
        true
    }
}

/// Bug 1: eee_read's abort state loops forever instead of delivering the
/// return code — the operation never responds.
fn stuck_state_machine_ir() -> Rc<esw_verify::c::ir::IrProgram> {
    mutated_ir(
        "        } else if (eee_state == 2) {
            result = eee_abort_code;
            eee_state = 0;
        } else {
            result = 5;
            eee_state = 0;
        }
    }
    return result;
}

int eee_write(int id, int value) {",
        "        } else if (eee_state == 2) {
            eee_state = 2; // BUG: stuck in the abort state
        } else {
            result = 5;
            eee_state = 0;
        }
    }
    return result;
}

int eee_write(int id, int value) {",
    )
}

/// Bug 2: eee_read reports EEE_OK even when the id was never written
/// (not-found becomes OK).
fn wrong_return_code_ir() -> Rc<esw_verify::c::ir::IrProgram> {
    mutated_ir(
        "                eee_state = 2;
                eee_abort_code = 3; // not found",
        "                eee_state = 2;
                eee_abort_code = 1; // BUG: reports OK on missing ids",
    )
}

/// Bug 3: eee_write commits the tag but never the value word (programming
/// the erased pattern is a no-op on NOR flash that still passes program
/// verify); read then returns the erased pattern instead of the value.
fn missing_value_write_ir() -> Rc<esw_verify::c::ir::IrProgram> {
    mutated_ir(
        "            r = dfa_program(w + 1, value);
            if (r != 1) {",
        "            r = dfa_program(w + 1, value * 0 - 1); // BUG: value never stored
            if (r != 1) {",
    )
}

#[test]
fn stuck_state_machine_violates_bounded_response() {
    let ir = stuck_state_machine_ir();
    let flash = share_flash(DataFlash::new());
    let interp = Interp::new(ir, Box::new(FlashMemory::new(flash)));
    let mut flow = DerivedModelFlow::new(interp);
    let h = flow.interp();
    flow.add_property(
        "Read",
        &response_property(Op::Read, Some(1000)),
        bind_derived(Op::Read, &h),
        EngineKind::Compiled,
    )
    .expect("property binds");
    // Read of id 9 (not written) hits the buggy abort path and spins; cap
    // the run so the test terminates.
    struct ReadMissing {
        phase: usize,
    }
    impl InterpDriver for ReadMissing {
        fn case_finished(&mut self, _interp: &mut Interp) {}
        fn next_case(&mut self, interp: &mut Interp) -> bool {
            let script = [
                Request::new(Op::Format, 0, 0),
                Request::new(Op::Startup1, 0, 0),
                Request::new(Op::Startup2, 0, 0),
                Request::new(Op::Read, 9, 0), // not found → buggy abort path
            ];
            let Some(req) = script.get(self.phase) else {
                return false;
            };
            self.phase += 1;
            interp.set_global_by_name("req_op", req.op.code());
            interp.set_global_by_name("req_arg0", req.arg0);
            interp.set_global_by_name("req_arg1", req.arg1);
            interp.start_main().expect("main exists");
            true
        }
    }
    let report = flow
        .run(Box::new(ReadMissing { phase: 0 }), 2_000_000)
        .expect("flow runs");
    assert_eq!(
        report.properties[0].verdict,
        Verdict::False,
        "the monitor must catch the stuck operation"
    );
}

#[test]
fn wrong_return_code_is_caught_by_the_oracle() {
    // The temporal property still holds (a response arrives), but the
    // reference oracle flags the wrong code — the division of labour
    // between monitors and functional tests.
    let ir = wrong_return_code_ir();
    let flash = share_flash(DataFlash::new());
    let mut interp = Interp::new(ir, Box::new(FlashMemory::new(flash)));
    let mut reference = RefEee::new();
    let script = [
        Request::new(Op::Format, 0, 0),
        Request::new(Op::Startup1, 0, 0),
        Request::new(Op::Startup2, 0, 0),
        Request::new(Op::Read, 9, 0), // reference: NotFound
    ];
    let mut mismatch = false;
    for req in script {
        let (expect, _) = reference.apply(req);
        interp.set_global_by_name("req_op", req.op.code());
        interp.set_global_by_name("req_arg0", req.arg0);
        interp.set_global_by_name("req_arg1", req.arg1);
        interp.start_main().expect("main exists");
        interp.run(1_000_000);
        if interp.global_by_name("eee_last_ret") != expect.code() {
            mismatch = true;
        }
    }
    assert!(mismatch, "the oracle must flag the wrong return code");
}

#[test]
fn missing_value_write_is_caught_by_the_oracle() {
    let ir = missing_value_write_ir();
    let flash = share_flash(DataFlash::new());
    let interp = Interp::new(ir, Box::new(FlashMemory::new(flash)));
    let flow = DerivedModelFlow::new(interp);
    let h = flow.interp();
    let driver = OneRead { phase: 0 };
    flow.run(Box::new(driver), 2_000_000).expect("flow runs");
    let read_value = h.borrow().global_by_name("eee_read_value");
    assert_ne!(
        read_value, 42,
        "the corrupted write must be visible to the functional oracle"
    );
}

#[test]
fn healthy_software_passes_the_same_checks() {
    // Control group: the unmutated software satisfies the property and the
    // oracle on the identical scenario.
    let ir = Rc::new(lower(&parse(EEE_SOURCE).expect("parses")).expect("type-checks"));
    let flash = share_flash(DataFlash::new());
    let interp = Interp::new(ir, Box::new(FlashMemory::new(flash)));
    let mut flow = DerivedModelFlow::new(interp);
    let h = flow.interp();
    flow.add_property(
        "Read",
        &response_property(Op::Read, Some(1000)),
        bind_derived(Op::Read, &h),
        EngineKind::Compiled,
    )
    .expect("property binds");
    let report = flow
        .run(Box::new(OneRead { phase: 0 }), 2_000_000)
        .expect("flow runs");
    assert_ne!(report.properties[0].verdict, Verdict::False);
    assert_eq!(h.borrow().global_by_name("eee_read_value"), 42);
}

// ---------------------------------------------------------------------------
// Ground-truth detection matrix: every injected bug × both flows × both
// detectors (temporal monitor, reference oracle). Each bug must be caught
// by at least one detector in *each* flow, the healthy control by none,
// and the observed matrix must equal the expected one exactly — no silent
// regressions in either direction.
// ---------------------------------------------------------------------------

/// What the two detectors reported for one (scenario, flow) cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Detection {
    /// A monitored temporal property reached `Verdict::False`.
    temporal: bool,
    /// The reference oracle saw a wrong return code / read value, or the
    /// script failed to complete.
    oracle: bool,
}

impl Detection {
    fn caught(self) -> bool {
        self.temporal || self.oracle
    }
}

/// The shared scenario script: bring-up, a write/read pair on id 3
/// (exercises the value path), and a read of the unwritten id 9
/// (exercises the abort path).
fn matrix_script() -> Vec<Request> {
    vec![
        Request::new(Op::Format, 0, 0),
        Request::new(Op::Startup1, 0, 0),
        Request::new(Op::Startup2, 0, 0),
        Request::new(Op::Write, 3, 42),
        Request::new(Op::Read, 3, 0),
        Request::new(Op::Read, 9, 0),
    ]
}

/// Compares completed observations against the fault-free reference.
/// Incomplete scripts (a case never responded) count as oracle-caught.
fn oracle_flags(script: &[Request], observed: &[(i32, i32)]) -> bool {
    if observed.len() < script.len() {
        return true;
    }
    let mut reference = RefEee::new();
    for (i, &req) in script.iter().enumerate() {
        let (ret, value) = reference.apply(req);
        if observed[i].0 != ret.code() {
            return true;
        }
        if let Some(v) = value {
            if observed[i].1 != v {
                return true;
            }
        }
    }
    false
}

/// Scripted derived-flow driver that records observations without
/// asserting completion (buggy software may never finish a case).
struct MatrixInterpDriver {
    script: Vec<Request>,
    next: usize,
    current: bool,
    observed: Rc<RefCell<Vec<(i32, i32)>>>,
}

impl InterpDriver for MatrixInterpDriver {
    fn case_finished(&mut self, interp: &mut Interp) {
        if self.current && matches!(interp.state(), ExecState::Finished(_)) {
            self.observed.borrow_mut().push((
                interp.global_by_name("eee_last_ret"),
                interp.global_by_name("eee_read_value"),
            ));
        }
        self.current = false;
    }

    fn next_case(&mut self, interp: &mut Interp) -> bool {
        let Some(&req) = self.script.get(self.next) else {
            return false;
        };
        self.next += 1;
        interp.set_global_by_name("req_op", req.op.code());
        interp.set_global_by_name("req_arg0", req.arg0);
        interp.set_global_by_name("req_arg1", req.arg1);
        self.current = true;
        interp.start_main().expect("main exists");
        true
    }
}

/// Scripted microprocessor-flow driver with the same contract.
struct MatrixSocDriver {
    script: Vec<Request>,
    next: usize,
    current: bool,
    addrs: MailboxAddrs,
    read_value_addr: u32,
    observed: Rc<RefCell<Vec<(i32, i32)>>>,
}

impl SocDriver for MatrixSocDriver {
    fn case_finished(&mut self, soc: &mut Soc) {
        if self.current && soc.cpu.is_halted() && soc.fault.is_none() {
            let peek = |addr: u32| soc.mem.peek_u32(addr).expect("mailbox in RAM") as i32;
            self.observed
                .borrow_mut()
                .push((peek(self.addrs.eee_last_ret), peek(self.read_value_addr)));
        }
        self.current = false;
    }

    fn next_case(&mut self, soc: &mut Soc) -> bool {
        let Some(&req) = self.script.get(self.next) else {
            return false;
        };
        self.next += 1;
        soc.mem
            .write_u32(self.addrs.req_op, req.op.code() as u32)
            .expect("mailbox in RAM");
        soc.mem
            .write_u32(self.addrs.req_arg0, req.arg0 as u32)
            .expect("mailbox in RAM");
        soc.mem
            .write_u32(self.addrs.req_arg1, req.arg1 as u32)
            .expect("mailbox in RAM");
        self.current = true;
        true
    }
}

/// Runs the scenario under the derived-model flow with every operation's
/// bounded-response property monitored (bound: 1000 statements).
fn run_matrix_derived(ir: Rc<esw_verify::c::ir::IrProgram>) -> Detection {
    let script = matrix_script();
    let flash = share_flash(DataFlash::new());
    let interp = Interp::new(ir, Box::new(FlashMemory::new(flash)));
    let mut flow = DerivedModelFlow::new(interp);
    let h = flow.interp();
    for op in Op::ALL {
        flow.add_property(
            &op.to_string(),
            &response_property(op, Some(1000)),
            bind_derived(op, &h),
            EngineKind::Compiled,
        )
        .expect("property binds");
    }
    let observed = Rc::new(RefCell::new(Vec::new()));
    let driver = MatrixInterpDriver {
        script: script.clone(),
        next: 0,
        current: false,
        observed: observed.clone(),
    };
    let report = flow.run(Box::new(driver), 3_000_000).expect("flow runs");
    let temporal = report
        .properties
        .iter()
        .any(|p| p.verdict == Verdict::False);
    let obs = observed.borrow().clone();
    Detection {
        temporal,
        oracle: oracle_flags(&script, &obs),
    }
}

/// Runs the scenario under the microprocessor flow. The monitor steps on
/// clock posedges, so the response bound counts CPU cycles: a healthy case
/// responds within ~2k cycles, while a stuck case spins far past 20k.
fn run_matrix_micro(ir: Rc<esw_verify::c::ir::IrProgram>) -> Detection {
    let script = matrix_script();
    let compiled = compile(&ir, CodegenOptions::default()).expect("mutant compiles");
    let addrs = MailboxAddrs::from_compiled(&compiled);
    let read_value_addr = compiled.global_addr("eee_read_value");
    let flash = share_flash(DataFlash::new());
    let mut flow = MicroprocessorFlow::new(compiled, 0x0004_0000, 10);
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
            Box::new(FlashReadWindow::new(flash)),
        );
    }
    let soc = flow.soc();
    for op in Op::ALL {
        let props = bind_micro(op, &soc, flow.compiled());
        flow.add_property(
            &op.to_string(),
            &response_property(op, Some(20_000)),
            props,
            EngineKind::Compiled,
        )
        .expect("property binds");
    }
    let observed = Rc::new(RefCell::new(Vec::new()));
    let driver = MatrixSocDriver {
        script: script.clone(),
        next: 0,
        current: false,
        addrs,
        read_value_addr,
        observed: observed.clone(),
    };
    // 500k ticks = 50k cycles: enough for the healthy script (~7k cycles)
    // plus a stuck case to overrun the 20k-cycle bound.
    let report = flow.run(Box::new(driver), 500_000).expect("flow runs");
    let temporal = report
        .properties
        .iter()
        .any(|p| p.verdict == Verdict::False);
    let obs = observed.borrow().clone();
    Detection {
        temporal,
        oracle: oracle_flags(&script, &obs),
    }
}

#[test]
fn detection_matrix_matches_ground_truth() {
    let healthy = || Rc::new(lower(&parse(EEE_SOURCE).expect("parses")).expect("type-checks"));
    // (name, ir, expected derived detection, expected micro detection)
    let scenarios: Vec<(&str, Rc<esw_verify::c::ir::IrProgram>, Detection, Detection)> = vec![
        (
            "healthy",
            healthy(),
            Detection {
                temporal: false,
                oracle: false,
            },
            Detection {
                temporal: false,
                oracle: false,
            },
        ),
        (
            // Never responds: the monitor's bound expires AND the script
            // never completes, so both detectors fire in both flows.
            "stuck_state_machine",
            stuck_state_machine_ir(),
            Detection {
                temporal: true,
                oracle: true,
            },
            Detection {
                temporal: true,
                oracle: true,
            },
        ),
        (
            // Responds in time but with the wrong code: only the oracle
            // can see it — the paper's division of labour.
            "wrong_return_code",
            wrong_return_code_ir(),
            Detection {
                temporal: false,
                oracle: true,
            },
            Detection {
                temporal: false,
                oracle: true,
            },
        ),
        (
            // Responds in time but corrupts the stored value: again
            // invisible to the response property, caught by the oracle.
            "missing_value_write",
            missing_value_write_ir(),
            Detection {
                temporal: false,
                oracle: true,
            },
            Detection {
                temporal: false,
                oracle: true,
            },
        ),
    ];

    for (name, ir, expect_derived, expect_micro) in scenarios {
        let got_derived = run_matrix_derived(ir.clone());
        let got_micro = run_matrix_micro(ir);
        assert_eq!(
            got_derived, expect_derived,
            "{name}: derived-flow detection matrix mismatch"
        );
        assert_eq!(
            got_micro, expect_micro,
            "{name}: microprocessor-flow detection matrix mismatch"
        );
        if name != "healthy" {
            assert!(
                got_derived.caught() && got_micro.caught(),
                "{name}: every injected bug must be caught in both flows"
            );
        }
    }
}
