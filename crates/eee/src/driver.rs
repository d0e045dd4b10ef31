//! Constrained-random test drivers for the two verification flows.
//!
//! An [`EeePlan`] draws operation requests and flash-fault injections from a
//! seeded [`Stimulus`]; [`EeeInterpDriver`] and [`EeeSocDriver`] apply the
//! plan to the derived-model and microprocessor flows respectively, while
//! recording return-code coverage (the paper's C.(%) column).

use std::cell::RefCell;
use std::rc::Rc;

use minic::codegen::CompiledProgram;
use minic::{ExecState, Interp};
use sctc_core::{InterpDriver, SocDriver};
use sctc_cpu::Soc;
use stimuli::{ReturnCoverage, Stimulus};

use crate::flash::{FaultKind, SharedFlash};
use crate::ops::{Op, NUM_IDS};
use crate::reference::Request;

/// A shareable coverage collector (the driver is consumed by the flow, so
/// results are read through this handle).
pub type SharedCoverage = Rc<RefCell<ReturnCoverage>>;

/// Creates a coverage collector pre-declared with every operation's
/// specified return codes.
pub fn coverage_for_ops() -> SharedCoverage {
    let mut cov = ReturnCoverage::new();
    for op in Op::ALL {
        let spec: Vec<i32> = op.specified_returns().iter().map(|r| r.code()).collect();
        cov.declare(&op.to_string(), &spec);
    }
    Rc::new(RefCell::new(cov))
}

/// The constrained-random test plan shared by both flows.
#[derive(Debug)]
pub struct EeePlan {
    stim: Stimulus,
    remaining: u64,
    fault_percent: u32,
    preamble: Vec<Request>,
}

impl EeePlan {
    /// Creates a plan for `cases` test cases from a seed.
    ///
    /// By default the plan starts with a Format/Startup1/Startup2 preamble
    /// (bringing the emulation into the ready state, as a real integration
    /// test would) and injects a flash fault in 10% of the cases.
    pub fn new(seed: u64, cases: u64) -> Self {
        EeePlan {
            stim: Stimulus::new(seed),
            remaining: cases,
            fault_percent: 10,
            preamble: vec![
                Request::new(Op::Startup2, 0, 0), // popped back to front
                Request::new(Op::Startup1, 0, 0),
                Request::new(Op::Format, 0, 0),
            ],
        }
    }

    /// Sets the per-case flash-fault injection probability in percent.
    pub fn with_fault_percent(mut self, percent: u32) -> Self {
        self.fault_percent = percent;
        self
    }

    /// Draws the next request plus an optional fault to inject, or `None`
    /// when the budget is exhausted. Public so external fault campaigns can
    /// reuse the exact request stream (typically with
    /// [`EeePlan::with_fault_percent`]`(0)` and their own fault schedule).
    pub fn draw(&mut self) -> Option<(Request, Option<FaultKind>)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if let Some(req) = self.preamble.pop() {
            return Some((req, None));
        }
        let op = self.stim.weighted(&[
            (Op::Read, 28),
            (Op::Write, 28),
            (Op::Format, 4),
            (Op::Prepare, 10),
            (Op::Refresh, 10),
            (Op::Startup1, 10),
            (Op::Startup2, 10),
        ]);
        // Mostly valid ids, occasionally out-of-range to hit the parameter
        // checks (the constrained part of "constrained random").
        let id = if self.stim.chance(8) {
            self.stim.pick(&[-2, -1, 16, 99])
        } else {
            self.stim.int_in(0, NUM_IDS - 1)
        };
        let value = self.stim.int_in(0, 1_000_000);
        let fault = if self.stim.chance(self.fault_percent) {
            Some(
                self.stim
                    .pick(&[FaultKind::EraseFail, FaultKind::ProgramFail]),
            )
        } else {
            None
        };
        Some((Request::new(op, id, value), fault))
    }
}

/// Derived-model flow driver.
pub struct EeeInterpDriver {
    plan: EeePlan,
    flash: SharedFlash,
    coverage: SharedCoverage,
    current: Option<Op>,
    traps: Rc<RefCell<Vec<String>>>,
}

impl EeeInterpDriver {
    /// Creates the driver. Coverage is recorded into `coverage`; any
    /// interpreter trap is recorded into the shared `traps` list (the run
    /// itself continues).
    pub fn new(
        plan: EeePlan,
        flash: SharedFlash,
        coverage: SharedCoverage,
        traps: Rc<RefCell<Vec<String>>>,
    ) -> Self {
        EeeInterpDriver {
            plan,
            flash,
            coverage,
            current: None,
            traps,
        }
    }
}

impl InterpDriver for EeeInterpDriver {
    fn case_finished(&mut self, interp: &mut Interp) {
        let Some(op) = self.current.take() else {
            return;
        };
        match interp.state() {
            ExecState::Finished(_) => {
                let ret = interp.global_by_name("eee_last_ret");
                self.coverage.borrow_mut().record(&op.to_string(), ret);
            }
            ExecState::Trapped(e) => {
                self.traps.borrow_mut().push(format!("{op}: {e}"));
            }
            _ => {}
        }
    }

    fn next_case(&mut self, interp: &mut Interp) -> bool {
        let Some((req, fault)) = self.plan.draw() else {
            return false;
        };
        if let Some(kind) = fault {
            self.flash.borrow_mut().inject_fault(kind);
        }
        interp.set_global_by_name("req_op", req.op.code());
        interp.set_global_by_name("req_arg0", req.arg0);
        interp.set_global_by_name("req_arg1", req.arg1);
        self.current = Some(req.op);
        interp.start_main().expect("EEE program has a main");
        true
    }
}

impl std::fmt::Debug for EeeInterpDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EeeInterpDriver").finish()
    }
}

/// Memory addresses of the mailbox globals in the compiled image.
#[derive(Copy, Clone, Debug)]
pub struct MailboxAddrs {
    /// `req_op`
    pub req_op: u32,
    /// `req_arg0`
    pub req_arg0: u32,
    /// `req_arg1`
    pub req_arg1: u32,
    /// `eee_last_ret`
    pub eee_last_ret: u32,
}

impl MailboxAddrs {
    /// Looks the addresses up in a compiled program.
    pub fn from_compiled(compiled: &CompiledProgram) -> Self {
        MailboxAddrs {
            req_op: compiled.global_addr("req_op"),
            req_arg0: compiled.global_addr("req_arg0"),
            req_arg1: compiled.global_addr("req_arg1"),
            eee_last_ret: compiled.global_addr("eee_last_ret"),
        }
    }
}

/// Microprocessor flow driver: pokes the mailbox in RAM and injects faults
/// into the shared flash device.
pub struct EeeSocDriver {
    plan: EeePlan,
    flash: SharedFlash,
    coverage: SharedCoverage,
    addrs: MailboxAddrs,
    current: Option<Op>,
    faults: Rc<RefCell<Vec<String>>>,
}

impl EeeSocDriver {
    /// Creates the driver. CPU faults (which must not happen) are recorded
    /// into the shared `faults` list.
    pub fn new(
        plan: EeePlan,
        flash: SharedFlash,
        coverage: SharedCoverage,
        addrs: MailboxAddrs,
        faults: Rc<RefCell<Vec<String>>>,
    ) -> Self {
        EeeSocDriver {
            plan,
            flash,
            coverage,
            addrs,
            current: None,
            faults,
        }
    }
}

impl SocDriver for EeeSocDriver {
    fn case_finished(&mut self, soc: &mut Soc) {
        let Some(op) = self.current.take() else {
            return;
        };
        if let Some(e) = &soc.fault {
            self.faults.borrow_mut().push(format!("{op}: {e}"));
            return;
        }
        let ret = soc
            .mem
            .peek_u32(self.addrs.eee_last_ret)
            .expect("mailbox lies in RAM") as i32;
        self.coverage.borrow_mut().record(&op.to_string(), ret);
    }

    fn next_case(&mut self, soc: &mut Soc) -> bool {
        let Some((req, fault)) = self.plan.draw() else {
            return false;
        };
        if let Some(kind) = fault {
            self.flash.borrow_mut().inject_fault(kind);
        }
        soc.mem
            .write_u32(self.addrs.req_op, req.op.code() as u32)
            .expect("mailbox lies in RAM");
        soc.mem
            .write_u32(self.addrs.req_arg0, req.arg0 as u32)
            .expect("mailbox lies in RAM");
        soc.mem
            .write_u32(self.addrs.req_arg1, req.arg1 as u32)
            .expect("mailbox lies in RAM");
        self.current = Some(req.op);
        true
    }
}

impl std::fmt::Debug for EeeSocDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EeeSocDriver").finish()
    }
}

/// A scripted (non-random) driver for the derived flow: plays a fixed
/// request sequence and collects the return codes. Used by tests comparing
/// against the reference model.
#[derive(Debug)]
pub struct ScriptedInterpDriver {
    script: Vec<Request>,
    next: usize,
    current: Option<Request>,
    /// Observed (request, return code, read value) triples.
    pub observed: Rc<RefCell<Vec<(Request, i32, i32)>>>,
}

impl ScriptedInterpDriver {
    /// Creates a driver playing `script` in order.
    pub fn new(script: Vec<Request>) -> Self {
        ScriptedInterpDriver {
            script,
            next: 0,
            current: None,
            observed: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Returns the shared observation log.
    pub fn observations(&self) -> Rc<RefCell<Vec<(Request, i32, i32)>>> {
        self.observed.clone()
    }
}

impl InterpDriver for ScriptedInterpDriver {
    fn case_finished(&mut self, interp: &mut Interp) {
        if let Some(req) = self.current.take() {
            assert!(
                matches!(interp.state(), ExecState::Finished(_)),
                "EEE run must finish cleanly, got {:?}",
                interp.state()
            );
            let ret = interp.global_by_name("eee_last_ret");
            let value = interp.global_by_name("eee_read_value");
            self.observed.borrow_mut().push((req, ret, value));
        }
    }

    fn next_case(&mut self, interp: &mut Interp) -> bool {
        let Some(&req) = self.script.get(self.next) else {
            return false;
        };
        self.next += 1;
        interp.set_global_by_name("req_op", req.op.code());
        interp.set_global_by_name("req_arg0", req.arg0);
        interp.set_global_by_name("req_arg1", req.arg1);
        self.current = Some(req);
        interp.start_main().expect("EEE program has a main");
        true
    }
}
