//! The fault session: flow-agnostic campaign logic shared by the two
//! driver adapters.
//!
//! A [`FaultSession`] replays a request stream (random via [`EeePlan`] or a
//! fixed script), injects the scheduled [`FaultEvent`]s into the shared
//! flash, predicts every outcome with the fault-free [`RefEee`] reference
//! model to classify deviations as detections, and — after a power cut —
//! runs the recovery protocol: restart the emulation (Startup1/Startup2,
//! one Format retry if startup fails) and read back every previously
//! committed record to count survivors, corruptions, and served torn
//! writes. [`FaultInterpDriver`] and [`FaultSocDriver`] adapt the session
//! to the derived-model and microprocessor flows.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use eee::{EeePlan, Op, RefEee, Request, RetCode, SharedFlash, NUM_IDS};
use minic::{ExecState, Interp};
use sctc_core::{InterpDriver, SocDriver};
use sctc_cpu::Soc;

use crate::matrix::FaultRecord;
use crate::plan::{FaultEvent, FaultPlan};

/// Return-code sentinel for runs that trapped / faulted instead of
/// finishing (never a real EEE return value, so it always deviates).
pub const TRAP_RET: i32 = i32::MIN;

/// Shared fault-record log (the driver is consumed by the flow, so results
/// are read back through this handle).
pub type SharedRecords = Rc<RefCell<Vec<FaultRecord>>>;
/// Shared (request, return code, read value) log of every finished case.
pub type SharedObservations = Rc<RefCell<Vec<(Request, i32, i32)>>>;

enum RequestSource {
    Random(EeePlan),
    Script(Vec<Request>, usize),
}

impl RequestSource {
    fn next(&mut self) -> Option<Request> {
        match self {
            RequestSource::Random(plan) => plan.draw().map(|(req, _)| req),
            RequestSource::Script(script, at) => {
                let req = script.get(*at).copied();
                if req.is_some() {
                    *at += 1;
                }
                req
            }
        }
    }
}

#[derive(Copy, Clone, Debug)]
enum RecoveryStep {
    Startup1,
    Startup2 { retried: bool },
    Format,
    ReadBack { id: i32, expected: Option<i32> },
}

fn step_request(step: RecoveryStep) -> Request {
    match step {
        RecoveryStep::Startup1 => Request::new(Op::Startup1, 0, 0),
        RecoveryStep::Startup2 { .. } => Request::new(Op::Startup2, 0, 0),
        RecoveryStep::Format => Request::new(Op::Format, 0, 0),
        RecoveryStep::ReadBack { id, .. } => Request::new(Op::Read, id, 0),
    }
}

enum InFlight {
    Planned { req: Request, record: Option<usize> },
    Recovery { req: Request, step: RecoveryStep },
}

/// Flow-agnostic fault-campaign state machine.
pub struct FaultSession {
    source: RequestSource,
    faults: BTreeMap<u64, FaultEvent>,
    flash: SharedFlash,
    shadow: RefEee,
    planned_index: u64,
    in_flight: Option<InFlight>,
    /// Most recently injected fault, for attributing late deviations of
    /// persistent faults (stuck bits, torn slots).
    active_fault: Option<usize>,
    /// Absolute device-cycle target of an armed power loss.
    cut_target: Option<u64>,
    /// Record index of the armed/firing power loss.
    cut_record: Option<usize>,
    recovery: VecDeque<RecoveryStep>,
    pending_readbacks: Vec<(i32, Option<i32>)>,
    reset_active: bool,
    has_power_loss: bool,
    records: SharedRecords,
    observations: SharedObservations,
}

impl FaultSession {
    /// A session drawing `cases` random requests from the shard seed (the
    /// usual campaign configuration; the request stream is identical to a
    /// fault-free campaign shard because the fault schedule lives in
    /// `plan`, not in the request stimulus).
    pub fn from_plan(seed: u64, cases: u64, plan: &FaultPlan, flash: SharedFlash) -> Self {
        Self::build(
            RequestSource::Random(EeePlan::new(seed, cases).with_fault_percent(0)),
            plan,
            flash,
        )
    }

    /// A session replaying a fixed request script (scenario tests).
    pub fn scripted(script: Vec<Request>, plan: &FaultPlan, flash: SharedFlash) -> Self {
        Self::build(RequestSource::Script(script, 0), plan, flash)
    }

    fn build(source: RequestSource, plan: &FaultPlan, flash: SharedFlash) -> Self {
        FaultSession {
            source,
            faults: plan
                .faults
                .iter()
                .map(|f| (f.case_index, f.event))
                .collect(),
            flash,
            shadow: RefEee::new(),
            planned_index: 0,
            in_flight: None,
            active_fault: None,
            cut_target: None,
            cut_record: None,
            recovery: VecDeque::new(),
            pending_readbacks: Vec::new(),
            reset_active: false,
            has_power_loss: plan.has_power_loss(),
            records: Rc::new(RefCell::new(Vec::new())),
            observations: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Handle to the fault records (valid after the flow consumed the
    /// driver).
    pub fn records_handle(&self) -> SharedRecords {
        self.records.clone()
    }

    /// Handle to the per-case observation log.
    pub fn observations_handle(&self) -> SharedObservations {
        self.observations.clone()
    }

    /// Whether the plan schedules any power loss (gates the per-statement
    /// power hook of the derived flow).
    pub fn has_power_loss(&self) -> bool {
        self.has_power_loss
    }

    /// `true` while the post-cut recovery protocol is running; drivers
    /// mirror it into the `tb_reset` observation global.
    fn reset_active(&self) -> bool {
        self.reset_active
    }

    /// Draws the next request: recovery steps take priority over the
    /// planned stream. Injects the scheduled fault of a planned case.
    fn next_request(&mut self) -> Option<Request> {
        if let Some(step) = self.recovery.pop_front() {
            let req = step_request(step);
            self.in_flight = Some(InFlight::Recovery { req, step });
            return Some(req);
        }
        let req = self.source.next()?;
        let index = self.planned_index;
        self.planned_index += 1;
        let record = self
            .faults
            .get(&index)
            .copied()
            .map(|event| self.apply_event(index, req, event));
        self.in_flight = Some(InFlight::Planned { req, record });
        Some(req)
    }

    fn apply_event(&mut self, case_index: u64, req: Request, event: FaultEvent) -> usize {
        let mut fired = true;
        {
            let mut flash = self.flash.borrow_mut();
            match event {
                FaultEvent::Command(kind) => flash.inject_fault(kind),
                FaultEvent::BitFlip { word, bit } => flash.flip_bit(word as usize, bit),
                FaultEvent::StuckZero { word, bit } => flash.stick_bit(word as usize, bit, false),
                FaultEvent::StuckOne { word, bit } => flash.stick_bit(word as usize, bit, true),
                FaultEvent::TransientRead { word, bit } => {
                    flash.arm_transient_read(word as usize, bit)
                }
                FaultEvent::PowerLoss {
                    after_device_cycles,
                } => {
                    // Armed, not fired: the cut triggers once the device
                    // has consumed the budget (possibly during a later
                    // case if this one is flash-idle). Arming a new cut
                    // replaces an unfired one.
                    fired = false;
                    self.cut_target = Some(flash.device_cycles() + after_device_cycles);
                }
            }
        }
        let mut records = self.records.borrow_mut();
        records.push(FaultRecord {
            case_index,
            op: req.op,
            class: event.class(),
            detail: event.detail(),
            fired,
            detected: false,
            late_detections: 0,
            recovered: None,
            recovery_ops: 0,
            survived: 0,
            corrupted: 0,
        });
        let idx = records.len() - 1;
        drop(records);
        if matches!(event, FaultEvent::PowerLoss { .. }) {
            self.cut_record = Some(idx);
        }
        self.active_fault = Some(idx);
        idx
    }

    /// Polled by the flows' power hooks: `true` exactly once, when an
    /// armed cut's device-cycle target has been reached mid-case.
    fn should_cut(&mut self) -> bool {
        let Some(target) = self.cut_target else {
            return false;
        };
        if !matches!(self.in_flight, Some(InFlight::Planned { .. })) {
            return false;
        }
        if self.flash.borrow().device_cycles() < target {
            return false;
        }
        self.cut_target = None;
        true
    }

    /// Called by the flow after it tore the ESW down and restarted it: the
    /// flash loses volatile state but keeps the array, the shadow model
    /// loses its startup state, and the recovery protocol is queued.
    fn on_power_restored(&mut self) {
        let interrupted = self.in_flight.take();
        self.flash.borrow_mut().power_cycle();
        let committed = self.shadow.records();
        self.shadow.power_reset();
        self.pending_readbacks = committed.iter().map(|&(id, v)| (id, Some(v))).collect();
        if let Some(InFlight::Planned { req, .. }) = &interrupted {
            // A write cut mid-flight is the torn-write candidate: after
            // recovery it must either be absent or serve a committed
            // value — never a half-programmed record.
            if req.op == Op::Write
                && (0..NUM_IDS).contains(&req.arg0)
                && !committed.iter().any(|&(id, _)| id == req.arg0)
            {
                self.pending_readbacks.push((req.arg0, None));
            }
            if let Some(idx) = self.cut_record {
                let mut records = self.records.borrow_mut();
                records[idx].fired = true;
                records[idx].op = req.op;
                records[idx].recovered = Some(false);
            }
        }
        self.recovery.clear();
        self.recovery.push_back(RecoveryStep::Startup1);
        self.recovery
            .push_back(RecoveryStep::Startup2 { retried: false });
        self.reset_active = true;
    }

    /// Records one finished case: deviation detection for planned cases,
    /// protocol advancement for recovery cases.
    fn finish_case(&mut self, ret: i32, read_value: i32) {
        let Some(in_flight) = self.in_flight.take() else {
            return; // interrupted by a cut; the case does not count
        };
        match in_flight {
            InFlight::Planned { req, record } => {
                self.observations.borrow_mut().push((req, ret, read_value));
                let mut predict = self.shadow.clone();
                let (exp_ret, exp_val) = predict.apply(req);
                let mut deviated = ret != exp_ret.code();
                if !deviated && req.op == Op::Read && exp_ret == RetCode::Ok {
                    deviated = exp_val != Some(read_value);
                }
                self.shadow.reconcile(req, ret, read_value);
                if deviated {
                    let mut records = self.records.borrow_mut();
                    if let Some(idx) = record {
                        records[idx].detected = true;
                    } else if let Some(idx) = self.active_fault {
                        records[idx].late_detections += 1;
                    }
                }
            }
            InFlight::Recovery { req, step } => {
                self.observations.borrow_mut().push((req, ret, read_value));
                if let Some(idx) = self.cut_record {
                    self.records.borrow_mut()[idx].recovery_ops += 1;
                }
                self.shadow.reconcile(req, ret, read_value);
                let ok = ret == RetCode::Ok.code();
                match step {
                    RecoveryStep::Startup1 | RecoveryStep::Format => {}
                    RecoveryStep::Startup2 { retried } => {
                        if ok {
                            for &(id, expected) in &self.pending_readbacks {
                                self.recovery
                                    .push_back(RecoveryStep::ReadBack { id, expected });
                            }
                            self.pending_readbacks.clear();
                        } else if retried {
                            // Second startup failure: give up; committed
                            // records are unreachable.
                            let lost = self.pending_readbacks.len() as u32;
                            self.pending_readbacks.clear();
                            if let Some(idx) = self.cut_record {
                                self.records.borrow_mut()[idx].corrupted += lost;
                            }
                            self.recovery.clear();
                        } else {
                            // One repair attempt: reformat and retry the
                            // startup sequence. Formatting erases every
                            // committed record — count them lost.
                            let lost = self.pending_readbacks.len() as u32;
                            self.pending_readbacks.clear();
                            if let Some(idx) = self.cut_record {
                                self.records.borrow_mut()[idx].corrupted += lost;
                            }
                            self.recovery.clear();
                            self.recovery.push_back(RecoveryStep::Format);
                            self.recovery.push_back(RecoveryStep::Startup1);
                            self.recovery
                                .push_back(RecoveryStep::Startup2 { retried: true });
                        }
                    }
                    RecoveryStep::ReadBack { expected, .. } => {
                        if let Some(idx) = self.cut_record {
                            let mut records = self.records.borrow_mut();
                            match expected {
                                Some(v) if ok && read_value == v => records[idx].survived += 1,
                                Some(_) => records[idx].corrupted += 1,
                                // The torn write must stay invisible; any
                                // served value is a half-programmed record.
                                None if ret != RetCode::NotFound.code() => {
                                    records[idx].corrupted += 1
                                }
                                None => {}
                            }
                        }
                    }
                }
                if self.recovery.is_empty() && self.reset_active {
                    let recovered = self.shadow.is_ready();
                    if let Some(idx) = self.cut_record.take() {
                        self.records.borrow_mut()[idx].recovered = Some(recovered);
                    }
                    self.reset_active = false;
                }
            }
        }
    }
}

impl std::fmt::Debug for FaultSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultSession")
            .field("planned_index", &self.planned_index)
            .field("reset_active", &self.reset_active)
            .finish()
    }
}

/// Derived-model flow adapter for a [`FaultSession`].
#[derive(Debug)]
pub struct FaultInterpDriver {
    session: FaultSession,
}

impl FaultInterpDriver {
    /// Wraps a session for the derived flow.
    pub fn new(session: FaultSession) -> Self {
        FaultInterpDriver { session }
    }
}

impl InterpDriver for FaultInterpDriver {
    fn case_finished(&mut self, interp: &mut Interp) {
        match interp.state() {
            ExecState::Finished(_) => {
                let ret = interp.global_by_name("eee_last_ret");
                let value = interp.global_by_name("eee_read_value");
                self.session.finish_case(ret, value);
            }
            ExecState::Trapped(_) => self.session.finish_case(TRAP_RET, 0),
            _ => {}
        }
    }

    fn next_case(&mut self, interp: &mut Interp) -> bool {
        let Some(req) = self.session.next_request() else {
            return false;
        };
        interp.set_global_by_name("req_op", req.op.code());
        interp.set_global_by_name("req_arg0", req.arg0);
        interp.set_global_by_name("req_arg1", req.arg1);
        interp.set_global_by_name("tb_reset", i32::from(self.session.reset_active()));
        interp.start_main().expect("EEE program has a main");
        true
    }

    fn wants_power_hook(&self) -> bool {
        self.session.has_power_loss()
    }

    fn power_cut(&mut self, _interp: &Interp) -> bool {
        self.session.should_cut()
    }

    fn power_restored(&mut self, interp: &mut Interp) {
        self.session.on_power_restored();
        interp.set_global_by_name("tb_reset", 1);
    }
}

/// Microprocessor flow adapter for a [`FaultSession`].
#[derive(Debug)]
pub struct FaultSocDriver {
    session: FaultSession,
    addrs: eee::driver::MailboxAddrs,
    tb_reset_addr: u32,
    read_value_addr: u32,
}

impl FaultSocDriver {
    /// Wraps a session for the microprocessor flow. `tb_reset_addr` and
    /// `read_value_addr` are the compiled addresses of the `tb_reset` and
    /// `eee_read_value` globals.
    pub fn new(
        session: FaultSession,
        addrs: eee::driver::MailboxAddrs,
        tb_reset_addr: u32,
        read_value_addr: u32,
    ) -> Self {
        FaultSocDriver {
            session,
            addrs,
            tb_reset_addr,
            read_value_addr,
        }
    }
}

impl SocDriver for FaultSocDriver {
    fn case_finished(&mut self, soc: &mut Soc) {
        if soc.fault.is_some() {
            self.session.finish_case(TRAP_RET, 0);
            return;
        }
        let ret = soc
            .mem
            .peek_u32(self.addrs.eee_last_ret)
            .expect("mailbox lies in RAM") as i32;
        let value = soc
            .mem
            .peek_u32(self.read_value_addr)
            .expect("mailbox lies in RAM") as i32;
        self.session.finish_case(ret, value);
    }

    fn next_case(&mut self, soc: &mut Soc) -> bool {
        let Some(req) = self.session.next_request() else {
            return false;
        };
        soc.mem
            .write_u32(self.addrs.req_op, req.op.code() as u32)
            .expect("mailbox lies in RAM");
        soc.mem
            .write_u32(self.addrs.req_arg0, req.arg0 as u32)
            .expect("mailbox lies in RAM");
        soc.mem
            .write_u32(self.addrs.req_arg1, req.arg1 as u32)
            .expect("mailbox lies in RAM");
        soc.mem
            .write_u32(self.tb_reset_addr, u32::from(self.session.reset_active()))
            .expect("mailbox lies in RAM");
        true
    }

    fn power_cut(&mut self, _soc: &Soc) -> bool {
        self.session.should_cut()
    }

    fn power_restored(&mut self, soc: &mut Soc) {
        self.session.on_power_restored();
        soc.mem
            .write_u32(self.tb_reset_addr, 1)
            .expect("mailbox lies in RAM");
    }
}
