//! Native-Rust reference model of the EEPROM-emulation semantics.
//!
//! [`RefEee`] predicts the return code and observable effects of every
//! operation under fault-free flash. It is the oracle the test suite uses to
//! validate the mini-C implementation on random operation sequences (and,
//! transitively, both verification flows).

use std::collections::BTreeMap;

use crate::ops::{Op, RetCode, NUM_IDS, RECORDS_PER_PAGE};

/// One operation request with its arguments.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// First argument (record id; ignored by page-level ops).
    pub arg0: i32,
    /// Second argument (value for writes).
    pub arg1: i32,
}

impl Request {
    /// Creates a request with both arguments.
    pub fn new(op: Op, arg0: i32, arg1: i32) -> Self {
        Request { op, arg0, arg1 }
    }
}

/// The reference model state.
#[derive(Clone, Debug, Default)]
pub struct RefEee {
    formatted: bool,
    su1_done: bool,
    ready: bool,
    prepared: bool,
    /// Live values by id.
    store: BTreeMap<i32, i32>,
    /// Records used in the active page.
    used: i32,
}

impl RefEee {
    /// A model of a factory-fresh (erased, unformatted) device.
    pub fn new() -> Self {
        RefEee::default()
    }

    /// Returns `true` once startup2 completed.
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// The committed records as (id, value) pairs in id order — the data a
    /// correct emulation must still serve after recovering from a power
    /// loss.
    pub fn records(&self) -> Vec<(i32, i32)> {
        self.store.iter().map(|(&id, &v)| (id, v)).collect()
    }

    /// Models a sudden power loss: every volatile state bit is lost (the
    /// emulation must run the startup sequence again), while the
    /// flash-backed state — the format marker and the committed records —
    /// survives.
    pub fn power_reset(&mut self) {
        self.su1_done = false;
        self.ready = false;
        self.prepared = false;
    }

    /// Re-synchronises the model with an **observed** outcome that may
    /// deviate from the fault-free prediction (fault campaigns call this
    /// after comparing [`RefEee::apply`]'s prediction against the device).
    /// Tracking what the device actually did keeps one faulted operation
    /// from cascading into spurious deviations for every later case.
    pub fn reconcile(&mut self, req: Request, ret: i32, read_value: i32) {
        let ok = ret == RetCode::Ok.code();
        match req.op {
            Op::Format => {
                if ok {
                    self.formatted = true;
                    self.su1_done = false;
                    self.ready = false;
                    self.prepared = false;
                    self.store.clear();
                    self.used = 0;
                }
            }
            Op::Startup1 => {
                if ok {
                    self.su1_done = true;
                }
            }
            Op::Startup2 => {
                if ok {
                    self.ready = true;
                }
            }
            Op::Read => {
                if ok {
                    // The device consistently serves this value from now on.
                    self.store.insert(req.arg0, read_value);
                } else if ret == RetCode::NotFound.code() && (0..NUM_IDS).contains(&req.arg0) {
                    self.store.remove(&req.arg0);
                }
            }
            Op::Write => {
                if ok {
                    self.store.insert(req.arg0, req.arg1);
                    self.used = (self.used + 1).min(RECORDS_PER_PAGE);
                }
            }
            Op::Prepare => {
                if ok {
                    self.prepared = true;
                }
            }
            Op::Refresh => {
                if ok {
                    self.prepared = false;
                    self.used = self.store.len() as i32;
                }
            }
        }
    }

    /// Applies a request, returning the expected return code and, for
    /// successful reads, the expected read value.
    pub fn apply(&mut self, req: Request) -> (RetCode, Option<i32>) {
        match req.op {
            Op::Format => {
                self.formatted = true;
                self.su1_done = false;
                self.ready = false;
                self.prepared = false;
                self.store.clear();
                self.used = 0;
                (RetCode::Ok, None)
            }
            Op::Startup1 => {
                if self.formatted {
                    self.su1_done = true;
                    (RetCode::Ok, None)
                } else {
                    (RetCode::ErrorState, None)
                }
            }
            Op::Startup2 => {
                if self.su1_done {
                    self.ready = true;
                    (RetCode::Ok, None)
                } else {
                    (RetCode::ErrorState, None)
                }
            }
            Op::Read => {
                if !self.ready {
                    return (RetCode::ErrorState, None);
                }
                if !(0..NUM_IDS).contains(&req.arg0) {
                    return (RetCode::ErrorParam, None);
                }
                match self.store.get(&req.arg0) {
                    Some(&v) => (RetCode::Ok, Some(v)),
                    None => (RetCode::NotFound, None),
                }
            }
            Op::Write => {
                if !self.ready {
                    return (RetCode::ErrorState, None);
                }
                if !(0..NUM_IDS).contains(&req.arg0) {
                    return (RetCode::ErrorParam, None);
                }
                if self.used >= RECORDS_PER_PAGE {
                    return (RetCode::Busy, None);
                }
                self.store.insert(req.arg0, req.arg1);
                self.used += 1;
                (RetCode::Ok, None)
            }
            Op::Prepare => {
                if !self.ready {
                    return (RetCode::ErrorState, None);
                }
                self.prepared = true;
                (RetCode::Ok, None)
            }
            Op::Refresh => {
                if !self.ready {
                    return (RetCode::ErrorState, None);
                }
                if !self.prepared {
                    return (RetCode::Busy, None);
                }
                self.prepared = false;
                self.used = self.store.len() as i32;
                (RetCode::Ok, None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_model() -> RefEee {
        let mut m = RefEee::new();
        assert_eq!(m.apply(Request::new(Op::Format, 0, 0)).0, RetCode::Ok);
        assert_eq!(m.apply(Request::new(Op::Startup1, 0, 0)).0, RetCode::Ok);
        assert_eq!(m.apply(Request::new(Op::Startup2, 0, 0)).0, RetCode::Ok);
        m
    }

    #[test]
    fn fresh_device_rejects_everything_but_format_and_startup() {
        let mut m = RefEee::new();
        assert_eq!(m.apply(Request::new(Op::Read, 1, 0)).0, RetCode::ErrorState);
        assert_eq!(
            m.apply(Request::new(Op::Write, 1, 2)).0,
            RetCode::ErrorState
        );
        assert_eq!(
            m.apply(Request::new(Op::Startup1, 0, 0)).0,
            RetCode::ErrorState
        );
        assert_eq!(
            m.apply(Request::new(Op::Startup2, 0, 0)).0,
            RetCode::ErrorState
        );
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = ready_model();
        assert_eq!(m.apply(Request::new(Op::Write, 3, 77)).0, RetCode::Ok);
        assert_eq!(
            m.apply(Request::new(Op::Read, 3, 0)),
            (RetCode::Ok, Some(77))
        );
        assert_eq!(m.apply(Request::new(Op::Read, 4, 0)).0, RetCode::NotFound);
    }

    #[test]
    fn page_fills_after_fifteen_records_and_refresh_compacts() {
        let mut m = ready_model();
        for i in 0..RECORDS_PER_PAGE {
            assert_eq!(
                m.apply(Request::new(Op::Write, i % 4, i)).0,
                RetCode::Ok,
                "write {i}"
            );
        }
        assert_eq!(m.apply(Request::new(Op::Write, 0, 9)).0, RetCode::Busy);
        // Refresh without prepare is busy.
        assert_eq!(m.apply(Request::new(Op::Refresh, 0, 0)).0, RetCode::Busy);
        assert_eq!(m.apply(Request::new(Op::Prepare, 0, 0)).0, RetCode::Ok);
        assert_eq!(m.apply(Request::new(Op::Refresh, 0, 0)).0, RetCode::Ok);
        // Only 4 distinct ids live → room again.
        assert_eq!(m.apply(Request::new(Op::Write, 0, 100)).0, RetCode::Ok);
        // Latest values survived the refresh.
        assert_eq!(
            m.apply(Request::new(Op::Read, 1, 0)),
            (RetCode::Ok, Some(13))
        );
    }

    #[test]
    fn param_validation() {
        let mut m = ready_model();
        assert_eq!(
            m.apply(Request::new(Op::Read, -1, 0)).0,
            RetCode::ErrorParam
        );
        assert_eq!(
            m.apply(Request::new(Op::Read, 16, 0)).0,
            RetCode::ErrorParam
        );
        assert_eq!(
            m.apply(Request::new(Op::Write, 99, 0)).0,
            RetCode::ErrorParam
        );
    }

    #[test]
    fn format_resets_everything() {
        let mut m = ready_model();
        m.apply(Request::new(Op::Write, 1, 1));
        assert_eq!(m.apply(Request::new(Op::Format, 0, 0)).0, RetCode::Ok);
        assert!(!m.is_ready());
        assert_eq!(m.apply(Request::new(Op::Read, 1, 0)).0, RetCode::ErrorState);
        // Startup sequence brings it back, storage is empty.
        m.apply(Request::new(Op::Startup1, 0, 0));
        m.apply(Request::new(Op::Startup2, 0, 0));
        assert_eq!(m.apply(Request::new(Op::Read, 1, 0)).0, RetCode::NotFound);
    }
}
