//! Runtime monitors: the executable form of a property.
//!
//! Two monitors share the [`TraceMonitor`] interface:
//!
//! * [`Monitor`] (here) progresses the IL formula lazily — no synthesis
//!   cost, state grows on demand; the checker falls back to it for
//!   formulas synthesis refuses;
//! * [`CompiledMonitor`](crate::CompiledMonitor) steps an explicitly
//!   synthesized [`ArAutomaton`](crate::ArAutomaton) — all cost paid at
//!   generation time, O(1) steps.
//!
//! Both latch their verdict: once decided, further steps cannot change it.

use std::collections::HashMap;
use std::fmt;

use crate::ast::Formula;
use crate::il::{IlError, IlStore, NodeId};
use crate::progress::{progress_with, Valuation};
use crate::verdict::Verdict;

/// Common interface of property monitors.
pub trait TraceMonitor {
    /// Consumes one observation step and returns the (latched) verdict.
    fn step(&mut self, valuation: Valuation) -> Verdict;

    /// Returns the current verdict without consuming a step.
    fn verdict(&self) -> Verdict;

    /// Returns the number of steps consumed so far.
    fn steps(&self) -> u64;

    /// Returns the step index (1-based) at which the verdict became
    /// decided, or `None` while pending.
    fn decided_at(&self) -> Option<u64>;

    /// Returns the proposition names in valuation-bit order.
    fn props(&self) -> &[String];

    /// Returns the monitor to its initial state: verdict pending, step
    /// count zero. Synthesis/interning work is retained.
    fn reset(&mut self);
}

/// A progression-based (lazy) monitor.
///
/// # Examples
///
/// ```
/// use sctc_temporal::{parse, Monitor, TraceMonitor, Verdict};
///
/// let f = parse("G[<=2] ok")?;
/// let mut m = Monitor::new(&f).unwrap();
/// assert_eq!(m.step(0b1), Verdict::Pending);
/// assert_eq!(m.step(0b1), Verdict::Pending);
/// assert_eq!(m.step(0b1), Verdict::True);
/// # Ok::<(), sctc_temporal::ParseError>(())
/// ```
pub struct Monitor {
    store: IlStore,
    root: NodeId,
    current: NodeId,
    steps: u64,
    decided_at: Option<u64>,
    /// Progression memo: `(node, valuation) -> progressed node`. Sound
    /// because IL nodes are hash-consed (a `NodeId` names one immutable
    /// term forever), so a repeated valuation — the common case on a
    /// sampled trace — progresses in O(1) instead of re-walking the
    /// formula DAG.
    memo: HashMap<(NodeId, Valuation), NodeId>,
    /// Scratch memo for a single progression call (cleared, not
    /// reallocated, per step).
    scratch: HashMap<NodeId, NodeId>,
}

impl Monitor {
    /// Creates a monitor for a formula.
    ///
    /// # Errors
    ///
    /// Fails if the formula uses more than 64 propositions.
    pub fn new(formula: &Formula) -> Result<Self, IlError> {
        let (store, root) = IlStore::from_formula(formula)?;
        Ok(Monitor {
            store,
            root,
            current: root,
            steps: 0,
            decided_at: None,
            memo: HashMap::new(),
            scratch: HashMap::new(),
        })
    }

    /// Renders the residual obligation as FLTL text (for diagnostics).
    pub fn residual(&self) -> String {
        self.store.render(self.current)
    }

    /// One memoized progression of the current obligation.
    #[inline]
    fn progress_current(&mut self, valuation: Valuation) -> NodeId {
        if let Some(&next) = self.memo.get(&(self.current, valuation)) {
            return next;
        }
        self.scratch.clear();
        let next = progress_with(&mut self.store, self.current, valuation, &mut self.scratch);
        self.memo.insert((self.current, valuation), next);
        next
    }
}

impl TraceMonitor for Monitor {
    fn step(&mut self, valuation: Valuation) -> Verdict {
        if self.verdict() == Verdict::Pending {
            self.current = self.progress_current(valuation);
            self.steps += 1;
            if self.verdict().is_decided() && self.decided_at.is_none() {
                self.decided_at = Some(self.steps);
            }
        } else {
            self.steps += 1;
        }
        self.verdict()
    }

    fn verdict(&self) -> Verdict {
        if self.current == IlStore::TRUE {
            Verdict::True
        } else if self.current == IlStore::FALSE {
            Verdict::False
        } else {
            Verdict::Pending
        }
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn decided_at(&self) -> Option<u64> {
        self.decided_at
    }

    fn props(&self) -> &[String] {
        self.store.props()
    }

    fn reset(&mut self) {
        // Interned IL nodes stay in the store (they are shared,
        // hash-consed terms); only the cursor rewinds.
        self.current = self.root;
        self.steps = 0;
        self.decided_at = None;
    }
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("steps", &self.steps)
            .field("verdict", &self.verdict())
            .field("residual", &self.residual())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledMonitor;
    use crate::parser::parse;
    use crate::progress::valuation_from_bools;

    #[test]
    fn verdict_latches_after_decision() {
        let f = parse("F[<=1] p").unwrap();
        let mut m = Monitor::new(&f).unwrap();
        assert_eq!(m.step(0b1), Verdict::True);
        assert_eq!(m.decided_at(), Some(1));
        // A later p=false step cannot undo the verdict.
        assert_eq!(m.step(0b0), Verdict::True);
        assert_eq!(m.steps(), 2);
    }

    #[test]
    fn lazy_and_table_monitors_agree_step_by_step() {
        let f = parse("G (a -> F[<=4] b)").unwrap();
        let mut lazy = Monitor::new(&f).unwrap();
        let mut table = CompiledMonitor::new(&f).unwrap();
        assert_eq!(lazy.props(), table.props());
        let trace: Vec<u64> = vec![0b01, 0b00, 0b00, 0b10, 0b01, 0b00, 0b00, 0b00, 0b00];
        for &v in &trace {
            assert_eq!(lazy.step(v), table.step(v));
        }
        assert_eq!(lazy.verdict(), Verdict::False);
        assert_eq!(lazy.decided_at(), table.decided_at());
    }

    #[test]
    fn lazy_memo_survives_reset_and_stays_correct() {
        let f = parse("F[<=40] p").unwrap();
        let mut m = Monitor::new(&f).unwrap();
        for _ in 0..41 {
            m.step(0b0);
        }
        assert_eq!(m.verdict(), Verdict::False);
        TraceMonitor::reset(&mut m);
        // The second run is answered from the (node, valuation) memo and
        // must land on the identical verdict and decision index.
        for _ in 0..41 {
            m.step(0b0);
        }
        assert_eq!(m.verdict(), Verdict::False);
        assert_eq!(m.decided_at(), Some(41));
    }

    #[test]
    fn lazy_monitor_resets_to_its_root_obligation() {
        let f = parse("F[<=2] p").unwrap();
        let mut m = Monitor::new(&f).unwrap();
        assert_eq!(m.step(0b0), Verdict::Pending);
        assert_eq!(m.step(0b0), Verdict::Pending);
        assert_eq!(m.step(0b0), Verdict::False);
        TraceMonitor::reset(&mut m);
        assert_eq!(m.verdict(), Verdict::Pending);
        assert_eq!(m.steps(), 0);
        assert!(m.residual().contains("[<=2]"));
        assert_eq!(m.step(0b1), Verdict::True);
        assert_eq!(m.decided_at(), Some(1));
    }

    #[test]
    fn residual_rendering_shows_decremented_bound() {
        let f = parse("F[<=5] p").unwrap();
        let mut m = Monitor::new(&f).unwrap();
        m.step(0b0);
        assert!(m.residual().contains("[<=4]"));
    }

    #[test]
    fn props_follow_sorted_order() {
        let f = parse("zz & aa").unwrap();
        let m = Monitor::new(&f).unwrap();
        assert_eq!(m.props(), &["aa".to_owned(), "zz".to_owned()]);
        // Valuation bit 0 is `aa`.
        let v = valuation_from_bools(&[true, false]);
        assert_eq!(v, 0b01);
    }
}
