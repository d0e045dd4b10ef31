//! Events and notification kinds.
//!
//! Events follow SystemC semantics. An [`Event`] is a lightweight handle into
//! the kernel's event table; notification comes in two flavours
//! ([`Notify`]): delta (next delta cycle) and timed (a future simulation
//! time).

use std::fmt;

use crate::process::ProcessId;
use crate::time::Duration;

/// A handle to a kernel-owned event.
///
/// Create events with [`Simulation::create_event`] and notify them from
/// process code through [`ProcessContext::notify`].
///
/// # Examples
///
/// ```
/// use sctc_sim::Simulation;
///
/// let mut sim = Simulation::new();
/// let e = sim.create_event("irq");
/// assert_eq!(sim.event_name(e), "irq");
/// ```
///
/// [`Simulation::create_event`]: crate::Simulation::create_event
/// [`ProcessContext::notify`]: crate::ProcessContext::notify
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Event(pub(crate) u32);

impl Event {
    /// Returns the raw index of this event in the kernel's event table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}", self.0)
    }
}

/// How an event notification is delivered.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Notify {
    /// Wake waiting processes in the next delta cycle (SystemC
    /// `notify(SC_ZERO_TIME)`).
    Delta,
    /// Wake waiting processes after the given simulation-time offset.
    After(Duration),
}

/// Kernel-internal record for one event.
#[derive(Debug, Default)]
pub(crate) struct EventRecord {
    pub(crate) name: String,
    /// Processes dynamically waiting on this event (cleared when fired).
    pub(crate) waiters: Vec<ProcessId>,
    /// Processes statically sensitive to this event (persistent).
    pub(crate) static_sensitive: Vec<ProcessId>,
    /// Number of times this event has fired (for statistics).
    pub(crate) fired: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_handle_exposes_index_and_display() {
        let e = Event(3);
        assert_eq!(e.index(), 3);
        assert_eq!(e.to_string(), "event#3");
    }

    #[test]
    fn notify_kinds_are_distinct() {
        assert_ne!(Notify::Delta, Notify::After(Duration::ZERO));
    }
}
