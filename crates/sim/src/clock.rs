//! Free-running clocks.
//!
//! A [`Clock`] is a kernel process that fires posedge/negedge events.
//! The microprocessor verification flow (paper Section 3.1) uses the clock's
//! posedge as the timing reference for temporal properties.

use crate::event::{Event, Notify};
use crate::kernel::{ProcessContext, Simulation};
use crate::process::Activation;
use crate::time::Duration;

/// A periodic clock: a pair of edge events fired by a clock process.
///
/// The first posedge occurs at time zero, then every `period` ticks. Negedges
/// fall halfway through the period (rounded down, at least one tick after the
/// posedge).
///
/// # Examples
///
/// ```
/// use sctc_sim::{Duration, Simulation};
///
/// let mut sim = Simulation::new();
/// let clk = sim.create_clock("clk", Duration::from_ticks(4));
/// sim.run_for(Duration::from_ticks(10)).unwrap();
/// assert_eq!(sim.event_fire_count(clk.posedge()), 3); // t = 0, 4, 8
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Clock {
    posedge: Event,
    negedge: Event,
    period: Duration,
}

impl Clock {
    /// Returns the event fired on every rising edge.
    pub fn posedge(&self) -> Event {
        self.posedge
    }

    /// Returns the event fired on every falling edge.
    pub fn negedge(&self) -> Event {
        self.negedge
    }

    /// Returns the clock period.
    pub fn period(&self) -> Duration {
        self.period
    }
}

struct ClockProc {
    posedge: Event,
    negedge: Event,
    high_time: Duration,
    low_time: Duration,
    level: bool,
}

impl crate::process::Process for ClockProc {
    fn resume(&mut self, ctx: &mut ProcessContext<'_>) -> Activation {
        self.level = !self.level;
        if self.level {
            ctx.notify(self.posedge, Notify::Delta);
            Activation::WaitTime(self.high_time)
        } else {
            ctx.notify(self.negedge, Notify::Delta);
            Activation::WaitTime(self.low_time)
        }
    }
}

impl Simulation {
    /// Creates a free-running clock with the given period in ticks.
    ///
    /// # Panics
    ///
    /// Panics if `period` is less than two ticks (a clock needs distinct
    /// high and low phases).
    pub fn create_clock(&mut self, name: &str, period: Duration) -> Clock {
        assert!(
            period.ticks() >= 2,
            "clock period must be at least two ticks"
        );
        let posedge = self.create_event(&format!("{name}.posedge"));
        let negedge = self.create_event(&format!("{name}.negedge"));
        let high_time = Duration::from_ticks(period.ticks() / 2);
        let low_time = Duration::from_ticks(period.ticks() - high_time.ticks());
        self.spawn(
            &format!("{name}.gen"),
            Box::new(ClockProc {
                posedge,
                negedge,
                high_time,
                low_time,
                level: false,
            }),
        );
        Clock {
            posedge,
            negedge,
            period,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn posedges_and_negedges_alternate() {
        let mut sim = Simulation::new();
        let clk = sim.create_clock("clk", Duration::from_ticks(10));
        sim.run_until(SimTime::from_ticks(49)).unwrap();
        assert_eq!(sim.event_fire_count(clk.posedge()), 5); // 0,10,20,30,40
        assert_eq!(sim.event_fire_count(clk.negedge()), 5); // 5,15,25,35,45
        assert_eq!(sim.stats().events_fired, 10); // the edges, nothing else
    }

    #[test]
    fn odd_period_splits_phases() {
        let mut sim = Simulation::new();
        let clk = sim.create_clock("clk", Duration::from_ticks(3));
        assert_eq!(clk.period(), Duration::from_ticks(3));
        sim.run_until(SimTime::from_ticks(8)).unwrap();
        // Posedges at 0, 3, 6.
        assert_eq!(sim.event_fire_count(clk.posedge()), 3);
    }

    #[test]
    #[should_panic(expected = "at least two ticks")]
    fn period_of_one_is_rejected() {
        let mut sim = Simulation::new();
        let _ = sim.create_clock("clk", Duration::from_ticks(1));
    }
}
