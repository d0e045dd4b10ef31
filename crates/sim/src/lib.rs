//! # sctc-sim — discrete-event simulation kernel
//!
//! A from-scratch SystemC substitute providing exactly the mechanisms the
//! SystemC Temporal Checker (SCTC) of the DATE 2008 paper relies on:
//!
//! * simulation time in abstract ticks ([`SimTime`], [`Duration`]),
//! * [`Event`]s with delta / timed notification ([`Notify`]),
//! * cooperative [`Process`]es resumed by the kernel, yielding
//!   [`Activation`]s (wait-on-event, wait-for-time, static wait),
//! * free-running [`Clock`]s with posedge/negedge events.
//!
//! The scheduler is single-threaded and deterministic: given the same model
//! and spawn order, runs are bit-for-bit reproducible.
//!
//! ## Example
//!
//! ```
//! use sctc_sim::{Activation, Duration, Notify, ProcessContext, Simulation};
//!
//! let mut sim = Simulation::new();
//! let clk = sim.create_clock("clk", Duration::from_ticks(10));
//! let done = sim.create_event("done");
//!
//! let mut cycles = 0;
//! sim.spawn_deferred(
//!     "counter",
//!     Box::new(move |ctx: &mut ProcessContext<'_>| {
//!         cycles += 1;
//!         if cycles == 5 {
//!             ctx.notify(done, Notify::Delta);
//!             // Stop the simulation: the free-running clock would
//!             // otherwise keep it alive forever.
//!             ctx.stop();
//!             return Activation::Terminate;
//!         }
//!         Activation::WaitStatic
//!     }),
//!     vec![clk.posedge()],
//! );
//!
//! sim.run_to_completion().unwrap();
//! assert_eq!(sim.event_fire_count(done), 1);
//! // Posedges at t = 0, 10, 20, 30, 40.
//! assert_eq!(sim.now().ticks(), 40);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod event;
mod kernel;
mod process;
mod time;

pub use clock::Clock;
pub use event::{Event, Notify};
pub use kernel::{KernelStats, ProcessContext, RunError, RunOutcome, Simulation};
pub use process::{Activation, Process, ProcessId};
pub use time::{Duration, SimTime};
