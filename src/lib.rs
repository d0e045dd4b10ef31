//! # esw-verify — simulation-based verification of temporal properties in
//! automotive embedded software
//!
//! A from-scratch Rust reproduction of *"Verification of Temporal Properties
//! in Automotive Embedded Software"* (Lettnin et al., DATE 2008): a
//! SystemC-style temporal checker (SCTC) extended to observe embedded
//! software, with the paper's two verification flows —
//!
//! 1. **Microprocessor flow**: the software (mini-C, compiled to a 32-bit
//!    RISC) runs on a clocked processor model; the checker reads its
//!    variables out of memory, triggered by the processor clock.
//! 2. **Derived-model flow**: a simulation model is derived from the C
//!    program (one statement = one time step, a program-counter event per
//!    statement) and checked directly — dramatically faster.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `sctc-sim` | discrete-event kernel (SystemC substitute) |
//! | [`temporal`] | `sctc-temporal` | FLTL/PSL parsing, IL, AR-automata |
//! | [`sctc`] | `sctc-core` | propositions, checker, ESW monitor, flows |
//! | [`c`] | `minic` | mini-C frontend, interpreter, deriver, codegen |
//! | [`cpu`] | `sctc-cpu` | RISC processor model, assembler, MMIO |
//! | [`case_study`] | `eee` | the EEPROM-emulation case study |
//! | [`baselines`] | `checkers` | CDCL SAT, BMC, predicate abstraction |
//! | [`testbench`] | `stimuli` | constrained-random stimuli, coverage |
//! | [`campaign`] | `sctc-campaign` | sharded parallel verification campaigns |
//! | [`faults`] | `faults` | fault injection, power-loss recovery verification |
//! | [`smc`] | `sctc-smc` | statistical model checking: SPRT campaigns with error bounds |
//!
//! ## Quickstart
//!
//! ```
//! use std::rc::Rc;
//! use esw_verify::prelude::*;
//!
//! let src = "
//!     int mode = 0;
//!     int main() { mode = 1; mode = 2; return mode; }
//! ";
//! let ir = Rc::new(c::lower(&c::parse(src)?)?);
//! let mut flow = DerivedModelFlow::new(Interp::with_virtual_memory(ir));
//! let h = flow.interp();
//! flow.add_property(
//!     "mode_sequence",
//!     &temporal::parse("F (armed & F[<=10] active)")?,
//!     vec![
//!         esw::global_eq("armed", h.clone(), "mode", 1),
//!         esw::global_eq("active", h.clone(), "mode", 2),
//!     ],
//!     EngineKind::Compiled,
//! ).unwrap();
//! let report = flow.run(Box::new(SingleRun::new()), 100_000).unwrap();
//! assert_eq!(report.properties[0].verdict, Verdict::True);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod diff;

/// The discrete-event simulation kernel (SystemC substitute).
pub use sctc_sim as sim;

/// Temporal logic: FLTL/PSL parsing, intermediate language, AR-automata.
pub use sctc_temporal as temporal;

/// The SystemC Temporal Checker for embedded software and the two flows.
pub use sctc_core as sctc;

/// The mini-C language: frontend, interpreter, derived models, codegen.
pub use minic as c;

/// The microprocessor model.
pub use sctc_cpu as cpu;

/// The EEPROM-emulation automotive case study.
pub use eee as case_study;

/// Baseline formal checkers (SAT, BMC, predicate abstraction).
pub use checkers as baselines;

/// Constrained-random stimulus generation and coverage.
pub use stimuli as testbench;

/// Sharded, reproducible parallel verification campaigns.
pub use sctc_campaign as campaign;

/// Fault injection, power-loss scenarios, and recovery verification.
pub use faults;

/// Statistical model checking: sequential (SPRT) and fixed-sample
/// campaigns over seeded fault plans.
pub use sctc_smc as smc;

/// The most common imports for building a verification run.
pub mod prelude {
    pub use crate::c::{self, Interp, VirtualMemory};
    pub use crate::cpu;
    pub use crate::sctc::{esw, mem, DerivedModelFlow, EngineKind, MicroprocessorFlow, SingleRun};
    pub use crate::sim::{Duration, SimTime, Simulation};
    pub use crate::temporal::{self, Verdict};
}
