//! # eee — the automotive EEPROM-emulation case study
//!
//! A from-scratch rebuild of the paper's industrial case study: EEPROM
//! emulation over data flash, layered exactly like the original —
//!
//! * **DFALib** (data-flash access layer) and **EEELib** (emulation layer
//!   with the operations `format, prepare, read, write, refresh, startup1,
//!   startup2`) written in mini-C ([`EEE_SOURCE`]), heavily state-driven
//!   with the shared `ready/abort/error/finish` states; [`build_ir`] and
//!   [`compiled_program`] hand out its IR and program image, built once
//!   per thread;
//! * a [`DataFlash`] hardware model (pages, NOR program/erase semantics,
//!   busy cycles, injectable faults) with adapters for both flows;
//! * the testbench each flow runs on, the one place the flash is wired
//!   to the software: [`derived_testbench`] and [`micro_testbench`], plus
//!   [`flash_soc`], the bare SoC for code that steps the core itself;
//! * a native-Rust [`RefEee`] reference model used as test oracle;
//! * the property set of Section 4 ([`response_property`]) and assembled
//!   experiments ([`run_derived`], [`run_micro`]).
//!
//! ## Example: one scaled-down Fig. 8 cell
//!
//! ```no_run
//! use eee::{run_derived, ExperimentConfig};
//!
//! let outcome = run_derived(ExperimentConfig {
//!     cases: 50,
//!     bound: Some(1000),
//!     ..ExperimentConfig::default()
//! });
//! assert!(outcome.violations.is_empty());
//! println!("coverage: {:.0}%", outcome.overall_coverage);
//! ```

#![warn(missing_docs)]

pub mod driver;
mod experiment;
pub mod flash;
mod ops;
mod properties;
mod reference;
mod source;
mod testbench;

pub use driver::{coverage_for_ops, EeeInterpDriver, EeePlan, EeeSocDriver, ScriptedInterpDriver};
pub use experiment::{
    run_derived, run_derived_single, run_derived_with_ops, run_micro, run_micro_single,
    run_micro_with_ops, ExperimentConfig, ExperimentOutcome,
};
pub use flash::{
    share_flash, DataFlash, FaultKind, FlashMemory, FlashMmio, FlashReadWindow, SharedFlash,
    ERASED, ERASE_BUSY_CYCLES, FLASH_READ_BASE, FLASH_READ_LEN, FLASH_REG_BASE, FLASH_REG_LEN,
    NUM_PAGES, PAGE_WORDS, PROGRAM_BUSY_CYCLES,
};
pub use ops::{Op, RetCode, NUM_IDS, RECORDS_PER_PAGE};
pub use properties::{bind_derived, bind_micro, response_property};
pub use reference::{RefEee, Request};
pub use source::{build_ir, compiled_program, EEE_SOURCE};
pub use testbench::{derived_testbench, flash_soc, micro_testbench};
