//! # faults — fault injection and recovery verification
//!
//! The case-study software exists to keep EEPROM-emulated data alive
//! through flash wear and sudden power loss; this crate verifies exactly
//! that promise, under both of the paper's flows:
//!
//! * [`FaultPlan`] — a deterministic fault schedule (SplitMix64-seeded,
//!   the same determinism contract as the stimulus and campaign crates):
//!   flash command failures, persistent bit flips, stuck-at cells,
//!   transient read errors, and power-loss/reset events that tear the ESW
//!   down mid-operation (CPU + RAM reinitialised for the microprocessor
//!   flow, a fresh interpreter activation for the derived flow) while the
//!   flash array persists.
//! * [`FaultSession`] — drives either flow through the plan, predicts
//!   every outcome with the fault-free [`eee::RefEee`] reference model to
//!   classify deviations as *detections*, and runs the post-cut recovery
//!   protocol (startup sequence, one Format retry, full read-back of
//!   committed records).
//! * Recovery properties in FLTL, monitored online: `G (reset -> F[<=b]
//!   initialized)` and `G intact` ("no torn write is ever served").
//! * One session runner behind every fault session: campaign shards
//!   ([`run_fault_unit`]), SMC samples and the scripted power-loss
//!   [`scenario`] all run an [`EswProgram`] on the `eee` testbench of the
//!   chosen flow through the same monitoring set-up.
//! * [`DetectionMatrix`] — fault class × operation × flow verdicts plus
//!   recovery latency and survived/corrupted record counts, merged from
//!   sharded workers bit-identically for any `--jobs` value (FNV-1a
//!   fingerprint over the canonical rendering).
//!
//! ## Example
//!
//! ```no_run
//! use faults::{run_fault_campaign, FaultCampaignSpec};
//!
//! let report = run_fault_campaign(&FaultCampaignSpec::derived(400, 42).with_jobs(4));
//! println!("{}", report.matrix.to_table());
//! assert_eq!(
//!     report.matrix.fingerprint(),
//!     run_fault_campaign(&FaultCampaignSpec::derived(400, 42).with_jobs(1))
//!         .matrix
//!         .fingerprint()
//! );
//! ```

#![warn(missing_docs)]

mod campaign;
mod matrix;
mod plan;
pub mod scenario;
mod session;

pub use campaign::{
    bind_recovery_derived, bind_recovery_micro, intact_property, recovery_property,
    run_fault_campaign, run_fault_unit, EswProgram, FaultCampaignReport, FaultCampaignSpec,
    FaultUnitSpec,
};
pub use matrix::{DetectionMatrix, FaultRecord, ShardMatrix};
pub use plan::{FaultEvent, FaultPlan, PlannedFault, FAULT_PLAN_SALT};
pub use session::{
    FaultInterpDriver, FaultSession, FaultSocDriver, SharedObservations, SharedRecords, TRAP_RET,
};
