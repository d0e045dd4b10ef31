//! Diagnosis layer for the SCTC reproduction: a zero-cost-when-disabled
//! observability subsystem threaded through both verification flows.
//!
//! The paper's value proposition is *debuggability of temporal
//! failures* — SCTC tells the engineer where on the simulated trace an
//! FLTL property failed so the surrounding EEPROM-emulation state can
//! be inspected.  This crate supplies the parts that turn the
//! reproduction's verdict oracle into a debuggable tool:
//!
//! * [`witness`] — bounded counterexample [`Witness`] extraction: the
//!   last K trigger samples as stutter-compressed valuation runs, the
//!   AR-automaton state path, the deciding sample index, and the
//!   dirty-set provenance of the deciding trigger.
//! * [`vcd`] — a gtkwave-loadable [`VcdDoc`] writer (plus a parser for
//!   round-trip checks) carrying property timeline channels: one
//!   `verdict` wire and one wire per interned atom, per property.
//! * [`span`] — hierarchical [`SpanProfiler`] timing spans (simulate /
//!   sample / automaton-step / synthesis / shard-merge) aggregated into
//!   mergeable [`SpanStats`] that ride `RunReport` → `CampaignReport` →
//!   `DetectionMatrix` outside every fingerprint.
//! * [`metrics`] — the verification service's [`Metrics`] registry of
//!   counters and histograms with bucketed quantiles (p50/p90/p99),
//!   snapshotted into the server's `Telemetry` reply.
//! * [`trace`] — the live telemetry plane: structured [`TraceEvent`]s
//!   with per-job `trace_id` correlation, an always-on bounded flight
//!   recorder, and a monotone progress bus feeding the server's
//!   streamed `Progress` frames.
//!
//! Everything here is plain data plus `std`; the only dependency is
//! `sctc-temporal` (for [`sctc_temporal::Verdict`] and replay through
//! [`sctc_temporal::TraceMonitor`]), so both `sctc-sim` and `sctc-core`
//! can layer on top without cycles.

#![warn(missing_docs)]

pub mod metrics;
pub mod span;
pub mod trace;
pub mod vcd;
pub mod witness;

pub use metrics::{Histogram, MetricValue, Metrics};
pub use span::{SharedProfiler, SpanEntry, SpanGuard, SpanProfiler, SpanStats, SAMPLE_RATE};
pub use trace::{ProgressSnap, TraceEvent};
pub use vcd::{VcdDoc, VcdParseError, VcdValue};
pub use witness::{
    ProvenanceEntry, ReplayOutcome, Witness, WitnessConfig, WitnessRecorder, WitnessStep,
};
