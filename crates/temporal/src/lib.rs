//! # sctc-temporal — FLTL properties, IL, and Accept–Reject automata
//!
//! The property pipeline of the SystemC Temporal Checker (SCTC), rebuilt in
//! Rust (paper Section 3):
//!
//! ```text
//! property text ──parse──▶ Formula ──intern──▶ IL ──synthesize──▶ AR-automaton
//!                                                 └──progress──▶ lazy Monitor
//! ```
//!
//! * [`parse`] accepts FLTL (`G`, `F[<=b]`, `X`, `U`, `R`) and PSL-flavoured
//!   spellings (`always`, `eventually!`, `next`, `until!`, `never`).
//! * [`IlStore`] is the hash-consed Intermediate Language.
//! * [`ArAutomaton`] is the explicit 3-valued automaton, the one table of a
//!   property: [`CompiledMonitor`] steps it through a [`CompiledKernel`]
//!   that shares it, and [`SynthesisCache`] keeps one of each per formula.
//! * [`Monitor`] is the lazy progression engine, the fallback for formulas
//!   synthesis refuses.
//!
//! All monitors deliver [`Verdict::True`], [`Verdict::False`] or
//! [`Verdict::Pending`] on finite traces.
//!
//! ## Example
//!
//! ```
//! use sctc_temporal::{parse, Monitor, TraceMonitor, Verdict};
//!
//! // "Whenever a read is issued, EEE_OK is returned within 1000 steps."
//! let property = parse("G (read -> F[<=1000] eee_ok)")?;
//! let mut monitor = Monitor::new(&property).unwrap();
//! assert_eq!(monitor.props(), &["eee_ok".to_owned(), "read".to_owned()]);
//!
//! let read_only = 0b10;
//! let ok_only = 0b01;
//! assert_eq!(monitor.step(read_only), Verdict::Pending);
//! assert_eq!(monitor.step(ok_only), Verdict::Pending); // G keeps watching
//! # Ok::<(), sctc_temporal::ParseError>(())
//! ```

#![warn(missing_docs)]

mod ast;
mod automaton;
mod cache;
mod compiled;
mod eval;
pub mod il;
pub mod lexer;
mod monitor;
mod parser;
mod progress;
mod verdict;

pub use ast::{Formula, TimeBound};
pub use automaton::{ArAutomaton, SynthesisError, SynthesisStats};
pub use cache::{
    fnv1a64, CacheStats, CacheWeight, CompiledLookup, FlightHandle, Lookup, ResultCache,
    ResultCacheStats, SynthesisCache, WaitOutcome,
};
pub use compiled::{CompiledKernel, CompiledMonitor};
pub use eval::{eval, eval_at};
pub use il::{IlError, IlStore, NodeId};
pub use monitor::{Monitor, TraceMonitor};
pub use parser::{parse, ParseError};
pub use progress::{progress_with, valuation_from_bools, Valuation};
pub use verdict::Verdict;
