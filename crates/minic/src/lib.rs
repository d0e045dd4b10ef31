//! # minic — the embedded-software language of the reproduction
//!
//! A C subset ("mini-C") plus everything the two verification flows of the
//! paper need from it:
//!
//! * [`parse`] / [`lower`] — frontend producing the resolved [`ir`],
//! * [`Interp`] — statement-level small-step interpreter,
//! * [`DerivedEsw`] — the C2SystemC-equivalent derived simulation model
//!   (one statement = one time step, `esw_pc_event` per statement),
//! * [`VirtualMemory`]/[`EswMemory`] — the virtual memory model that
//!   replaces direct `*(addr)` accesses in the derived model,
//! * [`compile`](codegen::compile) — code generator targeting the
//!   [`sctc_cpu`] microprocessor model for the first approach.
//!
//! ## Example
//!
//! ```
//! use std::rc::Rc;
//! use minic::{lower, parse, ExecState, Interp};
//!
//! let src = "int x = 0; int main() { x = 2 + 3; return x * x; }";
//! let ir = lower(&parse(src)?)?;
//! let mut interp = Interp::with_virtual_memory(Rc::new(ir));
//! interp.start_main()?;
//! assert_eq!(interp.run(1000), ExecState::Finished(Some(25)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
mod deriver;
mod interp;
pub mod ir;
pub mod lexer;
mod parser;
mod typeck;
mod vmem;

pub use deriver::{share_interp, DerivedEsw, DerivedEswHandles, SharedInterp};
pub use interp::{ExecState, Interp, RuntimeError, MAX_CALL_DEPTH};
pub use parser::{parse, ParseError};
pub use typeck::{lower, TypeError};
pub use vmem::{EswMemory, MemFault, VirtualMemory};
