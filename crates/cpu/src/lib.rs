//! # sctc-cpu — the microprocessor model
//!
//! A 32-bit RISC instruction-set simulator with a memory bus, built as the
//! substrate for the paper's first verification approach: the embedded
//! software runs on this core while the temporal checker observes its
//! variables in memory and uses the core's clock as timing reference.
//!
//! * [`Instr`]/[`Reg`] — the ISA (RV32I-like subset), described
//!   declaratively by the [`isa::ISA`] table from which the encoder,
//!   decoder, assembler and printer are derived; [`IsaKind`] selects
//!   between the fixed 32-bit and the compressed 16/32-bit encoding,
//! * [`Memory`] — flat RAM plus [`MmioDevice`] dispatch, with the
//!   side-effect-free [`Memory::peek_u32`] observation interface and an
//!   attachable [`SymbolMap`] (the typed symbol bus: names and widths
//!   over raw words),
//! * [`Cpu`] — fetch/decode/execute core,
//! * [`assemble`] — a two-pass assembler for firmware in tests and examples,
//! * [`Soc`]/[`CpuProcess`] — integration with the [`sctc_sim`] kernel:
//!   one instruction per clock posedge.
//!
//! ## Example
//!
//! ```
//! use sctc_cpu::{assemble, Cpu, Memory, Reg};
//!
//! let prog = assemble("li r1, 21\nadd r1, r1, r1\nhalt")?;
//! let mut mem = Memory::new(1024);
//! mem.load_image(prog.origin, &prog.words);
//! let mut cpu = Cpu::new(prog.origin);
//! cpu.run(&mut mem, 1000).unwrap();
//! assert_eq!(cpu.reg(Reg::new(1)), 42);
//! # Ok::<(), sctc_cpu::AsmError>(())
//! ```

#![warn(missing_docs)]

mod asm;
mod core;
pub mod isa;
mod memory;
mod soc;
pub mod symbol;

pub use asm::{assemble, AsmError, Program};
pub use core::{Cpu, CpuError, StepOutcome};
pub use isa::{AluOp, BranchCond, DecodeError, Instr, IsaKind, Reg};
pub use memory::{MemError, Memory, MmioDevice};
pub use soc::{share, CpuProcess, SharedSoc, Soc};
pub use symbol::{Symbol, SymbolMap};
