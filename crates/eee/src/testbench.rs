//! The testbench both flows run the case study on — the one place the
//! data flash is wired to a flow.
//!
//! The paper's two flows run the same program against the same flash and
//! differ only in how the software reaches it. Approach 2 interprets the
//! program over a [`FlashMemory`], which serves the flash at its bus
//! addresses; approach 1 runs the compiled image on a clocked SoC with the
//! flash mapped as MMIO devices at the same addresses.

use std::rc::Rc;

use minic::codegen::CompiledProgram;
use minic::ir::IrProgram;
use minic::Interp;
use sctc_core::{DerivedModelFlow, MicroprocessorFlow};
use sctc_cpu::{Cpu, Memory, Soc};

use crate::flash::{
    FlashMemory, FlashMmio, FlashReadWindow, SharedFlash, FLASH_READ_BASE, FLASH_READ_LEN,
    FLASH_REG_BASE, FLASH_REG_LEN,
};

/// RAM of the SoC, in bytes (256 KiB).
const RAM_BYTES: u32 = 0x0004_0000;
/// Clock period of the SoC, in simulation ticks.
const CLOCK_PERIOD: u64 = 10;

/// Approach 2: `ir` interpreted statement by statement over `flash`.
pub fn derived_testbench(ir: Rc<IrProgram>, flash: &SharedFlash) -> DerivedModelFlow {
    DerivedModelFlow::new(Interp::new(ir, Box::new(FlashMemory::new(flash.clone()))))
}

/// Approach 1: `image` on the clocked SoC with `flash` mapped, the
/// checker waiting for the software's `flag` handshake.
pub fn micro_testbench(image: Rc<CompiledProgram>, flash: &SharedFlash) -> MicroprocessorFlow {
    let mut flow = MicroprocessorFlow::new(image, RAM_BYTES, CLOCK_PERIOD);
    flow.set_flag_global("flag");
    map_flash(&mut flow.soc().borrow_mut().mem, flash);
    flow
}

/// The SoC of [`micro_testbench`] on its own, without kernel or checker,
/// for callers that step the core themselves.
pub fn flash_soc(image: &CompiledProgram, flash: &SharedFlash) -> Soc {
    let mut mem = image.build_memory(RAM_BYTES);
    map_flash(&mut mem, flash);
    let mut soc = Soc::new(mem);
    soc.cpu = Cpu::with_isa(0, image.isa());
    soc
}

/// Maps the flash's command registers and its word-readable array.
fn map_flash(mem: &mut Memory, flash: &SharedFlash) {
    mem.map_device(
        FLASH_REG_BASE,
        FLASH_REG_LEN,
        Box::new(FlashMmio::new(flash.clone())),
    );
    mem.map_device(
        FLASH_READ_BASE,
        FLASH_READ_LEN,
        Box::new(FlashReadWindow::new(flash.clone())),
    );
}
