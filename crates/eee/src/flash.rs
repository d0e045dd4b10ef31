//! The data-flash hardware model.
//!
//! Models the device under the Data Flash Access layer: paged NOR-style
//! flash (erase sets bits, programming clears bits), a small command
//! register file, busy cycles, and injectable faults. Two adapters expose
//! it to the flows:
//!
//! * [`FlashMmio`] — an [`sctc_cpu::MmioDevice`] for the microprocessor
//!   flow (ticked once per clock cycle),
//! * [`FlashMemory`] — a [`minic::EswMemory`] for the derived model, where
//!   polling the status register advances the busy counter (each poll is
//!   one abstract device cycle).
//!
//! ## Register map (relative to [`FLASH_REG_BASE`])
//!
//! | offset | register |
//! |---|---|
//! | 0x0 | `CMD` (write 1 = erase page `ADDR`, 2 = program word `ADDR` with `DATA`) |
//! | 0x4 | `ADDR` |
//! | 0x8 | `DATA` |
//! | 0xC | `STATUS` (0 ready, 1 busy, 2 error; reading clears error back to ready) |
//! | 0x10 | `FAULT` (write an encoded [`FaultKind`] set — see [`FaultKind::encode`] — to arm one-shot faults; reads back the armed mask; unknown bits are ignored) |
//!
//! The flash array is word-readable at [`FLASH_READ_BASE`].
//!
//! ## Device cycles
//!
//! Both adapters advance the device through [`DataFlash::tick`]: the MMIO
//! adapter on every clock cycle, the ESW-memory adapter on every STATUS
//! poll. Idle ticks are free — the device-cycle counter
//! ([`DataFlash::device_cycles`]) advances only while a command is busy, so
//! "at device cycle N" denotes the same point of flash activity in both
//! flows regardless of how often the surrounding flow ticks.
//!
//! ## Fault model
//!
//! Beyond the one-shot command faults of the FAULT register, the array
//! itself can be disturbed for fault campaigns: [`DataFlash::flip_bit`]
//! (persistent single-bit upset), [`DataFlash::stick_bit`] (stuck-at-0/1
//! cells applied in the read path), [`DataFlash::arm_transient_read`]
//! (one-shot read disturbance), and [`DataFlash::power_cycle`] (controller
//! reboot: volatile command state lost, array contents persist).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use minic::{EswMemory, MemFault};
use sctc_cpu::MmioDevice;

/// Number of pages in the device.
pub const NUM_PAGES: usize = 4;
/// Words per page.
pub const PAGE_WORDS: usize = 32;
/// Value of an erased word.
pub const ERASED: u32 = 0xffff_ffff;

/// Base address of the register file.
pub const FLASH_REG_BASE: u32 = 0x0008_0000;
/// Size of the register window in bytes.
pub const FLASH_REG_LEN: u32 = 0x20;
/// Base address of the read window over the flash array.
pub const FLASH_READ_BASE: u32 = 0x0009_0000;
/// Size of the read window in bytes.
pub const FLASH_READ_LEN: u32 = (NUM_PAGES * PAGE_WORDS * 4) as u32;

/// Busy cycles consumed by an erase.
pub const ERASE_BUSY_CYCLES: u32 = 6;
/// Busy cycles consumed by a program.
pub const PROGRAM_BUSY_CYCLES: u32 = 2;

/// STATUS register values.
pub mod status {
    /// Device idle, last command succeeded.
    pub const READY: u32 = 0;
    /// Command in progress.
    pub const BUSY: u32 = 1;
    /// Last command failed.
    pub const ERROR: u32 = 2;
}

/// One-shot fault kinds, armed through the FAULT register.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The next erase command fails.
    EraseFail = 1,
    /// The next program command fails.
    ProgramFail = 2,
}

impl FaultKind {
    /// Every fault kind, in register-bit order.
    pub const ALL: [FaultKind; 2] = [FaultKind::EraseFail, FaultKind::ProgramFail];

    /// The FAULT-register bit of this kind.
    pub fn bit(self) -> u32 {
        self as u32
    }

    /// Encodes a set of kinds into a FAULT-register value.
    pub fn encode(kinds: &[FaultKind]) -> u32 {
        kinds.iter().fold(0, |mask, kind| mask | kind.bit())
    }

    /// Decodes a FAULT-register value into the kinds it arms. Unknown bits
    /// are ignored — this is the single place register bits are interpreted,
    /// shared by both memory adapters.
    pub fn decode(mask: u32) -> Vec<FaultKind> {
        Self::ALL
            .into_iter()
            .filter(|kind| mask & kind.bit() != 0)
            .collect()
    }
}

/// The raw flash device.
#[derive(Clone, Debug)]
pub struct DataFlash {
    words: Vec<u32>,
    status: u32,
    busy_left: u32,
    pending_error: bool,
    fault_mask: u32,
    cmd_addr: u32,
    cmd_data: u32,
    device_cycles: u64,
    stuck_one: Vec<u32>,
    stuck_zero: Vec<u32>,
    transient: Option<(usize, u32)>,
}

impl Default for DataFlash {
    fn default() -> Self {
        Self::new()
    }
}

impl DataFlash {
    /// Creates a fully erased device.
    pub fn new() -> Self {
        DataFlash {
            words: vec![ERASED; NUM_PAGES * PAGE_WORDS],
            status: status::READY,
            busy_left: 0,
            pending_error: false,
            fault_mask: 0,
            cmd_addr: 0,
            cmd_data: 0,
            device_cycles: 0,
            stuck_one: vec![0; NUM_PAGES * PAGE_WORDS],
            stuck_zero: vec![0; NUM_PAGES * PAGE_WORDS],
            transient: None,
        }
    }

    /// Reads a word of the array (no side effects). Stuck-at cells are
    /// applied — they model a physical cell condition, not a read event —
    /// but an armed transient read disturbance is neither consumed nor
    /// visible (peeks must not perturb the device).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn word(&self, word: usize) -> u32 {
        (self.words[word] | self.stuck_one[word]) & !self.stuck_zero[word]
    }

    /// Reads a word of the array as the hardware would: like [`word`], but
    /// consumes an armed transient read disturbance targeting this word.
    ///
    /// [`word`]: DataFlash::word
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    fn word_read(&mut self, word: usize) -> u32 {
        let mut value = self.word(word);
        if let Some((w, mask)) = self.transient {
            if w == word {
                self.transient = None;
                value ^= mask;
            }
        }
        value
    }

    /// Arms a one-shot fault.
    pub fn inject_fault(&mut self, kind: FaultKind) {
        self.fault_mask |= kind.bit();
    }

    /// Returns `true` while a command is in progress.
    fn is_busy(&self) -> bool {
        self.busy_left > 0
    }

    /// Device cycles spent executing commands so far. Idle time does not
    /// count, so the value is identical across both flows for the same
    /// command sequence (see the module docs).
    pub fn device_cycles(&self) -> u64 {
        self.device_cycles
    }

    /// Flips one bit of the array in place (persistent single-event upset).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn flip_bit(&mut self, word: usize, bit: u32) {
        self.words[word] ^= 1 << (bit & 31);
    }

    /// Marks one cell bit as stuck at `one` (true) or zero (false). Stuck
    /// bits override the stored value in every subsequent read.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn stick_bit(&mut self, word: usize, bit: u32, one: bool) {
        let mask = 1 << (bit & 31);
        if one {
            self.stuck_one[word] |= mask;
        } else {
            self.stuck_zero[word] |= mask;
        }
    }

    /// Arms a one-shot read disturbance: the next hardware read of `word`
    /// (through the read window, not [`DataFlash::word`]) returns the
    /// stored value with `bit` flipped; the cell itself is unharmed.
    /// Re-arming replaces a pending disturbance.
    pub fn arm_transient_read(&mut self, word: usize, bit: u32) {
        assert!(word < self.words.len(), "transient word out of range");
        self.transient = Some((word, 1 << (bit & 31)));
    }

    /// Power-cycles the controller: volatile command state (busy counter,
    /// status, pending error, address/data latches) is lost; the array,
    /// armed faults and the device-cycle count persist. The
    /// monotonic device-cycle count is the campaign's notion of flash time,
    /// so it deliberately survives the reboot.
    pub fn power_cycle(&mut self) {
        self.status = status::READY;
        self.busy_left = 0;
        self.pending_error = false;
        self.cmd_addr = 0;
        self.cmd_data = 0;
    }

    fn take_fault(&mut self, kind: FaultKind) -> bool {
        let bit = kind as u32;
        if self.fault_mask & bit != 0 {
            self.fault_mask &= !bit;
            true
        } else {
            false
        }
    }

    /// Starts a command (register-file semantics).
    fn command(&mut self, cmd: u32) {
        if self.is_busy() {
            // Command while busy: device error.
            self.status = status::ERROR;
            return;
        }
        match cmd {
            1 => {
                // Erase page `cmd_addr`.
                let page = self.cmd_addr as usize;
                if page >= NUM_PAGES {
                    self.status = status::ERROR;
                    return;
                }
                self.busy_left = ERASE_BUSY_CYCLES;
                self.status = status::BUSY;
                if self.take_fault(FaultKind::EraseFail) {
                    self.pending_error = true;
                } else {
                    self.pending_error = false;
                    let base = page * PAGE_WORDS;
                    for w in &mut self.words[base..base + PAGE_WORDS] {
                        *w = ERASED;
                    }
                }
            }
            2 => {
                // Program word `cmd_addr` with `cmd_data` (NOR: AND into the
                // cell — bits can only be cleared).
                let word = self.cmd_addr as usize;
                if word >= self.words.len() {
                    self.status = status::ERROR;
                    return;
                }
                self.busy_left = PROGRAM_BUSY_CYCLES;
                self.status = status::BUSY;
                if self.take_fault(FaultKind::ProgramFail) {
                    self.pending_error = true;
                } else {
                    self.pending_error = false;
                    self.words[word] &= self.cmd_data;
                }
            }
            _ => self.status = status::ERROR,
        }
    }

    /// Advances the device one cycle. Only busy cycles advance the
    /// device-cycle counter; idle ticks are no-ops.
    pub fn tick(&mut self) {
        if self.busy_left > 0 {
            self.device_cycles += 1;
            self.busy_left -= 1;
            if self.busy_left == 0 {
                self.status = if self.pending_error {
                    status::ERROR
                } else {
                    status::READY
                };
            }
        }
    }

    /// Register-file read with clear-on-read error semantics for STATUS.
    fn reg_read(&mut self, offset: u32) -> u32 {
        match offset {
            0x4 => self.cmd_addr,
            0x8 => self.cmd_data,
            0xc => {
                let s = self.status;
                if s == status::ERROR {
                    self.status = status::READY;
                }
                s
            }
            0x10 => self.fault_mask,
            _ => 0,
        }
    }

    fn reg_peek(&self, offset: u32) -> u32 {
        match offset {
            0x4 => self.cmd_addr,
            0x8 => self.cmd_data,
            0xc => self.status,
            0x10 => self.fault_mask,
            _ => 0,
        }
    }

    fn reg_write(&mut self, offset: u32, value: u32) {
        match offset {
            0x0 => self.command(value),
            0x4 => self.cmd_addr = value,
            0x8 => self.cmd_data = value,
            0x10 => {
                // Typed decode: unknown bits never reach the fault mask.
                for kind in FaultKind::decode(value) {
                    self.inject_fault(kind);
                }
            }
            _ => {}
        }
    }
}

/// A shareable flash handle (device state shared between adapter and
/// testbench).
pub type SharedFlash = Rc<RefCell<DataFlash>>;

/// Wraps a flash device for sharing.
pub fn share_flash(flash: DataFlash) -> SharedFlash {
    Rc::new(RefCell::new(flash))
}

/// MMIO adapter: register file for the microprocessor flow.
pub struct FlashMmio {
    flash: SharedFlash,
}

impl FlashMmio {
    /// Creates the register-file adapter.
    pub fn new(flash: SharedFlash) -> Self {
        FlashMmio { flash }
    }
}

impl MmioDevice for FlashMmio {
    fn read_word(&mut self, offset: u32) -> u32 {
        self.flash.borrow_mut().reg_read(offset)
    }

    fn write_word(&mut self, offset: u32, value: u32) {
        self.flash.borrow_mut().reg_write(offset, value);
    }

    fn peek_word(&self, offset: u32) -> u32 {
        self.flash.borrow().reg_peek(offset)
    }

    fn tick(&mut self) {
        self.flash.borrow_mut().tick();
    }

    fn state_may_change(&self) -> bool {
        // Idle ticks are free: registers and the array only move while a
        // command is busy, so an idle device never dirties watches.
        self.flash.borrow().is_busy()
    }
}

impl fmt::Debug for FlashMmio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlashMmio").finish()
    }
}

/// Read-window adapter: the flash array mapped read-only.
pub struct FlashReadWindow {
    flash: SharedFlash,
}

impl FlashReadWindow {
    /// Creates the read-window adapter.
    pub fn new(flash: SharedFlash) -> Self {
        FlashReadWindow { flash }
    }
}

impl MmioDevice for FlashReadWindow {
    fn read_word(&mut self, offset: u32) -> u32 {
        self.flash.borrow_mut().word_read((offset / 4) as usize)
    }

    fn write_word(&mut self, _offset: u32, _value: u32) {
        // Writes through the read window are ignored, like real hardware.
    }

    fn peek_word(&self, offset: u32) -> u32 {
        self.flash.borrow().word((offset / 4) as usize)
    }

    fn state_may_change(&self) -> bool {
        // The window has no tick behaviour of its own; array changes
        // driven by commands are reported by the `FlashMmio` adapter over
        // the same shared device.
        false
    }
}

impl fmt::Debug for FlashReadWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlashReadWindow").finish()
    }
}

/// Derived-model adapter: flash registers + read window + plain virtual
/// memory for everything else.
///
/// There is no clock in the derived model, so polling STATUS advances the
/// device by one cycle — the busy-wait loop of the software is what makes
/// time pass, mirroring how the paper's virtual memory model services
/// hardware requests.
pub struct FlashMemory {
    flash: SharedFlash,
    other: minic::VirtualMemory,
}

impl FlashMemory {
    /// Creates the adapter around a shared flash device.
    pub fn new(flash: SharedFlash) -> Self {
        FlashMemory {
            flash,
            other: minic::VirtualMemory::new(),
        }
    }

    /// Returns the shared flash handle.
    pub fn flash(&self) -> SharedFlash {
        self.flash.clone()
    }
}

impl EswMemory for FlashMemory {
    fn read(&mut self, addr: u32) -> Result<u32, MemFault> {
        if (FLASH_REG_BASE..FLASH_REG_BASE + FLASH_REG_LEN).contains(&addr) {
            let offset = addr - FLASH_REG_BASE;
            let mut flash = self.flash.borrow_mut();
            if offset == 0xc {
                // Polling the status register is the derived model's clock.
                flash.tick();
            }
            return Ok(flash.reg_read(offset));
        }
        if (FLASH_READ_BASE..FLASH_READ_BASE + FLASH_READ_LEN).contains(&addr) {
            let word = ((addr - FLASH_READ_BASE) / 4) as usize;
            return Ok(self.flash.borrow_mut().word_read(word));
        }
        self.other.read(addr)
    }

    fn write(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        if (FLASH_REG_BASE..FLASH_REG_BASE + FLASH_REG_LEN).contains(&addr) {
            self.flash
                .borrow_mut()
                .reg_write(addr - FLASH_REG_BASE, value);
            return Ok(());
        }
        if (FLASH_READ_BASE..FLASH_READ_BASE + FLASH_READ_LEN).contains(&addr) {
            return Ok(()); // read-only window
        }
        self.other.write(addr, value)
    }

    fn peek(&self, addr: u32) -> Result<u32, MemFault> {
        if (FLASH_REG_BASE..FLASH_REG_BASE + FLASH_REG_LEN).contains(&addr) {
            return Ok(self.flash.borrow().reg_peek(addr - FLASH_REG_BASE));
        }
        if (FLASH_READ_BASE..FLASH_READ_BASE + FLASH_READ_LEN).contains(&addr) {
            let word = ((addr - FLASH_READ_BASE) / 4) as usize;
            return Ok(self.flash.borrow().word(word));
        }
        self.other.peek(addr)
    }
}

impl fmt::Debug for FlashMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlashMemory").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(flash: &mut DataFlash) {
        for _ in 0..16 {
            flash.tick();
        }
    }

    #[test]
    fn fresh_device_is_erased_and_ready() {
        let f = DataFlash::new();
        assert_eq!(f.word(0), ERASED);
        assert_eq!(f.word(NUM_PAGES * PAGE_WORDS - 1), ERASED);
        assert!(!f.is_busy());
    }

    #[test]
    fn program_clears_bits_and_takes_busy_cycles() {
        let mut f = DataFlash::new();
        f.reg_write(0x4, 3); // word 3
        f.reg_write(0x8, 0x1234_5678);
        f.reg_write(0x0, 2); // program
        assert!(f.is_busy());
        assert_eq!(f.reg_peek(0xc), status::BUSY);
        settle(&mut f);
        assert_eq!(f.reg_peek(0xc), status::READY);
        assert_eq!(f.word(3), 0x1234_5678);
        // A second program ANDs.
        f.reg_write(0x8, 0xffff_0000);
        f.reg_write(0x0, 2);
        settle(&mut f);
        assert_eq!(f.word(3), 0x1234_0000);
    }

    #[test]
    fn erase_restores_page_to_ones() {
        let mut f = DataFlash::new();
        f.reg_write(0x4, (PAGE_WORDS + 1) as u32); // word in page 1
        f.reg_write(0x8, 0);
        f.reg_write(0x0, 2);
        settle(&mut f);
        assert_eq!(f.word(PAGE_WORDS + 1), 0);
        f.reg_write(0x4, 1); // page 1
        f.reg_write(0x0, 1); // erase
        settle(&mut f);
        assert_eq!(f.word(PAGE_WORDS + 1), ERASED);
    }

    #[test]
    fn injected_erase_fault_raises_error_once() {
        let mut f = DataFlash::new();
        f.inject_fault(FaultKind::EraseFail);
        f.reg_write(0x4, 0);
        f.reg_write(0x0, 1);
        settle(&mut f);
        assert_eq!(f.reg_peek(0xc), status::ERROR);
        // Reading status clears the error.
        assert_eq!(f.reg_read(0xc), status::ERROR);
        assert_eq!(f.reg_read(0xc), status::READY);
        // The next erase succeeds.
        f.reg_write(0x0, 1);
        settle(&mut f);
        assert_eq!(f.reg_peek(0xc), status::READY);
    }

    #[test]
    fn command_while_busy_is_an_error() {
        let mut f = DataFlash::new();
        f.reg_write(0x4, 0);
        f.reg_write(0x0, 1);
        f.reg_write(0x0, 1); // still busy
        assert_eq!(f.reg_peek(0xc), status::ERROR);
    }

    #[test]
    fn out_of_range_commands_error() {
        let mut f = DataFlash::new();
        f.reg_write(0x4, NUM_PAGES as u32);
        f.reg_write(0x0, 1);
        assert_eq!(f.reg_peek(0xc), status::ERROR);
        f.reg_read(0xc);
        f.reg_write(0x4, (NUM_PAGES * PAGE_WORDS) as u32);
        f.reg_write(0x0, 2);
        assert_eq!(f.reg_peek(0xc), status::ERROR);
        f.reg_read(0xc);
        f.reg_write(0x0, 9); // unknown command
        assert_eq!(f.reg_peek(0xc), status::ERROR);
    }

    #[test]
    fn esw_memory_adapter_polls_the_device_forward() {
        let flash = share_flash(DataFlash::new());
        let mut mem = FlashMemory::new(flash);
        mem.write(FLASH_REG_BASE + 0x4, 0).unwrap();
        mem.write(FLASH_REG_BASE + 0x8, 0xabcd_0123).unwrap();
        mem.write(FLASH_REG_BASE, 2).unwrap();
        // Poll until ready; each poll ticks.
        let mut polls = 0;
        loop {
            let s = mem.read(FLASH_REG_BASE + 0xc).unwrap();
            polls += 1;
            if s == status::READY {
                break;
            }
            assert!(polls < 100, "device must become ready");
        }
        assert_eq!(mem.read(FLASH_READ_BASE).unwrap(), 0xabcd_0123);
        // Other addresses behave as plain virtual memory.
        mem.write(0x1000, 5).unwrap();
        assert_eq!(mem.peek(0x1000).unwrap(), 5);
    }

    #[test]
    fn read_window_is_read_only() {
        let flash = share_flash(DataFlash::new());
        let mut mem = FlashMemory::new(flash);
        mem.write(FLASH_READ_BASE, 0).unwrap();
        assert_eq!(mem.peek(FLASH_READ_BASE).unwrap(), ERASED);
    }

    #[test]
    fn fault_kinds_roundtrip_through_the_register_encoding() {
        assert_eq!(FaultKind::encode(&[]), 0);
        assert_eq!(FaultKind::encode(&[FaultKind::EraseFail]), 1);
        assert_eq!(FaultKind::encode(&FaultKind::ALL), 3);
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::decode(kind.bit()), vec![kind]);
        }
        assert_eq!(
            FaultKind::decode(FaultKind::encode(&FaultKind::ALL)),
            FaultKind::ALL.to_vec()
        );
        // Unknown bits decode to nothing.
        assert!(FaultKind::decode(0xffff_fff0 & !3).is_empty());
    }

    #[test]
    fn fault_register_write_is_typed_and_ignores_unknown_bits() {
        let mut f = DataFlash::new();
        f.reg_write(0x10, 0xdead_bee0 | FaultKind::ProgramFail.bit());
        // Only the known kind is armed; junk bits never reach the mask.
        assert_eq!(f.reg_peek(0x10), FaultKind::ProgramFail.bit());
        f.reg_write(0x4, 0);
        f.reg_write(0x8, 0);
        f.reg_write(0x0, 2);
        settle(&mut f);
        assert_eq!(f.reg_peek(0xc), status::ERROR);
        assert_eq!(f.word(0), ERASED, "faulted program must not touch the cell");
    }

    /// Satellite: a fault scheduled "at device cycle N" must land at the
    /// same point of flash activity in both flows. Run the same command
    /// sequence through the MMIO adapter (ticked every clock cycle, with
    /// idle cycles sprinkled in) and the ESW-memory adapter (ticked per
    /// status poll) and compare the device-cycle counts at every step.
    #[test]
    fn device_cycles_agree_between_clocked_and_polled_adapters() {
        let run_mmio = |idle_padding: u32| -> Vec<u64> {
            let flash = share_flash(DataFlash::new());
            let mut mmio = FlashMmio::new(flash.clone());
            let mut marks = Vec::new();
            let mut exec = |cmd: u32, addr: u32, data: u32| {
                mmio.write_word(0x4, addr);
                mmio.write_word(0x8, data);
                mmio.write_word(0x0, cmd);
                // The clock keeps running whether or not the CPU looks at
                // the device.
                while mmio.read_word(0xc) == status::BUSY {
                    mmio.tick();
                }
                for _ in 0..idle_padding {
                    mmio.tick();
                }
                marks.push(flash.borrow().device_cycles());
            };
            exec(2, 3, 0x1234_5678); // program
            exec(1, 0, 0); // erase
            exec(2, 7, 0); // program
            marks
        };
        let run_polled = |idle_polls: u32| -> Vec<u64> {
            let flash = share_flash(DataFlash::new());
            let mut mem = FlashMemory::new(flash.clone());
            let mut marks = Vec::new();
            let mut exec = |cmd: u32, addr: u32, data: u32| {
                mem.write(FLASH_REG_BASE + 0x4, addr).unwrap();
                mem.write(FLASH_REG_BASE + 0x8, data).unwrap();
                mem.write(FLASH_REG_BASE, cmd).unwrap();
                while mem.read(FLASH_REG_BASE + 0xc).unwrap() == status::BUSY {}
                for _ in 0..idle_polls {
                    // Redundant polls of a ready device are free.
                    mem.read(FLASH_REG_BASE + 0xc).unwrap();
                }
                marks.push(flash.borrow().device_cycles());
            };
            exec(2, 3, 0x1234_5678);
            exec(1, 0, 0);
            exec(2, 7, 0);
            marks
        };
        let expected = vec![
            u64::from(PROGRAM_BUSY_CYCLES),
            u64::from(PROGRAM_BUSY_CYCLES + ERASE_BUSY_CYCLES),
            u64::from(2 * PROGRAM_BUSY_CYCLES + ERASE_BUSY_CYCLES),
        ];
        for padding in [0, 1, 17] {
            assert_eq!(run_mmio(padding), expected);
            assert_eq!(run_polled(padding), expected);
        }
    }

    #[test]
    fn stuck_bits_shadow_the_cell_until_cleared_never() {
        let mut f = DataFlash::new();
        f.reg_write(0x4, 5);
        f.reg_write(0x8, 0);
        f.reg_write(0x0, 2);
        settle(&mut f);
        assert_eq!(f.word(5), 0);
        f.stick_bit(5, 3, true);
        assert_eq!(f.word(5), 1 << 3);
        // Stuck-at survives erase: the cell condition is physical.
        f.reg_write(0x4, 0);
        f.reg_write(0x0, 1);
        settle(&mut f);
        assert_eq!(f.word(5), ERASED);
        f.stick_bit(5, 3, false);
        // stuck-zero wins over stuck-one in the read path.
        assert_eq!(f.word(5), ERASED & !(1 << 3));
    }

    #[test]
    fn flipped_bit_is_persistent_but_transient_read_is_one_shot() {
        let mut f = DataFlash::new();
        f.flip_bit(2, 0);
        assert_eq!(f.word(2), ERASED ^ 1);
        f.flip_bit(2, 0);
        assert_eq!(f.word(2), ERASED);

        f.arm_transient_read(2, 4);
        // Peeks neither see nor consume the disturbance.
        assert_eq!(f.word(2), ERASED);
        assert_eq!(f.word_read(2), ERASED ^ (1 << 4));
        assert_eq!(f.word_read(2), ERASED);
        // Reads of other words leave it armed.
        f.arm_transient_read(2, 4);
        assert_eq!(f.word_read(3), ERASED);
        assert_eq!(f.word_read(2), ERASED ^ (1 << 4));
    }

    #[test]
    fn power_cycle_loses_volatile_state_but_keeps_the_array() {
        let mut f = DataFlash::new();
        f.reg_write(0x4, 9);
        f.reg_write(0x8, 0xf0f0_f0f0);
        f.reg_write(0x0, 2);
        assert!(f.is_busy());
        let cycles_at_cut = f.device_cycles();
        f.power_cycle();
        assert!(!f.is_busy());
        assert_eq!(f.reg_peek(0xc), status::READY);
        assert_eq!(f.reg_peek(0x4), 0);
        // NOR semantics: the program took effect at command issue; the busy
        // window only models completion latency, so the word survives.
        assert_eq!(f.word(9), 0xf0f0_f0f0);
        assert_eq!(f.device_cycles(), cycles_at_cut);
        // The device is usable again immediately.
        f.reg_write(0x4, 1);
        f.reg_write(0x0, 1);
        settle(&mut f);
        assert_eq!(f.reg_peek(0xc), status::READY);
    }
}
