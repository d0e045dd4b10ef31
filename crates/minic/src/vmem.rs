//! Virtual memory model for derived software models.
//!
//! The paper's second approach replaces direct memory accesses `*(addr)` with
//! virtual-memory requests (Fig. 5, `convert DirectMemAccessToVM`). The
//! [`EswMemory`] trait is that request interface; [`VirtualMemory`] is the
//! default sparse implementation, and hardware models (e.g. the data-flash
//! device of the case study) provide their own implementations.

use std::collections::HashMap;
use std::fmt;

/// A fault raised by a memory request.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u32,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory fault at address {:#010x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// The memory-request interface of a derived software model.
pub trait EswMemory {
    /// Reads a 32-bit word; may have device side effects.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for addresses the model rejects.
    fn read(&mut self, addr: u32) -> Result<u32, MemFault>;

    /// Writes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for addresses the model rejects.
    fn write(&mut self, addr: u32, value: u32) -> Result<(), MemFault>;

    /// Reads without side effects (checker observation).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for addresses the model rejects.
    fn peek(&self, addr: u32) -> Result<u32, MemFault>;
}

/// Sparse word-addressed memory; unwritten addresses read as zero.
///
/// # Examples
///
/// ```
/// use minic::{EswMemory, VirtualMemory};
///
/// let mut vm = VirtualMemory::new();
/// assert_eq!(vm.read(0x8000)?, 0);
/// vm.write(0x8000, 7)?;
/// assert_eq!(vm.peek(0x8000)?, 7);
/// # Ok::<(), minic::MemFault>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct VirtualMemory {
    words: HashMap<u32, u32>,
}

impl VirtualMemory {
    /// Creates an empty virtual memory.
    pub fn new() -> Self {
        VirtualMemory::default()
    }
}

impl EswMemory for VirtualMemory {
    fn read(&mut self, addr: u32) -> Result<u32, MemFault> {
        Ok(self.words.get(&addr).copied().unwrap_or(0))
    }

    fn write(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        self.words.insert(addr, value);
        Ok(())
    }

    fn peek(&self, addr: u32) -> Result<u32, MemFault> {
        Ok(self.words.get(&addr).copied().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_addresses_read_zero() {
        let mut vm = VirtualMemory::new();
        assert_eq!(vm.read(0).unwrap(), 0);
        assert_eq!(vm.peek(0xffff_fffc).unwrap(), 0);
    }

    #[test]
    fn fault_formats_address() {
        let f = MemFault { addr: 0x10 };
        assert!(f.to_string().contains("0x00000010"));
    }
}
