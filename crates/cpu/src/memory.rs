//! Memory system: flat RAM plus memory-mapped devices.
//!
//! The checker-facing read interface of the paper's first approach —
//! `sc_uint<32> sctc_sc_read_uint(sc_uint<32> addr)` — is [`Memory::peek_u32`]:
//! a side-effect-free word read that the ESW monitor uses to observe software
//! variables in place.

use std::fmt;
use std::rc::Rc;

use crate::symbol::SymbolMap;

/// An error raised by a memory access.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MemError {
    /// The address is outside RAM and every mapped device.
    Unmapped {
        /// Faulting address.
        addr: u32,
    },
    /// A word access with a non-word-aligned address.
    Misaligned {
        /// Faulting address.
        addr: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "unmapped address {addr:#010x}"),
            MemError::Misaligned { addr } => write!(f, "misaligned word access at {addr:#010x}"),
        }
    }
}

impl std::error::Error for MemError {}

/// A memory-mapped device.
///
/// Offsets are relative to the device's mapping base and word-aligned.
pub trait MmioDevice {
    /// Reads a word; may have side effects (status-clear-on-read etc.).
    fn read_word(&mut self, offset: u32) -> u32;

    /// Writes a word; typically triggers device behaviour.
    fn write_word(&mut self, offset: u32, value: u32);

    /// Reads a word **without** side effects, for checker observation.
    fn peek_word(&self, offset: u32) -> u32;

    /// Advances the device by one clock cycle (busy counters etc.).
    fn tick(&mut self) {}

    /// Whether the next [`MmioDevice::tick`] may change checker-observable
    /// state. The default is conservatively `true`; devices that know they
    /// are idle override this so watched device addresses are not marked
    /// dirty on every clock cycle.
    fn state_may_change(&self) -> bool {
        true
    }
}

struct Mapping {
    base: u32,
    len: u32,
    device: Box<dyn MmioDevice>,
}

/// A watched address range for change-driven monitoring (see
/// [`Memory::watch_range`]).
struct WatchRange {
    start: u32,
    len: u32,
    /// `true` when any part of the range lies outside RAM. Device-backed
    /// words can change through shared device state (one register write
    /// altering another window's contents), so such watches are dirtied by
    /// *any* device activity rather than by precise address overlap.
    device: bool,
    dirty: bool,
}

/// Flat RAM with an MMIO dispatch layer.
///
/// # Examples
///
/// ```
/// use sctc_cpu::Memory;
///
/// let mut mem = Memory::new(1024);
/// mem.write_u32(0x10, 0xdead_beef)?;
/// assert_eq!(mem.read_u32(0x10)?, 0xdead_beef);
/// assert_eq!(mem.peek_u32(0x10)?, 0xdead_beef);
/// # Ok::<(), sctc_cpu::MemError>(())
/// ```
pub struct Memory {
    ram: Vec<u8>,
    mappings: Vec<Mapping>,
    watches: Vec<WatchRange>,
    /// See [`Memory::watch_epoch`].
    watch_epoch: u64,
    /// The typed symbol bus, when attached: names and widths for
    /// the words of this image (see [`SymbolMap`]). Display-layer only —
    /// attachment never changes access semantics.
    symbols: Option<Rc<SymbolMap>>,
}

impl Memory {
    /// Creates a memory with `ram_bytes` of zero-initialised RAM starting at
    /// address 0.
    pub fn new(ram_bytes: u32) -> Self {
        Memory {
            ram: vec![0; ram_bytes as usize],
            mappings: Vec::new(),
            watches: Vec::new(),
            watch_epoch: 0,
            symbols: None,
        }
    }

    /// Attaches the typed symbol map describing this image. Consumers
    /// (provenance labels, symbolic propositions) resolve names through
    /// [`Memory::symbols`]; accesses are unaffected.
    pub fn attach_symbols(&mut self, symbols: Rc<SymbolMap>) {
        self.symbols = Some(symbols);
    }

    /// The attached symbol map, if any.
    pub fn symbols(&self) -> Option<&Rc<SymbolMap>> {
        self.symbols.as_ref()
    }

    /// Registers a watched range `[start, start + len)` and returns its
    /// watch id. A new watch starts **dirty** (its first observation must
    /// be taken), thereafter it is re-dirtied by any write overlapping the
    /// range, by wholesale RAM replacement ([`Memory::restore_ram`],
    /// [`Memory::load_image`]) and — for ranges reaching into device space
    /// — by any device activity.
    pub fn watch_range(&mut self, start: u32, len: u32) -> usize {
        let device = start.saturating_add(len) > self.ram_len();
        self.watches.push(WatchRange {
            start,
            len,
            device,
            dirty: true,
        });
        self.watch_epoch += 1;
        self.watches.len() - 1
    }

    /// A counter that advances whenever a watch turns from clean to dirty,
    /// when a watch is registered, and on wholesale invalidation. Taking a
    /// dirty flag never moves it, so an observer that drained all of its
    /// watches when the epoch read `e` knows none of them has been dirtied
    /// while the epoch still reads `e` — however many other observers
    /// share this memory and drain their own watches in between.
    pub fn watch_epoch(&self) -> u64 {
        self.watch_epoch
    }

    /// Takes and clears the dirty flag of one watch.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Memory::watch_range`].
    pub fn take_dirty_watch(&mut self, id: usize) -> bool {
        std::mem::take(&mut self.watches[id].dirty)
    }

    /// Describes a registered watch for diagnostics: `(start, len, device)`.
    /// `device` is `true` when the range reaches into MMIO space and the
    /// watch is therefore dirtied by any device activity.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Memory::watch_range`].
    pub fn watch_info(&self, id: usize) -> (u32, u32, bool) {
        let w = &self.watches[id];
        (w.start, w.len, w.device)
    }

    /// Marks every watch dirty (conservative invalidation).
    pub fn mark_all_watches_dirty(&mut self) {
        for w in &mut self.watches {
            w.dirty = true;
        }
        self.watch_epoch += 1;
    }

    fn mark_ram_write(&mut self, addr: u32) {
        for w in &mut self.watches {
            if !w.dirty && addr + 4 > w.start && addr < w.start.saturating_add(w.len) {
                w.dirty = true;
                self.watch_epoch += 1;
            }
        }
    }

    fn mark_device_activity(&mut self) {
        for w in &mut self.watches {
            if w.device && !w.dirty {
                w.dirty = true;
                self.watch_epoch += 1;
            }
        }
    }

    /// Returns the RAM size in bytes.
    pub fn ram_len(&self) -> u32 {
        self.ram.len() as u32
    }

    /// Copies out the full RAM contents (device state excluded). Together
    /// with [`Memory::restore_ram`] this models a power loss: RAM loses its
    /// contents while non-volatile devices keep theirs.
    pub fn snapshot_ram(&self) -> Vec<u8> {
        self.ram.clone()
    }

    /// Overwrites RAM with a snapshot taken by [`Memory::snapshot_ram`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match the RAM size.
    pub fn restore_ram(&mut self, snapshot: &[u8]) {
        assert_eq!(snapshot.len(), self.ram.len(), "RAM snapshot size mismatch");
        self.ram.copy_from_slice(snapshot);
        // Wholesale replacement (power-loss restore): no per-address
        // tracking, every watched location may have changed.
        self.mark_all_watches_dirty();
    }

    /// Maps a device at `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps RAM or an existing mapping, or if
    /// `base`/`len` are not word-aligned.
    pub fn map_device(&mut self, base: u32, len: u32, device: Box<dyn MmioDevice>) {
        assert!(
            base.is_multiple_of(4) && len.is_multiple_of(4),
            "mapping must be word-aligned"
        );
        assert!(base >= self.ram_len(), "device mapping overlaps RAM");
        let end = base.checked_add(len).expect("mapping wraps address space");
        for m in &self.mappings {
            let m_end = m.base + m.len;
            assert!(
                end <= m.base || base >= m_end,
                "device mapping overlaps an existing device"
            );
        }
        self.mappings.push(Mapping { base, len, device });
    }

    /// Gives every mapped device one clock tick.
    pub fn tick_devices(&mut self) {
        let mut active = false;
        for m in &mut self.mappings {
            active |= !self.watches.is_empty() && m.device.state_may_change();
            m.device.tick();
        }
        if active {
            self.mark_device_activity();
        }
    }

    fn device_index(&self, addr: u32) -> Option<usize> {
        self.mappings
            .iter()
            .position(|m| addr >= m.base && addr < m.base + m.len)
    }

    fn check_aligned(addr: u32) -> Result<(), MemError> {
        if !addr.is_multiple_of(4) {
            Err(MemError::Misaligned { addr })
        } else {
            Ok(())
        }
    }

    /// Reads a 32-bit word (little-endian), dispatching to devices.
    ///
    /// # Errors
    ///
    /// Fails on unmapped or misaligned addresses.
    pub fn read_u32(&mut self, addr: u32) -> Result<u32, MemError> {
        Self::check_aligned(addr)?;
        if (addr as usize) + 4 <= self.ram.len() {
            let b = &self.ram[addr as usize..addr as usize + 4];
            return Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        match self.device_index(addr) {
            Some(i) => {
                let base = self.mappings[i].base;
                let value = self.mappings[i].device.read_word(addr - base);
                // Device reads may have side effects (clear-on-read
                // status registers), so they count as device activity.
                if !self.watches.is_empty() {
                    self.mark_device_activity();
                }
                Ok(value)
            }
            None => Err(MemError::Unmapped { addr }),
        }
    }

    /// Writes a 32-bit word (little-endian), dispatching to devices.
    ///
    /// # Errors
    ///
    /// Fails on unmapped or misaligned addresses.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        Self::check_aligned(addr)?;
        if (addr as usize) + 4 <= self.ram.len() {
            self.ram[addr as usize..addr as usize + 4].copy_from_slice(&value.to_le_bytes());
            if !self.watches.is_empty() {
                self.mark_ram_write(addr);
            }
            return Ok(());
        }
        match self.device_index(addr) {
            Some(i) => {
                let base = self.mappings[i].base;
                self.mappings[i].device.write_word(addr - base, value);
                // A register write can alter words served by *other*
                // mappings over shared device state, so all device
                // watches are dirtied, not just overlapping ones.
                if !self.watches.is_empty() {
                    self.mark_device_activity();
                }
                Ok(())
            }
            None => Err(MemError::Unmapped { addr }),
        }
    }

    /// Reads a 16-bit halfword (little-endian) from RAM — the `Comp16`
    /// instruction-fetch path. Text lives in RAM, so device dispatch is
    /// deliberately not supported here.
    ///
    /// # Errors
    ///
    /// Fails on misaligned (odd) addresses and on anything outside RAM.
    #[inline]
    pub fn read_u16(&mut self, addr: u32) -> Result<u16, MemError> {
        if !addr.is_multiple_of(2) {
            return Err(MemError::Misaligned { addr });
        }
        let a = addr as usize;
        if a + 2 <= self.ram.len() {
            Ok(u16::from_le_bytes([self.ram[a], self.ram[a + 1]]))
        } else {
            Err(MemError::Unmapped { addr })
        }
    }

    /// Reads a word without side effects — the checker's observation
    /// interface (`sctc_sc_read_uint` of the paper).
    ///
    /// # Errors
    ///
    /// Fails on unmapped or misaligned addresses.
    pub fn peek_u32(&self, addr: u32) -> Result<u32, MemError> {
        Self::check_aligned(addr)?;
        if (addr as usize) + 4 <= self.ram.len() {
            let b = &self.ram[addr as usize..addr as usize + 4];
            return Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        match self.device_index(addr) {
            Some(i) => {
                let m = &self.mappings[i];
                Ok(m.device.peek_word(addr - m.base))
            }
            None => Err(MemError::Unmapped { addr }),
        }
    }

    /// Copies a program image into RAM starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in RAM.
    pub fn load_image(&mut self, base: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            let addr = base + (i as u32) * 4;
            assert!(
                (addr as usize) + 4 <= self.ram.len(),
                "program image does not fit in RAM"
            );
            self.ram[addr as usize..addr as usize + 4].copy_from_slice(&w.to_le_bytes());
        }
        self.mark_all_watches_dirty();
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("ram_bytes", &self.ram.len())
            .field("devices", &self.mappings.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A device whose reads are destructive (clears on read) to distinguish
    /// `read` from `peek`.
    struct ClearOnRead {
        value: u32,
        ticks: u32,
    }

    impl MmioDevice for ClearOnRead {
        fn read_word(&mut self, _offset: u32) -> u32 {
            std::mem::take(&mut self.value)
        }
        fn write_word(&mut self, _offset: u32, value: u32) {
            self.value = value;
        }
        fn peek_word(&self, _offset: u32) -> u32 {
            self.value
        }
        fn tick(&mut self) {
            self.ticks += 1;
        }
    }

    #[test]
    fn ram_read_write_round_trips() {
        let mut mem = Memory::new(64);
        mem.write_u32(0, 0x0102_0304).unwrap();
        mem.write_u32(60, 42).unwrap();
        assert_eq!(mem.read_u32(0).unwrap(), 0x0102_0304);
        assert_eq!(mem.read_u32(60).unwrap(), 42);
    }

    #[test]
    fn unmapped_and_misaligned_accesses_fail() {
        let mut mem = Memory::new(64);
        assert_eq!(mem.read_u32(64), Err(MemError::Unmapped { addr: 64 }));
        assert_eq!(mem.read_u32(2), Err(MemError::Misaligned { addr: 2 }));
        assert_eq!(mem.write_u32(100, 1), Err(MemError::Unmapped { addr: 100 }));
    }

    #[test]
    fn device_dispatch_and_peek_semantics() {
        let mut mem = Memory::new(64);
        mem.map_device(0x100, 0x10, Box::new(ClearOnRead { value: 0, ticks: 0 }));
        mem.write_u32(0x104, 77).unwrap();
        // Peek does not consume the value; read does.
        assert_eq!(mem.peek_u32(0x104).unwrap(), 77);
        assert_eq!(mem.read_u32(0x104).unwrap(), 77);
        assert_eq!(mem.read_u32(0x104).unwrap(), 0);
    }

    #[test]
    fn tick_reaches_devices() {
        let mut mem = Memory::new(0);
        mem.map_device(0x0, 0x4, Box::new(ClearOnRead { value: 0, ticks: 0 }));
        mem.tick_devices();
        mem.tick_devices();
        // Observable only through behaviour; write then read to check the
        // device is alive after ticks.
        mem.write_u32(0, 5).unwrap();
        assert_eq!(mem.peek_u32(0).unwrap(), 5);
    }

    #[test]
    #[should_panic(expected = "overlaps RAM")]
    fn mapping_over_ram_is_rejected() {
        let mut mem = Memory::new(64);
        mem.map_device(0, 16, Box::new(ClearOnRead { value: 0, ticks: 0 }));
    }

    #[test]
    #[should_panic(expected = "overlaps an existing device")]
    fn overlapping_mappings_are_rejected() {
        let mut mem = Memory::new(0);
        mem.map_device(0x100, 0x10, Box::new(ClearOnRead { value: 0, ticks: 0 }));
        mem.map_device(0x108, 0x10, Box::new(ClearOnRead { value: 0, ticks: 0 }));
    }

    #[test]
    fn load_image_places_words() {
        let mut mem = Memory::new(64);
        mem.load_image(8, &[1, 2, 3]);
        assert_eq!(mem.read_u32(8).unwrap(), 1);
        assert_eq!(mem.read_u32(16).unwrap(), 3);
    }

    #[test]
    fn halfword_reads_are_little_endian_ram_only() {
        let mut mem = Memory::new(64);
        mem.write_u32(8, 0xaabb_ccdd).unwrap();
        assert_eq!(mem.read_u16(8).unwrap(), 0xccdd);
        assert_eq!(mem.read_u16(10).unwrap(), 0xaabb);
        assert_eq!(mem.read_u16(9), Err(MemError::Misaligned { addr: 9 }));
        // The fetch path stops at the end of RAM; devices are not text.
        assert_eq!(mem.read_u16(64), Err(MemError::Unmapped { addr: 64 }));
        mem.map_device(0x100, 0x10, Box::new(ClearOnRead { value: 7, ticks: 0 }));
        assert_eq!(mem.read_u16(0x100), Err(MemError::Unmapped { addr: 0x100 }));
    }

    #[test]
    fn attached_symbol_map_is_shared_and_optional() {
        use crate::symbol::SymbolMap;
        let mut mem = Memory::new(64);
        assert!(mem.symbols().is_none(), "no map until one is attached");
        let mut map = SymbolMap::new();
        map.insert("counter", 8, 1);
        mem.attach_symbols(std::rc::Rc::new(map));
        let syms = mem.symbols().expect("map attached");
        assert_eq!(syms.label_for_range(8, 4).as_deref(), Some("counter"));
        // The map is metadata only: RAM accesses are unaffected.
        mem.write_u32(8, 5).unwrap();
        assert_eq!(mem.read_u32(8).unwrap(), 5);
    }

    #[test]
    fn ram_snapshot_restores_contents_but_not_devices() {
        let mut mem = Memory::new(64);
        mem.map_device(0x100, 0x10, Box::new(ClearOnRead { value: 9, ticks: 0 }));
        mem.write_u32(4, 0xaaaa_5555).unwrap();
        let snap = mem.snapshot_ram();
        mem.write_u32(4, 1).unwrap();
        mem.write_u32(8, 2).unwrap();
        mem.restore_ram(&snap);
        assert_eq!(mem.read_u32(4).unwrap(), 0xaaaa_5555);
        assert_eq!(mem.read_u32(8).unwrap(), 0);
        // The device kept its state: snapshots cover RAM only.
        assert_eq!(mem.peek_u32(0x100).unwrap(), 9);
    }

    #[test]
    #[should_panic(expected = "snapshot size mismatch")]
    fn mismatched_snapshot_is_rejected() {
        let mut mem = Memory::new(64);
        mem.restore_ram(&[0; 8]);
    }

    /// Registers word watches at the given addresses and drains their
    /// initial dirty flags, so subsequent assertions see only new activity.
    fn settled_watches(mem: &mut Memory, addrs: &[u32]) -> Vec<usize> {
        let ids: Vec<usize> = addrs.iter().map(|&a| mem.watch_range(a, 4)).collect();
        for &id in &ids {
            assert!(mem.take_dirty_watch(id), "new watches start dirty");
        }
        ids
    }

    #[test]
    fn write_inside_watched_range_sets_exactly_the_covering_watches() {
        let mut mem = Memory::new(64);
        let ids = settled_watches(&mut mem, &[0, 8, 16]);
        mem.write_u32(8, 7).unwrap();
        assert!(!mem.take_dirty_watch(ids[0]));
        assert!(mem.take_dirty_watch(ids[1]));
        assert!(!mem.take_dirty_watch(ids[2]));
        // Dirty means written, not changed: rewriting the same value
        // still marks the watch (the sampler re-reads and sees no flip).
        mem.write_u32(8, 7).unwrap();
        assert!(mem.take_dirty_watch(ids[1]));
    }

    #[test]
    fn unwatched_write_sets_no_watches() {
        let mut mem = Memory::new(64);
        let ids = settled_watches(&mut mem, &[0, 8]);
        mem.write_u32(32, 1).unwrap();
        assert!(!mem.take_dirty_watch(ids[0]));
        assert!(!mem.take_dirty_watch(ids[1]));
    }

    #[test]
    fn restore_ram_marks_all_watches_dirty() {
        let mut mem = Memory::new(64);
        let snap = mem.snapshot_ram();
        let ids = settled_watches(&mut mem, &[0, 8, 40]);
        // The power-cut path from the fault campaigns: wholesale restore
        // must conservatively invalidate every watch.
        mem.restore_ram(&snap);
        for &id in &ids {
            assert!(mem.take_dirty_watch(id));
        }
    }

    #[test]
    fn load_image_marks_all_watches_dirty() {
        let mut mem = Memory::new(64);
        let ids = settled_watches(&mut mem, &[0, 40]);
        mem.load_image(8, &[1, 2]);
        for &id in &ids {
            assert!(mem.take_dirty_watch(id));
        }
    }

    #[test]
    fn device_watches_follow_device_activity_not_addresses() {
        let mut mem = Memory::new(64);
        mem.map_device(0x100, 0x10, Box::new(ClearOnRead { value: 0, ticks: 0 }));
        mem.map_device(0x200, 0x10, Box::new(ClearOnRead { value: 0, ticks: 0 }));
        let ram_id = mem.watch_range(0, 4);
        let dev_id = mem.watch_range(0x204, 4);
        mem.take_dirty_watch(ram_id);
        mem.take_dirty_watch(dev_id);
        // A write to the *other* device still dirties the device watch
        // (shared backend state), but never the RAM watch.
        mem.write_u32(0x104, 3).unwrap();
        assert!(!mem.take_dirty_watch(ram_id));
        assert!(mem.take_dirty_watch(dev_id));
        // Ticking devices that may change state dirties device watches
        // (ClearOnRead uses the conservative default).
        mem.tick_devices();
        assert!(!mem.take_dirty_watch(ram_id));
        assert!(mem.take_dirty_watch(dev_id));
    }

    /// A device that reports itself idle, so its ticks are not activity.
    struct Idle;

    impl MmioDevice for Idle {
        fn read_word(&mut self, _offset: u32) -> u32 {
            0
        }
        fn write_word(&mut self, _offset: u32, _value: u32) {}
        fn peek_word(&self, _offset: u32) -> u32 {
            0
        }
        fn state_may_change(&self) -> bool {
            false
        }
    }

    /// Asserts that `act` moves the watch epoch forward, then drains every
    /// watch so the next action starts from all-clean.
    fn advances(mem: &mut Memory, ids: &[usize], what: &str, act: impl FnOnce(&mut Memory)) {
        let before = mem.watch_epoch();
        act(mem);
        assert!(mem.watch_epoch() > before, "{what} must advance the epoch");
        for &id in ids {
            mem.take_dirty_watch(id);
        }
    }

    /// Asserts that `act` leaves the watch epoch where it was.
    fn stays(mem: &mut Memory, what: &str, act: impl FnOnce(&mut Memory)) {
        let before = mem.watch_epoch();
        act(mem);
        assert_eq!(mem.watch_epoch(), before, "{what} must not move the epoch");
    }

    #[test]
    fn watch_epoch_advances_on_every_clean_to_dirty_transition() {
        let mut mem = Memory::new(64);
        mem.map_device(0x100, 0x10, Box::new(ClearOnRead { value: 0, ticks: 0 }));
        let before = mem.watch_epoch();
        let ram = mem.watch_range(8, 4);
        assert!(mem.watch_epoch() > before, "a new watch starts dirty");
        let before = mem.watch_epoch();
        let dev = mem.watch_range(0x104, 4);
        assert!(
            mem.watch_epoch() > before,
            "a new device watch starts dirty"
        );
        let ids = [ram, dev];
        for id in ids {
            mem.take_dirty_watch(id);
        }
        advances(&mut mem, &ids, "a watched RAM write", |m| {
            m.write_u32(8, 1).unwrap();
        });
        advances(&mut mem, &ids, "rewriting the same value", |m| {
            m.write_u32(8, 1).unwrap();
        });
        advances(&mut mem, &ids, "a device write", |m| {
            m.write_u32(0x108, 2).unwrap();
        });
        advances(&mut mem, &ids, "a device read", |m| {
            m.read_u32(0x100).unwrap();
        });
        advances(
            &mut mem,
            &ids,
            "an active device tick",
            Memory::tick_devices,
        );
        let snap = mem.snapshot_ram();
        advances(&mut mem, &ids, "restore_ram", |m| m.restore_ram(&snap));
        advances(&mut mem, &ids, "load_image", |m| m.load_image(32, &[7]));
    }

    #[test]
    fn watch_epoch_stays_put_without_a_new_dirty_watch() {
        let mut mem = Memory::new(64);
        mem.map_device(0x100, 0x10, Box::new(Idle));
        let ids = settled_watches(&mut mem, &[8, 16]);
        stays(&mut mem, "an unwatched write", |m| {
            m.write_u32(32, 5).unwrap()
        });
        stays(&mut mem, "peek_u32", |m| {
            m.peek_u32(8).unwrap();
            m.peek_u32(0x100).unwrap();
        });
        stays(&mut mem, "a read_u16 fetch", |m| {
            m.read_u16(8).unwrap();
        });
        stays(&mut mem, "a RAM read", |m| {
            m.read_u32(16).unwrap();
        });
        stays(&mut mem, "an idle device tick", Memory::tick_devices);
        stays(&mut mem, "a device read without device watches", |m| {
            m.read_u32(0x100).unwrap();
        });
        stays(&mut mem, "take_dirty_watch", |m| {
            for &id in &ids {
                assert!(!m.take_dirty_watch(id));
            }
        });
        // A second write to an already-dirty watch is no new transition:
        // the observer has not drained it yet and will see it anyway.
        mem.write_u32(8, 1).unwrap();
        stays(&mut mem, "a write to a dirty watch", |m| {
            m.write_u32(8, 2).unwrap()
        });
    }

    #[test]
    fn observers_sharing_a_memory_cannot_swallow_each_others_changes() {
        let mut mem = Memory::new(64);
        let a = mem.watch_range(8, 4);
        let b = mem.watch_range(8, 4);
        mem.take_dirty_watch(a);
        let a_epoch = mem.watch_epoch();
        mem.take_dirty_watch(b);
        let b_epoch = mem.watch_epoch();
        mem.write_u32(8, 3).unwrap();
        // Observer `b` drains first; `a` still sees the epoch moved.
        assert!(mem.take_dirty_watch(b));
        assert!(mem.watch_epoch() > b_epoch);
        assert!(mem.watch_epoch() > a_epoch);
        assert!(mem.take_dirty_watch(a));
    }
}
