//! The typed symbol bus: names and widths over raw memory.
//!
//! A [`SymbolMap`] describes what the words of a [`Memory`](crate::Memory)
//! *mean*: which global lives at which address and how many words it
//! spans. The mini-C code generator builds one from its global layout; the
//! checker and witness provenance resolve raw addresses through it so
//! diagnoses read `eee_read_value write` instead of
//! `mem[0x00010018..+4] write`, and propositions can be bound by name
//! (`sym::word_nonzero(.., "eee_ready")`) instead of by address.
//!
//! Resolution is display- and binding-layer only: the canonical atom keys
//! of address-based propositions are untouched, so attaching a map never
//! changes a fingerprint.

use std::collections::HashMap;
use std::fmt;

/// One named, typed region of memory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Symbol {
    /// The symbol's name.
    pub name: String,
    /// Base byte address (word aligned).
    pub addr: u32,
    /// Length in 32-bit words (> 1 for arrays).
    pub words: u32,
}

impl Symbol {
    /// End address (exclusive).
    fn end(&self) -> u32 {
        self.addr + 4 * self.words
    }
}

/// The symbol table over one memory image. Build with [`SymbolMap::insert`],
/// attach to a memory with [`crate::Memory::attach_symbols`].
#[derive(Clone, Default, Debug)]
pub struct SymbolMap {
    /// Symbols sorted by base address (non-overlapping).
    syms: Vec<Symbol>,
    by_name: HashMap<String, usize>,
}

impl SymbolMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        SymbolMap::default()
    }

    /// Adds a symbol spanning `words` 32-bit words at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name, a misaligned address, a zero length or
    /// an overlap with an existing symbol — all layout bugs.
    pub fn insert(&mut self, name: &str, addr: u32, words: u32) {
        assert!(
            addr.is_multiple_of(4),
            "symbol `{name}` is not word aligned"
        );
        assert!(words > 0, "symbol `{name}` has zero length");
        assert!(
            !self.by_name.contains_key(name),
            "duplicate symbol `{name}`"
        );
        let sym = Symbol {
            name: name.to_owned(),
            addr,
            words,
        };
        let pos = self.syms.partition_point(|s| s.addr < addr);
        let no_overlap = (pos == 0 || self.syms[pos - 1].end() <= addr)
            && (pos == self.syms.len() || sym.end() <= self.syms[pos].addr);
        assert!(no_overlap, "symbol `{name}` overlaps an existing symbol");
        self.syms.insert(pos, sym);
        // Re-index everything at or after the insertion point.
        for (i, s) in self.syms.iter().enumerate().skip(pos) {
            self.by_name.insert(s.name.clone(), i);
        }
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.by_name.get(name).map(|&i| &self.syms[i])
    }

    /// All symbols, in address order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.syms
    }

    /// The symbol containing `addr`, if any.
    pub fn containing(&self, addr: u32) -> Option<&Symbol> {
        let pos = self.syms.partition_point(|s| s.addr <= addr);
        let sym = self.syms.get(pos.checked_sub(1)?)?;
        (addr < sym.end()).then_some(sym)
    }

    /// Resolves a symbolic path — `name` or `name[idx]` — to a word
    /// address.
    pub fn resolve_path(&self, path: &str) -> Option<u32> {
        if let Some((base, rest)) = path.split_once('[') {
            let idx: u32 = rest.strip_suffix(']')?.parse().ok()?;
            let sym = self.symbol(base)?;
            if idx >= sym.words {
                return None;
            }
            return Some(sym.addr + 4 * idx);
        }
        self.symbol(path).map(|sym| sym.addr)
    }

    /// Renders a symbolic label for a byte range, or `None` when the
    /// range is not covered by one symbol (callers then fall back to the
    /// raw `mem[..]` form). A one-word symbol labels as `name`; a word of
    /// an array as `name[idx]`; a multi-word span of one symbol as
    /// `name[i..j]`.
    pub fn label_for_range(&self, start: u32, len: u32) -> Option<String> {
        let sym = self.containing(start)?;
        if start.checked_add(len)? > sym.end() {
            return None;
        }
        if sym.words == 1 {
            return Some(sym.name.clone());
        }
        let first = (start - sym.addr) / 4;
        let last = (start + len - 1 - sym.addr) / 4;
        if first == last {
            Some(format!("{}[{first}]", sym.name))
        } else {
            Some(format!("{}[{first}..{last}]", sym.name))
        }
    }
}

/// Lists the map one symbol per line — a tiny linker-map view for
/// debugging.
impl fmt::Display for SymbolMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for sym in &self.syms {
            writeln!(f, "{:#010x} +{:<3} {}", sym.addr, 4 * sym.words, sym.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> SymbolMap {
        let mut map = SymbolMap::new();
        map.insert("flag", 0x1_0004, 1);
        map.insert("buf", 0x1_0010, 4);
        map.insert("eee_status", 0x1_0000, 1);
        map
    }

    #[test]
    fn insert_keeps_symbols_sorted_and_indexed() {
        let map = demo();
        let addrs: Vec<u32> = map.symbols().iter().map(|s| s.addr).collect();
        assert_eq!(addrs, vec![0x1_0000, 0x1_0004, 0x1_0010]);
        assert_eq!(map.symbol("flag").unwrap().addr, 0x1_0004);
    }

    #[test]
    fn containing_finds_the_right_symbol() {
        let map = demo();
        assert_eq!(map.containing(0x1_0000).unwrap().name, "eee_status");
        assert_eq!(map.containing(0x1_0004).unwrap().name, "flag");
        assert_eq!(map.containing(0x1_0018).unwrap().name, "buf");
        assert!(map.containing(0x1_0008).is_none());
        assert!(map.containing(0x1_0020).is_none());
    }

    #[test]
    fn resolve_path_handles_names_and_indices() {
        let map = demo();
        assert_eq!(map.resolve_path("flag"), Some(0x1_0004));
        assert_eq!(map.resolve_path("buf[2]"), Some(0x1_0018));
        assert!(map.resolve_path("buf[4]").is_none());
        assert!(map.resolve_path("nope").is_none());
    }

    #[test]
    fn labels_cover_scalars_and_arrays() {
        let map = demo();
        assert_eq!(map.label_for_range(0x1_0004, 4).unwrap(), "flag");
        assert_eq!(map.label_for_range(0x1_0014, 4).unwrap(), "buf[1]");
        assert_eq!(map.label_for_range(0x1_0010, 8).unwrap(), "buf[0..1]");
        assert!(map.label_for_range(0x1_0008, 4).is_none());
        assert!(map.label_for_range(0x1_001c, 8).is_none(), "past the end");
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_symbols_are_rejected() {
        let mut map = demo();
        map.insert("clash", 0x1_0014, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate symbol")]
    fn duplicate_names_are_rejected() {
        let mut map = demo();
        map.insert("flag", 0x2_0000, 1);
    }
}
