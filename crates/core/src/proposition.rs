//! Propositions: the atomic observations of temporal properties.
//!
//! SCTC wraps arbitrary source-code entities as named objects whose
//! `is_true()` the checker evaluates to obtain the current system state
//! (paper Fig. 1). This module provides the trait plus adapters for the two
//! flows: memory-word observations against the microprocessor model and
//! interpreter observations against the derived software model.

use std::fmt;
use std::rc::Rc;

use minic::SharedInterp;
use sctc_cpu::SharedSoc;

/// The write-path hook that re-dirties a proposition's interned atom (see
/// [`Sctc`](crate::Sctc)'s change-driven sampling). Each variant names one
/// model location whose write paths the checker subscribes to at property
/// registration time.
pub enum Watch {
    /// A memory word of a microprocessor model.
    MemWord {
        /// The SoC whose memory is observed.
        soc: SharedSoc,
        /// Word address of the observation.
        addr: u32,
    },
    /// A named global of a derived (interpreter) model.
    Global {
        /// The interpreter whose global is observed.
        interp: SharedInterp,
        /// The global's name.
        name: String,
    },
    /// The executing-function name of a derived model (the paper's
    /// `fname` shadow variable).
    Fname {
        /// The interpreter whose call stack is observed.
        interp: SharedInterp,
    },
}

/// An atomic observation connected to the Boolean layer of a temporal
/// property. Propositions may carry state (paper: "for more advanced
/// predicates, they can carry state"), hence `&mut self`.
pub trait Proposition {
    /// The name this proposition has inside property formulas.
    fn name(&self) -> &str;

    /// Evaluates the proposition against the current system state.
    fn is_true(&mut self) -> bool;

    /// Convenience negation, mirroring the paper's interface.
    fn is_false(&mut self) -> bool {
        !self.is_true()
    }

    /// A canonical key identifying the *observation* this proposition
    /// makes (independent of its formula name). Two propositions with
    /// equal keys always evaluate identically, so the checker interns
    /// them into one shared atom that is read once per sample. The key
    /// embeds the observed model's identity (pointer), so propositions
    /// over different model instances never alias.
    ///
    /// `None` (the default, e.g. for [`ClosureProp`]) keeps the
    /// proposition un-interned: it gets a private atom that is
    /// re-evaluated on every sample.
    fn key(&self) -> Option<String> {
        None
    }

    /// The write-path watch that re-dirties this proposition's atom, or
    /// `None` for propositions whose value can change without a
    /// observable write (such atoms stay always-dirty).
    fn watch(&self) -> Option<Watch> {
        None
    }
}

impl fmt::Debug for dyn Proposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Proposition({})", self.name())
    }
}

/// A proposition computed by a closure.
///
/// # Examples
///
/// ```
/// use sctc_core::{ClosureProp, Proposition};
///
/// let mut calls = 0;
/// let mut p = ClosureProp::new("every_other", move || {
///     calls += 1;
///     calls % 2 == 0
/// });
/// assert!(!p.is_true());
/// assert!(p.is_true());
/// ```
pub struct ClosureProp {
    name: String,
    f: Box<dyn FnMut() -> bool>,
}

impl ClosureProp {
    /// Creates a proposition from a closure.
    pub fn new(name: &str, f: impl FnMut() -> bool + 'static) -> Self {
        ClosureProp {
            name: name.to_owned(),
            f: Box::new(f),
        }
    }

    /// Boxes the proposition for registration with the checker.
    pub fn boxed(name: &str, f: impl FnMut() -> bool + 'static) -> Box<dyn Proposition> {
        Box::new(Self::new(name, f))
    }
}

impl Proposition for ClosureProp {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_true(&mut self) -> bool {
        (self.f)()
    }
}

impl fmt::Debug for ClosureProp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClosureProp({})", self.name)
    }
}

/// Word predicate of the microprocessor-flow propositions.
#[derive(Clone, Debug)]
enum WordPred {
    Eq(u32),
    Ne(u32),
    Nonzero,
}

impl WordPred {
    fn test(&self, v: u32) -> bool {
        match self {
            WordPred::Eq(x) => v == *x,
            WordPred::Ne(x) => v != *x,
            WordPred::Nonzero => v != 0,
        }
    }

    fn canon(&self) -> String {
        match self {
            WordPred::Eq(x) => format!("eq({x:#x})"),
            WordPred::Ne(x) => format!("ne({x:#x})"),
            WordPred::Nonzero => "nonzero".to_owned(),
        }
    }
}

/// A microprocessor-flow proposition: a predicate over one memory word,
/// read through the side-effect-free `peek_u32` interface.
struct MemWordProp {
    name: String,
    soc: SharedSoc,
    addr: u32,
    pred: WordPred,
}

impl Proposition for MemWordProp {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_true(&mut self) -> bool {
        self.soc
            .borrow()
            .mem
            .peek_u32(self.addr)
            .map(|v| self.pred.test(v))
            .unwrap_or(false)
    }

    fn key(&self) -> Option<String> {
        Some(format!(
            "mem@{:x}:word_{}@{:#x}",
            Rc::as_ptr(&self.soc) as usize,
            self.pred.canon(),
            self.addr
        ))
    }

    fn watch(&self) -> Option<Watch> {
        Some(Watch::MemWord {
            soc: self.soc.clone(),
            addr: self.addr,
        })
    }
}

/// Integer predicate of the derived-model propositions.
#[derive(Clone, Debug)]
enum IntPred {
    Eq(i32),
    Ne(i32),
    Nonzero,
    In(Vec<i32>),
}

impl IntPred {
    fn test(&self, v: i32) -> bool {
        match self {
            IntPred::Eq(x) => v == *x,
            IntPred::Ne(x) => v != *x,
            IntPred::Nonzero => v != 0,
            IntPred::In(xs) => xs.contains(&v),
        }
    }

    fn canon(&self) -> String {
        match self {
            IntPred::Eq(x) => format!("eq({x})"),
            IntPred::Ne(x) => format!("ne({x})"),
            IntPred::Nonzero => "nonzero".to_owned(),
            IntPred::In(xs) => format!("in({xs:?})"),
        }
    }
}

/// A derived-model proposition: a predicate over one interpreter global.
struct GlobalProp {
    name: String,
    interp: SharedInterp,
    global: String,
    pred: IntPred,
}

impl Proposition for GlobalProp {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_true(&mut self) -> bool {
        self.pred
            .test(self.interp.borrow().global_by_name(&self.global))
    }

    fn key(&self) -> Option<String> {
        Some(format!(
            "esw@{:x}:global_{}@{}",
            Rc::as_ptr(&self.interp) as usize,
            self.pred.canon(),
            self.global
        ))
    }

    fn watch(&self) -> Option<Watch> {
        Some(Watch::Global {
            interp: self.interp.clone(),
            name: self.global.clone(),
        })
    }
}

/// A derived-model proposition over the executing-function name.
struct FnameProp {
    name: String,
    interp: SharedInterp,
    func: String,
}

impl Proposition for FnameProp {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_true(&mut self) -> bool {
        self.interp.borrow().current_function_name() == Some(self.func.as_str())
    }

    fn key(&self) -> Option<String> {
        Some(format!(
            "esw@{:x}:fname_is({})",
            Rc::as_ptr(&self.interp) as usize,
            self.func
        ))
    }

    fn watch(&self) -> Option<Watch> {
        Some(Watch::Fname {
            interp: self.interp.clone(),
        })
    }
}

/// Microprocessor-flow propositions: observe a memory word through the
/// side-effect-free read interface (`sctc_sc_read_uint` of the paper).
pub mod mem {
    use super::*;

    /// `mem[addr] == value`
    pub fn word_eq(name: &str, soc: SharedSoc, addr: u32, value: u32) -> Box<dyn Proposition> {
        Box::new(MemWordProp {
            name: name.to_owned(),
            soc,
            addr,
            pred: WordPred::Eq(value),
        })
    }

    /// `mem[addr] != 0`
    pub fn word_nonzero(name: &str, soc: SharedSoc, addr: u32) -> Box<dyn Proposition> {
        Box::new(MemWordProp {
            name: name.to_owned(),
            soc,
            addr,
            pred: WordPred::Nonzero,
        })
    }

    /// `mem[addr] != value` — e.g. "the served read is not the erased
    /// marker" in recovery properties. An unmapped address counts as
    /// *false* (no observation), consistent with the other adapters.
    pub fn word_ne(name: &str, soc: SharedSoc, addr: u32, value: u32) -> Box<dyn Proposition> {
        Box::new(MemWordProp {
            name: name.to_owned(),
            soc,
            addr,
            pred: WordPred::Ne(value),
        })
    }
}

/// Symbolic microprocessor-flow propositions: the same observations as
/// [`mem`], but bound by name through the memory's attached
/// [`SymbolMap`](sctc_cpu::SymbolMap) rather than by raw address.
///
/// Resolution happens once, at construction: a `word_*` proposition over
/// path `p` is *identical* (same canonical key, same atom) to the `mem`
/// proposition over `p`'s address, so rewriting a property from addresses
/// to symbols never changes a fingerprint.
///
/// Paths follow [`SymbolMap::resolve_path`](sctc_cpu::SymbolMap::resolve_path):
/// `name` or `name[idx]`.
///
/// # Panics
///
/// All constructors panic when the SoC's memory has no symbol map or the
/// path does not resolve — binding a property against a symbol that does
/// not exist is a harness bug, mirroring `CompiledProgram::global_addr`.
pub mod sym {
    use super::*;

    fn resolve(soc: &SharedSoc, path: &str) -> u32 {
        let soc_ref = soc.borrow();
        let map = soc_ref
            .mem
            .symbols()
            .unwrap_or_else(|| panic!("memory has no symbol map; cannot resolve `{path}`"));
        map.resolve_path(path)
            .unwrap_or_else(|| panic!("unknown symbolic path `{path}`"))
    }

    fn word(name: &str, soc: SharedSoc, path: &str, pred: WordPred) -> Box<dyn Proposition> {
        let addr = resolve(&soc, path);
        Box::new(MemWordProp {
            name: name.to_owned(),
            soc,
            addr,
            pred,
        })
    }

    /// `*path == value`
    pub fn word_eq(name: &str, soc: SharedSoc, path: &str, value: u32) -> Box<dyn Proposition> {
        word(name, soc, path, WordPred::Eq(value))
    }

    /// `*path != 0`
    pub fn word_nonzero(name: &str, soc: SharedSoc, path: &str) -> Box<dyn Proposition> {
        word(name, soc, path, WordPred::Nonzero)
    }

    /// `*path != value`
    pub fn word_ne(name: &str, soc: SharedSoc, path: &str, value: u32) -> Box<dyn Proposition> {
        word(name, soc, path, WordPred::Ne(value))
    }
}

/// Derived-model propositions: observe the interpreter directly.
pub mod esw {
    use super::*;

    /// `global == value`
    pub fn global_eq(
        name: &str,
        interp: SharedInterp,
        global: &str,
        value: i32,
    ) -> Box<dyn Proposition> {
        Box::new(GlobalProp {
            name: name.to_owned(),
            interp,
            global: global.to_owned(),
            pred: IntPred::Eq(value),
        })
    }

    /// `global != 0`
    pub fn global_nonzero(name: &str, interp: SharedInterp, global: &str) -> Box<dyn Proposition> {
        Box::new(GlobalProp {
            name: name.to_owned(),
            interp,
            global: global.to_owned(),
            pred: IntPred::Nonzero,
        })
    }

    /// `global != value`
    pub fn global_ne(
        name: &str,
        interp: SharedInterp,
        global: &str,
        value: i32,
    ) -> Box<dyn Proposition> {
        Box::new(GlobalProp {
            name: name.to_owned(),
            interp,
            global: global.to_owned(),
            pred: IntPred::Ne(value),
        })
    }

    /// `global ∈ values`
    pub fn global_in(
        name: &str,
        interp: SharedInterp,
        global: &str,
        values: Vec<i32>,
    ) -> Box<dyn Proposition> {
        Box::new(GlobalProp {
            name: name.to_owned(),
            interp,
            global: global.to_owned(),
            pred: IntPred::In(values),
        })
    }

    /// `fname == func` — the currently executing function is `func`
    /// (the paper's function-sequence observation).
    pub fn fname_is(name: &str, interp: SharedInterp, func: &str) -> Box<dyn Proposition> {
        Box::new(FnameProp {
            name: name.to_owned(),
            interp,
            func: func.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_prop_reports_name_and_negation() {
        let mut p = ClosureProp::new("always_on", || true);
        assert_eq!(p.name(), "always_on");
        assert!(p.is_true());
        assert!(!p.is_false());
    }

    #[test]
    fn stateful_proposition_carries_state() {
        let mut count = 0;
        let mut p = ClosureProp::new("after_three", move || {
            count += 1;
            count >= 3
        });
        assert!(!p.is_true());
        assert!(!p.is_true());
        assert!(p.is_true());
    }
}
