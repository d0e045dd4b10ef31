//! The SCTC checker engine: properties, bound propositions, sampling.
//!
//! A [`Sctc`] owns a set of property monitors together with the propositions
//! they observe. Every [`Sctc::sample`] obtains the current valuation and
//! advances each monitor by one step; the trigger (clock edge or
//! program-counter event) is supplied by an [`SctcProcess`] inside the
//! simulation.
//!
//! ## Change-driven sampling
//!
//! The default engine ([`EngineKind::Compiled`]) runs a three-stage
//! change-driven pipeline instead of re-evaluating every proposition on
//! every trigger:
//!
//! 1. **Atom table** — propositions are interned by a canonical key
//!    ([`Proposition::key`]) into a per-checker atom table; a proposition
//!    shared by several properties (or repeated inside one) is evaluated
//!    once per sample, into a packed `u64`-word value bitset. Each property
//!    keeps a projection (atom index → automaton prop bit).
//! 2. **Dirty tracking** — at registration time the checker subscribes to
//!    the observed model's write paths ([`Proposition::watch`]): memory
//!    watch ranges, interpreter global slots, call-stack changes. A sample
//!    whose dirty set is empty re-reads **zero** atoms.
//! 3. **Stutter compression** — samples whose (projected) valuation cannot
//!    have changed are not stepped one-by-one; a check's run is the gap
//!    between the sample index its monitor was advanced to and the current
//!    one, flushed through [`CompiledMonitor::step_run`] (one run-table
//!    lookup, whatever the run's length) at the next change or verdict
//!    query. While no observed model's watch epoch moves, a sample
//!    touches no check at all (the clean path of [`Sctc::sample`]).
//!
//! Verdicts, decision sample indices and all campaign fingerprints are
//! bit-identical to the naive pipeline, which remains available as
//! [`EngineKind::Naive`] (and is cross-checked in the test suite). The
//! avoided work is reported through [`Sctc::counters`].
//!
//! A formula synthesis refuses (more than 12 propositions, or past the
//! state limit) is registered under either engine as a naive check over
//! the progression [`Monitor`], which needs no automaton.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use minic::SharedInterp;
use sctc_cpu::{Memory, SharedSoc};
use sctc_obs::{
    ProvenanceEntry, SharedProfiler, VcdDoc, VcdValue, Witness, WitnessConfig, WitnessRecorder,
};
use sctc_sim::{Activation, Event, Process, ProcessContext, ProcessId, Simulation};
use sctc_temporal::{
    CompiledMonitor, Formula, Monitor, SynthesisCache, SynthesisError, SynthesisStats,
    TraceMonitor, Verdict,
};

use crate::proposition::{Proposition, Watch};

/// Which monitoring engine to instantiate per property.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// The AR-automaton (the paper's pipeline; synthesis time is part of
    /// the verification time) lowered into a [`CompiledMonitor`] and
    /// driven by the change-driven sampling pipeline: interned atoms,
    /// dirty tracking, and stutter runs answered by one run-table lookup.
    #[default]
    Compiled,
    /// The same compiled monitor stepped naively: every bound proposition
    /// is re-evaluated on every sample and every sample is one
    /// [`TraceMonitor::step`], with no atom table, dirty tracking or
    /// stutter runs. Kept as the reference engine for equivalence checks.
    Naive,
}

/// Counters of monitoring work avoided (and done) by the change-driven
/// pipeline. All values are summed over samples; `atoms_total` counts the
/// proposition evaluations the naive pipeline would have performed, so
/// `atoms_evaluated / atoms_total` is the fraction of observation work
/// actually done.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct MonitorCounters {
    /// Proposition (atom) evaluations actually performed.
    pub atoms_evaluated: u64,
    /// Proposition evaluations the naive pipeline would have performed
    /// (per sample: every proposition of every undecided property).
    pub atoms_total: u64,
    /// Monitor steps that were deferred as identical-valuation stutter and
    /// later applied in bulk through `step_run` instead of one-by-one.
    pub steps_compressed: u64,
    /// Samples in which at least one atom was (re-)evaluated.
    pub dirty_wakeups: u64,
}

impl MonitorCounters {
    /// Accumulates another counter set (shard/campaign merging).
    pub fn merge(&mut self, other: &MonitorCounters) {
        self.atoms_evaluated += other.atoms_evaluated;
        self.atoms_total += other.atoms_total;
        self.steps_compressed += other.steps_compressed;
        self.dirty_wakeups += other.dirty_wakeups;
    }
}

impl fmt::Display for MonitorCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let percent = if self.atoms_total == 0 {
            100.0
        } else {
            self.atoms_evaluated as f64 / self.atoms_total as f64 * 100.0
        };
        writeln!(
            f,
            "{:<20} {:>14} / {:>14} ({percent:.1}% of naive)",
            "atoms evaluated", self.atoms_evaluated, self.atoms_total
        )?;
        writeln!(f, "{:<20} {:>14}", "dirty wakeups", self.dirty_wakeups)?;
        writeln!(
            f,
            "{:<20} {:>14}",
            "steps compressed", self.steps_compressed
        )
    }
}

/// An error registering a property.
#[derive(Clone, Debug)]
pub enum SctcError {
    /// A proposition used in the formula has no binding.
    MissingProposition {
        /// The property being registered.
        property: String,
        /// The unbound proposition name.
        proposition: String,
    },
    /// AR-automaton synthesis failed for a reason progression cannot
    /// work around (the formula could not be interned).
    Synthesis(SynthesisError),
    /// The progression monitor rejected the formula.
    Il(sctc_temporal::IlError),
}

impl fmt::Display for SctcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SctcError::MissingProposition {
                property,
                proposition,
            } => write!(
                f,
                "property `{property}` uses proposition `{proposition}` with no binding"
            ),
            SctcError::Synthesis(e) => write!(f, "{e}"),
            SctcError::Il(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SctcError {}

impl From<SynthesisError> for SctcError {
    fn from(e: SynthesisError) -> Self {
        SctcError::Synthesis(e)
    }
}

/// The final outcome of one property.
#[derive(Clone, Debug)]
pub struct PropertyResult {
    /// Property name.
    pub name: String,
    /// Verdict after the run.
    pub verdict: Verdict,
    /// Sample index (1-based) at which the verdict was decided.
    pub decided_at: Option<u64>,
    /// AR-automaton synthesis statistics; `None` when synthesis was
    /// refused and the property runs on formula progression.
    pub synthesis: Option<SynthesisStats>,
}

/// One interned observation of the atom table. The sampled value lives in
/// the checker's packed bitset, not here.
struct Atom {
    prop: Box<dyn Proposition>,
    /// The value may be stale: a write to the observed location happened
    /// since the last evaluation.
    dirty: bool,
    /// No usable write-path hook — re-evaluated on every sample it is
    /// needed (closure propositions, device-backed words).
    always_dirty: bool,
    /// Provenance label of the write path that dirties this atom
    /// (diagnosis layer; derived from the registered watch).
    label: String,
}

/// A model whose write paths feed dirty flags into the atom table.
enum Model {
    Soc(SharedSoc),
    Interp(SharedInterp),
}

impl Model {
    fn is(&self, other: &Model) -> bool {
        match (self, other) {
            (Model::Soc(a), Model::Soc(b)) => Rc::ptr_eq(a, b),
            (Model::Interp(a), Model::Interp(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    fn watch_epoch(&self) -> u64 {
        match self {
            Model::Soc(soc) => soc.borrow().mem.watch_epoch(),
            Model::Interp(interp) => interp.borrow().watch_epoch(),
        }
    }
}

/// One observed model and the watches this checker registered on it.
struct DirtySource {
    model: Model,
    /// `(watch id in the model, atom index)`
    watch_atoms: Vec<(usize, usize)>,
    /// The model's watch epoch when this checker last drained the
    /// watches: while it still reads the same, none of them is dirty.
    drained_at: u64,
}

/// Per-property monitoring state.
enum CheckEngine {
    /// Change-driven: projection from the shared atom table plus
    /// stutter-compressed stepping.
    Driven {
        monitor: CompiledMonitor,
        /// Atom index feeding each automaton prop bit.
        atom_bits: Vec<usize>,
        /// The valuation of the last stepped (or deferred) samples.
        last_valuation: u64,
        /// The sample index the monitor has been advanced to. While the
        /// check is undecided, the samples after it up to the current one
        /// are a stutter run of `last_valuation` not yet applied.
        advanced_to: u64,
        /// Whether `last_valuation` holds a real observation yet.
        primed: bool,
    },
    /// Self-contained: the monitor evaluates its own bound propositions on
    /// every sample (the naive table pipeline, and progression for a
    /// formula synthesis refused).
    Naive {
        monitor: Box<dyn TraceMonitor>,
        /// Bound propositions, ordered to match `monitor.props()`.
        props: Vec<Box<dyn Proposition>>,
    },
}

impl CheckEngine {
    fn monitor(&self) -> &dyn TraceMonitor {
        match self {
            CheckEngine::Driven { monitor, .. } => monitor,
            CheckEngine::Naive { monitor, .. } => monitor.as_ref(),
        }
    }
}

struct PropertyCheck {
    name: String,
    engine: CheckEngine,
    synthesis: Option<SynthesisStats>,
}

/// VCD channels of one property: a `verdict` wire plus one wire per
/// automaton proposition bit, grouped under a scope named after the
/// property. Channel names are formula-level proposition names (stable
/// across flows), never interned atom keys (which embed pointers).
struct CheckChannels {
    verdict_wire: usize,
    last_verdict: VcdValue,
    /// One wire per valuation bit.
    atom_wires: Vec<usize>,
    /// Last emitted value per valuation bit (`None` until first sample).
    last_bits: Vec<Option<bool>>,
}

/// Per-property diagnosis-capture state.
struct ObsCheck {
    /// Stutter-compressed valuation recorder (witness extraction only).
    recorder: Option<WitnessRecorder>,
    /// Proposition names in valuation-bit order.
    atom_names: Vec<String>,
    /// Write-path provenance label per valuation bit.
    bit_labels: Vec<String>,
    /// Valuation of the last recorded step (`None` before the first).
    last_val: Option<u64>,
    /// Most recent write events that changed this property's valuation —
    /// the dirty-set provenance of the deciding trigger.
    last_change: Vec<ProvenanceEntry>,
    /// Witness already finalized for the current case.
    done: bool,
    vcd: Option<CheckChannels>,
}

/// Observability state attached to a checker. `None` on the [`Sctc`]
/// means every capture is disabled and the hot path pays exactly one
/// `Option` branch per property per sample.
struct ObsState {
    witness_cfg: Option<WitnessConfig>,
    vcd: Option<VcdDoc>,
    checks: Vec<ObsCheck>,
    witnesses: Vec<Witness>,
}

impl ObsState {
    fn new() -> Self {
        ObsState {
            witness_cfg: None,
            vcd: None,
            checks: Vec::new(),
            witnesses: Vec::new(),
        }
    }

    /// Records one real monitor step: provenance diff, witness run,
    /// VCD atom-channel changes.
    fn on_step(&mut self, ci: usize, sample: u64, valuation: u64, state_before: Option<u32>) {
        let Some(oc) = self.checks.get_mut(ci) else {
            return;
        };
        let prev = oc.last_val.unwrap_or(0);
        if valuation ^ prev != 0 || oc.last_val.is_none() {
            let mut events = Vec::new();
            for bit in 0..oc.atom_names.len() {
                let now = valuation >> bit & 1 == 1;
                let was = prev >> bit & 1 == 1;
                if now != was || (oc.last_val.is_none() && now) {
                    events.push(ProvenanceEntry {
                        atom: oc.atom_names[bit].clone(),
                        source: oc.bit_labels[bit].clone(),
                        value: now,
                        sample,
                    });
                }
            }
            if !events.is_empty() {
                oc.last_change = events;
            }
        }
        oc.last_val = Some(valuation);
        if let Some(rec) = &mut oc.recorder {
            rec.record(valuation, state_before);
        }
        if let (Some(doc), Some(ch)) = (&mut self.vcd, &mut oc.vcd) {
            for bit in 0..ch.atom_wires.len() {
                let v = valuation >> bit & 1 == 1;
                if ch.last_bits[bit] != Some(v) {
                    doc.change(sample, ch.atom_wires[bit], VcdValue::from_bool(v));
                    ch.last_bits[bit] = Some(v);
                }
            }
        }
    }

    /// Records one deferred stutter sample (no monitor step, no changes).
    fn on_stutter(&mut self, ci: usize) {
        if let Some(rec) = self.checks.get_mut(ci).and_then(|oc| oc.recorder.as_mut()) {
            rec.record_repeat();
        }
    }

    /// Reacts to a (possibly newly) decided verdict: emits the VCD
    /// verdict-channel transition at the true deciding sample index and
    /// finalizes the witness.
    fn on_verdict(&mut self, ci: usize, name: &str, verdict: Verdict, decided_at: Option<u64>) {
        if !verdict.is_decided() {
            return;
        }
        let Some(oc) = self.checks.get_mut(ci) else {
            return;
        };
        let glyph = match verdict {
            Verdict::True => VcdValue::V1,
            Verdict::False => VcdValue::V0,
            Verdict::Pending => VcdValue::X,
        };
        if let (Some(doc), Some(ch)) = (&mut self.vcd, &mut oc.vcd) {
            if ch.last_verdict != glyph {
                doc.change(decided_at.unwrap_or(0), ch.verdict_wire, glyph);
                ch.last_verdict = glyph;
            }
        }
        if oc.done {
            return;
        }
        oc.done = true;
        if let (Some(cfg), Some(rec)) = (self.witness_cfg, &oc.recorder) {
            if verdict == Verdict::False || cfg.capture_true {
                let witness = rec.finish(
                    name,
                    verdict,
                    decided_at,
                    oc.atom_names.clone(),
                    oc.last_change.clone(),
                );
                sctc_obs::trace::emit(
                    "witness.capture",
                    &[
                        ("decided_at", decided_at.unwrap_or(0)),
                        ("steps", witness.steps.len() as u64),
                    ],
                );
                self.witnesses.push(witness);
            }
        }
    }
}

/// Renders the provenance label of a watched RAM range: the covering
/// symbol's name when the memory carries a symbol map, the raw `mem[..]`
/// form otherwise. Labels are display-only — they never enter canonical
/// keys or fingerprints.
fn mem_write_label(mem: &Memory, start: u32, len: u32) -> String {
    mem.symbols()
        .and_then(|syms| syms.label_for_range(start, len))
        .map(|name| format!("{name} write"))
        .unwrap_or_else(|| format!("mem[{start:#010x}..+{len}] write"))
}

fn word_in_ram(mem: &Memory, addr: u32) -> bool {
    addr.checked_add(4)
        .map(|end| end <= mem.ram_len())
        .unwrap_or(false)
}

/// Provenance label for naive-engine propositions, which register no
/// watches (derived from what the watch *would* observe).
fn static_label(prop: &dyn Proposition) -> String {
    match prop.watch() {
        Some(Watch::MemWord { soc, addr }) => {
            let soc_ref = soc.borrow();
            if word_in_ram(&soc_ref.mem, addr) {
                mem_write_label(&soc_ref.mem, addr, 4)
            } else {
                format!("flash MMIO / device word {addr:#010x} (always dirty)")
            }
        }
        Some(Watch::Global { name, .. }) => format!("global `{name}` write"),
        Some(Watch::Fname { .. }) => "fname change (call/return)".to_owned(),
        None => "unwatched proposition (always dirty)".to_owned(),
    }
}

/// The checker engine.
///
/// # Examples
///
/// ```
/// use sctc_core::{ClosureProp, EngineKind, Sctc};
/// use sctc_temporal::{parse, Verdict};
///
/// let mut sctc = Sctc::new();
/// let mut level = 0;
/// // Shared counter via a cell for the example.
/// let cell = std::rc::Rc::new(std::cell::Cell::new(0));
/// let c = cell.clone();
/// sctc.add_property(
///     "rises",
///     &parse("F[<=5] high").unwrap(),
///     vec![ClosureProp::boxed("high", move || c.get() > 2)],
///     EngineKind::Compiled,
/// ).unwrap();
/// for _ in 0..4 {
///     level += 1;
///     cell.set(level);
///     sctc.sample();
/// }
/// assert_eq!(sctc.results()[0].verdict, Verdict::True);
/// ```
#[derive(Default)]
pub struct Sctc {
    checks: Vec<PropertyCheck>,
    atoms: Vec<Atom>,
    /// Canonical key → atom index.
    atom_index: HashMap<String, usize>,
    sources: Vec<DirtySource>,
    /// Packed atom values, one bit per atom.
    values: Vec<u64>,
    /// Packed per-sample change flags, one bit per atom.
    changed: Vec<u64>,
    /// Scratch: atoms needed by undecided driven checks this sample.
    needed: Vec<u64>,
    /// Set when the next sample may take the clean path (see
    /// [`Sctc::sample`]): the exact `atoms_total` increment of such a
    /// sample.
    clean: Option<u64>,
    samples: u64,
    counters: MonitorCounters,
    /// Diagnosis-layer capture; `None` (the default) disables everything.
    obs: Option<ObsState>,
    /// Span profiler, kept apart from `obs` so profiling alone never
    /// turns on the per-step witness/provenance bookkeeping.
    profiler: Option<SharedProfiler>,
    /// Locally-accumulated per-sample span aggregates (resolved lazily
    /// on the first profiled sample, folded in by [`Sctc::flush_spans`]).
    hot: Option<HotSpans>,
}

/// Local aggregates for the two per-sample spans. Touching the shared
/// profiler (RefCell + guard) per sample costs more than a whole stutter
/// sample, so the checker ticks plain integers instead and takes
/// timestamps only on one sample in [`sctc_obs::SAMPLE_RATE`]; the
/// profiler tree sees the totals at flush.
#[derive(Default)]
struct HotSpans {
    sample_node: usize,
    step_node: usize,
    samples: u64,
    sample_timed: u64,
    sample_wall: std::time::Duration,
    steps: u64,
    step_timed: u64,
    step_wall: std::time::Duration,
}

fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

fn set_bit(words: &mut [u64], i: usize, v: bool) {
    if v {
        words[i / 64] |= 1 << (i % 64);
    } else {
        words[i / 64] &= !(1 << (i % 64));
    }
}

impl Sctc {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Sctc::default()
    }

    /// Registers a property with its proposition bindings.
    ///
    /// Every proposition name occurring in `formula` must appear in `props`
    /// (extra bindings are ignored).
    ///
    /// # Errors
    ///
    /// See [`SctcError`].
    pub fn add_property(
        &mut self,
        name: &str,
        formula: &Formula,
        props: Vec<Box<dyn Proposition>>,
        engine: EngineKind,
    ) -> Result<(), SctcError> {
        // The process-wide cache shares one immutable kernel per distinct
        // formula across all checker instances, and thus across campaign
        // worker threads.
        let (engine, synthesis) = match SynthesisCache::global().synthesize_compiled(formula) {
            Ok(lookup) => {
                let stats = lookup.automaton().stats();
                if lookup.synthesized {
                    sctc_obs::trace::emit(
                        "synthesis",
                        &[
                            ("states", stats.states as u64),
                            ("transitions", stats.transitions as u64),
                        ],
                    );
                }
                let monitor = CompiledMonitor::from_shared(lookup.kernel);
                let engine = match engine {
                    EngineKind::Compiled => self.driven_engine(monitor, props, name)?,
                    EngineKind::Naive => naive_engine(Box::new(monitor), props, name)?,
                };
                (engine, Some(stats))
            }
            Err(refused) => (progression_engine(formula, props, name, refused)?, None),
        };
        self.checks.push(PropertyCheck {
            name: name.to_owned(),
            engine,
            synthesis,
        });
        self.clean = None;
        Ok(())
    }

    /// Wraps a compiled monitor into a change-driven [`CheckEngine`],
    /// interning its propositions into the shared atom table.
    fn driven_engine(
        &mut self,
        monitor: CompiledMonitor,
        props: Vec<Box<dyn Proposition>>,
        name: &str,
    ) -> Result<CheckEngine, SctcError> {
        let ordered = order_props(monitor.props(), props, name)?;
        let atom_bits = ordered
            .into_iter()
            .map(|prop| self.intern_atom(prop))
            .collect();
        Ok(CheckEngine::Driven {
            monitor,
            atom_bits,
            last_valuation: 0,
            advanced_to: self.samples,
            primed: false,
        })
    }

    /// Interns one proposition into the atom table, registering its
    /// write-path watch, and returns its atom index.
    fn intern_atom(&mut self, prop: Box<dyn Proposition>) -> usize {
        if let Some(key) = prop.key() {
            if let Some(&idx) = self.atom_index.get(&key) {
                // Identical observation already interned — the duplicate
                // binding is dropped, the atom is shared.
                return idx;
            }
            let idx = self.new_atom(prop);
            self.atom_index.insert(key, idx);
            idx
        } else {
            // Keyless propositions (closures) may be stateful; each gets a
            // private, always-dirty atom.
            self.new_atom(prop)
        }
    }

    fn new_atom(&mut self, prop: Box<dyn Proposition>) -> usize {
        let idx = self.atoms.len();
        let (always_dirty, label) = match prop.watch() {
            Some(Watch::MemWord { soc, addr }) => {
                if word_in_ram(&soc.borrow().mem, addr) {
                    let wid = soc.borrow_mut().mem.watch_range(addr, 4);
                    self.watch_source(Model::Soc(soc.clone())).push((wid, idx));
                    let soc_ref = soc.borrow();
                    let (start, len, _) = soc_ref.mem.watch_info(wid);
                    (false, mem_write_label(&soc_ref.mem, start, len))
                } else {
                    // Device-backed word: campaign fault injection mutates
                    // shared device state without going through `Memory`,
                    // so precise tracking cannot be trusted here.
                    (
                        true,
                        format!("flash MMIO / device word {addr:#010x} (always dirty)"),
                    )
                }
            }
            Some(Watch::Global { interp, name }) => {
                let wid = interp.borrow_mut().watch_global(&name);
                self.watch_source(Model::Interp(interp.clone()))
                    .push((wid, idx));
                let label = interp.borrow().watch_label(wid);
                (false, label)
            }
            Some(Watch::Fname { interp }) => {
                let wid = interp.borrow_mut().watch_fname();
                self.watch_source(Model::Interp(interp.clone()))
                    .push((wid, idx));
                let label = interp.borrow().watch_label(wid);
                (false, label)
            }
            None => (true, "unwatched proposition (always dirty)".to_owned()),
        };
        self.atoms.push(Atom {
            prop,
            dirty: true,
            always_dirty,
            label,
        });
        let words = self.atoms.len().div_ceil(64);
        self.values.resize(words, 0);
        self.changed.resize(words, 0);
        self.needed.resize(words, 0);
        idx
    }

    /// The watch list of `model`'s dirty source, created on first use.
    fn watch_source(&mut self, model: Model) -> &mut Vec<(usize, usize)> {
        let pos = match self.sources.iter().position(|s| s.model.is(&model)) {
            Some(pos) => pos,
            None => {
                self.sources.push(DirtySource {
                    model,
                    watch_atoms: Vec::new(),
                    drained_at: 0,
                });
                self.sources.len() - 1
            }
        };
        &mut self.sources[pos].watch_atoms
    }

    /// Number of registered properties.
    pub fn property_count(&self) -> usize {
        self.checks.len()
    }

    /// Number of samples taken.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Monitoring-work counters accumulated so far.
    pub fn counters(&self) -> MonitorCounters {
        self.counters
    }

    /// Enables counterexample-witness extraction. Call before sampling;
    /// properties registered later are picked up automatically.
    pub fn enable_witnesses(&mut self, cfg: WitnessConfig) {
        let obs = self.obs.get_or_insert_with(ObsState::new);
        obs.witness_cfg = Some(cfg);
        obs.checks.clear();
        self.clean = None;
    }

    /// Enables property-timeline VCD capture (one scope per property with
    /// a `verdict` wire and one wire per proposition). Call before
    /// sampling; the document is retrieved with [`Sctc::take_vcd`].
    pub fn enable_vcd(&mut self) {
        let obs = self.obs.get_or_insert_with(ObsState::new);
        obs.vcd = Some(VcdDoc::new());
        obs.checks.clear();
        self.clean = None;
    }

    /// Attaches a span profiler; `sample` and `automaton-step` spans are
    /// recorded under whatever span the caller currently has open.
    pub fn set_profiler(&mut self, profiler: SharedProfiler) {
        self.profiler = Some(profiler);
    }

    /// Opens this sample's `sample` span: bumps the local aggregate and
    /// returns a start timestamp iff this sample is one of the timed
    /// 1-in-[`sctc_obs::SAMPLE_RATE`]. The span paths are resolved on
    /// the first profiled sample, so they nest under whatever span the
    /// caller has open (`simulate/...` when driven by a flow).
    fn hot_begin(&mut self) -> Option<std::time::Instant> {
        let profiler = self.profiler.as_ref()?;
        let hot = match &mut self.hot {
            Some(hot) => hot,
            None => {
                let mut p = profiler.borrow_mut();
                let sample_node = p.resolve(&["sample"]);
                let step_node = p.resolve(&["sample", "automaton-step"]);
                self.hot.insert(HotSpans {
                    sample_node,
                    step_node,
                    ..HotSpans::default()
                })
            }
        };
        hot.samples += 1;
        (hot.samples % sctc_obs::SAMPLE_RATE == 1).then(std::time::Instant::now)
    }

    /// Folds the locally-accumulated `sample` / `automaton-step`
    /// aggregates into the profiler tree (no-op without a profiler).
    /// The flows call this before snapshotting [`crate::RunReport`]
    /// spans; intermediate flushes are safe (the aggregates reset).
    pub fn flush_spans(&mut self) {
        let (Some(profiler), Some(hot)) = (self.profiler.as_ref(), self.hot.as_mut()) else {
            return;
        };
        let mut p = profiler.borrow_mut();
        p.add_counts(
            hot.sample_node,
            hot.samples,
            hot.sample_timed,
            hot.sample_wall,
        );
        p.add_counts(hot.step_node, hot.steps, hot.step_timed, hot.step_wall);
        *hot = HotSpans {
            sample_node: hot.sample_node,
            step_node: hot.step_node,
            ..HotSpans::default()
        };
    }

    /// Witnesses captured so far (decided properties only). Pending
    /// stutter runs are flushed first so late decisions are included.
    pub fn take_witnesses(&mut self) -> Vec<Witness> {
        self.flush_pending();
        match self.obs.as_mut() {
            Some(obs) => std::mem::take(&mut obs.witnesses),
            None => Vec::new(),
        }
    }

    /// Takes the captured VCD document, emitting any verdict transition
    /// that surfaced in the final flush. `None` if VCD capture was never
    /// enabled.
    pub fn take_vcd(&mut self) -> Option<VcdDoc> {
        self.flush_pending();
        self.obs.as_mut().and_then(|obs| obs.vcd.take())
    }

    /// Grows per-check obs state to cover every registered property.
    fn obs_sync(&mut self) {
        let Some(obs) = self.obs.as_mut() else {
            return;
        };
        while obs.checks.len() < self.checks.len() {
            let ci = obs.checks.len();
            let check = &self.checks[ci];
            let atom_names: Vec<String> = check.engine.monitor().props().to_vec();
            let bit_labels: Vec<String> = match &check.engine {
                CheckEngine::Driven { atom_bits, .. } => atom_bits
                    .iter()
                    .map(|&a| self.atoms[a].label.clone())
                    .collect(),
                CheckEngine::Naive { props, .. } => {
                    props.iter().map(|p| static_label(p.as_ref())).collect()
                }
            };
            let recorder = obs.witness_cfg.map(|cfg| WitnessRecorder::new(cfg.window));
            let vcd = obs.vcd.as_mut().map(|doc| {
                let verdict_wire = doc.add_wire(&check.name, "verdict");
                let atom_wires: Vec<usize> = atom_names
                    .iter()
                    .map(|n| doc.add_wire(&check.name, n))
                    .collect();
                CheckChannels {
                    verdict_wire,
                    last_verdict: VcdValue::X,
                    last_bits: vec![None; atom_wires.len()],
                    atom_wires,
                }
            });
            obs.checks.push(ObsCheck {
                recorder,
                atom_names,
                bit_labels,
                last_val: None,
                last_change: Vec::new(),
                done: false,
                vcd,
            });
        }
    }

    /// Takes one observation: refreshes dirty atoms, projects per-property
    /// valuations, and advances every monitor by (logically) one step.
    ///
    /// A stutter sample — no atom an undecided check needs changed —
    /// steps no monitor. A check's pending stutter run is the gap between
    /// the sample index its monitor has been advanced to and the current
    /// one; the next change or verdict query applies it in bulk.
    ///
    /// A *clean* sample touches no check and no atom: it only counts
    /// itself and the exact `atoms_total` the full path would add. It is
    /// taken when no observed model's watch epoch moved since the last
    /// full sample drained its watches, and that full sample left every
    /// undecided driven check primed (it steps any unprimed one), no
    /// always-dirty atom needed, no undecided naive check and no witness
    /// or VCD capture. `add_property`, `reset`, enabling capture and a
    /// verdict query whose flush decides a check force the full path.
    pub fn sample(&mut self) {
        let sample_t0 = self.hot_begin();
        match self.clean {
            Some(atoms_total)
                if self
                    .sources
                    .iter()
                    .all(|s| s.model.watch_epoch() == s.drained_at) =>
            {
                self.samples += 1;
                self.counters.atoms_total += atoms_total;
            }
            _ => self.full_sample(),
        }
        if let (Some(t0), Some(hot)) = (sample_t0, self.hot.as_mut()) {
            hot.sample_timed += 1;
            hot.sample_wall += t0.elapsed();
        }
    }

    /// The sample with every stage run; decides whether the next sample
    /// may take the clean path.
    fn full_sample(&mut self) {
        if self.obs.is_some() {
            self.obs_sync();
        }
        self.samples += 1;
        let sample_idx = self.samples;
        let mut evaluated_this_sample = 0u64;

        // Naive checks are self-contained.
        let mut naive_live = false;
        let mut naive_total = 0u64;
        for (ci, check) in self.checks.iter_mut().enumerate() {
            if let CheckEngine::Naive { monitor, props } = &mut check.engine {
                if monitor.verdict().is_decided() {
                    continue;
                }
                naive_live = true;
                let mut valuation = 0u64;
                for (bit, prop) in props.iter_mut().enumerate() {
                    if prop.is_true() {
                        valuation |= 1 << bit;
                    }
                }
                naive_total += props.len() as u64;
                if let Some(obs) = self.obs.as_mut() {
                    obs.on_step(ci, sample_idx, valuation, None);
                }
                monitor.step(valuation);
                if let Some(obs) = self.obs.as_mut() {
                    obs.on_verdict(ci, &check.name, monitor.verdict(), monitor.decided_at());
                }
            }
        }
        self.counters.atoms_total += naive_total;
        self.counters.atoms_evaluated += naive_total;
        evaluated_this_sample += naive_total;

        // Stage 0: which atoms do undecided driven checks need?
        let mut any_driven = false;
        self.needed.iter_mut().for_each(|w| *w = 0);
        for check in &self.checks {
            if let CheckEngine::Driven {
                monitor, atom_bits, ..
            } = &check.engine
            {
                if monitor.verdict().is_decided() {
                    continue;
                }
                any_driven = true;
                self.counters.atoms_total += atom_bits.len() as u64;
                for &a in atom_bits {
                    set_bit(&mut self.needed, a, true);
                }
            }
        }

        // What a clean successor sample adds to `atoms_total`: the atoms
        // of the driven checks still undecided after stage 3.
        let mut clean_total = 0u64;
        let mut volatile_needed = false;
        if any_driven {
            // Stage 1: pull dirty flags from the model write paths, and
            // note each model's epoch as of the drain.
            for source in &mut self.sources {
                source.drained_at = match &source.model {
                    Model::Soc(soc) => {
                        let mut soc = soc.borrow_mut();
                        for &(wid, aidx) in &source.watch_atoms {
                            if soc.mem.take_dirty_watch(wid) {
                                self.atoms[aidx].dirty = true;
                            }
                        }
                        soc.mem.watch_epoch()
                    }
                    Model::Interp(interp) => {
                        let mut interp = interp.borrow_mut();
                        for &(wid, aidx) in &source.watch_atoms {
                            if interp.take_dirty_watch(wid) {
                                self.atoms[aidx].dirty = true;
                            }
                        }
                        interp.watch_epoch()
                    }
                };
            }

            // Stage 2: evaluate needed atoms that are (always-)dirty, once
            // each, into the packed value bitset.
            self.changed.iter_mut().for_each(|w| *w = 0);
            for (i, atom) in self.atoms.iter_mut().enumerate() {
                if !get_bit(&self.needed, i) {
                    // Skipped atoms keep their dirty flag for the sample
                    // that eventually needs them again.
                    continue;
                }
                volatile_needed |= atom.always_dirty;
                if atom.dirty || atom.always_dirty {
                    let v = atom.prop.is_true();
                    atom.dirty = false;
                    evaluated_this_sample += 1;
                    self.counters.atoms_evaluated += 1;
                    if v != get_bit(&self.values, i) {
                        set_bit(&mut self.values, i, v);
                        set_bit(&mut self.changed, i, true);
                    }
                }
            }

            // Stage 3: project and step. An unchanged valuation extends
            // the check's stutter run; a change flushes the run through
            // step_run and then steps the new valuation.
            let step_t0 = self.hot.as_mut().and_then(|hot| {
                hot.steps += 1;
                (hot.steps % sctc_obs::SAMPLE_RATE == 1).then(std::time::Instant::now)
            });
            for (ci, check) in self.checks.iter_mut().enumerate() {
                let CheckEngine::Driven {
                    monitor,
                    atom_bits,
                    last_valuation,
                    advanced_to,
                    primed,
                } = &mut check.engine
                else {
                    continue;
                };
                if monitor.verdict().is_decided() {
                    continue;
                }
                if *primed && !atom_bits.iter().any(|&a| get_bit(&self.changed, a)) {
                    clean_total += atom_bits.len() as u64;
                    if let Some(obs) = self.obs.as_mut() {
                        obs.on_stutter(ci);
                    }
                    continue;
                }
                let run = sample_idx - 1 - *advanced_to;
                if run > 0 {
                    self.counters.steps_compressed += run;
                    monitor.step_run(*last_valuation, run);
                    if monitor.verdict().is_decided() {
                        // The deferred run decided at an earlier sample;
                        // this sample is not consumed (exactly as the
                        // naive loop skips decided checks).
                        if let Some(obs) = self.obs.as_mut() {
                            obs.on_verdict(
                                ci,
                                &check.name,
                                monitor.verdict(),
                                monitor.decided_at(),
                            );
                        }
                        continue;
                    }
                }
                let mut valuation = 0u64;
                for (bit, &a) in atom_bits.iter().enumerate() {
                    if get_bit(&self.values, a) {
                        valuation |= 1 << bit;
                    }
                }
                if let Some(obs) = self.obs.as_mut() {
                    obs.on_step(ci, sample_idx, valuation, Some(monitor.state()));
                }
                monitor.step(valuation);
                *advanced_to = sample_idx;
                *last_valuation = valuation;
                *primed = true;
                if let Some(obs) = self.obs.as_mut() {
                    obs.on_verdict(ci, &check.name, monitor.verdict(), monitor.decided_at());
                }
                if !monitor.verdict().is_decided() {
                    clean_total += atom_bits.len() as u64;
                }
            }
            if let (Some(t0), Some(hot)) = (step_t0, self.hot.as_mut()) {
                hot.step_timed += 1;
                hot.step_wall += t0.elapsed();
            }
        }

        if evaluated_this_sample > 0 {
            self.counters.dirty_wakeups += 1;
        }
        self.clean = (self.obs.is_none() && !naive_live && !volatile_needed).then_some(clean_total);
    }

    /// Applies every pending stutter run to its monitor (the verdict-query
    /// flush of stage 3).
    fn flush_pending(&mut self) {
        for (ci, check) in self.checks.iter_mut().enumerate() {
            if let CheckEngine::Driven {
                monitor,
                last_valuation,
                advanced_to,
                ..
            } = &mut check.engine
            {
                let run = self.samples - *advanced_to;
                if run > 0 && !monitor.verdict().is_decided() {
                    self.counters.steps_compressed += run;
                    monitor.step_run(*last_valuation, run);
                    *advanced_to = self.samples;
                    if monitor.verdict().is_decided() {
                        // The undecided set shrank, and with it what a
                        // clean sample counts.
                        self.clean = None;
                    }
                }
            }
            if let Some(obs) = self.obs.as_mut() {
                let monitor = check.engine.monitor();
                obs.on_verdict(ci, &check.name, monitor.verdict(), monitor.decided_at());
            }
        }
    }

    /// Returns `true` once every property has a decided verdict.
    pub fn all_decided(&mut self) -> bool {
        self.flush_pending();
        self.checks
            .iter()
            .all(|c| c.engine.monitor().verdict().is_decided())
    }

    /// Returns `true` if any property is already violated.
    pub fn any_violated(&mut self) -> bool {
        self.flush_pending();
        self.checks
            .iter()
            .any(|c| c.engine.monitor().verdict() == Verdict::False)
    }

    /// Collects per-property results.
    pub fn results(&mut self) -> Vec<PropertyResult> {
        self.flush_pending();
        self.checks
            .iter()
            .map(|c| {
                let monitor = c.engine.monitor();
                PropertyResult {
                    name: c.name.clone(),
                    verdict: monitor.verdict(),
                    decided_at: monitor.decided_at(),
                    synthesis: c.synthesis,
                }
            })
            .collect()
    }

    /// Resets the sample counter (e.g. between measurement phases).
    /// Monitor states are not touched — any pending stutter run is flushed
    /// first so it is attributed to the finished phase.
    pub fn reset_sample_count(&mut self) {
        self.flush_pending();
        self.samples = 0;
        for check in &mut self.checks {
            if let CheckEngine::Driven { advanced_to, .. } = &mut check.engine {
                *advanced_to = 0;
            }
        }
    }

    /// Returns the checker to its initial state for a new test case:
    /// every monitor rewound, pending stutter runs **discarded** (they
    /// belong to the abandoned case), the sample counter cleared, and
    /// every atom marked dirty so the first sample of the new case
    /// re-observes the world. Registered properties, interned atoms and
    /// synthesized automata are kept.
    pub fn reset(&mut self) {
        for check in &mut self.checks {
            match &mut check.engine {
                CheckEngine::Driven {
                    monitor,
                    last_valuation,
                    advanced_to,
                    primed,
                    ..
                } => {
                    monitor.reset();
                    *last_valuation = 0;
                    *advanced_to = 0;
                    *primed = false;
                }
                CheckEngine::Naive { monitor, .. } => monitor.reset(),
            }
        }
        for atom in &mut self.atoms {
            atom.dirty = true;
        }
        self.values.iter_mut().for_each(|w| *w = 0);
        self.changed.iter_mut().for_each(|w| *w = 0);
        self.samples = 0;
        self.clean = None;
        // Per-case capture state restarts; witnesses already captured (and
        // the VCD document, whose timeline is per-run) are kept.
        if let Some(obs) = self.obs.as_mut() {
            for oc in &mut obs.checks {
                if let Some(rec) = &mut oc.recorder {
                    rec.reset();
                }
                oc.last_val = None;
                oc.last_change.clear();
                oc.done = false;
            }
        }
    }
}

/// A self-contained check: `monitor` evaluates its own bound propositions
/// on every sample.
fn naive_engine(
    monitor: Box<dyn TraceMonitor>,
    props: Vec<Box<dyn Proposition>>,
    name: &str,
) -> Result<CheckEngine, SctcError> {
    Ok(CheckEngine::Naive {
        props: order_props(monitor.props(), props, name)?,
        monitor,
    })
}

/// The check for a formula synthesis refused: too many propositions or
/// too many states for an automaton, so the progression [`Monitor`]
/// rewrites the formula itself on every sample. Any other synthesis error
/// is returned.
fn progression_engine(
    formula: &Formula,
    props: Vec<Box<dyn Proposition>>,
    name: &str,
    refused: SynthesisError,
) -> Result<CheckEngine, SctcError> {
    match refused {
        SynthesisError::TooManyPropositions { .. } | SynthesisError::StateLimitExceeded { .. } => {
            let monitor = Monitor::new(formula).map_err(SctcError::Il)?;
            naive_engine(Box::new(monitor), props, name)
        }
        other => Err(other.into()),
    }
}

/// Orders the bound propositions to match the monitor's proposition
/// table (valuation-bit order).
fn order_props(
    monitor_props: &[String],
    mut props: Vec<Box<dyn Proposition>>,
    property: &str,
) -> Result<Vec<Box<dyn Proposition>>, SctcError> {
    let mut ordered = Vec::with_capacity(monitor_props.len());
    for want in monitor_props {
        let idx = props.iter().position(|p| p.name() == want).ok_or_else(|| {
            SctcError::MissingProposition {
                property: property.to_owned(),
                proposition: want.clone(),
            }
        })?;
        ordered.push(props.swap_remove(idx));
    }
    Ok(ordered)
}

impl fmt::Debug for Sctc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sctc")
            .field("properties", &self.checks.len())
            .field("atoms", &self.atoms.len())
            .field("samples", &self.samples)
            .finish()
    }
}

/// A shareable checker handle.
pub type SharedSctc = Rc<RefCell<Sctc>>;

/// Wraps a checker for sharing.
pub fn share_sctc(sctc: Sctc) -> SharedSctc {
    Rc::new(RefCell::new(sctc))
}

/// Simulation process sampling the checker on every trigger event.
pub struct SctcProcess {
    sctc: SharedSctc,
}

impl SctcProcess {
    /// Spawns the checker process, statically sensitive to `trigger`
    /// (a clock posedge in approach 1, `esw_pc_event` in approach 2). The
    /// process is deferred: it first samples on the first trigger.
    pub fn spawn(sim: &mut Simulation, trigger: Event, sctc: SharedSctc) -> ProcessId {
        sim.spawn_deferred("sctc", Box::new(SctcProcess { sctc }), vec![trigger])
    }
}

impl Process for SctcProcess {
    fn resume(&mut self, _ctx: &mut ProcessContext<'_>) -> Activation {
        self.sctc.borrow_mut().sample();
        Activation::WaitStatic
    }
}

impl fmt::Debug for SctcProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SctcProcess").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proposition::ClosureProp;
    use sctc_temporal::parse;
    use std::cell::Cell;

    fn flag_prop(name: &str, cell: Rc<Cell<bool>>) -> Box<dyn Proposition> {
        ClosureProp::boxed(name, move || cell.get())
    }

    #[test]
    fn only_a_synthesizing_registration_emits_a_synthesis_event() {
        // A formula no other test registers, so the global cache is cold.
        let formula = parse("G (synth_event_a -> F[<=37] synth_event_b)").unwrap();
        let register = || {
            let trace_id = sctc_obs::trace::mint_trace_id();
            let _context = sctc_obs::trace::adopt(trace_id);
            for engine in [
                EngineKind::Compiled,
                EngineKind::Naive,
                EngineKind::Compiled,
            ] {
                let cell = Rc::new(Cell::new(false));
                let props = vec![
                    flag_prop("synth_event_a", cell.clone()),
                    flag_prop("synth_event_b", cell),
                ];
                let mut sctc = Sctc::new();
                sctc.add_property("p", &formula, props, engine).unwrap();
                assert!(sctc.results()[0].synthesis.is_some());
            }
            sctc_obs::trace::snapshot_trace(trace_id)
                .iter()
                .filter(|e| e.stage == "synthesis")
                .count()
        };
        assert_eq!(
            register(),
            1,
            "cold cache: the first registration synthesizes"
        );
        assert_eq!(register(), 0, "warm cache: no registration synthesizes");
    }

    #[test]
    fn property_decides_from_sampled_propositions() {
        let mut sctc = Sctc::new();
        let a = Rc::new(Cell::new(false));
        sctc.add_property(
            "eventually_a",
            &parse("F[<=3] a").unwrap(),
            vec![flag_prop("a", a.clone())],
            EngineKind::Compiled,
        )
        .unwrap();
        sctc.sample();
        assert_eq!(sctc.results()[0].verdict, Verdict::Pending);
        a.set(true);
        sctc.sample();
        let r = &sctc.results()[0];
        assert_eq!(r.verdict, Verdict::True);
        assert_eq!(r.decided_at, Some(2));
        assert!(r.synthesis.is_some());
    }

    #[test]
    fn missing_binding_is_reported() {
        let mut sctc = Sctc::new();
        let err = sctc
            .add_property(
                "p",
                &parse("G (a -> b)").unwrap(),
                vec![ClosureProp::boxed("a", || true)],
                EngineKind::Compiled,
            )
            .unwrap_err();
        match err {
            SctcError::MissingProposition { proposition, .. } => assert_eq!(proposition, "b"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn both_engines_agree() {
        let formula = parse("G (req -> F[<=2] ack)").unwrap();
        let req = Rc::new(Cell::new(false));
        let ack = Rc::new(Cell::new(false));
        let build = |engine| {
            let mut sctc = Sctc::new();
            sctc.add_property(
                "p",
                &formula,
                vec![flag_prop("req", req.clone()), flag_prop("ack", ack.clone())],
                engine,
            )
            .unwrap();
            sctc
        };
        let mut compiled = build(EngineKind::Compiled);
        let mut naive = build(EngineKind::Naive);
        // req with no ack within 2 samples → violation.
        let scenario = [
            (true, false),
            (false, false),
            (false, false),
            (false, false),
        ];
        for (r, a) in scenario {
            req.set(r);
            ack.set(a);
            compiled.sample();
            naive.sample();
        }
        // The request at sample 1 starves through samples 2 and 3; the
        // bound is exhausted at sample 3.
        for sctc in [&mut compiled, &mut naive] {
            let r = &sctc.results()[0];
            assert_eq!(r.verdict, Verdict::False);
            assert_eq!(r.decided_at, Some(3));
            assert!(r.synthesis.is_some());
        }
    }

    #[test]
    fn refused_synthesis_falls_back_to_progression() {
        // 13 propositions: one past the automaton's column limit.
        let names: Vec<String> = (0..13).map(|i| format!("p{i:02}")).collect();
        let formula = parse(&format!("F[<=4] ({})", names.join(" & "))).unwrap();
        let high = Rc::new(Cell::new(false));
        for engine in [EngineKind::Compiled, EngineKind::Naive] {
            let mut sctc = Sctc::new();
            let props = names.iter().map(|n| flag_prop(n, high.clone())).collect();
            sctc.add_property("wide", &formula, props, engine).unwrap();
            high.set(false);
            sctc.sample();
            sctc.sample();
            assert_eq!(sctc.clean, None, "progression checks sample every time");
            high.set(true);
            sctc.sample();
            let r = &sctc.results()[0];
            assert_eq!((r.verdict, r.decided_at), (Verdict::True, Some(3)));
            assert!(r.synthesis.is_none(), "{engine:?}: no automaton was built");
        }
        // The fallback still checks the bindings.
        let mut sctc = Sctc::new();
        let missing = sctc.add_property("wide", &formula, Vec::new(), EngineKind::Compiled);
        assert!(matches!(missing, Err(SctcError::MissingProposition { .. })));
    }

    #[test]
    fn decided_properties_stop_sampling_their_props() {
        let mut sctc = Sctc::new();
        let evaluations = Rc::new(Cell::new(0));
        let e = evaluations.clone();
        sctc.add_property(
            "now",
            &parse("p").unwrap(),
            vec![ClosureProp::boxed("p", move || {
                e.set(e.get() + 1);
                true
            })],
            EngineKind::Compiled,
        )
        .unwrap();
        sctc.sample();
        sctc.sample();
        sctc.sample();
        assert_eq!(evaluations.get(), 1, "decided monitors stop evaluating");
        assert_eq!(sctc.samples(), 3);
    }

    #[test]
    fn multiple_properties_run_independently() {
        let mut sctc = Sctc::new();
        let a = Rc::new(Cell::new(true));
        sctc.add_property(
            "holds",
            &parse("G[<=1] a").unwrap(),
            vec![flag_prop("a", a.clone())],
            EngineKind::Compiled,
        )
        .unwrap();
        sctc.add_property(
            "fails",
            &parse("G[<=5] !a").unwrap(),
            vec![flag_prop("a", a.clone())],
            EngineKind::Compiled,
        )
        .unwrap();
        sctc.sample();
        sctc.sample();
        assert!(sctc.all_decided());
        assert!(sctc.any_violated());
        let results = sctc.results();
        assert_eq!(results[0].verdict, Verdict::True);
        assert_eq!(results[1].verdict, Verdict::False);
    }

    #[test]
    fn checker_process_samples_on_trigger() {
        let mut sim = Simulation::new();
        let trigger = sim.create_event("tick");
        let sctc = share_sctc(Sctc::new());
        SctcProcess::spawn(&mut sim, trigger, sctc.clone());
        for i in 1..=5u64 {
            sim.notify(
                trigger,
                sctc_sim::Notify::After(sctc_sim::Duration::from_ticks(i)),
            );
        }
        sim.run_to_completion().unwrap();
        assert_eq!(sctc.borrow().samples(), 5);
    }

    #[test]
    fn keyed_propositions_intern_into_shared_atoms() {
        use minic::{lower, parse as parse_c, Interp};
        let src = "int g = 0; int main() { g = 1; return 0; }";
        let ir = std::rc::Rc::new(lower(&parse_c(src).unwrap()).unwrap());
        let interp = minic::share_interp(Interp::with_virtual_memory(ir));
        let mut sctc = Sctc::new();
        // Two properties observing the same global with the same predicate:
        // the observation is interned once.
        sctc.add_property(
            "p1",
            &parse("F[<=5] on").unwrap(),
            vec![crate::proposition::esw::global_eq(
                "on",
                interp.clone(),
                "g",
                1,
            )],
            EngineKind::Compiled,
        )
        .unwrap();
        sctc.add_property(
            "p2",
            &parse("G (!off | on)").unwrap(),
            vec![
                crate::proposition::esw::global_eq("on", interp.clone(), "g", 1),
                crate::proposition::esw::global_eq("off", interp.clone(), "g", 0),
            ],
            EngineKind::Compiled,
        )
        .unwrap();
        assert_eq!(sctc.atoms.len(), 2, "`g == 1` interns to one atom");
        sctc.sample();
        let c = sctc.counters();
        assert_eq!(c.atoms_total, 3, "naive would evaluate three bindings");
        assert_eq!(c.atoms_evaluated, 2, "two distinct atoms evaluated");
    }

    #[test]
    fn clean_samples_evaluate_zero_atoms_and_compress_steps() {
        use minic::{lower, parse as parse_c, Interp};
        let src = "int g = 0; int main() { return 0; }";
        let ir = std::rc::Rc::new(lower(&parse_c(src).unwrap()).unwrap());
        let interp = minic::share_interp(Interp::with_virtual_memory(ir));
        let mut sctc = Sctc::new();
        sctc.add_property(
            "resp",
            &parse("G (go -> F[<=100] done)").unwrap(),
            vec![
                crate::proposition::esw::global_eq("go", interp.clone(), "g", 1),
                crate::proposition::esw::global_eq("done", interp.clone(), "g", 2),
            ],
            EngineKind::Compiled,
        )
        .unwrap();
        sctc.sample(); // first sample evaluates both atoms
        for _ in 0..50 {
            sctc.sample(); // nothing written: zero evaluations, stutter
        }
        let c = sctc.counters();
        assert_eq!(c.atoms_evaluated, 2, "only the first sample reads atoms");
        assert_eq!(c.dirty_wakeups, 1);
        // Trigger, then starve the response long enough to decide.
        interp.borrow_mut().set_global_by_name("g", 1);
        sctc.sample();
        for _ in 0..150 {
            sctc.sample();
        }
        let r = &sctc.results()[0];
        assert_eq!(r.verdict, Verdict::False);
        // go at sample 52; F[<=100] starves → bound exhausted at 152.
        assert_eq!(r.decided_at, Some(152));
        assert!(sctc.counters().steps_compressed > 100);
    }

    #[test]
    fn reused_checker_matches_a_fresh_one_across_cases() {
        use minic::{lower, parse as parse_c, Interp};
        // Satellite regression: one Sctc reused across two cases (with
        // reset between) must behave exactly like a fresh checker — no
        // pending compressed steps may leak from case 1 into case 2.
        let src = "int g = 0; int main() { return 0; }";
        let ir = std::rc::Rc::new(lower(&parse_c(src).unwrap()).unwrap());
        let interp = minic::share_interp(Interp::with_virtual_memory(ir));
        let formula = parse("G (go -> F[<=10] done)").unwrap();
        let props = |interp: &minic::SharedInterp| {
            vec![
                crate::proposition::esw::global_eq("go", interp.clone(), "g", 1),
                crate::proposition::esw::global_eq("done", interp.clone(), "g", 2),
            ]
        };
        let mut reused = Sctc::new();
        reused
            .add_property("resp", &formula, props(&interp), EngineKind::Compiled)
            .unwrap();

        // Case 1: trigger, stutter a while (pending accumulates), abandon
        // the case *without* querying results.
        interp.borrow_mut().set_global_by_name("g", 1);
        reused.sample();
        for _ in 0..7 {
            reused.sample();
        }
        reused.reset();
        interp.borrow_mut().set_global_by_name("g", 0);

        // Case 2 on the reused checker vs a fresh one.
        let mut fresh = Sctc::new();
        fresh
            .add_property("resp", &formula, props(&interp), EngineKind::Compiled)
            .unwrap();
        for step in 0..30u32 {
            let v = match step {
                3 => 1, // go
                9 => 2, // done within the bound
                _ => continue_value(step),
            };
            interp.borrow_mut().set_global_by_name("g", v);
            reused.sample();
            fresh.sample();
        }
        let a = reused.results();
        let b = fresh.results();
        assert_eq!(a[0].verdict, b[0].verdict);
        assert_eq!(a[0].decided_at, b[0].decided_at);
        assert_eq!(reused.samples(), fresh.samples());
    }

    #[test]
    fn witness_and_vcd_capture_a_violation_with_provenance() {
        use minic::{lower, parse as parse_c, Interp};
        let src = "int g = 1; int main() { return 0; }";
        let ir = std::rc::Rc::new(lower(&parse_c(src).unwrap()).unwrap());
        let interp = minic::share_interp(Interp::with_virtual_memory(ir));
        let formula = parse("G ok").unwrap();
        let mut sctc = Sctc::new();
        sctc.enable_witnesses(WitnessConfig::default());
        sctc.enable_vcd();
        sctc.add_property(
            "safe",
            &formula,
            vec![crate::proposition::esw::global_eq(
                "ok",
                interp.clone(),
                "g",
                1,
            )],
            EngineKind::Compiled,
        )
        .unwrap();
        for _ in 0..3 {
            sctc.sample();
        }
        interp.borrow_mut().set_global_by_name("g", 0);
        sctc.sample();
        let witnesses = sctc.take_witnesses();
        assert_eq!(witnesses.len(), 1);
        let w = &witnesses[0];
        assert_eq!(w.property, "safe");
        assert_eq!(w.verdict, Verdict::False);
        assert_eq!(w.decided_at, Some(4));
        assert!(w.complete);
        // The deciding trigger names the write path that woke the atom.
        assert_eq!(w.provenance.len(), 1);
        assert_eq!(w.provenance[0].source, "global `g` write");
        assert_eq!(w.provenance[0].atom, "ok");
        assert!(!w.provenance[0].value);
        assert_eq!(w.provenance[0].sample, 4);
        // Replay re-drives a fresh automaton to the same decision.
        let mut fresh = CompiledMonitor::new(&formula).unwrap();
        let outcome = w.replay_with(&mut fresh);
        assert_eq!(outcome.verdict, Verdict::False);
        assert_eq!(outcome.decided_at, Some(4));
        // The VCD carries the atom timeline and the verdict transition.
        let vcd = sctc.take_vcd().expect("vcd enabled");
        assert_eq!(
            vcd.changes_for("safe", "ok"),
            vec![(1, sctc_obs::VcdValue::V1), (4, sctc_obs::VcdValue::V0)]
        );
        assert_eq!(
            vcd.changes_for("safe", "verdict"),
            vec![(4, sctc_obs::VcdValue::V0)]
        );
    }

    #[test]
    fn stutter_decided_witness_replays_to_the_same_sample() {
        use minic::{lower, parse as parse_c, Interp};
        // The decision surfaces during a deferred stutter run (bound
        // exhaustion with no write): the witness must still replay to the
        // exact deciding sample index.
        let src = "int g = 0; int main() { return 0; }";
        let ir = std::rc::Rc::new(lower(&parse_c(src).unwrap()).unwrap());
        let interp = minic::share_interp(Interp::with_virtual_memory(ir));
        let formula = parse("G (go -> F[<=20] done)").unwrap();
        let props = |interp: &minic::SharedInterp| {
            vec![
                crate::proposition::esw::global_eq("go", interp.clone(), "g", 1),
                crate::proposition::esw::global_eq("done", interp.clone(), "g", 2),
            ]
        };
        let mut sctc = Sctc::new();
        sctc.enable_witnesses(WitnessConfig::default());
        sctc.add_property("resp", &formula, props(&interp), EngineKind::Compiled)
            .unwrap();
        for _ in 0..5 {
            sctc.sample();
        }
        interp.borrow_mut().set_global_by_name("g", 1); // go at sample 6
        sctc.sample();
        for _ in 0..40 {
            sctc.sample(); // starve: bound exhausted at sample 26
        }
        let witnesses = sctc.take_witnesses();
        assert_eq!(witnesses.len(), 1);
        let w = &witnesses[0];
        assert_eq!(w.verdict, Verdict::False);
        assert_eq!(w.decided_at, Some(26));
        let mut fresh = CompiledMonitor::new(&formula).unwrap();
        let outcome = w.replay_with(&mut fresh);
        assert_eq!(outcome.verdict, Verdict::False);
        assert_eq!(outcome.decided_at, Some(26));
    }

    #[test]
    fn disabled_observability_captures_nothing() {
        let mut sctc = Sctc::new();
        let a = Rc::new(Cell::new(false));
        sctc.add_property(
            "p",
            &parse("G a").unwrap(),
            vec![flag_prop("a", a.clone())],
            EngineKind::Compiled,
        )
        .unwrap();
        sctc.sample();
        a.set(true);
        sctc.sample();
        assert!(sctc.take_witnesses().is_empty());
        assert!(sctc.take_vcd().is_none());
    }

    #[test]
    fn clean_path_engages_only_when_no_stage_has_work() {
        use minic::{lower, parse as parse_c, Interp};
        let src = "int g = 0; int h = 0; int main() { return 0; }";
        let ir = std::rc::Rc::new(lower(&parse_c(src).unwrap()).unwrap());
        let interp = minic::share_interp(Interp::with_virtual_memory(ir));
        let resp = parse("G (go -> F[<=30] done)").unwrap();
        let props = || {
            vec![
                crate::proposition::esw::global_eq("go", interp.clone(), "g", 1),
                crate::proposition::esw::global_eq("done", interp.clone(), "g", 2),
            ]
        };
        let mut sctc = Sctc::new();
        sctc.add_property("resp", &resp, props(), EngineKind::Compiled)
            .unwrap();
        assert_eq!(sctc.clean, None, "a new property is unprimed");
        sctc.sample();
        assert_eq!(sctc.clean, Some(2), "a clean sample counts both atoms");
        let epoch = interp.borrow().watch_epoch();
        interp.borrow_mut().set_global_by_name("h", 7);
        assert_eq!(interp.borrow().watch_epoch(), epoch, "`h` is unwatched");
        for _ in 0..10 {
            sctc.sample();
        }
        let c = sctc.counters();
        assert_eq!((c.atoms_evaluated, c.atoms_total), (2, 22));
        interp.borrow_mut().set_global_by_name("g", 1);
        sctc.sample();
        assert_eq!(sctc.counters().steps_compressed, 10, "the run is flushed");
        assert_eq!(sctc.clean, Some(2));
        // Starve the response: a query whose flush decides resets the cache.
        for _ in 0..40 {
            sctc.sample();
        }
        assert_eq!(sctc.clean, Some(2), "the deciding run is still deferred");
        assert!(sctc.any_violated());
        assert_eq!(sctc.clean, None);
        sctc.sample();
        assert_eq!(sctc.clean, Some(0), "nothing undecided to count");
        sctc.reset();
        assert_eq!(sctc.clean, None);

        // Always-dirty atoms, naive checks and capture keep the full path.
        let closure = Rc::new(Cell::new(false));
        let mut volatile = Sctc::new();
        volatile
            .add_property(
                "v",
                &parse("G[<=50] a").unwrap(),
                vec![flag_prop("a", closure.clone())],
                EngineKind::Compiled,
            )
            .unwrap();
        closure.set(true);
        volatile.sample();
        assert_eq!(volatile.clean, None, "closure atoms are always dirty");
        let mut naive = Sctc::new();
        naive
            .add_property("n", &resp, props(), EngineKind::Naive)
            .unwrap();
        naive.sample();
        assert_eq!(naive.clean, None, "naive checks sample every time");
        let mut captured = Sctc::new();
        captured.enable_witnesses(WitnessConfig::default());
        captured
            .add_property("c", &resp, props(), EngineKind::Compiled)
            .unwrap();
        captured.sample();
        assert_eq!(captured.clean, None, "witness capture records every sample");
    }

    /// Holds the testbench value steady between the scripted writes.
    fn continue_value(step: u32) -> i32 {
        if (3..9).contains(&step) {
            1
        } else if step >= 9 {
            2
        } else {
            0
        }
    }
}
