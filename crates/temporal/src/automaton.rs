//! Explicit Accept–Reject automata.
//!
//! SCTC's synthesis engine converts the IL representation into an executable
//! monitor (paper Section 3). [`ArAutomaton::synthesize`] enumerates the
//! reachable progression states for every proposition valuation up front,
//! yielding a dense transition table whose step cost is a single array
//! lookup. That table is the one copy of a property's automaton: the
//! [`CompiledKernel`](crate::CompiledKernel) that the checker steps holds
//! it behind an [`Arc`](std::sync::Arc) and adds only its stutter tables.
//!
//! Synthesis cost grows with the time bounds in the formula — the effect the
//! paper reports as "large AR-automaton generation time" for the
//! TB-10000 configuration — while the lazy [`Monitor`](crate::Monitor)
//! spreads that cost over the run instead.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration as WallDuration, Instant};

use crate::ast::Formula;
use crate::il::{IlError, IlStore, NodeId};
use crate::progress::{progress_with, Valuation};
use crate::verdict::Verdict;

/// Limits and failures of explicit synthesis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SynthesisError {
    /// The formula could not be interned.
    Il(IlError),
    /// Too many propositions to enumerate valuations (max 12 → 4096 columns).
    TooManyPropositions {
        /// Number of propositions in the formula.
        found: usize,
    },
    /// The reachable state space exceeded the configured limit.
    StateLimitExceeded {
        /// The configured limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Il(e) => write!(f, "{e}"),
            SynthesisError::TooManyPropositions { found } => write!(
                f,
                "explicit synthesis supports at most 12 propositions, formula has {found}"
            ),
            SynthesisError::StateLimitExceeded { limit } => {
                write!(f, "AR-automaton exceeded the state limit of {limit}")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<IlError> for SynthesisError {
    fn from(e: IlError) -> Self {
        SynthesisError::Il(e)
    }
}

/// Statistics from one synthesis run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SynthesisStats {
    /// Number of automaton states (including the accept/reject sinks).
    pub states: usize,
    /// Number of transition-table entries.
    pub transitions: usize,
    /// Wall-clock time spent synthesizing.
    pub generation_time: WallDuration,
}

/// Sink-id sentinel for an automaton without an accept (or reject) sink.
pub(crate) const NO_SINK: u32 = u32::MAX;

/// An explicit AR-automaton over the propositions of one formula.
///
/// State 0 is the initial state. The accept and reject sinks carry verdicts
/// [`Verdict::True`] and [`Verdict::False`]; all other states are
/// [`Verdict::Pending`], so the automaton records the two sink ids instead
/// of a verdict per state.
///
/// # Examples
///
/// ```
/// use sctc_temporal::{parse, ArAutomaton, Verdict};
///
/// let f = parse("F[<=2] ok")?;
/// let aut = ArAutomaton::synthesize(&f).unwrap();
/// let mut state = ArAutomaton::INITIAL;
/// state = aut.step(state, 0b0); // ok = false
/// state = aut.step(state, 0b1); // ok = true
/// assert_eq!(aut.verdict(state), Verdict::True);
/// # Ok::<(), sctc_temporal::ParseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ArAutomaton {
    props: Vec<String>,
    /// `transitions[state * columns + valuation]` = next state.
    transitions: Vec<u32>,
    columns: usize,
    /// State id of the accept sink ([`NO_SINK`] if unreachable).
    pub(crate) accept: u32,
    /// State id of the reject sink ([`NO_SINK`] if unreachable).
    pub(crate) reject: u32,
    stats: SynthesisStats,
}

impl ArAutomaton {
    /// The initial state of every AR-automaton.
    pub const INITIAL: u32 = 0;

    /// Default cap on the reachable state count.
    pub const DEFAULT_STATE_LIMIT: usize = 4_000_000;

    /// Synthesizes the automaton with the default state limit.
    ///
    /// # Errors
    ///
    /// See [`SynthesisError`].
    pub fn synthesize(formula: &Formula) -> Result<Self, SynthesisError> {
        Self::synthesize_with_limit(formula, Self::DEFAULT_STATE_LIMIT)
    }

    /// Synthesizes the automaton with an explicit state limit.
    ///
    /// # Errors
    ///
    /// See [`SynthesisError`].
    pub fn synthesize_with_limit(
        formula: &Formula,
        state_limit: usize,
    ) -> Result<Self, SynthesisError> {
        let start = Instant::now();
        let (mut store, root) = IlStore::from_formula(formula)?;
        let nprops = store.props().len();
        if nprops > 12 {
            return Err(SynthesisError::TooManyPropositions { found: nprops });
        }
        let columns = 1usize << nprops;

        let mut state_of: HashMap<NodeId, u32> = HashMap::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut transitions: Vec<u32> = Vec::new();
        // One progression memo for the whole run, cleared per call.
        let mut memo = HashMap::new();

        let get_state =
            |node: NodeId, nodes: &mut Vec<NodeId>, state_of: &mut HashMap<NodeId, u32>| -> u32 {
                *state_of.entry(node).or_insert_with(|| {
                    nodes.push(node);
                    nodes.len() as u32 - 1
                })
            };

        let initial = get_state(root, &mut nodes, &mut state_of);
        debug_assert_eq!(initial, Self::INITIAL);

        let mut frontier = 0usize;
        while frontier < nodes.len() {
            if nodes.len() > state_limit {
                return Err(SynthesisError::StateLimitExceeded { limit: state_limit });
            }
            let node = nodes[frontier];
            let decided = node == IlStore::TRUE || node == IlStore::FALSE;
            for valuation in 0..columns {
                let next = if decided {
                    node // sinks self-loop
                } else {
                    memo.clear();
                    progress_with(&mut store, node, valuation as Valuation, &mut memo)
                };
                transitions.push(get_state(next, &mut nodes, &mut state_of));
            }
            frontier += 1;
        }

        let sink = |node| state_of.get(&node).copied().unwrap_or(NO_SINK);
        let stats = SynthesisStats {
            states: nodes.len(),
            transitions: transitions.len(),
            generation_time: start.elapsed(),
        };
        Ok(ArAutomaton {
            props: store.props().to_vec(),
            transitions,
            columns,
            accept: sink(IlStore::TRUE),
            reject: sink(IlStore::FALSE),
            stats,
        })
    }

    /// Returns the proposition names in valuation-bit order.
    pub fn props(&self) -> &[String] {
        &self.props
    }

    /// Returns the number of states.
    pub fn state_count(&self) -> usize {
        self.stats.states
    }

    /// Returns synthesis statistics.
    pub fn stats(&self) -> SynthesisStats {
        self.stats
    }

    /// Number of transition-table columns (`2^props`).
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// One transition without [`ArAutomaton::step`]'s valuation check: the
    /// compiled kernel's hot path, whose callers keep `v < columns`.
    #[inline(always)]
    pub(crate) fn next(&self, state: u32, v: usize) -> u32 {
        self.transitions[state as usize * self.columns + v]
    }

    /// Performs one transition.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or `valuation` has bits beyond the
    /// proposition count.
    pub fn step(&self, state: u32, valuation: Valuation) -> u32 {
        let v = valuation as usize;
        assert!(v < self.columns, "valuation has unknown proposition bits");
        self.next(state, v)
    }

    /// Returns the verdict attached to a state (`state` must be in range;
    /// debug builds check it).
    #[inline(always)]
    pub fn verdict(&self, state: u32) -> Verdict {
        debug_assert!((state as usize) < self.state_count(), "state out of range");
        if state == self.accept {
            Verdict::True
        } else if state == self.reject {
            Verdict::False
        } else {
            Verdict::Pending
        }
    }

    /// Whether `state` is one of the two sinks.
    #[inline(always)]
    pub(crate) fn is_decided(&self, state: u32) -> bool {
        debug_assert!((state as usize) < self.state_count(), "state out of range");
        state == self.accept || state == self.reject
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn synthesis_produces_expected_chain_length() {
        let f = parse("F[<=5] p").unwrap();
        let aut = ArAutomaton::synthesize(&f).unwrap();
        // States: F[<=5]p .. F[<=0]p collapses as chain of 6 pending + 2 sinks.
        assert!(aut.state_count() >= 7 && aut.state_count() <= 8);
        assert_eq!(aut.props(), &["p".to_owned()]);
    }

    #[test]
    fn automaton_agrees_with_direct_progression_on_small_formula() {
        let f = parse("G (a -> F[<=3] b)").unwrap();
        let aut = ArAutomaton::synthesize(&f).unwrap();
        let mut state = ArAutomaton::INITIAL;
        // a at step 0, b at step 2 — still pending (G is unbounded).
        for v in [0b01u64, 0b00, 0b10, 0b00] {
            state = aut.step(state, v);
            assert_eq!(aut.verdict(state), Verdict::Pending);
        }
        // a with no b within 3 steps — violation.
        for v in [0b01u64, 0b00, 0b00, 0b00] {
            state = aut.step(state, v);
        }
        assert_eq!(aut.verdict(state), Verdict::False);
        // Sinks are absorbing.
        state = aut.step(state, 0b11);
        assert_eq!(aut.verdict(state), Verdict::False);
    }

    #[test]
    fn growth_with_bound_is_linear() {
        let small = ArAutomaton::synthesize(&parse("F[<=10] p").unwrap()).unwrap();
        let large = ArAutomaton::synthesize(&parse("F[<=100] p").unwrap()).unwrap();
        assert!(large.state_count() > 5 * small.state_count() / 2);
    }

    #[test]
    fn response_property_stays_linear_in_the_bound() {
        // G (a -> F[<=500] b): without bound subsumption this explodes
        // exponentially (one F obligation per trigger step).
        let f = parse("G (a -> F[<=500] b)").unwrap();
        let aut = ArAutomaton::synthesize_with_limit(&f, 100_000).unwrap();
        assert!(
            aut.state_count() <= 2 * 500 + 10,
            "state count {} must stay linear in the bound",
            aut.state_count()
        );
    }

    #[test]
    fn state_limit_is_enforced() {
        let f = parse("F[<=1000] p").unwrap();
        match ArAutomaton::synthesize_with_limit(&f, 10) {
            Err(SynthesisError::StateLimitExceeded { limit: 10 }) => {}
            other => panic!("expected state-limit error, got {other:?}"),
        }
    }

    #[test]
    fn too_many_props_rejected() {
        let mut text = String::from("p0");
        for i in 1..13 {
            text.push_str(&format!(" & p{i}"));
        }
        let f = parse(&text).unwrap();
        assert!(matches!(
            ArAutomaton::synthesize(&f),
            Err(SynthesisError::TooManyPropositions { found: 13 })
        ));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "state out of range")]
    fn out_of_range_state_is_rejected_in_debug_builds() {
        // No accept sink: an unchecked `verdict(u32::MAX)` would match the
        // missing sink's sentinel id and answer True.
        let aut = ArAutomaton::synthesize(&parse("G p").unwrap()).unwrap();
        aut.verdict(u32::MAX);
    }

    #[test]
    fn constant_formula_decides_immediately() {
        let aut = ArAutomaton::synthesize(&parse("true").unwrap()).unwrap();
        assert_eq!(aut.verdict(ArAutomaton::INITIAL), Verdict::True);
    }
}
