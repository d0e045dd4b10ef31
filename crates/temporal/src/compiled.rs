//! Compiled AR kernels: the raw-speed stepping tier.
//!
//! A [`CompiledKernel`] steps the [`ArAutomaton`] it was lowered from
//! through that automaton's own jump table, shared behind an [`Arc`]: the
//! state numbering (and therefore every witness state path) is the
//! automaton's, and no table is copied. A stutter run of `n` identical
//! valuations would still take `n` steps, so [`CompiledKernel::lower`]
//! adds what those runs derive, once, at synthesis time:
//!
//! * **run table** — for every `(state, valuation)` cell, the 1-based offset
//!   of the first step at which a fixed-valuation run reaches a decided
//!   sink, packed with the sink's polarity into one `u32`. A stutter flush
//!   of *any* length becomes a single table lookup;
//! * **self-loop flags** — one bit per `(state, valuation)`, packed into
//!   `u64` words. For ≤ 6 atoms a state's whole row fits one word; wider
//!   atom sets (up to the synthesis limit of 12) fall back to
//!   `columns.div_ceil(64)` packed words per state.
//!
//! [`CompiledMonitor`] steps the kernel with no enum loads on the hot path:
//! decidedness is two integer compares against the automaton's (at most
//! two) sink state ids, and [`CompiledMonitor::step_run`] flushes an
//! `n`-step stutter run without per-sample branching.

use std::fmt;
use std::sync::Arc;

use crate::ast::Formula;
use crate::automaton::{ArAutomaton, SynthesisError, NO_SINK};
use crate::monitor::TraceMonitor;
use crate::progress::Valuation;
use crate::verdict::Verdict;

/// Low 31 bits of a run-table cell: offset of the first decided step.
const OFFSET_MASK: u32 = 0x7FFF_FFFF;
/// Offset sentinel: the fixed-valuation run never reaches a sink.
const NEVER: u32 = OFFSET_MASK;
/// Top bit of a run-table cell: the sink reached is the accept sink.
const ACCEPT_BIT: u32 = 1 << 31;

/// An [`ArAutomaton`] with its stutter tables: the automaton's own jump
/// table plus a run table and self-loop words.
///
/// Immutable after lowering; shared behind an [`Arc`] through the
/// [`SynthesisCache`](crate::SynthesisCache), which keeps it in the same
/// entry as the automaton it was lowered from.
pub struct CompiledKernel {
    automaton: Arc<ArAutomaton>,
    /// Packed run cells, one per transition (see module docs).
    run: Vec<u32>,
    /// Self-loop bitset: `words_per_state` words per state, bit `v % 64` of
    /// word `v / 64` set iff `next[s][v] == s`.
    self_loop: Vec<u64>,
    words_per_state: usize,
}

impl CompiledKernel {
    /// Lowers a synthesized automaton into a compiled kernel that shares
    /// it (an owned automaton is moved into a fresh [`Arc`]).
    pub fn lower(automaton: impl Into<Arc<ArAutomaton>>) -> Self {
        let automaton = automaton.into();
        let columns = automaton.columns();
        let states = automaton.state_count();
        let next = |s: u32, v: usize| automaton.next(s, v);

        let words_per_state = columns.div_ceil(64);
        let mut self_loop = vec![0u64; states * words_per_state];
        for s in 0..states {
            for v in 0..columns {
                if next(s as u32, v) == s as u32 {
                    self_loop[s * words_per_state + v / 64] |= 1 << (v % 64);
                }
            }
        }

        // Run table: per column, distance-to-sink over the functional graph
        // `s -> next[s][v]`. Undecided cycles (including undecided
        // self-loops) never decide; everything upstream of a sink gets the
        // exact offset plus the sink's polarity.
        let (accept_state, reject_state) = (automaton.accept, automaton.reject);
        let mut run = vec![0u32; states * columns];
        let mut path: Vec<u32> = Vec::new();
        // 0 = unknown, 1 = on the current path, 2 = resolved.
        let mut mark = vec![0u8; states];
        for v in 0..columns {
            mark.iter_mut().for_each(|m| *m = 0);
            for s in 0..states as u32 {
                if mark[s as usize] == 2 {
                    continue;
                }
                path.clear();
                let mut cur = s;
                let (mut base, mut flag) = loop {
                    if cur == accept_state {
                        break (0u32, ACCEPT_BIT);
                    }
                    if cur == reject_state {
                        break (0u32, 0);
                    }
                    match mark[cur as usize] {
                        2 => {
                            let cell = run[cur as usize * columns + v];
                            break (cell & OFFSET_MASK, cell & ACCEPT_BIT);
                        }
                        1 => break (NEVER, 0), // undecided cycle
                        _ => {}
                    }
                    mark[cur as usize] = 1;
                    path.push(cur);
                    cur = next(cur, v);
                };
                if base == NEVER {
                    flag = 0;
                }
                for &node in path.iter().rev() {
                    if base != NEVER {
                        base += 1;
                    }
                    run[node as usize * columns + v] = base | flag;
                    mark[node as usize] = 2;
                }
            }
            if accept_state != NO_SINK {
                run[accept_state as usize * columns + v] = ACCEPT_BIT;
            }
            if reject_state != NO_SINK {
                run[reject_state as usize * columns + v] = 0;
            }
        }

        CompiledKernel {
            automaton,
            run,
            self_loop,
            words_per_state,
        }
    }

    /// The automaton this kernel steps: the same [`Arc`] the
    /// [`SynthesisCache`](crate::SynthesisCache) hands out for its formula.
    pub fn automaton(&self) -> &Arc<ArAutomaton> {
        &self.automaton
    }

    #[inline(always)]
    fn self_loops(&self, state: u32, v: usize) -> bool {
        self.self_loop[state as usize * self.words_per_state + v / 64] >> (v % 64) & 1 != 0
    }

    /// State after `n` steps of a run known never to decide. Walks the
    /// jump array directly; if `n` exceeds the state count the run is
    /// provably inside a cycle, whose length closes the remainder.
    fn advance_undecided(&self, start: u32, v: usize, n: u64) -> u32 {
        let f = |s: u32| self.automaton.next(s, v);
        let states = self.automaton.state_count() as u64;
        let mut s = start;
        let bounded = n.min(states);
        for _ in 0..bounded {
            let nx = f(s);
            if nx == s {
                return s;
            }
            s = nx;
        }
        if n <= states {
            return s;
        }
        // After `states` steps the run is in its cycle; measure the cycle
        // length once and take the remainder.
        let anchor = s;
        let mut len = 1u64;
        let mut t = f(s);
        while t != anchor {
            t = f(t);
            len += 1;
        }
        for _ in 0..(n - states) % len {
            s = f(s);
        }
        s
    }
}

impl fmt::Debug for CompiledKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledKernel")
            .field("states", &self.automaton.state_count())
            .field("columns", &self.automaton.columns())
            .field("words_per_state", &self.words_per_state)
            .finish()
    }
}

/// A monitor stepping a [`CompiledKernel`].
///
/// [`TraceMonitor::step`] is one lookup in the automaton's jump table, with
/// the automaton's state numbering, verdicts and decision indices;
/// [`CompiledMonitor::step_run`] flushes a stutter run of any length with
/// one run-table lookup.
#[derive(Clone, Debug)]
pub struct CompiledMonitor {
    kernel: Arc<CompiledKernel>,
    state: u32,
    steps: u64,
    decided_at: Option<u64>,
}

impl CompiledMonitor {
    /// Synthesizes, lowers and wraps a formula (tests and one-off use; hot
    /// paths go through the [`SynthesisCache`](crate::SynthesisCache)).
    ///
    /// # Errors
    ///
    /// See [`SynthesisError`].
    pub fn new(formula: &Formula) -> Result<Self, SynthesisError> {
        let automaton = ArAutomaton::synthesize(formula)?;
        Ok(Self::from_shared(Arc::new(CompiledKernel::lower(
            automaton,
        ))))
    }

    /// Wraps a shared (typically cache-resident) kernel.
    pub fn from_shared(kernel: Arc<CompiledKernel>) -> Self {
        CompiledMonitor {
            kernel,
            state: ArAutomaton::INITIAL,
            steps: 0,
            decided_at: None,
        }
    }

    /// The current state id, in the automaton's own numbering (the
    /// diagnosis layer records it as a witness's state path).
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Fused stutter-run kernel: consumes `n` identical-valuation steps —
    /// behaviourally identical to `n` calls of [`TraceMonitor::step`],
    /// including the recorded decision index, but O(1) in the deciding and
    /// self-looping cases via the precomputed run table.
    ///
    /// The naive sampling loop stops stepping a monitor once it decides
    /// (its step count freezes at the decision); `step_run` reproduces
    /// that exactly: a run that decides at offset `d <= n` advances the
    /// step count by `d`, not `n`.
    pub fn step_run(&mut self, valuation: Valuation, n: u64) -> Verdict {
        let automaton = &*self.kernel.automaton;
        let v = valuation as usize;
        debug_assert!(v < automaton.columns(), "valuation has unknown bits");
        if n == 0 || automaton.is_decided(self.state) {
            return automaton.verdict(self.state);
        }
        let cell = self.kernel.run[self.state as usize * automaton.columns() + v];
        let offset = cell & OFFSET_MASK;
        if offset == NEVER {
            // The run never decides; the dominant case is an undecided
            // self-loop, answered by one packed-bit test.
            if !self.kernel.self_loops(self.state, v) {
                self.state = self.kernel.advance_undecided(self.state, v, n);
            }
            self.steps += n;
            return Verdict::Pending;
        }
        let d = u64::from(offset);
        if d <= n {
            self.state = if cell & ACCEPT_BIT != 0 {
                automaton.accept
            } else {
                automaton.reject
            };
            self.steps += d;
            self.decided_at = Some(self.steps);
        } else {
            // n < d <= states: a short walk down the (sink-bound) chain.
            let mut s = self.state;
            for _ in 0..n {
                s = automaton.next(s, v);
            }
            self.state = s;
            self.steps += n;
        }
        automaton.verdict(self.state)
    }

    /// Resets to the initial state (lowering is paid once, reuse is free).
    pub fn reset(&mut self) {
        self.state = ArAutomaton::INITIAL;
        self.steps = 0;
        self.decided_at = None;
    }
}

impl TraceMonitor for CompiledMonitor {
    #[inline]
    fn step(&mut self, valuation: Valuation) -> Verdict {
        let automaton = &*self.kernel.automaton;
        let v = valuation as usize;
        debug_assert!(v < automaton.columns(), "valuation has unknown bits");
        self.state = automaton.next(self.state, v);
        self.steps += 1;
        let verdict = automaton.verdict(self.state);
        if verdict.is_decided() && self.decided_at.is_none() {
            self.decided_at = Some(self.steps);
        }
        verdict
    }

    fn verdict(&self) -> Verdict {
        self.kernel.automaton.verdict(self.state)
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn decided_at(&self) -> Option<u64> {
        self.decided_at
    }

    fn props(&self) -> &[String] {
        self.kernel.automaton.props()
    }

    fn reset(&mut self) {
        CompiledMonitor::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Monitor;
    use crate::parser::parse;

    fn kernel_for(text: &str) -> Arc<CompiledKernel> {
        let automaton = ArAutomaton::synthesize(&parse(text).unwrap()).unwrap();
        Arc::new(CompiledKernel::lower(automaton))
    }

    #[test]
    fn compiled_steps_match_the_automaton_and_progression() {
        for text in [
            "G (a -> F[<=7] b)",
            "F[<=9] p",
            "G[<=6] (a | b)",
            "(a U[<=5] b) & G (b -> F[<=3] a)",
            "true",
            "!p",
        ] {
            let kernel = kernel_for(text);
            let automaton = kernel.automaton().clone();
            let mut compiled = CompiledMonitor::from_shared(kernel);
            let mut lazy = Monitor::new(&parse(text).unwrap()).unwrap();
            assert_eq!(lazy.props(), compiled.props());
            // A constant formula starts in a sink: the automaton walk counts
            // its first step as the decision, progression counts none (see
            // `Monitor`), so progression's index is compared only for
            // formulas that start pending.
            let starts_decided = automaton.verdict(ArAutomaton::INITIAL).is_decided();
            let columns = automaton.columns() as u64;
            let mut state = ArAutomaton::INITIAL;
            let mut expected = None;
            let mut v = 1u64;
            for i in 0..200u64 {
                v = (v.wrapping_mul(6364136223846793005).wrapping_add(i)) % columns;
                state = automaton.step(state, v);
                if expected.is_none() && automaton.verdict(state).is_decided() {
                    expected = Some(i + 1);
                }
                let verdict = compiled.step(v);
                assert_eq!(compiled.state(), state, "{text} step {i}");
                assert_eq!(verdict, automaton.verdict(state), "{text} step {i}");
                assert_eq!(compiled.decided_at(), expected, "{text} step {i}");
                assert_eq!(verdict, lazy.step(v), "{text} step {i}");
                if !starts_decided {
                    assert_eq!(compiled.decided_at(), lazy.decided_at(), "{text}");
                }
            }
        }
    }

    /// Reference semantics for [`CompiledMonitor::step_run`]: up to `n`
    /// single steps from `state`, stopping at the first decided state
    /// (as the sampling loop stops stepping a decided check). Returns the
    /// final state, the steps taken and the 1-based decision offset.
    fn repeated_steps(
        aut: &ArAutomaton,
        mut state: u32,
        v: u64,
        n: u64,
    ) -> (u32, u64, Option<u64>) {
        let mut steps = 0;
        while steps < n && !aut.verdict(state).is_decided() {
            state = aut.step(state, v);
            steps += 1;
        }
        let decided = aut.verdict(state).is_decided() && steps > 0;
        (state, steps, decided.then_some(steps))
    }

    #[test]
    fn step_run_matches_repeated_steps_on_all_states_and_valuations() {
        for text in [
            "G (a -> F[<=7] b)",
            "F[<=9] p",
            "G[<=6] (a | b)",
            "(a U[<=5] b) & G (b -> F[<=3] a)",
        ] {
            let kernel = kernel_for(text);
            let automaton = kernel.automaton().clone();
            let columns = automaton.columns() as u64;
            for state in 0..automaton.state_count() as u32 {
                for v in 0..columns {
                    for n in [0u64, 1, 2, 3, 5, 8, 13, 100, 10_000] {
                        // Teleport the monitor to the probed state: state
                        // ids are the automaton's own.
                        let mut compiled = CompiledMonitor::from_shared(kernel.clone());
                        compiled.state = state;
                        let verdict = compiled.step_run(v, n);
                        let (want_state, want_steps, want_decided) =
                            repeated_steps(&automaton, state, v, n);
                        let at = format!("{text} state {state} v {v:#b} n {n}");
                        assert_eq!(compiled.state, want_state, "{at}");
                        assert_eq!(verdict, automaton.verdict(want_state), "{at}");
                        assert_eq!(compiled.steps, want_steps, "{at}");
                        assert_eq!(compiled.decided_at, want_decided, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn wide_formula_uses_packed_word_fallback() {
        // 7 atoms → 128 columns → 2 self-loop words per state.
        let kernel = kernel_for("F[<=3] (p0 | p1 | p2 | p3 | p4 | p5 | p6)");
        assert_eq!(kernel.words_per_state, 2);
        let automaton = kernel.automaton().clone();
        let mut wide = CompiledMonitor::from_shared(kernel);
        let (mut state, mut steps, mut decided_at) = (ArAutomaton::INITIAL, 0, None);
        // Idle run exercises high-column self-loop bits (valuation 127 is
        // in the second packed word).
        for v in [0u64, 127, 64, 65, 0] {
            let (next, taken, decided) = repeated_steps(&automaton, state, v, 3);
            (state, steps) = (next, steps + taken);
            if decided.is_some() {
                decided_at = Some(steps);
            }
            assert_eq!(wide.step_run(v, 3), automaton.verdict(state));
            assert_eq!(wide.state(), state);
        }
        assert_eq!(wide.decided_at(), decided_at);
        assert_eq!(
            decided_at,
            Some(4),
            "the disjunction holds at the bound's last step"
        );
    }

    #[test]
    fn long_bounded_run_decides_in_one_lookup() {
        let f = parse("F[<=20000] p").unwrap();
        let mut m = CompiledMonitor::new(&f).unwrap();
        assert_eq!(m.step_run(0b0, 30_000), Verdict::False);
        assert_eq!(m.decided_at(), Some(20_001));
        let mut m = CompiledMonitor::new(&f).unwrap();
        assert_eq!(m.step_run(0b0, 20_000), Verdict::Pending);
        assert_eq!(m.decided_at(), None);
        assert_eq!(m.steps(), 20_000);
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let f = parse("F[<=2] p").unwrap();
        let mut m = CompiledMonitor::new(&f).unwrap();
        assert_eq!(m.step(0b1), Verdict::True);
        m.reset();
        assert_eq!(m.verdict(), Verdict::Pending);
        assert_eq!(m.step(0b0), Verdict::Pending);
        assert_eq!(m.step(0b0), Verdict::Pending);
        assert_eq!(m.step(0b0), Verdict::False);
        assert_eq!(m.decided_at(), Some(3));
    }
}
