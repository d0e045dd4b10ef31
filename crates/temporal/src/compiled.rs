//! Compiled AR kernels: the raw-speed stepping tier.
//!
//! [`ArAutomaton`] already stores a dense transition table, but stepping it
//! pays a `Verdict` enum load per step, and a stutter run of `n` identical
//! valuations would take `n` steps. [`CompiledKernel::lower`] precomputes
//! what those runs derive, once, at synthesis time:
//!
//! * **jump array** — `next[state * columns + valuation]`, copied verbatim
//!   from the automaton so state numbering (and therefore witness state
//!   paths) stays identical;
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
//! decidedness is two integer compares against the (at most two) sink state
//! ids, and [`CompiledMonitor::step_run`] flushes an `n`-step stutter run
//! without per-sample branching.

use std::fmt;
use std::sync::Arc;

use crate::ast::Formula;
use crate::automaton::{ArAutomaton, SynthesisError, SynthesisStats};
use crate::monitor::TraceMonitor;
use crate::progress::Valuation;
use crate::verdict::Verdict;

/// Low 31 bits of a run-table cell: offset of the first decided step.
const OFFSET_MASK: u32 = 0x7FFF_FFFF;
/// Offset sentinel: the fixed-valuation run never reaches a sink.
const NEVER: u32 = OFFSET_MASK;
/// Top bit of a run-table cell: the sink reached is the accept sink.
const ACCEPT_BIT: u32 = 1 << 31;
/// Sink-id sentinel for automata without an accept (or reject) sink.
const NO_SINK: u32 = u32::MAX;

/// An [`ArAutomaton`] lowered into dense jump + run tables.
///
/// Immutable after lowering; shared behind an [`Arc`] through the
/// [`SynthesisCache`](crate::SynthesisCache) exactly like the automaton it
/// was lowered from.
pub struct CompiledKernel {
    props: Vec<String>,
    columns: usize,
    states: u32,
    /// `next[state * columns + valuation]` — same layout and numbering as
    /// [`ArAutomaton`]'s transition table.
    next: Vec<u32>,
    /// State id of the accept sink ([`NO_SINK`] if unreachable).
    accept_state: u32,
    /// State id of the reject sink ([`NO_SINK`] if unreachable).
    reject_state: u32,
    /// Packed run cells, one per `next` entry (see module docs).
    run: Vec<u32>,
    /// Self-loop bitset: `words_per_state` words per state, bit `v % 64` of
    /// word `v / 64` set iff `next[s][v] == s`.
    self_loop: Vec<u64>,
    words_per_state: usize,
    stats: SynthesisStats,
}

impl CompiledKernel {
    /// Lowers a synthesized automaton into a compiled kernel.
    pub fn lower(automaton: &ArAutomaton) -> Self {
        let columns = automaton.columns();
        let states = automaton.state_count();
        let next = automaton.transitions_raw().to_vec();

        let mut accept_state = NO_SINK;
        let mut reject_state = NO_SINK;
        for s in 0..states {
            match automaton.verdict(s as u32) {
                Verdict::True => accept_state = s as u32,
                Verdict::False => reject_state = s as u32,
                Verdict::Pending => {}
            }
        }

        let words_per_state = columns.div_ceil(64);
        let mut self_loop = vec![0u64; states * words_per_state];
        for s in 0..states {
            for v in 0..columns {
                if next[s * columns + v] == s as u32 {
                    self_loop[s * words_per_state + v / 64] |= 1 << (v % 64);
                }
            }
        }

        // Run table: per column, distance-to-sink over the functional graph
        // `s -> next[s][v]`. Undecided cycles (including undecided
        // self-loops) never decide; everything upstream of a sink gets the
        // exact offset plus the sink's polarity.
        let mut run = vec![0u32; next.len()];
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
                    cur = next[cur as usize * columns + v];
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
            props: automaton.props().to_vec(),
            columns,
            states: states as u32,
            next,
            accept_state,
            reject_state,
            run,
            self_loop,
            words_per_state,
            stats: automaton.stats(),
        }
    }

    /// Returns the proposition names in valuation-bit order.
    pub fn props(&self) -> &[String] {
        &self.props
    }

    /// Number of automaton states the kernel was lowered from.
    pub fn state_count(&self) -> usize {
        self.states as usize
    }

    /// Synthesis statistics of the underlying automaton.
    pub fn stats(&self) -> SynthesisStats {
        self.stats
    }

    #[inline(always)]
    fn self_loops(&self, state: u32, v: usize) -> bool {
        self.self_loop[state as usize * self.words_per_state + v / 64] >> (v % 64) & 1 != 0
    }

    #[inline(always)]
    fn verdict_of(&self, state: u32) -> Verdict {
        if state == self.accept_state {
            Verdict::True
        } else if state == self.reject_state {
            Verdict::False
        } else {
            Verdict::Pending
        }
    }

    #[inline(always)]
    fn is_decided(&self, state: u32) -> bool {
        state == self.accept_state || state == self.reject_state
    }

    /// State after `n` steps of a run known never to decide. Walks the
    /// jump array directly; if `n` exceeds the state count the run is
    /// provably inside a cycle, whose length closes the remainder.
    fn advance_undecided(&self, start: u32, v: usize, n: u64) -> u32 {
        let f = |s: u32| self.next[s as usize * self.columns + v];
        let states = self.states as u64;
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
            .field("states", &self.states)
            .field("columns", &self.columns)
            .field("words_per_state", &self.words_per_state)
            .finish()
    }
}

/// A monitor stepping a [`CompiledKernel`].
///
/// Behaviourally identical to [`TableMonitor`](crate::TableMonitor) — same
/// state numbering, verdicts, step counts and decision indices — but with
/// the stutter flush compiled down to one run-table lookup.
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
            &automaton,
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

    /// Returns the underlying kernel.
    pub fn kernel(&self) -> &CompiledKernel {
        &self.kernel
    }

    /// The current state id (identical numbering to the source automaton,
    /// so diagnosis state paths stay comparable across engines).
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
        let v = valuation as usize;
        debug_assert!(v < self.kernel.columns, "valuation has unknown bits");
        if n == 0 || self.kernel.is_decided(self.state) {
            return self.kernel.verdict_of(self.state);
        }
        let cell = self.kernel.run[self.state as usize * self.kernel.columns + v];
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
                self.kernel.accept_state
            } else {
                self.kernel.reject_state
            };
            self.steps += d;
            self.decided_at = Some(self.steps);
        } else {
            // n < d <= states: a short walk down the (sink-bound) chain.
            let mut s = self.state;
            for _ in 0..n {
                s = self.kernel.next[s as usize * self.kernel.columns + v];
            }
            self.state = s;
            self.steps += n;
        }
        self.kernel.verdict_of(self.state)
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
        let v = valuation as usize;
        debug_assert!(v < self.kernel.columns, "valuation has unknown bits");
        self.state = self.kernel.next[self.state as usize * self.kernel.columns + v];
        self.steps += 1;
        let verdict = self.kernel.verdict_of(self.state);
        if verdict.is_decided() && self.decided_at.is_none() {
            self.decided_at = Some(self.steps);
        }
        verdict
    }

    fn verdict(&self) -> Verdict {
        self.kernel.verdict_of(self.state)
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn decided_at(&self) -> Option<u64> {
        self.decided_at
    }

    fn props(&self) -> &[String] {
        self.kernel.props()
    }

    fn reset(&mut self) {
        CompiledMonitor::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::TableMonitor;
    use crate::parser::parse;

    fn kernel_for(text: &str) -> (ArAutomaton, CompiledKernel) {
        let f = parse(text).unwrap();
        let automaton = ArAutomaton::synthesize(&f).unwrap();
        let kernel = CompiledKernel::lower(&automaton);
        (automaton, kernel)
    }

    #[test]
    fn compiled_steps_match_table_steps_exactly() {
        for text in [
            "G (a -> F[<=7] b)",
            "F[<=9] p",
            "G[<=6] (a | b)",
            "(a U[<=5] b) & G (b -> F[<=3] a)",
            "true",
            "!p",
        ] {
            let f = parse(text).unwrap();
            let mut table = TableMonitor::new(&f).unwrap();
            let mut compiled = CompiledMonitor::new(&f).unwrap();
            assert_eq!(table.props(), compiled.props());
            let columns = 1u64 << table.props().len();
            let mut v = 1u64;
            for i in 0..200u64 {
                v = (v.wrapping_mul(6364136223846793005).wrapping_add(i)) % columns;
                assert_eq!(table.step(v), compiled.step(v), "{text} step {i}");
                assert_eq!(table.state(), compiled.state(), "{text} step {i}");
                assert_eq!(table.decided_at(), compiled.decided_at(), "{text}");
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
            let (automaton, kernel) = kernel_for(text);
            let kernel = Arc::new(kernel);
            let columns = 1u64 << automaton.props().len();
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
        let text = "F[<=3] (p0 | p1 | p2 | p3 | p4 | p5 | p6)";
        let f = parse(text).unwrap();
        let compiled = CompiledMonitor::new(&f).unwrap();
        assert_eq!(compiled.kernel().words_per_state, 2);
        let mut table = TableMonitor::new(&f).unwrap();
        let mut wide = CompiledMonitor::new(&f).unwrap();
        // Idle run exercises high-column self-loop bits (valuation 127 is
        // in the second packed word).
        for v in [0u64, 127, 64, 65, 0] {
            for _ in 0..3 {
                if !table.verdict().is_decided() {
                    table.step(v);
                }
            }
            assert_eq!(table.verdict(), wide.step_run(v, 3));
            assert_eq!(table.state(), wide.state());
        }
        assert_eq!(table.decided_at(), wide.decided_at());
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
