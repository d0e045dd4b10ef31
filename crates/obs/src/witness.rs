//! Counterexample witnesses.
//!
//! When a monitored property decides (False always, True on request)
//! the checker reconstructs a bounded [`Witness`]: the last K trigger
//! samples as stutter-compressed valuation runs, the AR-automaton state
//! path across those runs, the deciding sample index, and the dirty-set
//! provenance of the deciding trigger — which memory write, global
//! write, `fname` change or flash MMIO event woke the property.  A
//! witness is both a structured value (replayable against any
//! [`TraceMonitor`]) and a human-readable report.

use std::collections::VecDeque;
use std::fmt::Write as _;

use sctc_temporal::{TraceMonitor, Verdict};

/// Capture configuration for witness extraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WitnessConfig {
    /// Maximum number of retained stutter-compressed valuation runs
    /// (a run covers arbitrarily many identical consecutive samples).
    pub window: usize,
    /// Also extract witnesses when a property decides True.
    pub capture_true: bool,
}

impl Default for WitnessConfig {
    fn default() -> Self {
        WitnessConfig {
            window: 256,
            capture_true: false,
        }
    }
}

/// One stutter-compressed run of identical trigger samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WitnessStep {
    /// 1-based sample index of the run's first sample.
    pub first_sample: u64,
    /// How many consecutive samples the run covers (≥ 1).
    pub repeat: u64,
    /// Packed atom valuation (bit `i` is `atom_names[i]`).
    pub valuation: u64,
    /// AR-automaton state *before* the run's first step; `None` for
    /// naive checks, which record no automaton state.
    pub state_before: Option<u32>,
}

/// A dirty-set provenance event: the write that changed an atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenanceEntry {
    /// Formula-level proposition name.
    pub atom: String,
    /// Write-path label, e.g. ``global `eee_read_value` write`` or
    /// `mem[0x00000a40..+4] write`.
    pub source: String,
    /// The value the atom changed to.
    pub value: bool,
    /// 1-based sample index at which the change was observed.
    pub sample: u64,
}

/// Outcome of replaying a witness against a fresh monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Verdict after the replayed samples.
    pub verdict: Verdict,
    /// 1-based deciding sample index, if decided.
    pub decided_at: Option<u64>,
}

/// A reconstructed counterexample (or satisfaction certificate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Property name as registered with the checker.
    pub property: String,
    /// The decided verdict.
    pub verdict: Verdict,
    /// 1-based sample index at which the verdict latched.
    pub decided_at: Option<u64>,
    /// Atom names in valuation-bit order.
    pub atom_names: Vec<String>,
    /// Retained valuation runs, oldest first.
    pub steps: Vec<WitnessStep>,
    /// Whether the window reaches back to sample 1 (nothing evicted);
    /// only complete witnesses replay from the initial state.
    pub complete: bool,
    /// Provenance of the deciding trigger: the most recent write events
    /// that changed this property's atoms before the decision.
    pub provenance: Vec<ProvenanceEntry>,
}

impl Witness {
    /// Total samples covered by the retained runs.
    fn total_samples(&self) -> u64 {
        self.steps.iter().map(|s| s.repeat).sum()
    }

    /// Re-drives `monitor` (assumed fresh) with the recorded valuation
    /// runs, stopping — like the engine — once the monitor decides.
    pub fn replay_with(&self, monitor: &mut dyn TraceMonitor) -> ReplayOutcome {
        'runs: for step in &self.steps {
            for _ in 0..step.repeat {
                if monitor.verdict().is_decided() {
                    break 'runs;
                }
                monitor.step(step.valuation);
            }
        }
        ReplayOutcome {
            verdict: monitor.verdict(),
            decided_at: monitor.decided_at(),
        }
    }

    /// Renders the human-readable witness report.
    pub fn to_report(&self) -> String {
        let mut out = String::new();
        let decided = self
            .decided_at
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".to_owned());
        let _ = writeln!(
            out,
            "witness: property `{}` decided {} at sample {}",
            self.property, self.verdict, decided
        );
        let _ = writeln!(
            out,
            "  window: {} run(s) covering {} sample(s){}",
            self.steps.len(),
            self.total_samples(),
            if self.complete {
                " (complete trace)"
            } else {
                " (older samples evicted)"
            }
        );
        let _ = writeln!(out, "  atoms: [{}]", self.atom_names.join(", "));
        for step in &self.steps {
            let bits: String = (0..self.atom_names.len())
                .map(|i| {
                    if step.valuation >> i & 1 == 1 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            let span = if step.repeat == 1 {
                format!("sample {}", step.first_sample)
            } else {
                format!(
                    "samples {}..={}",
                    step.first_sample,
                    step.first_sample + step.repeat - 1
                )
            };
            let state = step
                .state_before
                .map(|s| format!(" [AR state {s}]"))
                .unwrap_or_default();
            let _ = writeln!(out, "    {span}: valuation {bits}{state}");
        }
        if self.provenance.is_empty() {
            let _ = writeln!(out, "  deciding trigger: no watched write recorded");
        } else {
            let _ = writeln!(out, "  deciding trigger provenance:");
            for p in &self.provenance {
                let _ = writeln!(
                    out,
                    "    sample {}: {} -> `{}` = {}",
                    p.sample, p.source, p.atom, p.value
                );
            }
        }
        out
    }
}

/// Per-property incremental recorder the checker drives while sampling.
#[derive(Clone, Debug)]
pub struct WitnessRecorder {
    window: usize,
    steps: VecDeque<WitnessStep>,
    evicted: bool,
    next_sample: u64,
}

impl WitnessRecorder {
    /// Creates a recorder retaining at most `window` compressed runs.
    pub fn new(window: usize) -> Self {
        WitnessRecorder {
            window: window.max(1),
            steps: VecDeque::new(),
            evicted: false,
            next_sample: 1,
        }
    }

    /// Records one sample.  Consecutive identical valuations merge into
    /// a single run; a new valuation opens a run that remembers the
    /// automaton state it was stepped from.
    pub fn record(&mut self, valuation: u64, state_before: Option<u32>) {
        let sample = self.next_sample;
        self.next_sample += 1;
        if let Some(last) = self.steps.back_mut() {
            if last.valuation == valuation {
                last.repeat += 1;
                return;
            }
        }
        self.steps.push_back(WitnessStep {
            first_sample: sample,
            repeat: 1,
            valuation,
            state_before,
        });
        if self.steps.len() > self.window {
            self.steps.pop_front();
            self.evicted = true;
        }
    }

    /// Records one stuttering sample: extends the current run without a
    /// valuation (the engine deferred the automaton step).
    pub fn record_repeat(&mut self) {
        self.next_sample += 1;
        if let Some(last) = self.steps.back_mut() {
            last.repeat += 1;
        }
    }

    /// Forgets everything (new test case).
    pub fn reset(&mut self) {
        self.steps.clear();
        self.evicted = false;
        self.next_sample = 1;
    }

    /// Number of samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.next_sample - 1
    }

    /// Freezes the recording into a [`Witness`].
    pub fn finish(
        &self,
        property: &str,
        verdict: Verdict,
        decided_at: Option<u64>,
        atom_names: Vec<String>,
        provenance: Vec<ProvenanceEntry>,
    ) -> Witness {
        Witness {
            property: property.to_owned(),
            verdict,
            decided_at,
            atom_names,
            steps: self.steps.iter().copied().collect(),
            complete: !self.evicted,
            provenance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctc_temporal::{parse, CompiledMonitor};

    fn monitor_for(formula: &str) -> CompiledMonitor {
        let f = parse(formula).expect("parse");
        CompiledMonitor::new(&f).expect("synthesize")
    }

    #[test]
    fn recorder_compresses_stutters_into_runs() {
        let mut rec = WitnessRecorder::new(16);
        rec.record(0b01, Some(0));
        rec.record_repeat();
        rec.record_repeat();
        rec.record(0b10, Some(3));
        rec.record(0b10, Some(3));
        let w = rec.finish(
            "p",
            Verdict::Pending,
            None,
            vec!["a".into(), "b".into()],
            vec![],
        );
        assert_eq!(w.steps.len(), 2);
        assert_eq!(w.steps[0].repeat, 3);
        assert_eq!(w.steps[1].first_sample, 4);
        assert_eq!(w.steps[1].repeat, 2);
        assert_eq!(w.total_samples(), 5);
        assert!(w.complete);
    }

    #[test]
    fn eviction_marks_the_witness_incomplete() {
        let mut rec = WitnessRecorder::new(2);
        rec.record(0, None);
        rec.record(1, None);
        rec.record(0, None);
        let w = rec.finish("p", Verdict::Pending, None, vec!["a".into()], vec![]);
        assert_eq!(w.steps.len(), 2);
        assert!(!w.complete);
        assert_eq!(w.steps[0].first_sample, 2);
    }

    #[test]
    fn replay_reproduces_a_safety_violation() {
        // G a violated at the fourth sample.
        let mut monitor = monitor_for("G a");
        let mut rec = WitnessRecorder::new(16);
        for v in [1u64, 1, 1, 0] {
            rec.record(v, Some(monitor.state()));
            monitor.step(v);
        }
        assert_eq!(monitor.verdict(), Verdict::False);
        let w = rec.finish(
            "G a",
            monitor.verdict(),
            monitor.decided_at(),
            vec!["a".into()],
            vec![],
        );
        assert_eq!(w.decided_at, Some(4));
        let mut fresh = monitor_for("G a");
        let outcome = w.replay_with(&mut fresh);
        assert_eq!(outcome.verdict, Verdict::False);
        assert_eq!(outcome.decided_at, Some(4));
    }

    #[test]
    fn report_names_the_property_and_trigger() {
        let mut rec = WitnessRecorder::new(8);
        rec.record(0b1, Some(0));
        rec.record(0b0, Some(1));
        let w = rec.finish(
            "G intact",
            Verdict::False,
            Some(2),
            vec!["intact".into()],
            vec![ProvenanceEntry {
                atom: "intact".into(),
                source: "global `eee_read_value` write".into(),
                value: false,
                sample: 2,
            }],
        );
        let report = w.to_report();
        assert!(report.contains("`G intact` decided false at sample 2"));
        assert!(report.contains("global `eee_read_value` write"));
        assert!(report.contains("valuation 1"));
    }
}
