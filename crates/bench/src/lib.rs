//! # sctc-bench — the reproduction harness
//!
//! One runner per table/figure of the paper's evaluation (Section 4),
//! returning structured rows that the `repro` binary renders:
//!
//! * [`fig7`] — BLAST/CBMC baseline table (exceptions and unwinding
//!   resource-outs per property),
//! * [`fig8`] — the 1st/2nd-approach table: verification time, test cases
//!   and return-value coverage per property and configuration,
//! * [`speedup`] — the "up to 900×" approach-2-vs-approach-1 comparison,
//! * [`tb_sweep`] — coverage and AR-synthesis cost versus the time bound.
//!
//! Beside the tables, `repro` runs the diagnosis demo ([`witness_demo`])
//! and the two performance gates: cache hits at least 10× faster than
//! cold jobs ([`serve_bench`]) and trace-plane overhead of at most 3 %
//! ([`telemetry_bench`]). Correctness gates live in the test suites; the
//! performance record is the ledger benchmark (`BENCHMARK.json`).
//!
//! Scaling: the paper's runs took hours on 2008 hardware with up to 10^5
//! (approach 1) and 10^6 (approach 2) test cases. The runners scale test
//! cases and budgets down by a configurable factor and compare *shapes*,
//! not absolute numbers; see EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod serve;
pub mod timing;

pub use serve::{serve_bench, ServerBenchReport};

use std::time::Duration;

use checkers::bmc::{self, BmcConfig, BmcOutcome, SafetySpec};
use checkers::predabs::{self, PredAbsConfig, PredAbsOutcome};
use eee::{build_ir, Op};
use sctc_campaign::{run_campaign, CampaignSpec, FlowKind};
use sctc_temporal::{ArAutomaton, SynthesisStats};

/// Scale factors for a local run.
#[derive(Copy, Clone, Debug)]
pub struct Scale {
    /// Test cases for approach 1 (paper: 100,000).
    pub micro_cases: u64,
    /// Test cases for approach 2 (paper: 1,000,000).
    pub derived_cases: u64,
    /// Wall budget per baseline-checker property (paper: >5 h).
    pub checker_budget: Duration,
    /// Testbench seed.
    pub seed: u64,
    /// Campaign worker threads (`0` = all available cores). Changes
    /// wall-clock only: verdicts, coverage and case counts are
    /// bit-identical for any value.
    pub jobs: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            micro_cases: 40,
            derived_cases: 400,
            checker_budget: Duration::from_secs(10),
            seed: 20080310,
            jobs: 0,
        }
    }
}

/// The mailbox input constraints used for every baseline-checker property:
/// the operation code is pinned, the arguments range over the constrained
/// input space (paper: "all the input variables have to be constrained").
pub fn spec_for(op: Op) -> SafetySpec {
    let mut allowed: Vec<i32> = op.specified_returns().iter().map(|r| r.code()).collect();
    // The dispatcher also reports parameter errors for out-of-range ids.
    if !allowed.contains(&eee::RetCode::ErrorParam.code()) {
        allowed.push(eee::RetCode::ErrorParam.code());
    }
    SafetySpec {
        inputs: vec![
            ("req_op".to_owned(), op.code(), op.code()),
            ("req_arg0".to_owned(), -2, 20),
            ("req_arg1".to_owned(), 0, 1000),
            // The operation must be checked from an arbitrary reachable
            // emulation state, not only from cold boot.
            ("eee_ready".to_owned(), 0, 1),
            ("eee_su1_done".to_owned(), 0, 1),
            ("eee_active_page".to_owned(), 0, 3),
            ("eee_recv_page".to_owned(), -1, 3),
            ("eee_used".to_owned(), 0, 15),
        ],
        observed: "eee_last_ret".to_owned(),
        allowed,
    }
}

/// One row of the Fig. 7 table.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Property (operation).
    pub op: Op,
    /// BLAST-baseline verification time.
    pub blast_time: Duration,
    /// BLAST-baseline result rendered like the paper ("Exception", ...).
    pub blast_result: String,
    /// CBMC-baseline verification time.
    pub cbmc_time: Duration,
    /// CBMC-baseline result ("> unwind", ...).
    pub cbmc_result: String,
}

/// Reproduces Fig. 7: both baseline checkers on every property.
pub fn fig7(scale: Scale) -> Vec<Fig7Row> {
    let ir = build_ir();
    Op::ALL
        .into_iter()
        .map(|op| {
            let spec = spec_for(op);
            let t0 = std::time::Instant::now();
            let blast = predabs::check(
                &ir,
                &spec,
                PredAbsConfig {
                    wall_budget: scale.checker_budget,
                    ..PredAbsConfig::default()
                },
            );
            let blast_time = t0.elapsed();
            let blast_result = match blast {
                PredAbsOutcome::Safe => "Safe".to_owned(),
                PredAbsOutcome::Violated { .. } => "Violated".to_owned(),
                PredAbsOutcome::Inconclusive { .. } => "Inconclusive".to_owned(),
                PredAbsOutcome::Exception(_) => "Exception".to_owned(),
                PredAbsOutcome::ResourceOut { .. } => "Timeout".to_owned(),
            };
            let t0 = std::time::Instant::now();
            let cbmc = bmc::check(
                &ir,
                &spec,
                BmcConfig {
                    wall_budget: scale.checker_budget,
                    max_conflicts: 500_000,
                    max_clauses: 3_000_000,
                    ..BmcConfig::default()
                },
            );
            let cbmc_time = t0.elapsed();
            let cbmc_result = match cbmc {
                Ok(BmcOutcome::BoundedOk { .. }) => "Bounded OK".to_owned(),
                Ok(BmcOutcome::Violated { .. }) => "Violated".to_owned(),
                Ok(BmcOutcome::ResourceOut { reason, .. }) => {
                    // The paper's table renders every resource-out as
                    // "> unwind": the bound is never exhausted in budget.
                    if reason.contains("unwinding") {
                        "> unwind".to_owned()
                    } else {
                        "> unwind (budget)".to_owned()
                    }
                }
                Err(e) => format!("unsupported ({e})"),
            };
            Fig7Row {
                op,
                blast_time,
                blast_result,
                cbmc_time,
                cbmc_result,
            }
        })
        .collect()
}

/// One cell group of the Fig. 8 table.
#[derive(Clone, Debug)]
pub struct Fig8Cell {
    /// Property (operation).
    pub op: Op,
    /// Verification time: campaign wall plus synthesis wall.
    pub vt: Duration,
    /// Time spent synthesizing AR-automata (reported separately; near
    /// zero once the shared cache is warm).
    pub synthesis: Duration,
    /// Test cases applied.
    pub tc: u64,
    /// Return-value coverage of this operation in percent.
    pub coverage: f64,
    /// Monitor verdict rendered as text (safety properties stay pending).
    pub verdict: String,
    /// Violations observed (must be none).
    pub violations: usize,
    /// Completed cases per second of campaign wall.
    pub cases_per_sec: f64,
}

/// One configuration (column group) of Fig. 8.
#[derive(Clone, Debug)]
pub struct Fig8Column {
    /// Configuration label, e.g. "2nd TB-1000".
    pub label: String,
    /// Per-operation cells.
    pub cells: Vec<Fig8Cell>,
}

/// The campaign spec matching one Fig. 8 configuration with a single
/// property registered (the paper reports per-property verification runs).
fn fig8_spec(micro: bool, op: Op, bound: Option<u64>, cases: u64, seed: u64) -> CampaignSpec {
    let spec = if micro {
        CampaignSpec::micro(cases, seed)
    } else {
        CampaignSpec::derived(cases, seed)
    };
    spec.with_op(op).with_bound(bound)
}

/// Runs one flow configuration as a sharded campaign — one campaign per
/// property, fanned out over `jobs` workers.
fn fig8_column(
    label: &str,
    micro: bool,
    bound: Option<u64>,
    cases: u64,
    seed: u64,
    jobs: usize,
) -> Fig8Column {
    let cells = Op::ALL
        .into_iter()
        .map(|op| {
            let report = run_campaign(&fig8_spec(micro, op, bound, cases, seed).with_jobs(jobs));
            let prop = &report.properties[0];
            Fig8Cell {
                op,
                vt: report.wall + report.synthesis_wall,
                synthesis: report.synthesis_wall,
                tc: report.test_cases,
                coverage: report
                    .coverage_percent
                    .iter()
                    .find(|(o, _)| *o == op)
                    .map(|(_, pct)| *pct)
                    .unwrap_or(0.0),
                verdict: prop.verdict.to_string(),
                violations: report.violations.len(),
                cases_per_sec: report.cases_per_sec(),
            }
        })
        .collect();
    Fig8Column {
        label: label.to_owned(),
        cells,
    }
}

/// Reproduces Fig. 8: approach 1 without time bound, approach 2 with
/// TB-1000 / TB-10000 / no bound.
pub fn fig8(scale: Scale) -> Vec<Fig8Column> {
    let jobs = scale.jobs;
    vec![
        fig8_column("1st No-TB", true, None, scale.micro_cases, scale.seed, jobs),
        fig8_column(
            "2nd TB-1000",
            false,
            Some(1000),
            scale.derived_cases,
            scale.seed,
            jobs,
        ),
        fig8_column(
            "2nd TB-10000",
            false,
            Some(10_000),
            // The paper ran more cases for the larger-bound configuration.
            scale.derived_cases * 2,
            scale.seed,
            jobs,
        ),
        fig8_column(
            "2nd No-TB",
            false,
            None,
            // ... and the most for the pure-LTL configuration.
            scale.derived_cases * 4,
            scale.seed,
            jobs,
        ),
    ]
}

/// Result of the speedup comparison (Section 4.3: "speedup of up to 900").
#[derive(Clone, Debug)]
pub struct SpeedupResult {
    /// Wall time of approach 1.
    pub micro: Duration,
    /// Wall time of approach 2.
    pub derived: Duration,
    /// Simulated processor cycles in approach 1.
    pub micro_ticks: u64,
    /// Executed statements in approach 2.
    pub derived_ticks: u64,
    /// micro / derived wall-time ratio.
    pub factor: f64,
}

/// Measures both flows on identical workloads (same property, same cases),
/// each run as a campaign over `jobs` workers (`0` = all cores).
pub fn speedup(cases: u64, seed: u64, jobs: usize) -> SpeedupResult {
    let micro = run_campaign(&fig8_spec(true, Op::Read, None, cases, seed).with_jobs(jobs));
    let derived = run_campaign(&fig8_spec(false, Op::Read, None, cases, seed).with_jobs(jobs));
    let m = micro.wall;
    let d = derived.wall.max(Duration::from_micros(1));
    SpeedupResult {
        micro: m,
        derived: derived.wall,
        micro_ticks: micro.sim_ticks,
        derived_ticks: derived.sim_ticks,
        factor: m.as_secs_f64() / d.as_secs_f64(),
    }
}

/// One row of the time-bound sweep.
#[derive(Clone, Debug)]
pub struct TbSweepRow {
    /// The bound (`None` = pure LTL).
    pub bound: Option<u64>,
    /// AR-automaton synthesis statistics of the Read property.
    pub synthesis: SynthesisStats,
    /// Overall coverage after the run.
    pub coverage: f64,
    /// Campaign fan-out wall-clock (cold synthesis inside shards overlaps
    /// it; the per-shard sum is reported separately).
    pub wall: Duration,
    /// Summed per-shard registration-time synthesis wall (near zero once
    /// the shared cache is warm).
    pub synthesis_wall: Duration,
    /// Completed cases per second of campaign wall.
    pub cases_per_sec: f64,
    /// Synthesis-cache hit rate during this row's campaign.
    pub cache_hit_rate: f64,
}

/// Sweeps the time bound: AR-synthesis cost grows with the bound (the
/// "large AR-automaton generation time" of Section 4.3) while the runtime
/// behaviour stays unchanged. Each row is a sharded campaign over `jobs`
/// workers (`0` = all cores).
pub fn tb_sweep(cases: u64, seed: u64, jobs: usize) -> Vec<TbSweepRow> {
    [Some(100), Some(1000), Some(10_000), None]
        .into_iter()
        .map(|bound| {
            let stats = synthesis_stats_for_bound(bound);
            let report =
                run_campaign(&fig8_spec(false, Op::Read, bound, cases, seed).with_jobs(jobs));
            TbSweepRow {
                bound,
                synthesis: stats,
                coverage: report.overall_coverage,
                wall: report.wall,
                synthesis_wall: report.synthesis_wall,
                cases_per_sec: report.cases_per_sec(),
                cache_hit_rate: report.cache.hit_rate(),
            }
        })
        .collect()
}

/// Synthesizes the Read response property's AR-automaton for a bound.
pub fn synthesis_stats_for_bound(bound: Option<u64>) -> SynthesisStats {
    let f = eee::response_property(Op::Read, bound);
    ArAutomaton::synthesize(&f)
        .expect("response property synthesizes")
        .stats()
}

/// The diagnosis-layer demo on one flow: the torn-write mutant violates
/// `G intact`, and the witness/VCD pipeline must explain the failure.
#[derive(Clone, Debug)]
pub struct WitnessDemo {
    /// Flow name (`"derived"` / `"micro"`).
    pub flow: String,
    /// `G intact` went `False` in the run itself.
    pub violated: bool,
    /// Sample index at which `intact` decided.
    pub decided_at: u64,
    /// Replaying the witness through a fresh AR-automaton reproduced
    /// `False` at the same sample index.
    pub replay_ok: bool,
    /// The exported VCD survived a parser round-trip with the `intact`
    /// verdict channel transitioning to `0` at `decided_at`.
    pub vcd_ok: bool,
    /// The deciding trigger's provenance names the read-value write.
    pub provenance_ok: bool,
    /// The human-readable witness report.
    pub witness_report: String,
    /// The rendered VCD document.
    pub vcd_text: String,
    /// The scenario's full run report (counters, spans).
    pub report: sctc_core::RunReport,
}

impl WitnessDemo {
    /// All demo checks passed.
    pub fn ok(&self) -> bool {
        self.violated && self.replay_ok && self.vcd_ok && self.provenance_ok
    }
}

/// Runs the torn-write power-loss scenario with the diagnosis layer and
/// the span profiler on, under both flows, and validates the full
/// witness/VCD contract.
pub fn witness_demo() -> Vec<WitnessDemo> {
    use faults::scenario::{run_scenario_observed, ScenarioObs};
    use faults::EswProgram;
    use sctc_core::{VcdDoc, VcdValue, WitnessConfig};
    use sctc_temporal::{CompiledMonitor, Verdict};

    let obs = ScenarioObs {
        witnesses: Some(WitnessConfig::default()),
        vcd: true,
        profile: true,
        ..ScenarioObs::default()
    };
    let flows: [(FlowKind, &str, u64, &str); 2] = [
        (FlowKind::Derived, "derived", 5_000, "eee_read_value"),
        (
            FlowKind::Microprocessor,
            "micro",
            200_000,
            "eee_read_value write",
        ),
    ];
    flows
        .into_iter()
        .map(|(flow, name, bound, source_marker)| {
            let (outcome, report) = run_scenario_observed(flow, EswProgram::TornWrite, bound, obs);
            let violated = outcome.verdict_of("intact") == Verdict::False;
            let witness = report.witnesses.iter().find(|w| w.property == "intact");
            let (decided_at, replay_ok, provenance_ok, witness_report) = match witness {
                Some(w) => {
                    let mut fresh = CompiledMonitor::new(&faults::intact_property())
                        .expect("intact property synthesizes");
                    let replay = w.replay_with(&mut fresh);
                    (
                        w.decided_at.unwrap_or(0),
                        replay.verdict == Verdict::False && replay.decided_at == w.decided_at,
                        w.provenance
                            .iter()
                            .any(|p| p.atom == "intact" && p.source.contains(source_marker)),
                        w.to_report(),
                    )
                }
                None => (0, false, false, "(no witness captured)".to_owned()),
            };
            let vcd_text = report.vcd.as_ref().map(VcdDoc::render).unwrap_or_default();
            let vcd_ok = VcdDoc::parse(&vcd_text)
                .map(|doc| {
                    doc.changes_for("intact", "verdict").last().copied()
                        == Some((decided_at, VcdValue::V0))
                })
                .unwrap_or(false);
            WitnessDemo {
                flow: name.to_owned(),
                violated,
                decided_at,
                replay_ok,
                vcd_ok,
                provenance_ok,
                witness_report,
                vcd_text,
                report,
            }
        })
        .collect()
}

/// The telemetry-overhead benchmark: the same campaign timed with the
/// trace plane disabled and enabled, plus the flight-recorder log of the
/// final enabled run.
#[derive(Clone, Debug)]
pub struct TelemetryBenchReport {
    /// Planned case budget of the measured campaign.
    pub cases: u64,
    /// Min-of-10 campaign wall with event emission disabled.
    pub off_wall: Duration,
    /// Min-of-10 campaign wall with event emission enabled.
    pub on_wall: Duration,
    /// `(on - off) / off` in percent; noise can push it slightly
    /// negative.
    pub overhead_percent: f64,
    /// Events drained from the last enabled campaign run — the
    /// `trace.json` input.
    pub events: Vec<sctc_core::TraceEvent>,
}

/// Measures the trace plane's overhead on a derived campaign.
///
/// A full-size untimed warmup, then ten interleaved off/on repetitions —
/// alternating which goes first — keeping the fastest wall of each.
/// The measured delta is sub-percent, far below the run-to-run wall
/// variance of a noisy shared machine, so only a deep min-of converges
/// both legs to their floor. The fault-injection and SMC stacks get the
/// same on/off identity check in `tests/monitor_equivalence.rs`.
///
/// # Panics
///
/// Panics if the on and off campaign fingerprints diverge — that would
/// mean telemetry feeds back into verification.
pub fn telemetry_bench(scale: Scale) -> TelemetryBenchReport {
    use sctc_core::trace;
    let spec = CampaignSpec::derived(scale.derived_cases, scale.seed);
    // Warm up with one full-size untimed run: the on/off delta being
    // measured is small (sub-percent), so beyond the one-off
    // AR-synthesis miss the legs must also not be skewed by cold page
    // cache, allocator growth, or CPU-frequency ramp on the first leg.
    run_campaign(&spec.clone().with_jobs(scale.jobs));

    let mut off_wall = Duration::MAX;
    let mut on_wall = Duration::MAX;
    let mut off = None;
    let mut on = None;
    let mut events = Vec::new();
    for rep in 0..10 {
        for leg in 0..2 {
            let enabled = (rep + leg) % 2 == 1;
            trace::set_enabled(enabled);
            // Start each timed leg from an empty recorder so ring
            // evictions are comparable across legs.
            trace::drain();
            let t0 = std::time::Instant::now();
            let report = run_campaign(&spec.clone().with_jobs(scale.jobs));
            let wall = t0.elapsed();
            if enabled {
                on_wall = on_wall.min(wall);
                on = Some(report);
                events = trace::drain();
            } else {
                off_wall = off_wall.min(wall);
                off = Some(report);
            }
        }
    }
    trace::set_enabled(true);
    let (off, on) = (off.expect("ran"), on.expect("ran"));
    assert_eq!(
        off.fingerprint(),
        on.fingerprint(),
        "telemetry must not change what the campaign finds"
    );
    assert!(
        !events.is_empty(),
        "an enabled campaign run must record events"
    );

    let overhead_percent =
        100.0 * (on_wall.as_secs_f64() - off_wall.as_secs_f64()) / off_wall.as_secs_f64().max(1e-9);
    TelemetryBenchReport {
        cases: on.total_cases,
        off_wall,
        on_wall,
        overhead_percent,
        events,
    }
}

/// Renders a flight-recorder log in the chrome://tracing JSON object
/// format (load the file via `chrome://tracing` or Perfetto): one
/// instant event per [`sctc_core::TraceEvent`], with the trace/span ids
/// and numeric fields under `args`. The document is pretty-printed with
/// two-space indents. Stage names and field keys are static identifiers
/// such as `shard.done` or `wall_us`, so no string needs escaping.
pub fn render_chrome_trace(events: &[sctc_core::TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"traceEvents\": [");
    for (i, event) in events.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            r#"{comma}
    {{
      "name": "{}",
      "cat": "sctc",
      "ph": "i",
      "ts": {},
      "pid": 1,
      "tid": {},
      "s": "t",
      "args": {{
        "trace": {},
        "span": {}"#,
            event.stage, event.t_us, event.tid, event.trace_id, event.span_id
        );
        for (key, value) in &event.fields {
            let _ = write!(out, ",\n        \"{key}\": {value}");
        }
        out.push_str("\n      }\n    }");
    }
    if !events.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"displayTimeUnit\": \"ms\"\n}\n");
    out
}

/// Renders a duration the way the paper's tables do (seconds).
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;

    /// The chrome://tracing JSON object format requires `traceEvents`
    /// plus `name`/`cat`/`ph`/`ts`/`pid`/`tid` per event; instant events
    /// additionally carry a scope `s`. Schema-check the renderer against
    /// that field set, spelled as the pretty-printed document writes it
    /// (`"key": value`).
    #[test]
    fn chrome_trace_export_matches_the_tracing_field_set() {
        let events = vec![
            sctc_core::TraceEvent {
                trace_id: 7,
                span_id: 1,
                stage: "job.admit",
                t_us: 10,
                tid: 1,
                fields: vec![("job", 3)],
            },
            sctc_core::TraceEvent {
                trace_id: 7,
                span_id: 2,
                stage: "shard.dispatch",
                t_us: 25,
                tid: 2,
                fields: vec![("shard", 0), ("cases", 25)],
            },
        ];
        let rendered = render_chrome_trace(&events);
        for required in [
            "\"traceEvents\": [",
            "\"name\": \"job.admit\"",
            "\"name\": \"shard.dispatch\"",
            "\"cat\": \"sctc\"",
            "\"ph\": \"i\"",
            "\"ts\": 10",
            "\"ts\": 25",
            "\"pid\": 1",
            "\"tid\": 2",
            "\"s\": \"t\"",
            "\"args\": {",
            "\"trace\": 7",
            "\"span\": 2",
            "\"shard\": 0",
            "\"displayTimeUnit\": \"ms\"",
        ] {
            assert!(
                rendered.contains(required),
                "chrome trace missing {required}: {rendered}"
            );
        }
        assert_eq!(
            rendered.matches("\"ph\": \"i\"").count(),
            events.len(),
            "one instant event per trace event"
        );
        // Structural sanity without a JSON parser: balanced braces and
        // brackets.
        let opens = rendered.matches('{').count();
        let closes = rendered.matches('}').count();
        assert_eq!(opens, closes, "balanced braces");
        assert_eq!(
            rendered.matches('[').count(),
            rendered.matches(']').count(),
            "balanced brackets"
        );
    }
}
