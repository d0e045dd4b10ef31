//! # sctc-bench — the reproduction harness
//!
//! One runner per table/figure of the paper's evaluation (Section 4),
//! returning structured rows that the `repro` binary renders and the
//! bench targets time (via the in-tree [`timing`] harness — see the
//! `bench-criterion` feature note in the manifest):
//!
//! * [`fig7`] — BLAST/CBMC baseline table (exceptions and unwinding
//!   resource-outs per property),
//! * [`fig8`] — the 1st/2nd-approach table: verification time, test cases
//!   and return-value coverage per property and configuration,
//! * [`speedup`] — the "up to 900×" approach-2-vs-approach-1 comparison,
//! * [`tb_sweep`] — coverage and AR-synthesis cost versus the time bound.
//!
//! Scaling: the paper's runs took hours on 2008 hardware with up to 10^5
//! (approach 1) and 10^6 (approach 2) test cases. The runners scale test
//! cases and budgets down by a configurable factor and compare *shapes*,
//! not absolute numbers; see EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod json;
pub mod serve;
pub mod timing;

pub use serve::{render_server_bench_json, serve_bench, ServerBenchReport};

use std::time::Duration;

use checkers::bmc::{self, BmcConfig, BmcOutcome, SafetySpec};
use checkers::predabs::{self, PredAbsConfig, PredAbsOutcome};
use eee::{build_ir, Op};
use faults::{run_fault_campaign, FaultCampaignReport, FaultCampaignSpec};
use sctc_campaign::{resolve_jobs, run_campaign, CampaignReport, CampaignSpec, FlowKind};
use sctc_core::{EngineKind, MonitorCounters};
use sctc_cpu::IsaKind;
use sctc_temporal::{ArAutomaton, CacheStats, SynthesisCache, SynthesisStats};

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

/// One row of `BENCH_campaign.json`: one campaign configuration measured
/// at one worker count.
#[derive(Clone, Debug)]
pub struct CampaignBenchRow {
    /// Flow name (`"derived"` or `"micro"`).
    pub flow: String,
    /// Configuration label (`"TB-1000"`, `"no-TB"`, ...).
    pub config: String,
    /// The time bound (`None` = pure LTL).
    pub bound: Option<u64>,
    /// Worker threads used.
    pub jobs: usize,
    /// Planned case budget.
    pub cases: u64,
    /// Test cases actually completed.
    pub test_cases: u64,
    /// Campaign fan-out wall-clock.
    pub wall: Duration,
    /// Sum of individual shard walls (≈ CPU time).
    pub shard_wall_sum: Duration,
    /// Summed per-shard registration-time synthesis wall.
    pub synthesis_wall: Duration,
    /// Completed cases per second of campaign wall.
    pub cases_per_sec: f64,
    /// Synthesis-cache hits during the campaign.
    pub cache_hits: u64,
    /// Synthesis-cache misses during the campaign.
    pub cache_misses: u64,
    /// Cache hit rate during the campaign.
    pub cache_hit_rate: f64,
    /// Mean return-value coverage over all operations, in percent.
    pub coverage: f64,
    /// Property violations observed (must stay zero).
    pub violations: usize,
}

impl CampaignBenchRow {
    fn from_report(flow: &str, config: &str, bound: Option<u64>, report: &CampaignReport) -> Self {
        CampaignBenchRow {
            flow: flow.to_owned(),
            config: config.to_owned(),
            bound,
            jobs: report.jobs,
            cases: report.total_cases,
            test_cases: report.test_cases,
            wall: report.wall,
            shard_wall_sum: report.shard_wall_sum,
            synthesis_wall: report.synthesis_wall,
            cases_per_sec: report.cases_per_sec(),
            cache_hits: report.cache.hits,
            cache_misses: report.cache.misses,
            cache_hit_rate: report.cache.hit_rate(),
            coverage: report.overall_coverage,
            violations: report.violations.len(),
        }
    }
}

/// Runs the paper's campaign configurations at `jobs = 1` and at the
/// scale's worker count, producing the rows of `BENCH_campaign.json`.
/// All seven response properties are registered at once in every
/// campaign, so the synthesis cache's `properties × shards` collapse is
/// visible in the cache columns.
pub fn campaign_bench(scale: Scale) -> Vec<CampaignBenchRow> {
    let parallel = resolve_jobs(scale.jobs);
    let mut job_counts = vec![1usize];
    if parallel != 1 {
        job_counts.push(parallel);
    }
    let configs: [(&str, &str, Option<u64>, u64); 4] = [
        ("derived", "TB-1000", Some(1000), scale.derived_cases),
        ("derived", "TB-10000", Some(10_000), scale.derived_cases),
        ("derived", "no-TB", None, scale.derived_cases),
        ("micro", "no-TB", None, scale.micro_cases),
    ];
    let mut rows = Vec::new();
    for jobs in job_counts {
        for (flow, config, bound, cases) in configs {
            let spec = if flow == "micro" {
                CampaignSpec::micro(cases, scale.seed)
            } else {
                CampaignSpec::derived(cases, scale.seed)
            };
            let report = run_campaign(&spec.with_bound(bound).with_jobs(jobs));
            rows.push(CampaignBenchRow::from_report(flow, config, bound, &report));
        }
    }
    rows
}

/// Renders campaign-bench rows as the `BENCH_campaign.json` document.
pub fn render_campaign_bench_json(rows: &[CampaignBenchRow]) -> String {
    use json::JsonWriter;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("bench-campaign/v1");
    w.key("host_parallelism");
    w.number(resolve_jobs(0) as f64);
    w.key("rows");
    w.begin_array();
    for row in rows {
        w.begin_object();
        w.key("flow");
        w.string(&row.flow);
        w.key("config");
        w.string(&row.config);
        w.key("bound");
        match row.bound {
            Some(b) => w.number(b as f64),
            None => w.null(),
        }
        w.key("jobs");
        w.number(row.jobs as f64);
        w.key("cases");
        w.number(row.cases as f64);
        w.key("test_cases");
        w.number(row.test_cases as f64);
        w.key("wall_s");
        w.number(row.wall.as_secs_f64());
        w.key("shard_wall_sum_s");
        w.number(row.shard_wall_sum.as_secs_f64());
        w.key("synthesis_wall_s");
        w.number(row.synthesis_wall.as_secs_f64());
        w.key("cases_per_sec");
        w.number(row.cases_per_sec);
        w.key("cache_hits");
        w.number(row.cache_hits as f64);
        w.key("cache_misses");
        w.number(row.cache_misses as f64);
        w.key("cache_hit_rate");
        w.number(row.cache_hit_rate);
        w.key("coverage_percent");
        w.number(row.coverage);
        w.key("violations");
        w.number(row.violations as f64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One row of `BENCH_faults.json`: one fault campaign measured at one
/// worker count, with the detection matrix summarised and fingerprinted.
#[derive(Clone, Debug)]
pub struct FaultsBenchRow {
    /// Flow name (`"derived"` or `"micro"`).
    pub flow: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Planned case budget (recovery cases come on top).
    pub cases: u64,
    /// Test cases actually completed, recovery protocol included.
    pub test_cases: u64,
    /// Campaign fan-out wall-clock.
    pub wall: Duration,
    /// Faults scheduled by the plan.
    pub planned: usize,
    /// Faults that actually fired.
    pub fired: usize,
    /// Faults detected in their own test case.
    pub detected: usize,
    /// Deviations attributed to an earlier fault.
    pub late_detections: u64,
    /// Power losses that fired.
    pub power_losses: usize,
    /// Power losses whose recovery protocol succeeded.
    pub recovered: usize,
    /// Committed records that survived all power losses.
    pub survived: u64,
    /// Records corrupted (torn write served, value mismatch, lost).
    pub corrupted: u64,
    /// Merged verdict of `G (reset -> F[<=b] initialized)`, as text.
    pub recovery_verdict: String,
    /// Merged verdict of `G intact`, as text.
    pub intact_verdict: String,
    /// FNV-1a fingerprint of the canonical matrix, as 16 hex digits —
    /// identical for every `jobs` value by construction.
    pub fingerprint: String,
}

impl FaultsBenchRow {
    /// Summarises one fault-campaign report into a bench row.
    pub fn from_report(flow: &str, cases: u64, report: &FaultCampaignReport) -> Self {
        let m = &report.matrix;
        let verdict_text = |name: &str| {
            m.verdict_of(name)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_owned())
        };
        FaultsBenchRow {
            flow: flow.to_owned(),
            jobs: report.jobs,
            cases,
            test_cases: m.test_cases,
            wall: report.wall,
            planned: m.records.len(),
            fired: m.records.iter().filter(|r| r.fired).count(),
            detected: m.records.iter().filter(|r| r.detected).count(),
            late_detections: m.records.iter().map(|r| u64::from(r.late_detections)).sum(),
            power_losses: m
                .records
                .iter()
                .filter(|r| r.class == "power-loss" && r.fired)
                .count(),
            recovered: m
                .records
                .iter()
                .filter(|r| r.recovered == Some(true))
                .count(),
            survived: m.records.iter().map(|r| u64::from(r.survived)).sum(),
            corrupted: m.records.iter().map(|r| u64::from(r.corrupted)).sum(),
            recovery_verdict: verdict_text("recovery"),
            intact_verdict: verdict_text("intact"),
            fingerprint: format!("{:016x}", m.fingerprint()),
        }
    }
}

/// Runs the fault campaigns (both flows) at `jobs = 1` and at the scale's
/// worker count, producing the rows of `BENCH_faults.json`. The serial
/// and parallel fingerprints of a flow must be identical — `repro
/// --faults` enforces this.
pub fn faults_bench(scale: Scale) -> Vec<FaultsBenchRow> {
    let parallel = resolve_jobs(scale.jobs);
    let mut job_counts = vec![1usize];
    if parallel != 1 {
        job_counts.push(parallel);
    }
    let mut rows = Vec::new();
    for jobs in job_counts {
        for (flow, cases) in [
            ("derived", scale.derived_cases),
            ("micro", scale.micro_cases),
        ] {
            let spec = if flow == "micro" {
                FaultCampaignSpec::micro(cases, scale.seed)
            } else {
                FaultCampaignSpec::derived(cases, scale.seed)
            };
            let report = run_fault_campaign(&spec.with_jobs(jobs));
            rows.push(FaultsBenchRow::from_report(flow, cases, &report));
        }
    }
    rows
}

/// Renders fault-bench rows as the `BENCH_faults.json` document.
pub fn render_faults_bench_json(rows: &[FaultsBenchRow]) -> String {
    use json::JsonWriter;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("bench-faults/v1");
    w.key("host_parallelism");
    w.number(resolve_jobs(0) as f64);
    w.key("rows");
    w.begin_array();
    for row in rows {
        w.begin_object();
        w.key("flow");
        w.string(&row.flow);
        w.key("jobs");
        w.number(row.jobs as f64);
        w.key("cases");
        w.number(row.cases as f64);
        w.key("test_cases");
        w.number(row.test_cases as f64);
        w.key("wall_s");
        w.number(row.wall.as_secs_f64());
        w.key("faults_planned");
        w.number(row.planned as f64);
        w.key("faults_fired");
        w.number(row.fired as f64);
        w.key("faults_detected");
        w.number(row.detected as f64);
        w.key("late_detections");
        w.number(row.late_detections as f64);
        w.key("power_losses");
        w.number(row.power_losses as f64);
        w.key("recovered");
        w.number(row.recovered as f64);
        w.key("records_survived");
        w.number(row.survived as f64);
        w.key("records_corrupted");
        w.number(row.corrupted as f64);
        w.key("recovery_verdict");
        w.string(&row.recovery_verdict);
        w.key("intact_verdict");
        w.string(&row.intact_verdict);
        w.key("matrix_fingerprint");
        w.string(&row.fingerprint);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One row of `BENCH_smc.json`: one statistical campaign measured at one
/// worker count, with the hypothesis-test answer and the sequential
/// test's sample spend against the fixed-sample Chernoff budget.
#[derive(Clone, Debug)]
pub struct SmcBenchRow {
    /// Query label (`"fails-direction"` / `"holds-direction"`).
    pub label: String,
    /// Flow name.
    pub flow: String,
    /// Workload label.
    pub workload: String,
    /// Estimation method (`"sprt"` / `"chernoff"`).
    pub method: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Threshold under test.
    pub theta: f64,
    /// The campaign's answer, as text.
    pub verdict: String,
    /// Samples accepted by the canonical-order fold.
    pub samples: u64,
    /// Successes among them.
    pub successes: u64,
    /// Empirical success rate.
    pub p_hat: f64,
    /// Hoeffding interval around `p_hat`.
    pub ci: (f64, f64),
    /// The fixed-sample Chernoff budget of the query.
    pub chernoff_bound: u64,
    /// Samples issued to workers (accepted + raced tail).
    pub issued: u64,
    /// Speculative samples discarded after the decision.
    pub discarded: u64,
    /// Campaign wall-clock.
    pub wall: Duration,
    /// Report fingerprint, 16 hex digits — identical for every `jobs`
    /// value by construction.
    pub fingerprint: String,
}

impl SmcBenchRow {
    fn from_report(label: &str, report: &sctc_smc::SmcReport) -> Self {
        SmcBenchRow {
            label: label.to_owned(),
            flow: report.flow.clone(),
            workload: report.workload.clone(),
            method: report.method.clone(),
            jobs: report.jobs,
            theta: report.query.theta,
            verdict: report.verdict.to_string(),
            samples: report.samples,
            successes: report.successes,
            p_hat: report.p_hat(),
            ci: report.confidence_interval(),
            chernoff_bound: report.chernoff_bound,
            issued: report.issued,
            discarded: report.discarded,
            wall: report.wall,
            fingerprint: format!("{:016x}", report.fingerprint()),
        }
    }
}

/// Runs the statistical campaigns of `repro --smc` at `jobs = 1` and at
/// the scale's worker count: a planted 10% failure rate probed from both
/// directions — `theta = 0.95` (the SPRT must answer *fails* far below
/// the Chernoff budget) and `theta = 0.8` (it must answer *holds*). The
/// serial and parallel fingerprints of each query must be identical —
/// `repro --smc` enforces this, plus the early-stopping sample saving.
pub fn smc_bench(scale: Scale) -> Vec<SmcBenchRow> {
    use sctc_smc::{run_smc_campaign, SmcQuery, SmcSpec};
    const PLANT_PER_MILLE: u32 = 100;
    let parallel = resolve_jobs(scale.jobs);
    let mut job_counts = vec![1usize];
    if parallel != 1 {
        job_counts.push(parallel);
    }
    let queries = [
        ("fails-direction", SmcQuery::new(0.95, 0.025)),
        ("holds-direction", SmcQuery::new(0.8, 0.05)),
    ];
    let mut rows = Vec::new();
    for (label, query) in queries {
        for &jobs in &job_counts {
            let spec = SmcSpec::planted_torn(FlowKind::Derived, PLANT_PER_MILLE, scale.seed)
                .with_query(query)
                .with_jobs(jobs);
            let report = run_smc_campaign(&spec);
            rows.push(SmcBenchRow::from_report(label, &report));
        }
    }
    rows
}

/// Renders SMC bench rows as the `BENCH_smc.json` document.
pub fn render_smc_bench_json(rows: &[SmcBenchRow]) -> String {
    use json::JsonWriter;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("bench-smc/v1");
    w.key("host_parallelism");
    w.number(resolve_jobs(0) as f64);
    w.key("rows");
    w.begin_array();
    for row in rows {
        w.begin_object();
        w.key("label");
        w.string(&row.label);
        w.key("flow");
        w.string(&row.flow);
        w.key("workload");
        w.string(&row.workload);
        w.key("method");
        w.string(&row.method);
        w.key("jobs");
        w.number(row.jobs as f64);
        w.key("theta");
        w.number(row.theta);
        w.key("verdict");
        w.string(&row.verdict);
        w.key("samples");
        w.number(row.samples as f64);
        w.key("successes");
        w.number(row.successes as f64);
        w.key("p_hat");
        w.number(row.p_hat);
        w.key("ci_lo");
        w.number(row.ci.0);
        w.key("ci_hi");
        w.number(row.ci.1);
        w.key("chernoff_bound");
        w.number(row.chernoff_bound as f64);
        w.key("samples_saved");
        w.number(row.chernoff_bound.saturating_sub(row.samples) as f64);
        w.key("issued");
        w.number(row.issued as f64);
        w.key("discarded");
        w.number(row.discarded as f64);
        w.key("wall_s");
        w.number(row.wall.as_secs_f64());
        w.key("report_fingerprint");
        w.string(&row.fingerprint);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// One row of `BENCH_monitoring.json`: one campaign configuration run
/// under both monitoring engines (the change-driven `Compiled` kernel and
/// the `Naive` reference), with per-engine work counters, per-engine
/// min-of-4 walls, and the result-fingerprint comparison.
#[derive(Clone, Debug)]
pub struct MonitorBenchRow {
    /// Campaign family (`"fig8"`, `"tb-sweep"`, `"bounded-response"`,
    /// `"faults"`).
    pub campaign: String,
    /// Configuration label (`"TB-1000"`, `"TB-20000"`, ...).
    pub config: String,
    /// Flow name (`"derived"` or `"micro"`).
    pub flow: String,
    /// Planned case budget.
    pub cases: u64,
    /// Work counters of the change-driven (default) compiled engine.
    pub compiled: MonitorCounters,
    /// Work counters of the naive engine (`atoms_evaluated ==
    /// atoms_total` by construction).
    pub naive: MonitorCounters,
    /// Fastest of four alternating-order repetitions of the compiled run.
    pub compiled_wall: Duration,
    /// Fastest of four alternating-order repetitions of the naive run.
    pub naive_wall: Duration,
    /// Synthesis-cache activity across this row's legs: compiled-kernel
    /// hits/misses and the lowering wall.
    pub cache: CacheStats,
    /// Whether both engines produced the identical result fingerprint.
    /// `repro --monitor-bench` exits non-zero when any row diverges.
    pub fingerprints_equal: bool,
}

/// The fixed engine order of the bench; `walls[i]`/`reports[i]` in
/// [`timed_engines`] line up with this.
const BENCH_ENGINES: [EngineKind; 2] = [EngineKind::Compiled, EngineKind::Naive];

/// Times `run` once per engine per repetition, alternating which engine
/// goes first, and keeps the fastest wall per engine: single-shot timings
/// on a shared machine are ±20% noisy and drift over time, and the
/// minimum over alternated runs is the stable estimator of intrinsic cost
/// (same methodology as [`obs_bench`]).
fn timed_engines<R>(mut run: impl FnMut(EngineKind) -> R) -> ([Duration; 2], [R; 2]) {
    let mut walls = [Duration::MAX; 2];
    let mut reports: [Option<R>; 2] = [None, None];
    for rep in 0..4 {
        for slot in 0..2 {
            let i = (slot + rep) % 2;
            let t0 = std::time::Instant::now();
            let report = run(BENCH_ENGINES[i]);
            walls[i] = walls[i].min(t0.elapsed());
            reports[i] = Some(report);
        }
    }
    (walls, reports.map(|r| r.expect("every engine ran")))
}

fn flow_label(flow: FlowKind) -> &'static str {
    match flow {
        FlowKind::Derived => "derived",
        FlowKind::Microprocessor => "micro",
    }
}

/// Runs every campaign family under both monitoring engines and compares
/// result fingerprints: the fig8 configurations, one tb-sweep row, the
/// 20k-cycle bounded-response property on the microprocessor flow (the
/// stutter-compression stress), and both fault campaigns.
pub fn monitor_bench(scale: Scale) -> Vec<MonitorBenchRow> {
    let jobs = scale.jobs;
    let mut rows = Vec::new();
    let eee_configs: Vec<(&str, &str, CampaignSpec)> = vec![
        (
            "fig8",
            "TB-1000",
            CampaignSpec::derived(scale.derived_cases, scale.seed),
        ),
        (
            "fig8",
            "TB-10000",
            CampaignSpec::derived(scale.derived_cases, scale.seed).with_bound(Some(10_000)),
        ),
        (
            "fig8",
            "no-TB",
            CampaignSpec::micro(scale.micro_cases, scale.seed),
        ),
        (
            "tb-sweep",
            "TB-100",
            CampaignSpec::derived(scale.derived_cases, scale.seed)
                .with_op(Op::Read)
                .with_bound(Some(100)),
        ),
        // The 20,000-cycle bounded-response property samples every clock
        // cycle of the microprocessor flow: the long clean stretches while
        // the software computes are where stutter compression pays.
        (
            "bounded-response",
            "TB-20000",
            CampaignSpec::micro(scale.micro_cases, scale.seed).with_bound(Some(20_000)),
        ),
    ];
    for (campaign, config, spec) in eee_configs {
        // Warm the shared synthesis cache with a single-case run so the
        // timed legs compare monitoring work, not who pays the one-off
        // AR-synthesis and kernel-lowering cache misses.
        let mut warmup = spec.clone().with_jobs(1);
        warmup.cases = 1;
        run_campaign(&warmup);
        let before = SynthesisCache::global().stats();
        let (walls, reports) =
            timed_engines(|engine| run_campaign(&spec.clone().with_engine(engine).with_jobs(jobs)));
        let cache = SynthesisCache::global().stats().since(&before);
        let [compiled, naive] = reports;
        rows.push(MonitorBenchRow {
            campaign: campaign.to_owned(),
            config: config.to_owned(),
            flow: flow_label(spec.flow).to_owned(),
            cases: compiled.total_cases,
            compiled: compiled.monitoring,
            naive: naive.monitoring,
            compiled_wall: walls[0],
            naive_wall: walls[1],
            cache,
            fingerprints_equal: compiled.fingerprint() == naive.fingerprint(),
        });
    }
    for (flow, cases) in [
        ("derived", scale.derived_cases),
        ("micro", scale.micro_cases),
    ] {
        let spec = if flow == "micro" {
            FaultCampaignSpec::micro(cases, scale.seed)
        } else {
            FaultCampaignSpec::derived(cases, scale.seed)
        };
        let mut warmup = spec.clone().with_jobs(1);
        warmup.cases = 1;
        run_fault_campaign(&warmup);
        let before = SynthesisCache::global().stats();
        let (walls, reports) = timed_engines(|engine| {
            run_fault_campaign(&spec.clone().with_engine(engine).with_jobs(jobs))
        });
        let cache = SynthesisCache::global().stats().since(&before);
        let [compiled, naive] = reports;
        rows.push(MonitorBenchRow {
            campaign: "faults".to_owned(),
            config: "inject".to_owned(),
            flow: flow.to_owned(),
            cases,
            compiled: compiled.matrix.monitoring,
            naive: naive.matrix.monitoring,
            compiled_wall: walls[0],
            naive_wall: walls[1],
            cache,
            fingerprints_equal: compiled.matrix.fingerprint() == naive.matrix.fingerprint(),
        });
    }
    rows
}

/// One row of the instruction-decode benchmark: the compiled EEE program
/// driven through a fixed request script on the clocked SoC, once per
/// encoding.
#[derive(Clone, Debug)]
pub struct DecodeBenchRow {
    /// Variant label (`"word32-table"`, `"comp16-table"`).
    pub variant: String,
    /// Instruction-encoding name (`"word32"` / `"comp16"`).
    pub isa: String,
    /// Flash footprint of the encoded program in bytes.
    pub text_bytes: u64,
    /// Processor cycles executed by one scripted run (smaller text, same
    /// cycle count, for comp16).
    pub cycles: u64,
    /// Fastest of four alternating-order repetitions.
    pub wall: Duration,
    /// Cycles per second of the fastest repetition.
    pub cycles_per_sec: f64,
}

/// Runs the compiled EEE program through one fixed request script on the
/// clocked SoC under one encoding, returning the cycle count, the flash
/// footprint, and the per-request observations.
/// (cycles, flash text bytes, per-request `(ret, read_value)` observations).
type DecodeRun = (u64, u64, Vec<(i32, i32)>);

fn run_decode_variant(isa: IsaKind, script: &[(eee::Op, i32, i32)]) -> DecodeRun {
    use eee::driver::MailboxAddrs;
    use eee::{flash_soc, share_flash, DataFlash};
    use minic::codegen::{compile, CodegenOptions};

    let ir = build_ir();
    let compiled = compile(
        &ir,
        CodegenOptions {
            isa,
            ..CodegenOptions::default()
        },
    )
    .expect("EEE compiles");
    let addrs = MailboxAddrs::from_compiled(&compiled);
    let read_value_addr = compiled.global_addr("eee_read_value");
    let text_bytes = compiled.text.len() as u64 * 4;
    let mut soc = flash_soc(&compiled, &share_flash(DataFlash::new()));
    let mut cycles = 0u64;
    let obs = script
        .iter()
        .map(|&(op, arg0, arg1)| {
            soc.mem
                .write_u32(addrs.req_op, op.code() as u32)
                .expect("mailbox in RAM");
            soc.mem
                .write_u32(addrs.req_arg0, arg0 as u32)
                .expect("mailbox in RAM");
            soc.mem
                .write_u32(addrs.req_arg1, arg1 as u32)
                .expect("mailbox in RAM");
            soc.reset_cpu();
            while !soc.cpu.is_halted() {
                assert!(soc.fault.is_none(), "CPU fault in decode bench");
                soc.cycle();
                cycles += 1;
            }
            let peek = |addr: u32| soc.mem.peek_u32(addr).expect("mailbox in RAM") as i32;
            (peek(addrs.eee_last_ret), peek(read_value_addr))
        })
        .collect();
    (cycles, text_bytes, obs)
}

/// Times instruction decode on the clocked microprocessor flow: the
/// table-driven decoder on the 32-bit and the compressed encoding. Walls
/// are min-of-4 with alternating variant order (same methodology as the
/// engine bench). The second return is the cross-variant observation
/// agreement — both runs must serve identical return codes and read
/// values; `repro --monitor-bench` exits non-zero when they diverge.
pub fn decode_bench() -> (Vec<DecodeBenchRow>, bool) {
    use eee::{Op, NUM_IDS};
    let mut script: Vec<(Op, i32, i32)> = vec![
        (Op::Format, 0, 0),
        (Op::Startup1, 0, 0),
        (Op::Startup2, 0, 0),
    ];
    for round in 0..4 {
        for id in 0..NUM_IDS {
            script.push((Op::Write, id, round * 1000 + id));
            script.push((Op::Read, id, 0));
        }
    }
    let variants: [(&str, IsaKind); 2] = [
        ("word32-table", IsaKind::Word32),
        ("comp16-table", IsaKind::Comp16),
    ];
    let mut walls = [Duration::MAX; 2];
    let mut runs: [Option<DecodeRun>; 2] = [None, None];
    for rep in 0..4 {
        for slot in 0..2 {
            let i = (slot + rep) % 2;
            let t0 = std::time::Instant::now();
            let out = run_decode_variant(variants[i].1, &script);
            walls[i] = walls[i].min(t0.elapsed());
            runs[i] = Some(out);
        }
    }
    let runs = runs.map(|r| r.expect("every variant ran"));
    let equal = runs[0].2 == runs[1].2;
    let rows = variants
        .iter()
        .zip(runs.iter().zip(walls))
        .map(
            |(&(variant, isa), (&(cycles, text_bytes, _), wall))| DecodeBenchRow {
                variant: variant.to_owned(),
                isa: isa.name().to_owned(),
                text_bytes,
                cycles,
                wall,
                cycles_per_sec: cycles as f64 / wall.as_secs_f64().max(1e-9),
            },
        )
        .collect();
    (rows, equal)
}

/// Renders monitoring-bench rows as the `BENCH_monitoring.json` document
/// (`bench-monitoring/v4`: per-row change-driven work counters, per-engine
/// `engines.{compiled,naive}` objects with min-of-4 `wall_s` and
/// `steps_compressed`, compiled-kernel cache counters, and a top-level
/// `decode` array with the per-encoding instruction-decode rows).
pub fn render_monitoring_bench_json(
    rows: &[MonitorBenchRow],
    decode: &[DecodeBenchRow],
    decode_equal: bool,
) -> String {
    use json::JsonWriter;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("bench-monitoring/v4");
    w.key("host_parallelism");
    w.number(resolve_jobs(0) as f64);
    w.key("fingerprints_equal");
    w.boolean(rows.iter().all(|r| r.fingerprints_equal));
    w.key("rows");
    w.begin_array();
    for row in rows {
        w.begin_object();
        w.key("campaign");
        w.string(&row.campaign);
        w.key("config");
        w.string(&row.config);
        w.key("flow");
        w.string(&row.flow);
        w.key("cases");
        w.number(row.cases as f64);
        w.key("atoms_evaluated");
        w.number(row.compiled.atoms_evaluated as f64);
        w.key("atoms_total");
        w.number(row.compiled.atoms_total as f64);
        w.key("atoms_evaluated_fraction");
        w.number(if row.compiled.atoms_total == 0 {
            0.0
        } else {
            row.compiled.atoms_evaluated as f64 / row.compiled.atoms_total as f64
        });
        w.key("steps_compressed");
        w.number(row.compiled.steps_compressed as f64);
        w.key("dirty_wakeups");
        w.number(row.compiled.dirty_wakeups as f64);
        w.key("naive_atoms_evaluated");
        w.number(row.naive.atoms_evaluated as f64);
        w.key("engines");
        w.begin_object();
        for (name, counters, wall) in [
            ("compiled", &row.compiled, row.compiled_wall),
            ("naive", &row.naive, row.naive_wall),
        ] {
            w.key(name);
            w.begin_object();
            w.key("wall_s");
            w.number(wall.as_secs_f64());
            w.key("steps_compressed");
            w.number(counters.steps_compressed as f64);
            w.key("dirty_wakeups");
            w.number(counters.dirty_wakeups as f64);
            w.end_object();
        }
        w.end_object();
        w.key("compiled_cache_hits");
        w.number(row.cache.compiled_hits as f64);
        w.key("compiled_cache_misses");
        w.number(row.cache.compiled_misses as f64);
        w.key("compiled_build_wall_s");
        w.number(row.cache.compiled_build_wall.as_secs_f64());
        w.key("naive_over_compiled");
        w.number(row.naive_wall.as_secs_f64() / row.compiled_wall.as_secs_f64().max(1e-9));
        w.key("fingerprints_equal");
        w.boolean(row.fingerprints_equal);
        w.end_object();
    }
    w.end_array();
    w.key("decode_observations_equal");
    w.boolean(decode_equal);
    w.key("decode");
    w.begin_array();
    for row in decode {
        w.begin_object();
        w.key("variant");
        w.string(&row.variant);
        w.key("isa");
        w.string(&row.isa);
        w.key("text_bytes");
        w.number(row.text_bytes as f64);
        w.key("cycles");
        w.number(row.cycles as f64);
        w.key("wall_s");
        w.number(row.wall.as_secs_f64());
        w.key("cycles_per_sec");
        w.number(row.cycles_per_sec);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The observability benchmark: profiler overhead on the standard
/// derived-flow campaign plus one unified metrics-registry snapshot.
#[derive(Clone, Debug)]
pub struct ObsBenchReport {
    /// Planned case budget of the measured campaign.
    pub cases: u64,
    /// Campaign wall with observability fully disabled.
    pub plain_wall: Duration,
    /// Wall of the identical campaign with the span profiler enabled.
    pub profiled_wall: Duration,
    /// `(profiled - plain) / plain` in percent; noise can push it
    /// slightly negative.
    pub overhead_percent: f64,
    /// Merged span profile of the profiled campaign.
    pub spans: sctc_core::SpanStats,
    /// The unified metrics snapshot of the profiled campaign.
    pub metrics: sctc_core::Metrics,
}

/// Measures the span profiler's overhead: the same derived campaign runs
/// once with observability disabled and once with the profiler enabled,
/// and the registry collects every scattered counter of the profiled run
/// into one [`sctc_core::Metrics`] snapshot.
pub fn obs_bench(scale: Scale) -> ObsBenchReport {
    let spec = CampaignSpec::derived(scale.derived_cases, scale.seed);
    // Warm the shared synthesis cache so neither timed run pays the
    // one-off AR-synthesis miss.
    let mut warmup = spec.clone().with_jobs(1);
    warmup.cases = 1;
    run_campaign(&warmup);
    // Interleave plain/profiled repetitions — alternating which goes
    // first — and keep the fastest wall of each: single-shot timings on
    // a shared machine are ±20% noisy and drift over time, and the
    // minimum over alternated runs is the stable estimator of intrinsic
    // cost.
    let mut plain_wall = std::time::Duration::MAX;
    let mut profiled_wall = std::time::Duration::MAX;
    let mut plain = None;
    let mut profiled = None;
    for rep in 0..4 {
        for leg in 0..2 {
            if (rep + leg) % 2 == 0 {
                let t0 = std::time::Instant::now();
                let p = run_campaign(&spec.clone().with_jobs(scale.jobs));
                plain_wall = plain_wall.min(t0.elapsed());
                plain = Some(p);
            } else {
                let t0 = std::time::Instant::now();
                let p = run_campaign(&spec.clone().with_jobs(scale.jobs).with_profile(true));
                profiled_wall = profiled_wall.min(t0.elapsed());
                profiled = Some(p);
            }
        }
    }
    let (plain, profiled) = (plain.expect("ran"), profiled.expect("ran"));
    // Zero-cost-when-disabled is a structural guarantee, not a hope.
    assert!(
        plain.spans.is_empty(),
        "unprofiled campaign must not collect spans"
    );
    assert_eq!(
        plain.fingerprint(),
        profiled.fingerprint(),
        "profiling must not change what the campaign finds"
    );
    let overhead_percent = 100.0 * (profiled_wall.as_secs_f64() - plain_wall.as_secs_f64())
        / plain_wall.as_secs_f64().max(1e-9);

    let mut metrics = sctc_core::Metrics::new();
    profiled.monitoring.record(&mut metrics);
    metrics.counter_add("campaign.test_cases", profiled.test_cases);
    metrics.counter_add("campaign.samples", profiled.samples);
    metrics.counter_add("campaign.sim_ticks", profiled.sim_ticks);
    metrics.counter_add("kernel.resumes", profiled.kernel.resumes);
    metrics.counter_add("kernel.delta_cycles", profiled.kernel.delta_cycles);
    metrics.counter_add("synthesis.cache_hits", profiled.cache.hits);
    metrics.counter_add("synthesis.cache_misses", profiled.cache.misses);
    metrics.gauge_set("coverage.overall_percent", profiled.overall_coverage);
    for (path, entry) in profiled.spans.iter() {
        metrics.counter_add(&format!("span.{path}.count"), entry.count);
        metrics.gauge_set(&format!("span.{path}.wall_s"), entry.wall.as_secs_f64());
    }
    ObsBenchReport {
        cases: profiled.total_cases,
        plain_wall,
        profiled_wall,
        overhead_percent,
        spans: profiled.spans,
        metrics,
    }
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

/// Runs the torn-write power-loss scenario with the diagnosis layer on,
/// under both flows, and validates the full witness/VCD contract.
pub fn witness_demo(profile: bool) -> Vec<WitnessDemo> {
    use faults::scenario::{run_scenario_observed, ScenarioObs};
    use faults::EswProgram;
    use sctc_core::{VcdDoc, VcdValue, WitnessConfig};
    use sctc_temporal::{TableMonitor, Verdict};

    let obs = ScenarioObs {
        witnesses: Some(WitnessConfig::default()),
        vcd: true,
        profile,
        ..ScenarioObs::default()
    };
    let flows: [(FlowKind, &str, u64, &str); 2] = [
        (FlowKind::Derived, "derived", 5_000, "eee_read_value"),
        (FlowKind::Microprocessor, "micro", 200_000, "eee_read_value write"),
    ];
    flows
        .into_iter()
        .map(|(flow, name, bound, source_marker)| {
            let (outcome, report) = run_scenario_observed(flow, EswProgram::TornWrite, bound, obs);
            let violated = outcome.verdict_of("intact") == Verdict::False;
            let witness = report.witnesses.iter().find(|w| w.property == "intact");
            let (decided_at, replay_ok, provenance_ok, witness_report) = match witness {
                Some(w) => {
                    let mut fresh = TableMonitor::new(&faults::intact_property())
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

/// Renders the observability benchmark and the witness-demo verdicts as
/// the `BENCH_obs.json` document.
pub fn render_obs_json(report: &ObsBenchReport, demos: &[WitnessDemo]) -> String {
    use json::JsonWriter;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("bench-obs/v1");
    w.key("host_parallelism");
    w.number(resolve_jobs(0) as f64);
    w.key("profiler_overhead");
    w.begin_object();
    w.key("cases");
    w.number(report.cases as f64);
    w.key("plain_wall_s");
    w.number(report.plain_wall.as_secs_f64());
    w.key("profiled_wall_s");
    w.number(report.profiled_wall.as_secs_f64());
    w.key("overhead_percent");
    w.number(report.overhead_percent);
    w.end_object();
    w.key("spans");
    w.begin_array();
    for (path, entry) in report.spans.iter() {
        w.begin_object();
        w.key("path");
        w.string(path);
        w.key("count");
        w.number(entry.count as f64);
        w.key("wall_s");
        w.number(entry.wall.as_secs_f64());
        w.end_object();
    }
    w.end_array();
    w.key("metrics");
    w.begin_array();
    for (name, value) in report.metrics.iter() {
        w.begin_object();
        w.key("name");
        w.string(name);
        match value {
            sctc_core::MetricValue::Counter(n) => {
                w.key("type");
                w.string("counter");
                w.key("value");
                w.number(n as f64);
            }
            sctc_core::MetricValue::Gauge(v) => {
                w.key("type");
                w.string("gauge");
                w.key("value");
                w.number(v);
            }
            sctc_core::MetricValue::Histogram(h) => {
                w.key("type");
                w.string("histogram");
                w.key("count");
                w.number(h.count as f64);
                w.key("sum");
                w.number(h.sum);
                w.key("min");
                w.number(h.min);
                w.key("max");
                w.number(h.max);
            }
        }
        w.end_object();
    }
    w.end_array();
    w.key("witness_demo");
    w.begin_array();
    for demo in demos {
        w.begin_object();
        w.key("flow");
        w.string(&demo.flow);
        w.key("violated");
        w.boolean(demo.violated);
        w.key("decided_at");
        w.number(demo.decided_at as f64);
        w.key("replay_ok");
        w.boolean(demo.replay_ok);
        w.key("vcd_ok");
        w.boolean(demo.vcd_ok);
        w.key("provenance_ok");
        w.boolean(demo.provenance_ok);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
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

/// Measures the trace plane's overhead and proves its zero-cost
/// discipline: fingerprints must be bit-identical with telemetry on and
/// off, for the campaign under test **and** for quick fault-injection
/// and SMC runs (the other two instrumented paths).
///
/// Methodology matches [`obs_bench`], with more repetitions: a
/// full-size untimed warmup, then ten interleaved off/on repetitions —
/// alternating which goes first — keeping the fastest wall of each.
/// The measured delta is sub-percent, far below the run-to-run wall
/// variance of a noisy shared machine, so only a deep min-of converges
/// both legs to their floor.
///
/// # Panics
///
/// Panics if any on/off fingerprint pair diverges — that would mean
/// telemetry feeds back into verification.
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

    // The other two instrumented paths get the same on/off treatment at
    // smoke scale: fault-injection matrices and SMC verdict streams.
    let faults_spec = FaultCampaignSpec::derived(24, scale.seed)
        .with_chunk(8)
        .with_fault_percent(50)
        .with_jobs(2);
    trace::set_enabled(false);
    let faults_off = run_fault_campaign(&faults_spec).matrix.fingerprint();
    trace::set_enabled(true);
    let faults_on = run_fault_campaign(&faults_spec).matrix.fingerprint();
    assert_eq!(
        faults_off, faults_on,
        "telemetry must not change fault-injection results"
    );
    let smc_spec = sctc_smc::SmcSpec::planted_torn(FlowKind::Derived, 200, scale.seed)
        .with_max_samples(60)
        .with_jobs(2);
    trace::set_enabled(false);
    let smc_off = sctc_smc::run_smc_campaign(&smc_spec);
    trace::set_enabled(true);
    let smc_on = sctc_smc::run_smc_campaign(&smc_spec);
    assert_eq!(
        (smc_off.fingerprint(), smc_off.verdict, smc_off.samples),
        (smc_on.fingerprint(), smc_on.verdict, smc_on.samples),
        "telemetry must not change SMC results"
    );

    let overhead_percent = 100.0 * (on_wall.as_secs_f64() - off_wall.as_secs_f64())
        / off_wall.as_secs_f64().max(1e-9);
    TelemetryBenchReport {
        cases: on.total_cases,
        off_wall,
        on_wall,
        overhead_percent,
        events,
    }
}

/// Renders the telemetry-overhead benchmark as the
/// `BENCH_telemetry.json` document.
pub fn render_telemetry_json(report: &TelemetryBenchReport) -> String {
    use json::JsonWriter;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("bench-telemetry/v1");
    w.key("host_parallelism");
    w.number(resolve_jobs(0) as f64);
    w.key("cases");
    w.number(report.cases as f64);
    w.key("off_wall_s");
    w.number(report.off_wall.as_secs_f64());
    w.key("on_wall_s");
    w.number(report.on_wall.as_secs_f64());
    w.key("overhead_percent");
    w.number(report.overhead_percent);
    w.key("events_recorded");
    w.number(report.events.len() as f64);
    w.key("stages");
    w.begin_array();
    {
        let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for event in &report.events {
            *counts.entry(event.stage).or_default() += 1;
        }
        for (stage, count) in counts {
            w.begin_object();
            w.key("stage");
            w.string(stage);
            w.key("count");
            w.number(count as f64);
            w.end_object();
        }
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Renders a flight-recorder log in the chrome://tracing JSON object
/// format (load the file via `chrome://tracing` or Perfetto): one
/// instant event per [`sctc_core::TraceEvent`], with the trace/span ids
/// and numeric fields under `args`.
pub fn render_chrome_trace(events: &[sctc_core::TraceEvent]) -> String {
    use json::JsonWriter;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for event in events {
        w.begin_object();
        w.key("name");
        w.string(event.stage);
        w.key("cat");
        w.string("sctc");
        w.key("ph");
        w.string("i");
        w.key("ts");
        w.number(event.t_us as f64);
        w.key("pid");
        w.number(1.0);
        w.key("tid");
        w.number(event.tid as f64);
        w.key("s");
        w.string("t");
        w.key("args");
        w.begin_object();
        w.key("trace");
        w.number(event.trace_id as f64);
        w.key("span");
        w.number(event.span_id as f64);
        w.key("parent");
        w.number(event.parent as f64);
        for (key, value) in &event.fields {
            w.key(key);
            w.number(*value as f64);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.key("displayTimeUnit");
    w.string("ms");
    w.end_object();
    w.finish()
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
    /// that field set, spelled as the pretty-printing [`json::JsonWriter`]
    /// writes it (`"key": value`).
    #[test]
    fn chrome_trace_export_matches_the_tracing_field_set() {
        let events = vec![
            sctc_core::TraceEvent {
                trace_id: 7,
                span_id: 1,
                parent: 0,
                stage: "job.admit",
                t_us: 10,
                tid: 1,
                fields: vec![("job", 3)],
            },
            sctc_core::TraceEvent {
                trace_id: 7,
                span_id: 2,
                parent: 1,
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
            "\"parent\": 1",
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

    #[test]
    fn telemetry_json_carries_the_headline_numbers() {
        let report = TelemetryBenchReport {
            cases: 400,
            off_wall: Duration::from_micros(900),
            on_wall: Duration::from_micros(910),
            overhead_percent: 1.11,
            events: vec![sctc_core::TraceEvent {
                trace_id: 1,
                span_id: 1,
                parent: 0,
                stage: "shard.done",
                t_us: 5,
                tid: 1,
                fields: vec![],
            }],
        };
        let rendered = render_telemetry_json(&report);
        for required in [
            "\"schema\": \"bench-telemetry/v1\"",
            "\"overhead_percent\": 1.11",
            "\"events_recorded\": 1",
            "\"stage\": \"shard.done\"",
        ] {
            assert!(rendered.contains(required), "missing {required}: {rendered}");
        }
    }
}
