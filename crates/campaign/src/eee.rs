//! Campaign front-end for the EEPROM-emulation case study.
//!
//! Bundles the repo's headline experiment — constrained-random EEE
//! verification under either flow — into a [`CampaignSpec`] and fans it out
//! over the worker pool. Each shard is an independent verification session:
//! fresh flash, fresh flow, its own derived stimulus seed, and the standard
//! Format/Startup1/Startup2 preamble, exactly like the per-machine runs of
//! distributed statistical model checking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use eee::{run_derived_with_ops, run_micro_with_ops, ExperimentConfig, Op};
use sctc_core::{trace, EngineKind};
use sctc_cpu::IsaKind;
use sctc_temporal::SynthesisCache;

use crate::report::{CampaignReport, ShardOutcome};
use crate::runner::run_shards;
use crate::shard::{default_chunk, shard_plan};

/// Which verification flow the campaign runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FlowKind {
    /// Approach 1: compiled ESW on the clocked microprocessor model.
    Microprocessor,
    /// Approach 2: the derived (statement-stepped) software model.
    Derived,
}

/// Specification of one verification campaign.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// The flow to run.
    pub flow: FlowKind,
    /// Operations whose response properties are registered (each shard
    /// registers all of them).
    pub ops: Vec<Op>,
    /// Time bound of the properties (`None` = pure LTL).
    pub bound: Option<u64>,
    /// Total test cases across all shards.
    pub cases: u64,
    /// Campaign seed; shard seeds are derived from it.
    pub seed: u64,
    /// Worker threads (`0` = all available cores).
    pub jobs: usize,
    /// Cases per shard (`0` = [`default_chunk`]). Must not vary with the
    /// worker count if results are to be comparable across machines.
    pub chunk: u64,
    /// Flash-fault injection probability per case, in percent.
    pub fault_percent: u32,
    /// Monitoring engine.
    pub engine: EngineKind,
    /// Instruction encoding of the microprocessor flow (ignored by the
    /// derived flow). Verdicts, coverage and fingerprints are
    /// encoding-independent; only cycle counts differ.
    pub isa: IsaKind,
    /// Simulation-tick budget **per shard**.
    pub max_ticks: u64,
    /// Enables the span profiler in every shard; the per-phase timings are
    /// merged into [`CampaignReport::spans`], outside the fingerprint.
    pub profile: bool,
}

impl CampaignSpec {
    /// A derived-model campaign with the defaults of
    /// [`ExperimentConfig`] (all ops, TB-1000, 10% faults, compiled engine).
    pub fn derived(cases: u64, seed: u64) -> Self {
        CampaignSpec {
            flow: FlowKind::Derived,
            ops: Op::ALL.to_vec(),
            bound: Some(1000),
            cases,
            seed,
            jobs: 0,
            chunk: 0,
            fault_percent: 10,
            engine: EngineKind::Compiled,
            isa: IsaKind::Word32,
            max_ticks: u64::MAX / 2,
            profile: false,
        }
    }

    /// A microprocessor-flow campaign (approach 1); unbounded properties,
    /// as in the paper's first-approach column.
    pub fn micro(cases: u64, seed: u64) -> Self {
        CampaignSpec {
            flow: FlowKind::Microprocessor,
            bound: None,
            ..CampaignSpec::derived(cases, seed)
        }
    }

    /// Restricts the property set to a single operation.
    pub fn with_op(mut self, op: Op) -> Self {
        self.ops = vec![op];
        self
    }

    /// Sets the time bound.
    pub fn with_bound(mut self, bound: Option<u64>) -> Self {
        self.bound = bound;
        self
    }

    /// Sets the worker count (`0` = all available cores).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the shard chunk size (`0` = [`default_chunk`]).
    pub fn with_chunk(mut self, chunk: u64) -> Self {
        self.chunk = chunk;
        self
    }

    /// Sets the monitoring engine. The default ([`EngineKind::Compiled`])
    /// is the change-driven pipeline; [`EngineKind::Naive`] re-evaluates every
    /// proposition on every sample. Campaign fingerprints are engine-
    /// independent by construction.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Enables (or disables) the span profiler in every shard.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Selects the microprocessor flow's instruction encoding.
    pub fn with_isa(mut self, isa: IsaKind) -> Self {
        self.isa = isa;
        self
    }
}

/// Resolves a `--jobs` value: `0` means every available core.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Runs a campaign: plans the shards, fans them out over the worker pool,
/// and merges the per-shard outcomes.
///
/// The merged verdicts, coverage and case counts depend only on
/// `(cases, chunk, seed)` — never on `jobs` — because the shard plan is
/// fixed up front and every shard is self-contained.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    let jobs = resolve_jobs(spec.jobs);
    let chunk = if spec.chunk > 0 {
        spec.chunk
    } else {
        default_chunk(spec.cases)
    };
    let plan = shard_plan(spec.cases, chunk, spec.seed);
    let cache_before = SynthesisCache::global().stats();
    // Telemetry: shard closures run on worker threads; hand them the
    // submitting thread's trace id so their events correlate with
    // the enclosing (server) job. Progress is shards merged vs planned.
    let trace_id = trace::current();
    let shards_done = AtomicU64::new(0);
    let total_shards = plan.len() as u64;
    let t0 = Instant::now();
    let outcomes = run_shards(&plan, jobs, |shard| {
        let _trace = trace::adopt(trace_id);
        trace::emit(
            "shard.dispatch",
            &[("shard", shard.index), ("cases", shard.cases)],
        );
        let shard_t0 = Instant::now();
        let config = ExperimentConfig {
            seed: shard.seed,
            cases: shard.cases,
            bound: spec.bound,
            fault_percent: spec.fault_percent,
            engine: spec.engine,
            isa: spec.isa,
            max_ticks: spec.max_ticks,
            profile: spec.profile,
        };
        let outcome = match spec.flow {
            FlowKind::Derived => run_derived_with_ops(config, &spec.ops),
            FlowKind::Microprocessor => run_micro_with_ops(config, &spec.ops),
        };
        let wall = shard_t0.elapsed();
        let done = shards_done.fetch_add(1, Ordering::Relaxed) + 1;
        trace::emit(
            "shard.done",
            &[
                ("shard", shard.index),
                ("cases", shard.cases),
                ("wall_us", wall.as_micros() as u64),
            ],
        );
        trace::progress(done, total_shards);
        ShardOutcome {
            spec: *shard,
            outcome,
            wall,
        }
    });
    let wall = t0.elapsed();
    let cache = SynthesisCache::global().stats().since(&cache_before);
    CampaignReport::merge(jobs, spec.cases, outcomes, wall, cache)
}
