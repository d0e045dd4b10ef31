//! Job specifications, execution, and content-addressed digests.
//!
//! A [`JobSpec`] is the *content* of a verification request: everything
//! that determines the result bits, and nothing that doesn't. Scheduling
//! knobs — worker count, deadline — live in [`JobOptions`], outside the
//! cache key, because the determinism suites prove the fingerprints are
//! identical for any `--jobs`. Jobs run on the default (compiled)
//! monitoring engine; the equivalence suites prove results
//! engine-independent, so the spec carries no engine choice.

use std::time::Duration;

use faults::scenario::{run_scenario_observed, ScenarioObs};
use faults::{run_fault_campaign, EswProgram, FaultCampaignSpec};
use sctc_campaign::{lease_workers, run_campaign, CampaignFingerprint, CampaignSpec, FlowKind};
use sctc_core::{EngineKind, WitnessConfig};
use sctc_cpu::IsaKind;
use sctc_smc::{run_smc_campaign, SmcMethod, SmcQuery, SmcSpec, SmcVerdict, SmcWorkload};
use sctc_temporal::{fnv1a64, CacheWeight};

use crate::protocol::encode_spec;

/// A verification campaign job (PR 2 shape): response properties over
/// constrained-random stimuli.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignJob {
    /// Flow under test.
    pub flow: FlowKind,
    /// Operations whose response properties are monitored.
    pub ops: Vec<eee::Op>,
    /// Time bound of the response properties.
    pub bound: Option<u64>,
    /// Total test cases.
    pub cases: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Cases per shard (`0` = default chunk). Part of the content: the
    /// shard plan shapes `CampaignFingerprint::shard_cases`.
    pub chunk: u64,
    /// Per-case fault probability, percent.
    pub fault_percent: u32,
    /// Instruction encoding of the microprocessor flow. Part of the
    /// content key: the server must execute the encoding that was asked
    /// for, even though verdicts and fingerprints are encoding-independent.
    pub isa: IsaKind,
}

/// A fault-injection campaign job (PR 3 shape): detection matrix over a
/// seeded fault plan.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultsJob {
    /// Flow under test.
    pub flow: FlowKind,
    /// Total test cases.
    pub cases: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Cases per shard (`0` = default chunk).
    pub chunk: u64,
    /// Per-case fault probability, percent.
    pub fault_percent: u32,
    /// Recovery-property bound, in samples.
    pub recovery_bound: u64,
}

/// A statistical model checking job (PR 6 shape): `P(G intact) >= θ?`.
#[derive(Clone, Debug, PartialEq)]
pub struct SmcJob {
    /// Flow producing the samples.
    pub flow: FlowKind,
    /// Bernoulli sample source.
    pub workload: SmcWorkload,
    /// The hypothesis-test query.
    pub query: SmcQuery,
    /// Estimation method.
    pub method: SmcMethod,
    /// Campaign seed.
    pub seed: u64,
    /// Sample budget cap (`0` = the Chernoff bound).
    pub max_samples: u64,
    /// Recovery-property bound, in samples.
    pub recovery_bound: u64,
}

/// A single power-loss scenario job (PR 5 shape) with the diagnosis layer
/// switched on: streams witnesses and a VCD back to the client.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioJob {
    /// Flow under test.
    pub flow: FlowKind,
    /// The ESW build: healthy or the torn-write mutant.
    pub program: EswProgram,
    /// Recovery-property bound, in samples.
    pub recovery_bound: u64,
    /// Capture per-property counterexample witnesses.
    pub want_witness: bool,
    /// Capture the property-timeline VCD.
    pub want_vcd: bool,
}

/// One job as submitted over the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// Verification campaign.
    Campaign(CampaignJob),
    /// Fault-injection campaign.
    Faults(FaultsJob),
    /// Statistical model checking query.
    Smc(SmcJob),
    /// Observed power-loss scenario.
    Scenario(ScenarioJob),
}

impl JobSpec {
    /// The content-addressed cache key: the spec's own wire encoding.
    /// Keys are the map keys themselves (not a hash of them), so distinct
    /// jobs can never collide.
    pub fn content_key(&self) -> Vec<u8> {
        encode_spec(self)
    }

    /// Short kind label for metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Campaign(_) => "campaign",
            JobSpec::Faults(_) => "faults",
            JobSpec::Smc(_) => "smc",
            JobSpec::Scenario(_) => "scenario",
        }
    }

    /// A small derived-flow campaign — the workhorse of tests and the
    /// load generator.
    pub fn small_campaign(cases: u64, seed: u64) -> JobSpec {
        JobSpec::Campaign(CampaignJob {
            flow: FlowKind::Derived,
            ops: eee::Op::ALL.to_vec(),
            bound: Some(1000),
            cases,
            seed,
            chunk: 0,
            fault_percent: 10,
            isa: IsaKind::Word32,
        })
    }

    /// A small derived-flow fault campaign.
    pub fn small_faults(cases: u64, seed: u64) -> JobSpec {
        JobSpec::Faults(FaultsJob {
            flow: FlowKind::Derived,
            cases,
            seed,
            chunk: 0,
            fault_percent: 35,
            recovery_bound: 5_000,
        })
    }

    /// The planted-torn SPRT query (the PR 6 oracle workload).
    pub fn planted_smc(fail_per_mille: u32, seed: u64) -> JobSpec {
        JobSpec::Smc(SmcJob {
            flow: FlowKind::Derived,
            workload: SmcWorkload::PlantedTorn { fail_per_mille },
            query: SmcQuery::new(0.95, 0.025),
            method: SmcMethod::Sprt,
            seed,
            max_samples: 0,
            recovery_bound: 5_000,
        })
    }

    /// An observed healthy power-loss scenario streaming witnesses + VCD.
    pub fn observed_scenario(program: EswProgram) -> JobSpec {
        JobSpec::Scenario(ScenarioJob {
            flow: FlowKind::Derived,
            program,
            recovery_bound: 5_000,
            want_witness: true,
            want_vcd: true,
        })
    }
}

/// Scheduling knobs — deliberately **outside** the cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct JobOptions {
    /// Per-job deadline in milliseconds; `0` means the server default.
    pub deadline_ms: u64,
    /// Worker threads (`0` = all cores); clipped by the process-wide
    /// worker lease.
    pub jobs: usize,
}

/// The deterministic fingerprint of a finished job — the equivalence
/// object the acceptance criteria compare against in-process runs.
#[derive(Clone, Debug, PartialEq)]
pub enum JobDigest {
    /// Full structural campaign fingerprint.
    Campaign(CampaignFingerprint),
    /// Detection-matrix fingerprint (FNV-1a over the canonical grid).
    Faults {
        /// `DetectionMatrix::fingerprint()`.
        fingerprint: u64,
    },
    /// SMC verdict + statistics + report fingerprint.
    Smc {
        /// `SmcReport::fingerprint()`.
        fingerprint: u64,
        /// The campaign's answer.
        verdict: SmcVerdict,
        /// Accepted samples.
        samples: u64,
        /// Successes among them.
        successes: u64,
    },
    /// Scenario verdicts hashed with the observation trace.
    Scenario {
        /// FNV-1a over the canonical scenario rendering.
        fingerprint: u64,
        /// `(property, verdict)` pairs, registration order.
        properties: Vec<(String, sctc_temporal::Verdict)>,
    },
}

/// Everything a finished job sends back (and everything the result cache
/// stores).
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The deterministic fingerprint.
    pub digest: JobDigest,
    /// Human-readable report table (walls vary run to run — display only).
    pub table: String,
    /// `(property, rendered witness)` pairs, scenario jobs only.
    pub witnesses: Vec<(String, String)>,
    /// Rendered VCD document, scenario jobs only.
    pub vcd: Option<String>,
    /// Wall-clock of the producing run (a cache hit reports the *cold*
    /// run's wall — display only).
    pub wall: Duration,
}

impl CacheWeight for JobOutput {
    fn weight(&self) -> usize {
        let strings: usize = self.table.len()
            + self
                .witnesses
                .iter()
                .map(|(p, w)| p.len() + w.len())
                .sum::<usize>()
            + self.vcd.as_ref().map_or(0, String::len);
        // Fixed overhead approximates the digest + struct headers.
        strings + 256
    }
}

/// Canonical rendering of a scenario outcome — the input of the scenario
/// fingerprint. Walls and scheduling artefacts never appear.
fn scenario_canonical(outcome: &faults::scenario::ScenarioOutcome) -> String {
    let mut out = String::new();
    for (name, verdict) in &outcome.properties {
        out.push_str(&format!("property {name} {verdict:?}\n"));
    }
    for record in &outcome.records {
        out.push_str(&format!("record {record:?}\n"));
    }
    for (request, ret, value) in &outcome.observations {
        out.push_str(&format!("obs {request:?} ret={ret} val={value}\n"));
    }
    out
}

/// Runs one job to completion on the calling thread. Worker threads are
/// drawn from the process-wide lease so concurrent server jobs degrade to
/// fewer workers each instead of oversubscribing the host.
pub fn run_job(spec: &JobSpec, options: &JobOptions) -> JobOutput {
    let lease = lease_workers(options.jobs);
    let jobs = lease.workers();
    match spec {
        JobSpec::Campaign(j) => {
            let mut campaign = CampaignSpec::derived(j.cases, j.seed);
            campaign.flow = j.flow;
            campaign.ops = j.ops.clone();
            campaign.bound = j.bound;
            campaign.chunk = j.chunk;
            campaign.fault_percent = j.fault_percent;
            campaign.isa = j.isa;
            campaign.jobs = jobs;
            let report = run_campaign(&campaign);
            JobOutput {
                digest: JobDigest::Campaign(report.fingerprint()),
                table: report.to_table(),
                witnesses: Vec::new(),
                vcd: None,
                wall: report.wall,
            }
        }
        JobSpec::Faults(j) => {
            let mut campaign = FaultCampaignSpec::derived(j.cases, j.seed);
            campaign.flow = j.flow;
            campaign.chunk = j.chunk;
            campaign.fault_percent = j.fault_percent;
            campaign.recovery_bound = j.recovery_bound;
            campaign.jobs = jobs;
            let report = run_fault_campaign(&campaign);
            JobOutput {
                digest: JobDigest::Faults {
                    fingerprint: report.matrix.fingerprint(),
                },
                table: report.matrix.to_table(),
                witnesses: Vec::new(),
                vcd: None,
                wall: report.wall,
            }
        }
        JobSpec::Smc(j) => {
            let spec = SmcSpec {
                flow: j.flow,
                workload: j.workload,
                query: j.query,
                method: j.method,
                seed: j.seed,
                jobs,
                max_samples: j.max_samples,
                recovery_bound: j.recovery_bound,
                engine: EngineKind::Compiled,
                max_ticks: u64::MAX / 2,
                profile: false,
            };
            let report = run_smc_campaign(&spec);
            JobOutput {
                digest: JobDigest::Smc {
                    fingerprint: report.fingerprint(),
                    verdict: report.verdict,
                    samples: report.samples,
                    successes: report.successes,
                },
                table: report.to_table(),
                witnesses: Vec::new(),
                vcd: None,
                wall: report.wall,
            }
        }
        JobSpec::Scenario(j) => {
            let obs = ScenarioObs {
                witnesses: j.want_witness.then(|| WitnessConfig {
                    capture_true: true,
                    ..WitnessConfig::default()
                }),
                vcd: j.want_vcd,
                ..ScenarioObs::default()
            };
            let started = std::time::Instant::now();
            let (outcome, report) = run_scenario_observed(j.flow, j.program, j.recovery_bound, obs);
            JobOutput {
                digest: JobDigest::Scenario {
                    fingerprint: fnv1a64(scenario_canonical(&outcome).as_bytes()),
                    properties: outcome.properties.clone(),
                },
                table: scenario_canonical(&outcome),
                witnesses: report
                    .witnesses
                    .iter()
                    .map(|w| (w.property.clone(), w.to_report()))
                    .collect(),
                vcd: report.vcd.as_ref().map(sctc_core::VcdDoc::render),
                wall: started.elapsed(),
            }
        }
    }
}
