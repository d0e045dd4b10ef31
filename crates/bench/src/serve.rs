//! The sustained-load scenario behind `repro --serve-bench`: closed-loop
//! clients over loopback against a live [`sctc_server`] instance.
//!
//! The workload is deliberately repeat-heavy — the millions-of-users
//! shape from the ROADMAP: a small set of distinct jobs drawn with
//! replacement by several concurrent clients, so most submissions are
//! result-cache hits or single-flight joins. Every fetched digest is
//! checked against the same job run in-process; a divergence is a hard
//! failure of the run.
//!
//! Caveat for the latency split: pre-computing the expected digests runs
//! every job once in-process first, which warms the process-wide
//! synthesis cache. Cold server runs therefore skip AR synthesis and are
//! *faster* than a true first-contact run — which biases the cold/hit
//! ratio **down**, making the ≥ 10× cache-hit guarantee conservative.

use std::time::{Duration, Instant};

use sctc_campaign::resolve_jobs;
use sctc_server::job::run_job;
use sctc_server::{
    spawn, Client, JobDigest, JobOptions, JobOutcome, JobSpec, Served, ServerConfig,
};

use crate::Scale;

/// One submission's measurement.
#[derive(Clone, Debug)]
struct Sample {
    latency: Duration,
    served: Served,
    diverged: bool,
}

/// Aggregated results of the sustained-load run.
#[derive(Clone, Debug)]
pub struct ServerBenchReport {
    /// Closed-loop client connections.
    pub clients: usize,
    /// Distinct job specs in the draw pool.
    pub distinct_jobs: usize,
    /// Total submissions completed.
    pub jobs_done: u64,
    /// Submissions served cold (led a flight).
    pub colds: u64,
    /// Submissions served from the finished cache.
    pub hits: u64,
    /// Submissions that joined an in-flight identical job.
    pub coalesced: u64,
    /// Digest mismatches against the in-process runs (must be 0).
    pub divergences: u64,
    /// `hits / jobs_done` — the repeat-traffic payoff.
    pub hit_rate: f64,
    /// Whole-run throughput.
    pub jobs_per_sec: f64,
    /// Wall clock of the whole campaign.
    pub wall: Duration,
    /// Latency percentiles over all submissions.
    pub p50: Duration,
    /// 99th percentile (worst-case tail: a cold run).
    pub p99: Duration,
    /// Median latency of cold submissions.
    pub cold_median: Duration,
    /// Median latency of cache-hit submissions.
    pub hit_median: Duration,
    /// `cold_median / hit_median` — the acceptance gate is ≥ 10.
    pub speedup: f64,
    /// The server's own counter snapshot at the end of the run.
    pub stats: Vec<(String, u64)>,
}

fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * pct / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn median(mut values: Vec<Duration>) -> Duration {
    if values.is_empty() {
        return Duration::ZERO;
    }
    values.sort();
    values[values.len() / 2]
}

/// The draw pool: a few campaigns, fault campaigns, and SMC queries —
/// every job kind the server accepts, scaled off the bench `Scale`.
fn job_pool(scale: Scale) -> Vec<JobSpec> {
    let campaign_cases = (scale.derived_cases / 4).max(20);
    let faults_cases = (scale.derived_cases / 8).max(10);
    let mut pool = Vec::new();
    for i in 0..4 {
        pool.push(JobSpec::small_campaign(campaign_cases, scale.seed + i));
    }
    for i in 0..2 {
        pool.push(JobSpec::small_faults(faults_cases, scale.seed + 10 + i));
    }
    pool.push(JobSpec::planted_smc(100, scale.seed));
    pool.push(JobSpec::planted_smc(20, scale.seed + 1));
    pool
}

/// Runs the sustained-load scenario: spawn a loopback server, pre-compute
/// the expected digest of every pool job in-process, then hammer the
/// server with `clients` closed-loop connections drawing jobs with
/// replacement, and verify every digest on the way back.
pub fn serve_bench(scale: Scale) -> ServerBenchReport {
    const CLIENTS: usize = 4;
    const SUBMISSIONS_PER_CLIENT: u64 = 14;

    let pool = job_pool(scale);
    let expected: Vec<JobDigest> = pool
        .iter()
        .map(|spec| run_job(spec, &JobOptions::default()).digest)
        .collect();

    let mut server = spawn(ServerConfig::default()).expect("bind loopback server");
    let addr = server.addr();
    let options = JobOptions {
        deadline_ms: 0,
        jobs: resolve_jobs(scale.jobs),
    };

    let started = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_index| {
            let pool = pool.clone();
            let expected = expected.clone();
            let seed = scale.seed ^ (0xC11E_0000 + client_index as u64);
            std::thread::spawn(move || {
                let mut rng = testkit::Rng::new(seed);
                let mut client = Client::connect(addr).expect("connect load client");
                let mut samples = Vec::new();
                for _ in 0..SUBMISSIONS_PER_CLIENT {
                    let pick = rng.below(pool.len() as u64) as usize;
                    let begun = Instant::now();
                    let outcome = client
                        .submit(&pool[pick], &options)
                        .expect("submit load job");
                    let latency = begun.elapsed();
                    match outcome {
                        JobOutcome::Done { served, digest, .. } => samples.push(Sample {
                            latency,
                            served,
                            diverged: digest != expected[pick],
                        }),
                        other => panic!("load job did not finish: {other:?}"),
                    }
                }
                samples
            })
        })
        .collect();

    let mut samples: Vec<Sample> = Vec::new();
    for worker in workers {
        samples.extend(worker.join().expect("load client thread"));
    }
    let wall = started.elapsed();

    let stats = server.stats();
    server.shutdown();

    let jobs_done = samples.len() as u64;
    let colds = samples.iter().filter(|s| s.served == Served::Cold).count() as u64;
    let hits = samples.iter().filter(|s| s.served == Served::Hit).count() as u64;
    let coalesced = samples
        .iter()
        .filter(|s| s.served == Served::Coalesced)
        .count() as u64;
    let divergences = samples.iter().filter(|s| s.diverged).count() as u64;

    let mut all: Vec<Duration> = samples.iter().map(|s| s.latency).collect();
    all.sort();
    let cold_median = median(
        samples
            .iter()
            .filter(|s| s.served == Served::Cold)
            .map(|s| s.latency)
            .collect(),
    );
    let hit_median = median(
        samples
            .iter()
            .filter(|s| s.served == Served::Hit)
            .map(|s| s.latency)
            .collect(),
    );
    let speedup = if hit_median > Duration::ZERO {
        cold_median.as_secs_f64() / hit_median.as_secs_f64()
    } else {
        0.0
    };

    ServerBenchReport {
        clients: CLIENTS,
        distinct_jobs: pool.len(),
        jobs_done,
        colds,
        hits,
        coalesced,
        divergences,
        hit_rate: if jobs_done == 0 {
            0.0
        } else {
            hits as f64 / jobs_done as f64
        },
        jobs_per_sec: if wall.as_secs_f64() > 0.0 {
            jobs_done as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        wall,
        p50: percentile(&all, 50.0),
        p99: percentile(&all, 99.0),
        cold_median,
        hit_median,
        speedup,
        stats,
    }
}
