//! Result-cache behaviour through the whole service: single-flight
//! deduplication (counter-verified), LRU eviction under a tiny byte
//! budget, and a shrinking property test that cached reports are
//! bit-identical to fresh in-process runs under either engine kind.

use faults::{run_fault_campaign, FaultCampaignSpec};
use sctc_campaign::{run_campaign, CampaignSpec};
use sctc_core::EngineKind;
use sctc_server::job::run_job;
use sctc_server::{
    spawn, Client, JobDigest, JobOptions, JobOutcome, JobSpec, Served, ServerConfig,
};
use sctc_smc::{run_smc_campaign, SmcSpec};
use sctc_temporal::CacheWeight;

fn stat(pairs: &[(String, u64)], name: &str) -> u64 {
    pairs.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

#[test]
fn n_concurrent_identical_jobs_run_exactly_one_simulation() {
    let mut server = spawn(ServerConfig::default()).expect("bind server");
    let addr = server.addr();
    const CLIENTS: usize = 6;

    // A job slow enough (~hundreds of ms on one core) that all clients
    // overlap; each runs on its own connection and thread.
    let spec = JobSpec::small_campaign(1_500, 0xC0A1E5CE);
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.submit(&spec, &JobOptions::default()).unwrap()
            })
        })
        .collect();

    let mut digests = Vec::new();
    let mut colds = 0;
    for worker in workers {
        match worker.join().unwrap() {
            JobOutcome::Done { served, digest, .. } => {
                if served == Served::Cold {
                    colds += 1;
                }
                digests.push(digest);
            }
            other => panic!("every client finishes: {other:?}"),
        }
    }
    assert_eq!(colds, 1, "exactly one client led the flight");
    assert!(digests.windows(2).all(|w| w[0] == w[1]));

    // Counter-verified: one miss (one simulation), everyone else either
    // coalesced into the flight or hit the finished entry.
    let pairs = server.stats();
    assert_eq!(stat(&pairs, "cache.misses"), 1);
    assert_eq!(
        stat(&pairs, "cache.hits") + stat(&pairs, "cache.coalesced"),
        (CLIENTS - 1) as u64
    );
    assert_eq!(stat(&pairs, "server.served.cold"), 1);
    server.shutdown();
}

#[test]
fn lru_eviction_under_a_tiny_byte_budget() {
    // Learn one output's cache weight, then give the server room for
    // roughly two entries so the third insert must evict the LRU.
    let sample = run_job(&JobSpec::small_campaign(12, 1), &JobOptions::default());
    let weight = sample.weight();
    let mut server = spawn(ServerConfig {
        cache_budget: weight * 2 + weight / 2,
        ..ServerConfig::default()
    })
    .expect("bind server");
    let mut client = Client::connect(server.addr()).unwrap();

    let spec_a = JobSpec::small_campaign(12, 1);
    let spec_b = JobSpec::small_campaign(12, 2);
    let spec_c = JobSpec::small_campaign(12, 3);
    for spec in [&spec_a, &spec_b, &spec_c] {
        let outcome = client.submit(spec, &JobOptions::default()).unwrap();
        assert!(matches!(outcome, JobOutcome::Done { .. }));
    }
    let pairs = server.stats();
    assert!(
        stat(&pairs, "cache.evictions") >= 1,
        "third insert exceeds the two-entry budget: {pairs:?}"
    );
    assert!(stat(&pairs, "cache.bytes") <= (weight * 2 + weight / 2) as u64);

    // The evicted key (oldest: A) re-runs cold; the freshest (C) hits.
    let JobOutcome::Done { served, .. } = client.submit(&spec_c, &JobOptions::default()).unwrap()
    else {
        panic!("C must finish");
    };
    assert_eq!(served, Served::Hit, "most recent entry survives");
    let JobOutcome::Done { served, .. } = client.submit(&spec_a, &JobOptions::default()).unwrap()
    else {
        panic!("A must finish");
    };
    assert_eq!(served, Served::Cold, "LRU victim was evicted");
    server.shutdown();
}

/// The digest of `spec` run in-process under `engine`. The server always
/// monitors with the default engine, so this is the independent side of
/// the comparison.
fn fresh_digest(spec: &JobSpec, engine: EngineKind) -> JobDigest {
    match spec {
        JobSpec::Campaign(j) => {
            let mut campaign = CampaignSpec::derived(j.cases, j.seed).with_engine(engine);
            campaign.flow = j.flow;
            campaign.ops = j.ops.clone();
            campaign.bound = j.bound;
            campaign.chunk = j.chunk;
            campaign.fault_percent = j.fault_percent;
            campaign.isa = j.isa;
            JobDigest::Campaign(run_campaign(&campaign).fingerprint())
        }
        JobSpec::Faults(j) => {
            let mut campaign = FaultCampaignSpec::derived(j.cases, j.seed).with_engine(engine);
            campaign.flow = j.flow;
            campaign.chunk = j.chunk;
            campaign.fault_percent = j.fault_percent;
            campaign.recovery_bound = j.recovery_bound;
            let report = run_fault_campaign(&campaign);
            JobDigest::Faults {
                fingerprint: report.matrix.fingerprint(),
            }
        }
        JobSpec::Smc(j) => {
            let mut smc = SmcSpec::planted_torn(j.flow, 0, j.seed)
                .with_query(j.query)
                .with_method(j.method)
                .with_max_samples(j.max_samples)
                .with_engine(engine);
            smc.workload = j.workload;
            smc.recovery_bound = j.recovery_bound;
            let report = run_smc_campaign(&smc);
            JobDigest::Smc {
                fingerprint: report.fingerprint(),
                verdict: report.verdict,
                samples: report.samples,
                successes: report.successes,
            }
        }
        JobSpec::Scenario(_) => unreachable!("the property draws no scenario jobs"),
    }
}

#[test]
fn cached_and_fresh_reports_are_bit_identical_across_engine_kinds() {
    let mut server = spawn(ServerConfig::default()).expect("bind server");
    let addr = server.addr();

    testkit::Checker::new("server_cached_vs_fresh_bit_identical")
        .cases(12)
        .run(
            |src| {
                let cases = src.u64_in(5, 25);
                let seed = src.u64_in(0, u64::MAX / 2);
                let engine = src.pick(&[EngineKind::Compiled, EngineKind::Naive]);
                let kind = src.u64_in(0, 2);
                (cases, seed, engine, kind)
            },
            |&(cases, seed, engine, kind)| {
                let spec = match kind {
                    0 => JobSpec::small_campaign(cases, seed),
                    1 => JobSpec::small_faults(cases, seed),
                    _ => {
                        let JobSpec::Smc(mut j) = JobSpec::planted_smc(20, seed) else {
                            unreachable!()
                        };
                        j.max_samples = 60;
                        JobSpec::Smc(j)
                    }
                };
                let fresh = fresh_digest(&spec, engine);
                let mut client = Client::connect(addr).expect("connect property client");
                // Submit twice: the second fetch is served from the cache
                // (the first may be cold or — across shrink retries of the
                // same case — already a hit; both must match `fresh`).
                for _ in 0..2 {
                    match client
                        .submit(&spec, &JobOptions::default())
                        .expect("submit property job")
                    {
                        JobOutcome::Done { digest, .. } => {
                            // The digest is the bit-identical contract; the
                            // table carries wall-clock text and may differ.
                            assert_eq!(
                                digest, fresh,
                                "cached vs fresh {engine:?} digest for {spec:?}"
                            );
                        }
                        other => panic!("job did not finish: {other:?}"),
                    }
                }
            },
        );
    server.shutdown();
}
