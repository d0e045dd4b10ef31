//! Standalone campaign server.
//!
//! ```text
//! sctc-serve [--addr HOST:PORT] [--cache-mb N] [--deadline-ms N]
//!            [--log-every SECS]
//! ```
//!
//! Prints the bound address on stdout (`listening on <addr>`) and serves
//! until a shutdown frame arrives. There is no in-process SIGTERM hook
//! (that would need a signal-handling dependency); orchestration should
//! send the shutdown frame, which drains in-flight jobs before the
//! process exits.
//!
//! With `--log-every SECS` an operator table row goes to stderr every
//! interval: jobs served and jobs/s over the interval, cache hit rate,
//! live worker leases, and cache evictions.
//!
//! A malformed command line prints the problem and the usage line to
//! stderr and exits with status 2; an address that cannot be bound exits
//! with status 1.

use std::fmt;
use std::time::Duration;

use sctc_server::{spawn, ServerConfig};

/// One periodic operator log row, derived from two successive stats
/// snapshots.
struct LogRow {
    uptime_s: u64,
    jobs: u64,
    jobs_per_s: f64,
    hit_rate: f64,
    leases: usize,
    evictions: u64,
}

impl fmt::Display for LogRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "| {:>8}s | {:>8} jobs | {:>7.2} jobs/s | {:>5.1}% hit | {:>3} leases | {:>6} evicted |",
            self.uptime_s, self.jobs, self.jobs_per_s, self.hit_rate * 100.0, self.leases,
            self.evictions
        )
    }
}

fn counter(pairs: &[(String, u64)], name: &str) -> u64 {
    pairs.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

fn log_loop(stats: impl Fn() -> Vec<(String, u64)>, every: Duration) {
    let start = std::time::Instant::now();
    let mut last_jobs = 0u64;
    loop {
        std::thread::sleep(every);
        let pairs = stats();
        let jobs = counter(&pairs, "server.jobs");
        let hits = counter(&pairs, "cache.hits");
        let misses = counter(&pairs, "cache.misses");
        let coalesced = counter(&pairs, "cache.coalesced");
        let lookups = hits + misses + coalesced;
        let row = LogRow {
            uptime_s: start.elapsed().as_secs(),
            jobs,
            jobs_per_s: (jobs - last_jobs) as f64 / every.as_secs_f64(),
            hit_rate: if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            },
            leases: sctc_campaign::leased_workers(),
            evictions: counter(&pairs, "cache.evictions"),
        };
        eprintln!("{row}");
        last_jobs = jobs;
    }
}

const USAGE: &str =
    "sctc-serve [--addr HOST:PORT] [--cache-mb N] [--deadline-ms N] [--log-every SECS]";

/// Reports a malformed command line: the problem and the usage line go to
/// stderr, and the process exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("{problem}\nusage: {USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig::default();
    let mut log_every: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{name} expects a value")))
        };
        let mut number = |name: &str| -> u64 {
            value(name)
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("{name} expects a non-negative integer")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--cache-mb" => {
                config.cache_budget = usize::try_from(number("--cache-mb"))
                    .ok()
                    .and_then(|mb| mb.checked_mul(1024 * 1024))
                    .unwrap_or_else(|| usage_error("--cache-mb does not fit in memory"));
            }
            "--deadline-ms" => config.default_deadline_ms = number("--deadline-ms"),
            "--log-every" => log_every = Some(number("--log-every")),
            "--help" | "-h" => {
                println!("usage: {USAGE}");
                return;
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }

    let mut server = spawn(config).unwrap_or_else(|e| {
        eprintln!("sctc-serve: cannot bind: {e}");
        std::process::exit(1);
    });
    println!("listening on {}", server.addr());
    if let Some(secs) = log_every.filter(|s| *s > 0) {
        // Detached daemon thread: it only reads shared counters and dies
        // with the process after the drain below finishes.
        let stats = server.stats_reader();
        let every = Duration::from_secs(secs);
        std::thread::spawn(move || log_loop(stats, every));
    }
    // Block until a shutdown frame flips the flag and the drain finishes.
    server.shutdown_when_requested();
}
