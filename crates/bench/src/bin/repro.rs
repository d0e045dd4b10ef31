//! `repro` — regenerates the tables of the paper's evaluation and runs the
//! diagnosis demo and the two performance gates.
//!
//! ```text
//! repro [--fig7] [--fig8] [--speedup] [--tb-sweep] [--witness-demo]
//!       [--serve-bench] [--telemetry-bench] [--all]
//!       [--jobs N] [--micro-cases N] [--derived-cases N] [--seed S]
//!       [--budget SECS] [--vcd PATH]
//! ```
//!
//! With no section flags, `--all` is assumed. Numbers are scaled-down local
//! measurements; compare shapes against the paper (see EXPERIMENTS.md).
//! The simulation-based sections run as sharded campaigns over `--jobs`
//! worker threads (default: all cores); the worker count changes
//! wall-clock only, never a verdict or a coverage number.
//!
//! `--witness-demo` runs the torn-write power-loss scenario with the
//! diagnosis layer and the span profiler on under both flows, prints the
//! counterexample witnesses, and fails unless each witness replays to the
//! same deciding sample, the VCD verdict channel falls at that sample, and
//! the provenance names the deciding write; `--vcd PATH` saves the derived
//! flow's waveform. `--serve-bench` loads the verification service over
//! loopback with closed-loop clients and fails unless every served digest
//! matches the same job run in-process, the repeat-heavy pool produces
//! cache hits, and hits are at least 10x faster than cold jobs.
//! `--telemetry-bench` times a derived campaign with the trace plane off
//! and on (min-of-10, alternating order), fails if the enabled overhead
//! exceeds 3%, and writes the flight-recorder log as
//! chrome://tracing-loadable `trace.json`. Malformed arguments print the
//! usage line and exit with status 2.

use std::time::Duration;

use sctc_bench::{
    fig7, fig8, render_chrome_trace, secs, serve_bench, speedup, tb_sweep, telemetry_bench,
    witness_demo, Scale,
};
use sctc_campaign::resolve_jobs;

const USAGE: &str = "repro [--fig7] [--fig8] [--speedup] [--tb-sweep] [--witness-demo]
      [--serve-bench] [--telemetry-bench] [--all] [--jobs N]
      [--micro-cases N] [--derived-cases N] [--seed S] [--budget SECS]
      [--vcd PATH]";

#[derive(Default)]
struct Args {
    fig7: bool,
    fig8: bool,
    speedup: bool,
    tb_sweep: bool,
    witness: bool,
    serve: bool,
    telemetry: bool,
    vcd_path: Option<String>,
    scale: Scale,
}

impl Args {
    fn any_section(&self) -> bool {
        self.fig7
            || self.fig8
            || self.speedup
            || self.tb_sweep
            || self.witness
            || self.serve
            || self.telemetry
    }

    fn select_all(&mut self) {
        self.fig7 = true;
        self.fig8 = true;
        self.speedup = true;
        self.tb_sweep = true;
        self.witness = true;
        self.serve = true;
        self.telemetry = true;
    }
}

/// Reports a malformed command line: the problem and the usage line go to
/// stderr, and the process exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("{problem}\nusage: {USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next_u64 = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage_error(&format!("{name} expects a number")))
        };
        match arg.as_str() {
            "--fig7" => args.fig7 = true,
            "--fig8" => args.fig8 = true,
            "--speedup" => args.speedup = true,
            "--tb-sweep" => args.tb_sweep = true,
            "--witness-demo" => args.witness = true,
            "--serve-bench" => args.serve = true,
            "--telemetry-bench" => args.telemetry = true,
            "--all" => args.select_all(),
            "--jobs" => args.scale.jobs = next_u64("--jobs") as usize,
            "--micro-cases" => args.scale.micro_cases = next_u64("--micro-cases"),
            "--derived-cases" => args.scale.derived_cases = next_u64("--derived-cases"),
            "--seed" => args.scale.seed = next_u64("--seed"),
            "--budget" => args.scale.checker_budget = Duration::from_secs(next_u64("--budget")),
            "--vcd" => {
                let path = it
                    .next()
                    .unwrap_or_else(|| usage_error("--vcd expects a path"));
                args.vcd_path = Some(path);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if !args.any_section() {
        args.select_all();
    }
    args
}

fn main() {
    let args = parse_args();
    let jobs = resolve_jobs(args.scale.jobs);
    println!("Reproduction of \"Verification of Temporal Properties in Automotive");
    println!("Embedded Software\" (DATE 2008) — scaled local measurements.");
    println!(
        "campaign workers: {jobs} (host parallelism {})\n",
        resolve_jobs(0)
    );

    if args.fig7 {
        println!("== Fig. 7: BLAST- and CBMC-baseline results ==");
        println!(
            "{:<10} {:>12} {:<14} {:>12} {:<20}",
            "Property", "BLAST V.T.(s)", "Result", "CBMC V.T.(s)", "Result"
        );
        for row in fig7(args.scale) {
            println!(
                "{:<10} {:>12} {:<14} {:>12} {:<20}",
                row.op.to_string(),
                secs(row.blast_time),
                row.blast_result,
                secs(row.cbmc_time),
                row.cbmc_result
            );
        }
        println!(
            "(paper: every BLAST run aborted with an exception; every CBMC run\n\
             exceeded 5 h unwinding loops at bound 20)\n"
        );
    }

    if args.fig8 {
        println!("== Fig. 8: 1st and 2nd approach results ==");
        println!(
            "(scaled: {} cases for approach 1, {} for approach 2 TB-1000;\n\
             paper used 100,000 and 1,000,000; sharded over {jobs} workers)",
            args.scale.micro_cases, args.scale.derived_cases
        );
        for column in fig8(args.scale) {
            println!("\n-- {} --", column.label);
            println!(
                "{:<10} {:>10} {:>12} {:>8} {:>8} {:>10} {:>6} {:>10}",
                "Property", "V.T.(s)", "synth(s)", "T.C.", "C.(%)", "verdict", "viol", "cases/s"
            );
            for cell in &column.cells {
                println!(
                    "{:<10} {:>10} {:>12} {:>8} {:>8.1} {:>10} {:>6} {:>10.0}",
                    cell.op.to_string(),
                    secs(cell.vt),
                    secs(cell.synthesis),
                    cell.tc,
                    cell.coverage,
                    cell.verdict,
                    cell.violations,
                    cell.cases_per_sec
                );
            }
        }
        println!();
    }

    if args.speedup {
        println!("== Speedup: approach 2 vs approach 1 (Section 4.3) ==");
        let s = speedup(args.scale.micro_cases, args.scale.seed, args.scale.jobs);
        println!(
            "approach 1: {} s over {} processor ticks",
            secs(s.micro),
            s.micro_ticks
        );
        println!(
            "approach 2: {} s over {} statements",
            secs(s.derived),
            s.derived_ticks
        );
        println!(
            "speedup: {:.1}x  (paper: up to 900x; shape check — approach 2 must win)\n",
            s.factor
        );
    }

    if args.tb_sweep {
        println!("== Time-bound sweep (Section 4.3 trends) ==");
        println!(
            "{:>10} {:>10} {:>14} {:>12} {:>10} {:>10} {:>8}",
            "bound", "AR states", "AR gen (s)", "coverage(%)", "run (s)", "synth(s)", "hit%"
        );
        for row in tb_sweep(args.scale.derived_cases, args.scale.seed, args.scale.jobs) {
            println!(
                "{:>10} {:>10} {:>14} {:>12.1} {:>10} {:>10} {:>8.0}",
                row.bound
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "none".to_owned()),
                row.synthesis.states,
                format!("{:.4}", row.synthesis.generation_time.as_secs_f64()),
                row.coverage,
                secs(row.wall),
                secs(row.synthesis_wall),
                100.0 * row.cache_hit_rate
            );
        }
        println!(
            "(paper: larger bounds cost AR generation time; coverage grows with\n\
             the number of test cases a configuration runs; registration-time\n\
             synthesis is reported separately, summed over shards)\n"
        );
    }

    if args.witness {
        println!("== Diagnosis layer: witnesses, VCD, profiler ==");
        let demos = witness_demo();
        let mut failed = false;
        for demo in &demos {
            println!(
                "-- {} flow: intact violated={} decided@{} replay={} vcd={} provenance={} --",
                demo.flow,
                demo.violated,
                demo.decided_at,
                demo.replay_ok,
                demo.vcd_ok,
                demo.provenance_ok
            );
            print!("{}", demo.witness_report);
            println!("monitoring counters:");
            print!("{}", demo.report.monitoring);
            println!("span profile:");
            print!("{}", demo.report.spans);
            println!();
            if !demo.ok() {
                eprintln!("FAIL: {} flow diagnosis checks did not all pass", demo.flow);
                failed = true;
            }
        }
        if let Some(path) = &args.vcd_path {
            // The derived flow's waveform is the canonical artifact; the
            // microprocessor flow's document was validated in memory.
            let text = demos
                .iter()
                .find(|d| d.flow == "derived")
                .map(|d| d.vcd_text.clone())
                .unwrap_or_default();
            write_artifact(path, &text);
        }
        if failed {
            std::process::exit(1);
        }
    }

    if args.serve {
        println!("== Verification service: sustained load over loopback ==");
        let report = serve_bench(args.scale);
        println!(
            "{} clients x {} jobs over {} distinct specs: {:.1} jobs/s in {} s",
            report.clients,
            report.jobs_done / report.clients.max(1) as u64,
            report.distinct_jobs,
            report.jobs_per_sec,
            secs(report.wall)
        );
        println!(
            "served: {} cold, {} hit, {} coalesced (hit rate {:.1}%)",
            report.colds,
            report.hits,
            report.coalesced,
            report.hit_rate * 100.0
        );
        println!(
            "latency: p50 {:.0} us, p99 {:.0} us; cold median {:.0} us, hit median {:.0} us ({:.1}x)",
            report.p50.as_secs_f64() * 1e6,
            report.p99.as_secs_f64() * 1e6,
            report.cold_median.as_secs_f64() * 1e6,
            report.hit_median.as_secs_f64() * 1e6,
            report.speedup
        );
        println!("server counters:");
        for (name, value) in &report.stats {
            println!("  {name} = {value}");
        }
        let mut broken = false;
        if report.divergences > 0 {
            eprintln!(
                "FAIL: {} served digests diverged from in-process runs",
                report.divergences
            );
            broken = true;
        }
        if report.hits == 0 {
            eprintln!("FAIL: repeat-heavy workload produced no cache hits");
            broken = true;
        }
        if report.speedup < 10.0 {
            eprintln!(
                "FAIL: cache-hit latency must be >= 10x lower than cold (got {:.1}x)",
                report.speedup
            );
            broken = true;
        }
        if broken {
            std::process::exit(1);
        }
        println!(
            "(all {} served digests match their in-process runs; cache hits are {:.1}x faster than cold)",
            report.jobs_done, report.speedup
        );
    }

    if args.telemetry {
        println!("== Telemetry overhead: trace plane off vs on ==");
        let report = telemetry_bench(args.scale);
        println!(
            "{} cases: off {} s, on {} s ({:+.2}% overhead, min-of-10 alternating)",
            report.cases,
            secs(report.off_wall),
            secs(report.on_wall),
            report.overhead_percent
        );
        println!(
            "{} events recorded on the last enabled run; on/off fingerprints bit-identical",
            report.events.len()
        );
        // Loadable in chrome://tracing.
        write_artifact("trace.json", &render_chrome_trace(&report.events));
        if report.overhead_percent > 3.0 {
            eprintln!(
                "FAIL: telemetry overhead must stay <= 3% (got {:.2}%)",
                report.overhead_percent
            );
            std::process::exit(1);
        }
    }
}

/// Writes one artifact, saying where it went; a failed write is reported
/// and skipped, since the tables above already carry the results.
fn write_artifact(path: &str, doc: &str) {
    match std::fs::write(path, doc) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
