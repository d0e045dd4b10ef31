//! Fig. 8 benchmarks: the two simulation-based verification flows.
//!
//! * per-approach verification runs (the table's V.T. column),
//! * the approach-2-vs-approach-1 speedup pair on identical workloads,
//! * an ablation on the number of concurrently monitored properties.

use eee::{run_derived_single, run_derived_with_ops, run_micro_single, ExperimentConfig, Op};
use sctc_bench::timing::{samples, Bench};
use sctc_core::EngineKind;
use sctc_cpu::IsaKind;

fn config(cases: u64, bound: Option<u64>) -> ExperimentConfig {
    ExperimentConfig {
        seed: 7,
        cases,
        bound,
        fault_percent: 10,
        engine: EngineKind::Compiled,
        isa: IsaKind::Word32,
        max_ticks: u64::MAX / 2,
        profile: false,
    }
}

fn bench_approach2_bounds(b: &mut Bench) {
    for (label, bound) in [
        ("tb1000", Some(1000u64)),
        ("tb10000", Some(10_000)),
        ("no_tb", None),
    ] {
        b.run(&format!("fig8/approach2/read/{label}"), samples(10), || {
            let outcome = run_derived_single(Op::Read, config(20, bound));
            assert!(outcome.violations.is_empty());
            outcome
        });
    }
}

fn bench_approach1(b: &mut Bench) {
    b.run("fig8/approach1/read_no_tb", samples(5), || {
        let outcome = run_micro_single(Op::Read, config(3, None));
        assert!(outcome.violations.is_empty());
        outcome
    });
}

fn bench_speedup_pair(b: &mut Bench) {
    // Identical workload (same seed, same cases, same property) — the wall
    // time ratio between these two benches is the Section 4.3 speedup.
    b.run("fig8/speedup_pair/approach1", samples(5), || {
        run_micro_single(Op::Read, config(5, None))
    });
    b.run("fig8/speedup_pair/approach2", samples(5), || {
        run_derived_single(Op::Read, config(5, None))
    });
}

fn bench_monitor_count_ablation(b: &mut Bench) {
    // How does checking 1..7 properties at once scale? (Design ablation —
    // the paper runs one property per experiment.)
    for n in [1usize, 4, 7] {
        let ops = &Op::ALL[..n];
        b.run(&format!("fig8/monitor_count/{n}"), samples(10), || {
            run_derived_with_ops(config(20, Some(1000)), ops)
        });
    }
}

fn main() {
    let mut b = Bench::new("fig8_flows");
    bench_approach2_bounds(&mut b);
    bench_approach1(&mut b);
    bench_speedup_pair(&mut b);
    bench_monitor_count_ablation(&mut b);
}
