//! Property-based agreement tests: AR-automata and lazy monitors versus the
//! textbook trace semantics, on random fully-bounded formulas and traces.

use std::sync::Arc;

use sctc_temporal::{
    eval, parse, ArAutomaton, CompiledKernel, CompiledMonitor, Formula, Monitor, TraceMonitor,
    Verdict,
};
use testkit::{assume, Checker, Source};

const NPROPS: usize = 3;

/// Random fully-bounded formulas over 3 propositions with small bounds.
fn gen_formula(src: &mut Source<'_>, depth: u32) -> Formula {
    if depth == 0 || src.chance(30) {
        return match src.weighted_idx(&[1, 1, 3]) {
            0 => Formula::True,
            1 => Formula::False,
            _ => Formula::prop(&format!("p{}", src.usize_in(0, NPROPS - 1))),
        };
    }
    match src.usize_in(0, 8) {
        0 => Formula::not(gen_formula(src, depth - 1)),
        1 => {
            let a = gen_formula(src, depth - 1);
            let b = gen_formula(src, depth - 1);
            Formula::and(a, b)
        }
        2 => {
            let a = gen_formula(src, depth - 1);
            let b = gen_formula(src, depth - 1);
            Formula::or(a, b)
        }
        3 => {
            let a = gen_formula(src, depth - 1);
            let b = gen_formula(src, depth - 1);
            Formula::implies(a, b)
        }
        4 => Formula::next(gen_formula(src, depth - 1)),
        5 => {
            let b = src.u64_in(0, 3);
            Formula::finally(Some(b), gen_formula(src, depth - 1))
        }
        6 => {
            let b = src.u64_in(0, 3);
            Formula::globally(Some(b), gen_formula(src, depth - 1))
        }
        7 => {
            let bd = src.u64_in(0, 3);
            let a = gen_formula(src, depth - 1);
            let b = gen_formula(src, depth - 1);
            Formula::until(Some(bd), a, b)
        }
        _ => {
            let bd = src.u64_in(0, 3);
            let a = gen_formula(src, depth - 1);
            let b = gen_formula(src, depth - 1);
            Formula::release(Some(bd), a, b)
        }
    }
}

fn gen_trace(src: &mut Source<'_>, len: usize) -> Vec<u64> {
    (0..len).map(|_| src.u64_in(0, (1 << NPROPS) - 1)).collect()
}

fn gen_case(trace_len: usize) -> impl Fn(&mut Source<'_>) -> (Formula, Vec<u64>) {
    move |src| {
        let f = gen_formula(src, 3);
        let trace = gen_trace(src, trace_len);
        (f, trace)
    }
}

/// Remaps raw trace valuations (bit `i` = `p<i>` holds) to the monitor's
/// proposition order for the given formula alphabet.
fn remap(props: &[String], v: u64) -> u64 {
    props.iter().enumerate().fold(0u64, |acc, (bit, name)| {
        let idx: usize = name[1..].parse().expect("p<i> names");
        if v & (1 << idx) != 0 {
            acc | (1 << bit)
        } else {
            acc
        }
    })
}

/// The lazy monitor's decided verdict equals the trace semantics.
#[test]
fn lazy_monitor_agrees_with_oracle() {
    Checker::new("lazy_monitor_agrees_with_oracle")
        .cases(200)
        .run(gen_case(40), |(f, seed_trace)| {
            let horizon = f
                .decision_horizon()
                .expect("generated formulas are bounded");
            assume(horizon < 39);
            // The formula may mention fewer props than generated; remap the
            // trace valuations to the monitor's proposition order.
            let props = f.propositions();
            assume(!props.is_empty() || horizon == 0);
            // Oracle works on the formula's own (sorted) prop order too.
            let oracle_trace: Vec<u64> = seed_trace.iter().map(|&v| remap(&props, v)).collect();
            let expected = eval(f, &oracle_trace);

            let mut monitor = Monitor::new(f).expect("fits in 64 props");
            let mut verdict = Verdict::Pending;
            for &v in &oracle_trace {
                verdict = monitor.step(v);
            }
            assert!(
                verdict.is_decided(),
                "bounded formula must decide within its horizon"
            );
            assert_eq!(verdict == Verdict::True, expected, "formula: {f}");
        });
}

/// The explicit AR-automaton, stepped by the compiled monitor, agrees with
/// the lazy monitor step by step, decision index included.
#[test]
fn table_and_lazy_monitors_agree() {
    Checker::new("table_and_lazy_monitors_agree")
        .cases(200)
        .run(gen_case(30), |(f, trace)| {
            let props = f.propositions();
            let automaton = match ArAutomaton::synthesize_with_limit(f, 200_000) {
                Ok(a) => a,
                Err(_) => return, // state blow-up: nothing to compare
            };
            // A constant formula starts in a sink, where the table monitor
            // counts its first step as the decision and progression none.
            let starts_decided = automaton.verdict(ArAutomaton::INITIAL).is_decided();
            let mut table =
                CompiledMonitor::from_shared(Arc::new(CompiledKernel::lower(automaton)));
            let mut lazy = Monitor::new(f).expect("fits");
            for &raw in trace {
                let v = remap(&props, raw);
                let tv = table.step(v);
                let lv = lazy.step(v);
                assert_eq!(tv, lv, "diverged on formula {f}");
                if !starts_decided {
                    assert_eq!(table.decided_at(), lazy.decided_at(), "on formula {f}");
                }
            }
        });
}

/// Verdicts latch: once decided they never change.
#[test]
fn verdicts_latch() {
    Checker::new("verdicts_latch")
        .cases(200)
        .run(gen_case(30), |(f, trace)| {
            let props = f.propositions();
            let mut monitor = Monitor::new(f).expect("fits");
            let mut decided: Option<Verdict> = None;
            for &raw in trace {
                let v = monitor.step(remap(&props, raw));
                if let Some(d) = decided {
                    assert_eq!(v, d, "verdict flipped on {f}");
                } else if v.is_decided() {
                    decided = Some(v);
                }
            }
        });
}

/// Parsing the printed form reproduces the formula.
#[test]
fn print_parse_round_trip() {
    Checker::new("print_parse_round_trip").cases(200).run(
        |src| gen_formula(src, 3),
        |f| {
            let text = f.to_string();
            let back = parse(&text).expect("printer output parses");
            assert_eq!(&back, f, "round trip failed for `{text}`");
        },
    );
}

/// The negation of a formula always decides the opposite way.
#[test]
fn negation_flips_decided_verdicts() {
    Checker::new("negation_flips_decided_verdicts")
        .cases(200)
        .run(gen_case(40), |(f, trace)| {
            let horizon = f.decision_horizon().expect("bounded");
            assume(horizon < 39);
            let props = f.propositions();
            let mut m = Monitor::new(f).expect("fits");
            let neg = Formula::not(f.clone());
            let mut n = Monitor::new(&neg).expect("fits");
            let mut mv = Verdict::Pending;
            let mut nv = Verdict::Pending;
            for &raw in trace {
                let v = remap(&props, raw);
                mv = m.step(v);
                nv = n.step(v);
            }
            assert_eq!(mv, nv.not(), "negation mismatch for {f}");
        });
}
