//! AR-automaton verdict coverage against an **independent** brute-force
//! finite-trace oracle.
//!
//! Unlike `prop_monitor.rs`, which compares the monitors against the crate's
//! own `eval` module, this suite re-implements the bounded-FLTL finite-trace
//! semantics from scratch inside the test — a second, independent reading of
//! the paper's Section 3 semantics — and checks that the verdict an
//! AR-automaton reaches after consuming a sufficiently long trace matches
//! what the semantics says about that trace. Formulas go up to depth 4 with
//! time bounds up to 16 (larger than the other suite exercises).

use std::sync::Arc;

use sctc_temporal::{
    ArAutomaton, CompiledKernel, CompiledMonitor, Formula, Monitor, TraceMonitor, Verdict,
};
use testkit::{assume, Checker, Source};

const NPROPS: usize = 3;
const MAX_BOUND: u64 = 16;
const MAX_DEPTH: u32 = 4;

/// Independent finite-trace semantics: does `f` hold at `trace[pos..]`?
///
/// `trace[i]` is a bitmask where bit `k` means proposition `p<k>` holds at
/// step `i`. The trace must be long enough for the formula's horizon; we
/// only call this with `trace.len() > horizon(f)`.
fn holds(f: &Formula, trace: &[u64], pos: usize) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Prop(name) => {
            let idx: usize = name[1..].parse().expect("p<i> names");
            trace[pos] & (1 << idx) != 0
        }
        Formula::Not(g) => !holds(g, trace, pos),
        Formula::And(a, b) => holds(a, trace, pos) && holds(b, trace, pos),
        Formula::Or(a, b) => holds(a, trace, pos) || holds(b, trace, pos),
        Formula::Implies(a, b) => !holds(a, trace, pos) || holds(b, trace, pos),
        Formula::Next(g) => holds(g, trace, pos + 1),
        Formula::Finally(b, g) => {
            let b = b.expect("bounded").0 as usize;
            (pos..=pos + b).any(|i| holds(g, trace, i))
        }
        Formula::Globally(b, g) => {
            let b = b.expect("bounded").0 as usize;
            (pos..=pos + b).all(|i| holds(g, trace, i))
        }
        Formula::Until(b, lhs, rhs) => {
            let b = b.expect("bounded").0 as usize;
            (pos..=pos + b).any(|i| holds(rhs, trace, i) && (pos..i).all(|j| holds(lhs, trace, j)))
        }
        Formula::Release(b, lhs, rhs) => {
            let b = b.expect("bounded").0 as usize;
            (pos..=pos + b).all(|i| holds(rhs, trace, i) || (pos..i).any(|j| holds(lhs, trace, j)))
        }
    }
}

/// Random fully bounded formulas, depth ≤ `depth`, bounds ≤ 16.
fn gen_formula(src: &mut Source<'_>, depth: u32) -> Formula {
    if depth == 0 || src.chance(25) {
        return match src.weighted_idx(&[1, 1, 4]) {
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
            let b = src.u64_in(0, MAX_BOUND);
            Formula::finally(Some(b), gen_formula(src, depth - 1))
        }
        6 => {
            let b = src.u64_in(0, MAX_BOUND);
            Formula::globally(Some(b), gen_formula(src, depth - 1))
        }
        7 => {
            let b = src.u64_in(0, MAX_BOUND);
            let lhs = gen_formula(src, depth - 1);
            let rhs = gen_formula(src, depth - 1);
            Formula::until(Some(b), lhs, rhs)
        }
        _ => {
            let b = src.u64_in(0, MAX_BOUND);
            let lhs = gen_formula(src, depth - 1);
            let rhs = gen_formula(src, depth - 1);
            Formula::release(Some(b), lhs, rhs)
        }
    }
}

/// Maps a raw valuation (bit `i` = `p<i>`) to the monitor's alphabet order.
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

fn gen_case(src: &mut Source<'_>) -> (Formula, Vec<u64>) {
    let f = gen_formula(src, MAX_DEPTH);
    // Long enough for any depth-4 formula with bounds ≤ 16: the horizon is
    // at most 4 * (16 + 1) = 68 steps past the start.
    let len = 70;
    let trace = (0..len).map(|_| src.u64_in(0, (1 << NPROPS) - 1)).collect();
    (f, trace)
}

/// The compiled monitor over the synthesized AR-automaton decides every
/// bounded formula within its horizon, and the decision agrees with the
/// independent brute-force semantics.
#[test]
fn ar_automaton_verdict_matches_brute_force() {
    Checker::new("ar_automaton_verdict_matches_brute_force")
        .cases(300)
        .run(gen_case, |(f, trace)| {
            let horizon = f
                .decision_horizon()
                .expect("generated formulas are bounded");
            assert!(horizon < trace.len() as u64, "trace shorter than horizon");
            let expected = holds(f, trace, 0);

            let automaton = match ArAutomaton::synthesize_with_limit(f, 200_000) {
                Ok(a) => a,
                Err(_) => {
                    // State blow-up; skip this sample rather than weaken it.
                    assume(false);
                    unreachable!()
                }
            };
            let props = f.propositions();
            let mut monitor =
                CompiledMonitor::from_shared(Arc::new(CompiledKernel::lower(automaton)));
            let mut verdict = Verdict::Pending;
            for &raw in trace {
                verdict = monitor.step(remap(&props, raw));
                if verdict.is_decided() {
                    break;
                }
            }
            assert!(
                verdict.is_decided(),
                "AR-automaton failed to decide within horizon {horizon} for {f}"
            );
            assert_eq!(
                verdict == Verdict::True,
                expected,
                "AR verdict disagrees with brute-force semantics for {f}"
            );
        });
}

/// Same comparison for the lazy (progression) monitor — both engines must
/// track the independent semantics, not just each other.
#[test]
fn lazy_monitor_verdict_matches_brute_force() {
    Checker::new("lazy_monitor_verdict_matches_brute_force")
        .cases(300)
        .run(gen_case, |(f, trace)| {
            let expected = holds(f, trace, 0);
            let props = f.propositions();
            let mut monitor = Monitor::new(f).expect("fits in 64 props");
            let mut verdict = Verdict::Pending;
            for &raw in trace {
                verdict = monitor.step(remap(&props, raw));
                if verdict.is_decided() {
                    break;
                }
            }
            assert!(verdict.is_decided(), "bounded formula must decide: {f}");
            assert_eq!(
                verdict == Verdict::True,
                expected,
                "lazy verdict disagrees with brute-force semantics for {f}"
            );
        });
}
