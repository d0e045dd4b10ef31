//! Engine-equivalence property test for the change-driven pipeline.
//!
//! Random bounded formulas (depth ≤ 4, bounds ≤ 16) are checked over random
//! dirty/clean traces driven through *real model writes* — minic interpreter
//! globals with registered write-path watches — so the change-driven engine
//! exercises its whole stack: atom interning, dirty tracking, and stutter
//! compression. Two full [`Sctc`] checkers (the change-driven `Compiled`
//! kernel and `Naive` re-evaluation) must agree on the verdict **and** on
//! the sample index the verdict was reached at, and the verdict must match
//! an independent brute-force reading of the bounded-FLTL trace semantics.
//!
//! A second property drives a checker that takes the O(1) clean-sample
//! path beside a witness-capturing twin that keeps the per-sample path,
//! through mid-run registrations, resets, queries and model
//! invalidations; results and `MonitorCounters` must match the twin's and
//! every decision must match brute-force `eval`.
//!
//! A formula synthesis refuses must still register under both engines and
//! decide where `eval` says, on formula progression.
//!
//! The testkit harness shrinks any diverging (formula, trace) pair.

use std::rc::Rc;

use minic::{lower, parse as parse_c, share_interp, Interp, SharedInterp};
use sctc_core::{esw, ClosureProp, EngineKind, Proposition, Sctc, WitnessConfig};
use sctc_temporal::{eval_at, Formula, SynthesisCache, Verdict};
use testkit::{Checker, Source};

const NPROPS: usize = 3;
const MAX_BOUND: u64 = 16;
const MAX_DEPTH: u32 = 4;
/// Horizon of a depth-4 formula with bounds ≤ 16 is at most 4 * (16 + 1);
/// a couple of spare samples guarantee every generated formula decides.
const TRACE_LEN: usize = 72;

/// Independent finite-trace semantics: does `f` hold at `trace[pos..]`?
/// `trace[i]` is a bitmask where bit `k` means `p<k>` holds at sample `i`.
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

/// Random fully bounded formulas over `p0..p2`, depth ≤ `depth`.
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

/// A dirty/clean trace script: `Some(v)` writes valuation `v` into the
/// model before sampling (a dirty sample), `None` samples the unchanged
/// model (a clean sample the change-driven engine may compress).
fn gen_trace(src: &mut Source<'_>) -> Vec<Option<u64>> {
    (0..TRACE_LEN)
        .map(|_| {
            if src.chance(40) {
                Some(src.u64_in(0, (1 << NPROPS) - 1))
            } else {
                None
            }
        })
        .collect()
}

fn fresh_model() -> SharedInterp {
    let src = "int g0 = 0; int g1 = 0; int g2 = 0; int main() { return 0; }";
    let ir = Rc::new(lower(&parse_c(src).expect("model parses")).expect("model lowers"));
    share_interp(Interp::with_virtual_memory(ir))
}

fn bind_props(interp: &SharedInterp) -> Vec<Box<dyn Proposition>> {
    (0..NPROPS)
        .map(|i| esw::global_nonzero(&format!("p{i}"), interp.clone(), &format!("g{i}")))
        .collect()
}

#[test]
fn engines_agree_with_brute_force_on_dirty_clean_traces() {
    Checker::new("engines_agree_with_brute_force_on_dirty_clean_traces")
        .cases(120)
        .run(
            |src| (gen_formula(src, MAX_DEPTH), gen_trace(src)),
            |(f, script)| {
                // One model + checker per engine so each engine's watch
                // hooks observe exactly the same write sequence.
                let engines = [EngineKind::Compiled, EngineKind::Naive];
                let models: Vec<SharedInterp> = engines.iter().map(|_| fresh_model()).collect();
                let mut checkers: Vec<Sctc> = engines
                    .iter()
                    .zip(&models)
                    .map(|(&engine, model)| {
                        let mut sctc = Sctc::new();
                        sctc.add_property("prop", f, bind_props(model), engine)
                            .expect("generated formula binds");
                        sctc
                    })
                    .collect();

                // Replay the script, recording the valuation each sample
                // actually observed for the brute-force oracle.
                let mut valuation = 0u64;
                let mut trace = Vec::with_capacity(script.len());
                for step in script {
                    if let Some(v) = *step {
                        valuation = v;
                        for model in &models {
                            let mut interp = model.borrow_mut();
                            for bit in 0..NPROPS {
                                let name = format!("g{bit}");
                                let value = i32::from(v & (1 << bit) != 0);
                                interp.set_global_by_name(&name, value);
                            }
                        }
                    }
                    trace.push(valuation);
                    for sctc in &mut checkers {
                        sctc.sample();
                    }
                }

                let expected = holds(f, &trace, 0);
                let results: Vec<_> = checkers.iter_mut().map(|s| s.results()).collect();
                let reference = &results[0][0];
                assert!(
                    reference.verdict.is_decided(),
                    "bounded formula undecided after {TRACE_LEN} samples: {f}"
                );
                assert_eq!(
                    reference.verdict == Verdict::True,
                    expected,
                    "change-driven verdict disagrees with brute-force semantics for {f}"
                );
                for (engine, result) in engines.iter().zip(&results).skip(1) {
                    assert_eq!(
                        result[0].verdict, reference.verdict,
                        "{engine:?} verdict diverges for {f}"
                    );
                    assert_eq!(
                        result[0].decided_at, reference.decided_at,
                        "{engine:?} decision sample diverges for {f}"
                    );
                }
                // Counter sanity: the driven checker never reads more atoms
                // than the naive bookkeeping says exist.
                let counters = checkers[0].counters();
                assert!(counters.atoms_evaluated <= counters.atoms_total);
            },
        );
}

#[test]
fn compiled_and_naive_engines_agree_under_fault_injection_and_smc_sampling() {
    // Synthetic traces above prove the engines equivalent in vitro; this
    // drives the naive reference through the *real* fault stack — bit
    // flips, stuck-ats, power cuts tearing the ESW down mid-operation —
    // and through a statistical campaign, and demands bit-identical
    // matrices and reports against the change-driven default.
    use esw_verify::faults::{run_fault_campaign, FaultCampaignSpec};
    use esw_verify::smc::{run_smc_campaign, SmcSpec};
    use sctc_campaign::FlowKind;

    let campaign = FaultCampaignSpec::derived(40, 2008)
        .with_chunk(8)
        .with_fault_percent(50)
        .with_jobs(2);
    let compiled = run_fault_campaign(&campaign);
    assert!(
        compiled.matrix.records.iter().any(|r| r.fired),
        "the campaign must actually inject faults for the probe to bite"
    );
    let naive = run_fault_campaign(&campaign.clone().with_engine(EngineKind::Naive));
    assert_eq!(
        compiled.matrix.fingerprint(),
        naive.matrix.fingerprint(),
        "Naive fault matrix diverges from Compiled"
    );

    let smc = SmcSpec::planted_torn(FlowKind::Derived, 200, 2008)
        .with_max_samples(60)
        .with_jobs(2);
    let compiled = run_smc_campaign(&smc);
    let naive = run_smc_campaign(&smc.with_engine(EngineKind::Naive));
    assert_eq!(compiled.verdict, naive.verdict, "Naive verdict");
    assert_eq!(compiled.samples, naive.samples, "Naive samples");
    assert_eq!(compiled.fingerprint(), naive.fingerprint(), "Naive");
}

#[test]
fn telemetry_on_and_off_runs_are_bit_identical() {
    // The trace plane's zero-cost discipline: flipping event emission on
    // or off must never reach a verdict, a sample count, or a fingerprint.
    // Same real stacks as the engine-equivalence test above — change-driven
    // campaign, fault injection, SMC sampling — each run twice around the
    // global telemetry switch.
    use esw_verify::faults::{run_fault_campaign, FaultCampaignSpec};
    use esw_verify::smc::{run_smc_campaign, SmcSpec};
    use sctc_campaign::{run_campaign, CampaignSpec, FlowKind};
    use sctc_obs::trace;

    let spec = CampaignSpec::derived(60, 2008).with_jobs(2);
    let faults = FaultCampaignSpec::derived(40, 2008)
        .with_chunk(8)
        .with_fault_percent(50)
        .with_jobs(2);
    let smc = SmcSpec::planted_torn(FlowKind::Derived, 200, 2008)
        .with_max_samples(60)
        .with_jobs(2);

    trace::set_enabled(false);
    let campaign_off = run_campaign(&spec);
    let faults_off = run_fault_campaign(&faults);
    let smc_off = run_smc_campaign(&smc);

    trace::set_enabled(true);
    let campaign_on = run_campaign(&spec);
    let faults_on = run_fault_campaign(&faults);
    let smc_on = run_smc_campaign(&smc);

    assert_eq!(
        campaign_off.fingerprint(),
        campaign_on.fingerprint(),
        "campaign fingerprint moved with the telemetry switch"
    );
    assert_eq!(
        faults_off.matrix.fingerprint(),
        faults_on.matrix.fingerprint(),
        "fault matrix fingerprint moved with the telemetry switch"
    );
    assert_eq!(smc_off.verdict, smc_on.verdict, "SMC verdict");
    assert_eq!(smc_off.samples, smc_on.samples, "SMC sample count");
    assert_eq!(
        smc_off.fingerprint(),
        smc_on.fingerprint(),
        "SMC fingerprint moved with the telemetry switch"
    );

    // The span profiler obeys the same discipline: a profiled run finds
    // exactly what the plain run found, and an unprofiled run collects no
    // spans at all.
    let campaign_prof = run_campaign(&spec.clone().with_profile(true));
    let faults_prof = run_fault_campaign(&faults.clone().with_profile(true));
    let smc_prof = run_smc_campaign(&smc.with_profile(true));
    assert_eq!(campaign_on.fingerprint(), campaign_prof.fingerprint());
    assert_eq!(
        faults_on.matrix.fingerprint(),
        faults_prof.matrix.fingerprint()
    );
    assert_eq!(smc_on.fingerprint(), smc_prof.fingerprint());
    for (stack, plain, profiled) in [
        ("campaign", &campaign_on.spans, &campaign_prof.spans),
        ("faults", &faults_on.matrix.spans, &faults_prof.matrix.spans),
        ("smc", &smc_on.matrix.spans, &smc_prof.matrix.spans),
    ] {
        assert!(plain.is_empty(), "unprofiled {stack} run collected spans");
        assert!(
            !profiled.is_empty(),
            "profiled {stack} run collected no spans"
        );
    }
}

#[test]
fn reused_checkers_stay_equivalent_across_reset() {
    // `Sctc::reset` reuse: one checker per engine serves two cases in a
    // row (with a reset and a model rewind between), and the second case
    // must produce exactly the verdicts the first did — no pending stutter
    // runs, memo state, or compiled cursor may leak across the reset.
    Checker::new("reused_checkers_stay_equivalent_across_reset")
        .cases(40)
        .run(
            |src| (gen_formula(src, MAX_DEPTH), gen_trace(src)),
            |(f, script)| {
                let engines = [EngineKind::Compiled, EngineKind::Naive];
                let models: Vec<SharedInterp> = engines.iter().map(|_| fresh_model()).collect();
                let mut checkers: Vec<Sctc> = engines
                    .iter()
                    .zip(&models)
                    .map(|(&engine, model)| {
                        let mut sctc = Sctc::new();
                        sctc.add_property("prop", f, bind_props(model), engine)
                            .expect("generated formula binds");
                        sctc
                    })
                    .collect();

                let replay = |checkers: &mut Vec<Sctc>| {
                    for step in script {
                        if let Some(v) = *step {
                            for model in &models {
                                let mut interp = model.borrow_mut();
                                for bit in 0..NPROPS {
                                    let name = format!("g{bit}");
                                    let value = i32::from(v & (1 << bit) != 0);
                                    interp.set_global_by_name(&name, value);
                                }
                            }
                        }
                        for sctc in checkers.iter_mut() {
                            sctc.sample();
                        }
                    }
                    let results: Vec<(Verdict, Option<u64>)> = checkers
                        .iter_mut()
                        .map(|s| {
                            let r = &s.results()[0];
                            (r.verdict, r.decided_at)
                        })
                        .collect();
                    results
                };

                let first = replay(&mut checkers);
                // Rewind: checkers reset, models back to all-zero globals.
                for sctc in &mut checkers {
                    sctc.reset();
                }
                for model in &models {
                    let mut interp = model.borrow_mut();
                    for bit in 0..NPROPS {
                        interp.set_global_by_name(&format!("g{bit}"), 0);
                    }
                }
                let second = replay(&mut checkers);
                assert_eq!(
                    first, second,
                    "a reset checker must replay case results bit-identically for {f}"
                );
                for (engine, pair) in engines.iter().zip(&second).skip(1) {
                    assert_eq!(
                        *pair, second[0],
                        "{engine:?} diverges from Compiled after reset for {f}"
                    );
                }
            },
        );
}

#[test]
fn wide_formula_exercises_the_packed_compiled_fallback() {
    // 7 atoms → 128 transition columns → the compiled kernel's self-loop
    // flags span two packed u64 words per state. Both engines must agree
    // over real model writes that toggle the high-bit atoms.
    let nprops = 7usize;
    let src = (0..nprops)
        .map(|i| format!("int g{i} = 0; "))
        .collect::<String>()
        + "int main() { return 0; }";
    let ir = Rc::new(lower(&parse_c(&src).expect("model parses")).expect("model lowers"));
    let text = "G (p0 -> F[<=6] (p1 | p2 | p3 | p4 | p5 | p6))";
    let f = sctc_temporal::parse(text).expect("wide formula parses");

    let engines = [EngineKind::Compiled, EngineKind::Naive];
    let models: Vec<SharedInterp> = engines
        .iter()
        .map(|_| share_interp(Interp::with_virtual_memory(ir.clone())))
        .collect();
    let mut checkers: Vec<Sctc> = engines
        .iter()
        .zip(&models)
        .map(|(&engine, model)| {
            let props: Vec<Box<dyn Proposition>> = (0..nprops)
                .map(|i| esw::global_nonzero(&format!("p{i}"), model.clone(), &format!("g{i}")))
                .collect();
            let mut sctc = Sctc::new();
            sctc.add_property("wide", &f, props, engine).unwrap();
            sctc
        })
        .collect();

    // A deterministic script mixing dirty writes (some touching only the
    // high valuation bits 64..128) with clean stutter stretches.
    let mut lcg = 0x2008_0310_u64;
    for step in 0..400u32 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if step % 3 == 0 {
            let v = (lcg >> 33) & 0x7f;
            for model in &models {
                let mut interp = model.borrow_mut();
                for bit in 0..nprops {
                    let value = i32::from(v & (1 << bit) != 0);
                    interp.set_global_by_name(&format!("g{bit}"), value);
                }
            }
        }
        for sctc in &mut checkers {
            sctc.sample();
        }
    }
    let results: Vec<_> = checkers.iter_mut().map(|s| s.results()).collect();
    for (engine, result) in engines.iter().zip(&results).skip(1) {
        assert_eq!(result[0].verdict, results[0][0].verdict, "{engine:?}");
        assert_eq!(
            result[0].decided_at, results[0][0].decided_at,
            "{engine:?} decision sample"
        );
    }
}

/// Where a progression-monitored property decides, by brute force: the
/// shortest prefix of `trace` whose every tried continuation gives `eval`
/// the same answer, as `(verdict, prefix length)`. The continuations hold
/// one valuation for `pad` samples: all false, all true, and `p0` alone,
/// which between them can still flip any pending obligation of the
/// fallback test's formula.
fn decision_by_eval(f: &Formula, trace: &[u64], nprops: usize, pad: usize) -> (bool, usize) {
    let bit = |name: &str| name[1..].parse::<u32>().expect("p<i> names");
    let all = (1u64 << nprops) - 1;
    for d in 0..=trace.len() {
        let verdicts: Vec<bool> = [0, all, 1]
            .iter()
            .map(|&filler| {
                let mut t = trace[..d].to_vec();
                t.resize(d + pad, filler);
                eval_at(f, &t, 0, &bit)
            })
            .collect();
        if verdicts.iter().all(|&v| v == verdicts[0]) {
            return (verdicts[0], d);
        }
    }
    panic!("{f} undecided after {} samples", trace.len());
}

#[test]
fn refused_synthesis_falls_back_to_progression_under_both_engines() {
    // 13 propositions: past the 12-proposition column limit of explicit
    // synthesis, so neither engine gets an automaton. The property must
    // still register, and decide where brute-force `eval` says, on an
    // interpreter-driven trace.
    let nprops = 13usize;
    let src = (0..nprops)
        .map(|i| format!("int g{i} = 0; "))
        .collect::<String>()
        + "int main() { return 0; }";
    let ir = Rc::new(lower(&parse_c(&src).expect("model parses")).expect("model lowers"));
    let responses = (1..nprops)
        .map(|i| format!("p{i}"))
        .collect::<Vec<_>>()
        .join(" | ");
    let text = format!("G[<=40] (p0 -> F[<=3] ({responses}))");
    let f = sctc_temporal::parse(&text).expect("wide formula parses");

    for seed in 0..24u64 {
        for engine in [EngineKind::Compiled, EngineKind::Naive] {
            let model = share_interp(Interp::with_virtual_memory(ir.clone()));
            let props: Vec<Box<dyn Proposition>> = (0..nprops)
                .map(|i| esw::global_nonzero(&format!("p{i}"), model.clone(), &format!("g{i}")))
                .collect();
            let mut sctc = Sctc::new();
            sctc.add_property("wide", &f, props, engine)
                .expect("a refused synthesis falls back instead of failing");

            // Triggers on p0; each seed answers them more or less sparsely,
            // so some runs starve a trigger and some hold to the bound.
            let mut lcg = 0x2008_0310_u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut trace = Vec::new();
            for _ in 0..60 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let trigger = u64::from((lcg >> 40).is_multiple_of(4));
                let response = if (lcg >> 20) % 16 < seed % 16 {
                    1u64 << (1 + (lcg >> 50) % 12)
                } else {
                    0
                };
                let v = trigger | response;
                let mut interp = model.borrow_mut();
                for i in 0..nprops {
                    interp.set_global_by_name(&format!("g{i}"), i32::from(v >> i & 1 == 1));
                }
                drop(interp);
                sctc.sample();
                trace.push(v);
            }

            let result = &sctc.results()[0];
            assert!(
                result.synthesis.is_none(),
                "{engine:?}: no automaton was built"
            );
            let (holds, d) = decision_by_eval(&f, &trace, nprops, 48);
            let want = if holds { Verdict::True } else { Verdict::False };
            assert_eq!(result.verdict, want, "{engine:?} seed {seed}: verdict");
            assert_eq!(
                result.decided_at,
                Some(d as u64),
                "{engine:?} seed {seed}: decision sample"
            );
        }
    }
}

/// RAM word behind `p2` in the clean-path test; `NOISE_ADDR` is written
/// but observed by no proposition.
const P2_ADDR: u32 = 0x40;
const NOISE_ADDR: u32 = 0x80;
/// Longest stutter run the clean-path test drives, whatever the automaton.
const MAX_RUN: u64 = 3_000;
/// Samples appended after a case's script: more than any generated
/// formula's horizon, so every property decides.
const PAD: usize = 80;

/// One scripted step of the clean-path test.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Writes the observed variables selected by `mask` (bit k feeds `pk`)
    /// to the matching bits of `value`, then samples once.
    Write {
        mask: u64,
        value: u64,
    },
    /// Writes variables no proposition observes, then samples once.
    Noise,
    /// Samples an unchanged model `n` times.
    Stutter(u64),
    /// Samples an unchanged model `extra` times more than the largest
    /// registered automaton has states, so flushes outrun every acyclic
    /// automaton path.
    LongStutter(u64),
    /// Power-loss restore of the all-zero RAM snapshot, then one sample.
    RestoreRam,
    /// `Interp::reset` (globals back to zero), then one sample.
    InterpReset,
    /// Registers the next not-yet-registered property of the case.
    AddProperty,
    Reset,
    ResetSampleCount,
    /// `all_decided`, `any_violated` and `results` mid-run.
    Query,
}

/// What else the checker carries besides its watched, driven properties.
#[derive(Clone, Debug)]
enum Extra {
    None,
    /// A driven property whose propositions are closures: always-dirty
    /// atoms, which keep the clean path off while it is undecided.
    Closure(Formula),
    /// A property on the naive engine, which samples every proposition
    /// every time and so also keeps the clean path off.
    Naive(Formula),
}

#[derive(Debug)]
struct CleanCase {
    /// Driven properties; the first is registered up front, the others
    /// by `Op::AddProperty`.
    properties: Vec<Formula>,
    extra: Extra,
    ops: Vec<Op>,
}

fn gen_clean_case(src: &mut Source<'_>) -> CleanCase {
    let properties = (0..src.usize_in(1, 3))
        .map(|_| gen_formula(src, MAX_DEPTH))
        .collect();
    let extra = match src.weighted_idx(&[2, 1, 1]) {
        0 => Extra::None,
        1 => Extra::Closure(gen_formula(src, MAX_DEPTH)),
        _ => Extra::Naive(gen_formula(src, MAX_DEPTH)),
    };
    let ops = (0..src.usize_in(4, 30))
        .map(
            |_| match src.weighted_idx(&[6, 2, 6, 2, 1, 1, 2, 1, 1, 2]) {
                0 => Op::Write {
                    mask: src.u64_in(1, (1 << NPROPS) - 1),
                    value: src.u64_in(0, (1 << NPROPS) - 1),
                },
                1 => Op::Noise,
                2 => Op::Stutter(src.u64_in(1, 40)),
                3 => Op::LongStutter(src.u64_in(0, 20)),
                4 => Op::RestoreRam,
                5 => Op::InterpReset,
                6 => Op::AddProperty,
                7 => Op::Reset,
                8 => Op::ResetSampleCount,
                _ => Op::Query,
            },
        )
        .collect();
    CleanCase {
        properties,
        extra,
        ops,
    }
}

/// The models a clean-path case observes: an interpreter (`p0`, `p1` are
/// globals `g0`, `g1`) and a SoC memory (`p2` is a RAM word).
struct CleanModels {
    interp: SharedInterp,
    soc: esw_verify::cpu::SharedSoc,
    pristine_ram: Vec<u8>,
}

impl CleanModels {
    fn new() -> Self {
        use esw_verify::cpu::{share, Memory, Soc};
        let src = "int g0 = 0; int g1 = 0; int h = 0; int main() { return 0; }";
        let ir = Rc::new(lower(&parse_c(src).expect("model parses")).expect("model lowers"));
        let soc = share(Soc::new(Memory::new(256)));
        let pristine_ram = soc.borrow().mem.snapshot_ram();
        CleanModels {
            interp: share_interp(Interp::with_virtual_memory(ir)),
            soc,
            pristine_ram,
        }
    }

    /// Watched bindings: interpreter-global and memory-word propositions.
    fn watched(&self) -> Vec<Box<dyn Proposition>> {
        vec![
            esw::global_nonzero("p0", self.interp.clone(), "g0"),
            esw::global_nonzero("p1", self.interp.clone(), "g1"),
            sctc_core::mem::word_nonzero("p2", self.soc.clone(), P2_ADDR),
        ]
    }

    /// The same observations as keyless closures (always-dirty atoms).
    fn closures(&self) -> Vec<Box<dyn Proposition>> {
        let (i0, i1, soc) = (self.interp.clone(), self.interp.clone(), self.soc.clone());
        vec![
            ClosureProp::boxed("p0", move || i0.borrow().global_by_name("g0") != 0),
            ClosureProp::boxed("p1", move || i1.borrow().global_by_name("g1") != 0),
            ClosureProp::boxed("p2", move || {
                soc.borrow().mem.peek_u32(P2_ADDR).expect("RAM word") != 0
            }),
        ]
    }

    /// The valuation the models hold right now (bit k is `pk`).
    fn valuation(&self) -> u64 {
        let interp = self.interp.borrow();
        let ram = self.soc.borrow().mem.peek_u32(P2_ADDR).expect("RAM word");
        u64::from(interp.global_by_name("g0") != 0)
            | u64::from(interp.global_by_name("g1") != 0) << 1
            | u64::from(ram != 0) << 2
    }

    fn write(&self, mask: u64, value: u64) {
        let bit = |k: u64| value >> k & 1;
        let mut interp = self.interp.borrow_mut();
        for k in 0..2 {
            if mask >> k & 1 == 1 {
                interp.set_global_by_name(&format!("g{k}"), bit(k) as i32);
            }
        }
        if mask & 0b100 != 0 {
            // Any nonzero word makes `p2` true.
            let word = bit(2) as u32 * 0x5a;
            self.soc
                .borrow_mut()
                .mem
                .write_u32(P2_ADDR, word)
                .expect("RAM");
        }
    }

    fn noise(&self) {
        let mut interp = self.interp.borrow_mut();
        let h = interp.global_by_name("h");
        interp.set_global_by_name("h", h.wrapping_add(1));
        let mut soc = self.soc.borrow_mut();
        let w = soc.mem.peek_u32(NOISE_ADDR).expect("RAM word");
        soc.mem
            .write_u32(NOISE_ADDR, w.wrapping_add(1))
            .expect("RAM");
    }
}

/// Brute-force reading of one property's decision over the samples of
/// its current case. A decided verdict must be what `eval` gives on the
/// case's first `decided_at` samples followed by *any* continuation (two
/// are tried), and, once the whole padded case is known (`complete`),
/// what `eval` gives on the case itself.
fn check_against_eval(
    f: &Formula,
    case: &[u64],
    verdict: Verdict,
    decided_at: Option<u64>,
    complete: bool,
) {
    let bit = |name: &str| name[1..].parse::<u32>().expect("p<i> names");
    if complete {
        assert!(verdict.is_decided(), "{f} undecided after the pad");
        assert_eq!(
            eval_at(f, case, 0, &bit),
            verdict == Verdict::True,
            "verdict disagrees with eval for {f}"
        );
    }
    if !verdict.is_decided() {
        assert_eq!(decided_at, None, "{f}: pending with a decision index");
        return;
    }
    // A formula decided before its first sample (`true`, say) has no index.
    let d = decided_at.unwrap_or(0) as usize;
    assert!(
        d <= case.len(),
        "{f}: decided at {d} of {} samples",
        case.len()
    );
    let last = d.checked_sub(1).map_or(0, |i| case[i]);
    for filler in [last, !last & ((1 << NPROPS) - 1)] {
        let mut trace = case[..d].to_vec();
        trace.resize(d + PAD, filler);
        assert_eq!(
            eval_at(f, &trace, 0, &bit),
            verdict == Verdict::True,
            "{f} decided at {d}, but eval disagrees on another continuation"
        );
    }
}

/// A checker that may take the clean path beside a twin with witness
/// capture on, which keeps the per-sample path, both observing the same
/// models.
struct CleanPair {
    fast: Sctc,
    twin: Sctc,
    /// Per registered property: its formula and where its current case
    /// starts in `log`.
    props: Vec<(Formula, usize)>,
    /// The valuation of every sample taken.
    log: Vec<u64>,
    /// The largest state count among the registered automata.
    max_states: u64,
}

impl CleanPair {
    fn new() -> Self {
        let mut twin = Sctc::new();
        twin.enable_witnesses(WitnessConfig::default());
        CleanPair {
            fast: Sctc::new(),
            twin,
            props: Vec::new(),
            log: Vec::new(),
            max_states: 0,
        }
    }

    fn register(&mut self, models: &CleanModels, f: &Formula, engine: EngineKind, closures: bool) {
        for sctc in [&mut self.fast, &mut self.twin] {
            let bindings = if closures {
                models.closures()
            } else {
                models.watched()
            };
            sctc.add_property("prop", f, bindings, engine)
                .expect("generated formula binds");
        }
        let states = SynthesisCache::global()
            .synthesize(f)
            .expect("generated formula synthesizes")
            .stats()
            .states;
        self.max_states = self.max_states.max(states as u64);
        self.props.push((f.clone(), self.log.len()));
    }

    fn sample(&mut self, models: &CleanModels, n: u64) {
        let v = models.valuation();
        for _ in 0..n {
            self.fast.sample();
            self.twin.sample();
            self.log.push(v);
        }
    }

    /// Queries both checkers and holds every decision against `eval`.
    fn compare(&mut self, complete: bool) {
        assert_eq!(self.fast.all_decided(), self.twin.all_decided());
        assert_eq!(self.fast.any_violated(), self.twin.any_violated());
        let (fast, twin) = (self.fast.results(), self.twin.results());
        for ((a, b), (f, start)) in fast.iter().zip(&twin).zip(&self.props) {
            assert_eq!((a.verdict, a.decided_at), (b.verdict, b.decided_at), "{f}");
            check_against_eval(f, &self.log[*start..], a.verdict, a.decided_at, complete);
        }
    }

    fn assert_same_work(&self, after: &str) {
        assert_eq!(
            self.fast.samples(),
            self.twin.samples(),
            "samples after {after}"
        );
        assert_eq!(
            self.fast.counters(),
            self.twin.counters(),
            "counters after {after}"
        );
    }
}

#[test]
fn clean_sample_path_matches_the_per_sample_path_and_brute_force() {
    // Both checkers observe the *same* models, so each must see changes
    // the other has already drained. Every step compares their counters;
    // every query compares their results and holds each decision against
    // `eval`.
    Checker::new("clean_sample_path_matches_the_per_sample_path_and_brute_force")
        .cases(80)
        .run(gen_clean_case, |case| {
            let models = CleanModels::new();
            let mut pair = CleanPair::new();
            match &case.extra {
                Extra::None => {}
                Extra::Closure(f) => pair.register(&models, f, EngineKind::Compiled, true),
                Extra::Naive(f) => pair.register(&models, f, EngineKind::Naive, false),
            }
            let mut pending = case.properties.iter();
            if let Some(f) = pending.next() {
                pair.register(&models, f, EngineKind::Compiled, false);
            }
            for op in &case.ops {
                match *op {
                    Op::Write { mask, value } => {
                        models.write(mask, value);
                        pair.sample(&models, 1);
                    }
                    Op::Noise => {
                        models.noise();
                        pair.sample(&models, 1);
                    }
                    Op::Stutter(n) => pair.sample(&models, n),
                    Op::LongStutter(extra) => {
                        pair.sample(&models, (pair.max_states + extra).min(MAX_RUN));
                    }
                    Op::RestoreRam => {
                        models
                            .soc
                            .borrow_mut()
                            .mem
                            .restore_ram(&models.pristine_ram);
                        pair.sample(&models, 1);
                    }
                    Op::InterpReset => {
                        models.interp.borrow_mut().reset();
                        pair.sample(&models, 1);
                    }
                    Op::AddProperty => {
                        if let Some(f) = pending.next() {
                            pair.register(&models, f, EngineKind::Compiled, false);
                        }
                    }
                    Op::Reset => {
                        pair.fast.reset();
                        pair.twin.reset();
                        let now = pair.log.len();
                        for (_, start) in &mut pair.props {
                            *start = now;
                        }
                    }
                    Op::ResetSampleCount => {
                        pair.fast.reset_sample_count();
                        pair.twin.reset_sample_count();
                    }
                    Op::Query => pair.compare(false),
                }
                pair.assert_same_work(&format!("{op:?}"));
            }
            pair.sample(&models, PAD as u64);
            pair.assert_same_work("the pad");
            pair.compare(true);
        });
}
