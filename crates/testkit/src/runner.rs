//! The property-test runner: case generation, integrated shrinking, and
//! failure-tape persistence.
//!
//! ```no_run
//! use testkit::check;
//!
//! check("sum_is_commutative", |src| (src.i64_in(-99, 99), src.i64_in(-99, 99)),
//!     |&(a, b)| assert_eq!(a + b, b + a));
//! ```
//!
//! * `TESTKIT_CASES=<n>` overrides the case count of every property (deep
//!   nightly runs use large values, quick local runs small ones).
//! * `TESTKIT_SEED=<n>` re-seeds the whole run for reproduction.
//! * Failing tapes are persisted to `target/testkit-regressions/<name>.tape`
//!   and replayed automatically at the start of the next run.

use std::any::Any;
use std::cell::Cell;
use std::fmt::Debug;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Once;

use crate::rng::{mix_seed, Rng};
use crate::source::{Source, Tape};

/// Default base seed (stable across runs so CI is reproducible).
pub const DEFAULT_SEED: u64 = 0x5EED_2008_0310;

/// Default number of cases per property.
pub const DEFAULT_CASES: u64 = 100;

/// Budget of property re-runs the shrinker may spend.
const SHRINK_RUNS: u32 = 4000;

/// Marker payload for discarded cases (see [`assume`]).
struct Discard;

/// Discards the current case when `cond` is false, like proptest's
/// `prop_assume!`: the case counts as neither pass nor failure.
pub fn assume(cond: bool) {
    if !cond {
        panic::panic_any(Discard);
    }
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Installs (once) a panic hook that suppresses messages while the runner
/// probes candidate cases; real failures still print normally.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

enum Outcome {
    Pass,
    Discarded,
    Fail,
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Directory regression tapes are persisted to.
pub fn regression_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("testkit-regressions")
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn regression_path(name: &str) -> PathBuf {
    regression_dir().join(format!("{}.tape", sanitize(name)))
}

fn load_regressions(name: &str) -> Vec<Tape> {
    let Ok(text) = fs::read_to_string(regression_path(name)) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|l| {
            l.split(',')
                .filter_map(|t| t.trim().parse::<u64>().ok())
                .collect()
        })
        .collect()
}

fn persist_regression(name: &str, tape: &Tape) -> Option<PathBuf> {
    let path = regression_path(name);
    fs::create_dir_all(regression_dir()).ok()?;
    let mut existing = load_regressions(name);
    if existing.contains(tape) {
        return Some(path);
    }
    existing.push(tape.clone());
    let mut text = String::from(
        "# testkit regression tapes — replayed automatically at the start of\n\
         # every run of this property; delete this file to forget them.\n",
    );
    for t in &existing {
        let line: Vec<String> = t.iter().map(|v| v.to_string()).collect();
        text.push_str(&line.join(","));
        text.push('\n');
    }
    fs::write(&path, text).ok()?;
    Some(path)
}

/// Configuration of one property check.
#[derive(Clone, Debug)]
pub struct Checker {
    name: String,
    cases: u64,
    seed: u64,
}

impl Checker {
    /// A checker with defaults, honouring `TESTKIT_CASES` / `TESTKIT_SEED`.
    pub fn new(name: &str) -> Self {
        Checker {
            name: name.to_owned(),
            cases: env_u64("TESTKIT_CASES").unwrap_or(DEFAULT_CASES),
            seed: env_u64("TESTKIT_SEED").unwrap_or(DEFAULT_SEED),
        }
    }

    /// Sets the case count unless `TESTKIT_CASES` overrides it.
    pub fn cases(mut self, n: u64) -> Self {
        if env_u64("TESTKIT_CASES").is_none() {
            self.cases = n;
        }
        self
    }

    /// Runs the property over `cases` generated values; on failure, shrinks
    /// the choice tape, persists it, and panics with the minimal case.
    pub fn run<T: Debug>(&self, gen: impl Fn(&mut Source<'_>) -> T, prop: impl Fn(&T)) {
        install_quiet_hook();

        let run_tape = |tape: &[u64]| -> Outcome {
            let result = quiet_catch(|| {
                let mut src = Source::replay(tape);
                let value = gen(&mut src);
                prop(&value);
            });
            match result {
                Ok(()) => Outcome::Pass,
                Err(payload) if payload.is::<Discard>() => Outcome::Discarded,
                Err(_) => Outcome::Fail,
            }
        };

        // 1. Replay persisted regression tapes first.
        for tape in load_regressions(&self.name) {
            if let Outcome::Fail = run_tape(&tape) {
                self.report_failure(&gen, &prop, tape, "persisted regression", run_tape);
            }
        }

        // 2. Fresh cases.
        let mut executed = 0u64;
        let mut attempts = 0u64;
        let max_attempts = self.cases.saturating_mul(10).saturating_add(100);
        while executed < self.cases && attempts < max_attempts {
            let case_seed = mix_seed(self.seed, attempts);
            attempts += 1;
            let mut src = Source::fresh(Rng::new(case_seed));
            let outcome = quiet_catch(AssertUnwindSafe(|| {
                let value = gen(&mut src);
                prop(&value);
            }));
            match outcome {
                Ok(()) => executed += 1,
                Err(payload) if payload.is::<Discard>() => {}
                Err(_) => {
                    // The tape recorded up to the panic point replays the
                    // same draws (missing entries replay as zero).
                    let tape = src.into_tape();
                    let origin = format!(
                        "case {attempts} (seed {}, TESTKIT_SEED={})",
                        case_seed, self.seed
                    );
                    self.report_failure(&gen, &prop, tape, &origin, run_tape);
                }
            }
        }
        assert!(
            executed >= self.cases.min(1),
            "testkit property `{}`: every case was discarded ({} attempts) — \
             weaken the assume() conditions",
            self.name,
            attempts
        );
    }

    /// Shrinks a failing tape, persists it, prints the minimal case and
    /// re-raises the property's panic (un-silenced).
    fn report_failure<T: Debug>(
        &self,
        gen: &impl Fn(&mut Source<'_>) -> T,
        prop: &impl Fn(&T),
        tape: Tape,
        origin: &str,
        run_tape: impl Fn(&[u64]) -> Outcome,
    ) -> ! {
        let minimal = shrink_tape(tape, SHRINK_RUNS, &run_tape);
        let saved = persist_regression(&self.name, &minimal);

        // Reconstruct the minimal value for the report.
        let value = match quiet_catch(AssertUnwindSafe(|| {
            let mut src = Source::replay(&minimal);
            gen(&mut src)
        })) {
            Ok(v) => v,
            Err(payload) => panic!(
                "[testkit] property `{}`: the generator itself panicked on \
                 the minimal tape: {}",
                self.name,
                payload_message(payload.as_ref())
            ),
        };
        eprintln!(
            "\n[testkit] property `{}` FAILED (from {origin})\n\
             [testkit] minimal case: {value:?}\n\
             [testkit] tape ({} draws){}\n\
             [testkit] rerun: the tape replays automatically; \
             TESTKIT_SEED / TESTKIT_CASES control fresh generation\n",
            self.name,
            minimal.len(),
            match &saved {
                Some(p) => format!(" persisted to {}", p.display()),
                None => " (persistence unavailable)".to_owned(),
            },
        );
        // Run the property once more without silencing: its own panic (the
        // original assertion message) becomes the test failure.
        prop(&value);
        panic!(
            "[testkit] property `{}` failed on the original tape but passed \
             on replay — the generator or property is nondeterministic",
            self.name
        );
    }
}

fn env_u64(var: &str) -> Option<u64> {
    std::env::var(var).ok()?.trim().parse().ok()
}

fn quiet_catch<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    QUIET.with(|q| q.set(true));
    let r = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    r
}

/// Greedily simplifies a failing tape: drops blocks of draws, then lowers
/// individual values — keeping every candidate that still fails. Runs at
/// most `budget` property executions.
fn shrink_tape(mut tape: Tape, budget: u32, run: &impl Fn(&[u64]) -> Outcome) -> Tape {
    let mut runs = 0u32;
    let try_candidate = |candidate: &Tape, runs: &mut u32| -> bool {
        if *runs >= budget {
            return false;
        }
        *runs += 1;
        matches!(run(candidate), Outcome::Fail)
    };

    loop {
        let mut improved = false;

        // Pass 1: delete blocks, large to small (shorter tape = simpler value).
        let mut size = tape.len().max(1);
        while size >= 1 {
            let mut start = 0;
            while start < tape.len() {
                let end = (start + size).min(tape.len());
                let mut candidate = tape.clone();
                candidate.drain(start..end);
                if try_candidate(&candidate, &mut runs) {
                    tape = candidate;
                    improved = true;
                    // Retry the same offset: the tape shifted left.
                } else {
                    start += size;
                }
            }
            if size == 1 {
                break;
            }
            size /= 2;
        }

        // Pass 2: lower individual draw values (0, then halving, then -1).
        for i in 0..tape.len() {
            if tape[i] == 0 {
                continue;
            }
            for candidate_value in [0, tape[i] / 2, tape[i] - 1] {
                if candidate_value >= tape[i] {
                    continue;
                }
                let mut candidate = tape.clone();
                candidate[i] = candidate_value;
                if try_candidate(&candidate, &mut runs) {
                    tape = candidate;
                    improved = true;
                    break;
                }
            }
        }

        if !improved || runs >= budget {
            return tape;
        }
    }
}

/// Checks a property with default configuration: the one-liner entry point.
///
/// `gen` draws a value from the [`Source`]; `prop` asserts on it (panic =
/// failure, [`assume`] = discard). Honours `TESTKIT_CASES`/`TESTKIT_SEED`.
pub fn check<T: Debug>(name: &str, gen: impl Fn(&mut Source<'_>) -> T, prop: impl Fn(&T)) {
    Checker::new(name).run(gen, prop);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u64;
        let counter = std::cell::Cell::new(0u64);
        Checker::new("tk_internal_pass").cases(50).run(
            |src| src.i64_in(0, 100),
            |&v| {
                counter.set(counter.get() + 1);
                assert!((0..=100).contains(&v));
            },
        );
        count += counter.get();
        assert!(count >= 50);
    }

    #[test]
    fn assume_discards_without_failing() {
        Checker::new("tk_internal_assume").cases(20).run(
            |src| src.i64_in(0, 10),
            |&v| {
                assume(v % 2 == 0);
                assert_eq!(v % 2, 0);
            },
        );
    }

    #[test]
    fn failing_property_shrinks_to_the_boundary() {
        // Property: all values < 50. Failing values are 50..=1000; the
        // shrinker must land exactly on the boundary value 50.
        let observed = std::cell::Cell::new(0i64);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Checker::new("tk_internal_shrink_boundary").cases(200).run(
                |src| src.i64_in(0, 1000),
                |&v| {
                    if v >= 50 {
                        observed.set(v);
                        panic!("too big: {v}");
                    }
                },
            );
        }));
        assert!(result.is_err(), "property must fail");
        assert_eq!(observed.get(), 50, "must shrink to the minimal failure");
        // Clean up the persisted tape so reruns start fresh.
        let _ = std::fs::remove_file(regression_path("tk_internal_shrink_boundary"));
    }

    #[test]
    fn failing_vector_shrinks_to_minimal_length() {
        // Property: no vector contains a value >= 7. Minimal failure is a
        // single-element vector [7].
        let observed: std::cell::RefCell<Vec<i64>> = std::cell::RefCell::new(Vec::new());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Checker::new("tk_internal_shrink_vec").cases(300).run(
                |src| {
                    let len = src.usize_in(0, 20);
                    (0..len).map(|_| src.i64_in(0, 10)).collect::<Vec<i64>>()
                },
                |v| {
                    if v.iter().any(|&x| x >= 7) {
                        *observed.borrow_mut() = v.clone();
                        panic!("contains a big element: {v:?}");
                    }
                },
            );
        }));
        assert!(result.is_err(), "property must fail");
        assert_eq!(*observed.borrow(), vec![7], "minimal counterexample");
        let _ = std::fs::remove_file(regression_path("tk_internal_shrink_vec"));
    }

    #[test]
    fn regression_tape_round_trips_through_the_file() {
        let name = "tk_internal_persistence";
        let _ = std::fs::remove_file(regression_path(name));
        let tape: Tape = vec![3, 1, 4, 1, 5];
        let path = persist_regression(name, &tape).expect("persist works");
        assert!(path.exists());
        let loaded = load_regressions(name);
        assert_eq!(loaded, vec![tape.clone()]);
        // Persisting the same tape twice does not duplicate it.
        persist_regression(name, &tape);
        assert_eq!(load_regressions(name).len(), 1);
        let _ = std::fs::remove_file(path);
    }
}
