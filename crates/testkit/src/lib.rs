//! # testkit — the self-contained verification test substrate
//!
//! Everything the workspace's randomized and differential tests need,
//! with **zero external dependencies** — the whole repository builds and
//! tests with `CARGO_NET_OFFLINE=true`:
//!
//! * [`Rng`] — a seeded SplitMix64-seeded xoshiro256** PRNG (replaces
//!   `rand` for stimulus generation and benches),
//! * [`Source`] — tape-recorded draws with *integrated
//!   shrinking*: failures shrink by simplifying the recorded choice tape
//!   and re-running the generator, so every shrunk counterexample is one
//!   the generator could have produced (replaces `proptest`),
//! * [`check`] / [`Checker`] — the property runner with failure-tape
//!   persistence to `target/testkit-regressions/` and environment scaling
//!   (`TESTKIT_CASES`, `TESTKIT_SEED`),
//! * [`DiffHarness`] — differential oracles: one input
//!   through N substrates, agreement demanded, scripts shrunk on
//!   divergence,
//! * [`Bernoulli`] — seeded outcome streams of *known* success
//!   probability, the oracle for hypothesis-testing code (the SMC
//!   estimators' α/β error budgets are proved against them).
//!
//! ## Why in-tree?
//!
//! The paper's central claim is that simulation-based monitoring delivers
//! trustworthy verdicts where model checkers abort — which makes
//! disciplined randomized + differential testing *the* correctness tool of
//! this reproduction. That tool must not depend on registry access: the
//! build environments this repo targets are offline.
//!
//! ## Example
//!
//! ```
//! use testkit::{check, Checker};
//!
//! Checker::new("reverse_is_involutive").cases(50).run(
//!     |src| {
//!         let len = src.usize_in(0, 8);
//!         (0..len).map(|_| src.i64_in(-9, 9)).collect::<Vec<i64>>()
//!     },
//!     |v| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         assert_eq!(&w, v);
//!     },
//! );
//! ```

#![warn(missing_docs)]

pub mod diff;
mod rng;
mod runner;
mod source;
pub mod stats;

pub use diff::{DiffHarness, Divergence};
pub use rng::{mix_seed, splitmix64, Rng};
pub use runner::{assume, check, regression_dir, Checker, DEFAULT_CASES, DEFAULT_SEED};
pub use source::{Source, Tape};
pub use stats::{bernoulli, Bernoulli};
