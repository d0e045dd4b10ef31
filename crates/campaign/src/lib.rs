//! # sctc-campaign — sharded multi-threaded verification campaigns
//!
//! The paper's whole argument is throughput: approach 2 exists because
//! approach 1 cannot push 10^6 constrained-random test cases. This crate
//! scales either flow across cores the way statistical model checkers
//! parallelise simulation-based verification — many **independent seeded
//! sessions**, not one shared simulation:
//!
//! 1. [`shard_plan`] cuts the case budget into fixed-size shards, each with
//!    a SplitMix64-derived stimulus seed. The plan depends only on the
//!    campaign parameters, so the merged result is **bit-identical for any
//!    worker count**.
//! 2. [`run_shards`] fans the plan out over `N` worker threads. The flows
//!    are deliberately `!Send` (the kernel mirrors SystemC's sequential
//!    delta-cycle semantics), so each worker builds its own
//!    single-threaded flow instance per shard — shard-per-thread
//!    parallelism, nothing simulation-side crosses threads.
//! 3. [`CampaignReport::merge`] reduces the per-shard reports: 3-valued
//!    verdict conjunction (one violating shard ⇒ campaign `False`), merged
//!    return-code coverage, summed sample/kernel counters, and per-shard +
//!    aggregate throughput.
//!
//! Registration cost stays flat as shards multiply because every shard
//! shares one compiled kernel per distinct formula through
//! [`sctc_temporal::SynthesisCache::synthesize_compiled`].
//!
//! ## Example
//!
//! ```no_run
//! use sctc_campaign::{run_campaign, CampaignSpec};
//!
//! let report = run_campaign(&CampaignSpec::derived(10_000, 42).with_jobs(8));
//! assert!(report.violations.is_empty());
//! println!("{}", report.to_table());
//! ```

#![warn(missing_docs)]

mod eee;
mod report;
mod runner;
mod shard;

pub use eee::{resolve_jobs, run_campaign, CampaignSpec, FlowKind};
pub use report::{CampaignFingerprint, CampaignReport, MergedProperty, ShardOutcome, ShardStats};
pub use runner::{lease_workers, leased_workers, run_shards, run_shards_until, WorkerLease};
pub use shard::{default_chunk, shard_plan, ShardSpec};
