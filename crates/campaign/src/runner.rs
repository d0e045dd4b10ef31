//! The worker pool: N threads pulling shards from a shared queue.
//!
//! The verification flows are deliberately `!Send` (`Rc`/`RefCell` plumbing
//! mirroring SystemC's sequential delta-cycle semantics), so parallelism is
//! **shard-per-thread**: every worker builds its own single-threaded flow
//! instance per shard and nothing simulation-side crosses a thread
//! boundary. Only the shard plan (immutable), the work-queue cursor (an
//! atomic) and the result slots travel between threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::shard::ShardSpec;

/// Process-wide budget of concurrently leased workers.
///
/// One campaign saturating every core is fine; ten concurrent server jobs
/// each spawning `available_parallelism` workers is a 10× oversubscription
/// that thrashes instead of computing. The pool is a plain counter (no
/// queueing): leases are granted immediately, clipped to what is left of
/// the budget, and every caller is guaranteed at least one worker so no
/// job can starve.
static LEASED_WORKERS: AtomicUsize = AtomicUsize::new(0);

fn worker_budget() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // 2× cores: shard workers block on result-slot locks briefly, and a
    // little oversubscription keeps cores busy across job boundaries.
    cores.saturating_mul(2).max(2)
}

/// A grant of worker threads drawn from the process-wide budget. The
/// workers return to the pool on drop.
#[derive(Debug)]
pub struct WorkerLease {
    granted: usize,
}

impl WorkerLease {
    /// Number of workers this lease actually granted (≥ 1, ≤ requested).
    pub fn workers(&self) -> usize {
        self.granted
    }
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        LEASED_WORKERS.fetch_sub(self.granted, Ordering::Relaxed);
    }
}

/// Leases up to `requested` workers from the process-wide budget
/// (2 × `available_parallelism`). Grants are immediate and never zero: a
/// caller over budget still gets one worker, so progress is guaranteed and
/// the pool degrades to sequential execution under heavy oversubscription
/// rather than deadlocking.
///
/// `requested == 0` means "all cores" (mirroring [`resolve_jobs`]).
///
/// [`resolve_jobs`]: crate::resolve_jobs
pub fn lease_workers(requested: usize) -> WorkerLease {
    let want = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    let budget = worker_budget();
    let mut current = LEASED_WORKERS.load(Ordering::Relaxed);
    loop {
        let headroom = budget.saturating_sub(current);
        let granted = want.min(headroom).max(1);
        match LEASED_WORKERS.compare_exchange_weak(
            current,
            current + granted,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                sctc_core::trace::emit(
                    "lease.grant",
                    &[
                        ("requested", want as u64),
                        ("granted", granted as u64),
                        ("leased", (current + granted) as u64),
                    ],
                );
                return WorkerLease { granted };
            }
            Err(actual) => current = actual,
        }
    }
}

/// Number of workers currently leased process-wide — the "live leases"
/// column of the server's operator log line. Purely informational: the
/// value can be stale the moment it is read.
pub fn leased_workers() -> usize {
    LEASED_WORKERS.load(Ordering::Relaxed)
}

/// Runs `run` over every shard of `plan` on up to `jobs` worker threads and
/// returns the results in **plan order** (not completion order), so the
/// output is deterministic regardless of scheduling.
///
/// `run` is called once per shard; it is expected to construct a fresh flow
/// instance internally (the flows are `!Send` — they cannot be built
/// outside and moved in).
///
/// # Panics
///
/// A panic inside `run` propagates to the caller once all workers unwind.
pub fn run_shards<T, F>(plan: &[ShardSpec], jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(&ShardSpec) -> T + Send + Sync,
{
    run_shards_until(plan, jobs, run, || false)
        .into_iter()
        .map(|slot| slot.expect("every shard produced a result"))
        .collect()
}

/// Like [`run_shards`], but with an **early-stop hook**: before a worker
/// claims the next shard it consults `stop()`, and once `stop()` returns
/// `true` no further shard is issued. Shards already in flight run to
/// completion; their slots come back `Some`, never-issued slots come back
/// `None`, all in **plan order**.
///
/// This is the scheduler primitive behind statistical campaigns: workers
/// drain a shared sample budget and the hypothesis test flips the stop
/// flag the moment it decides, so samples past the decision are not
/// issued. Note that *which* trailing shards still ran is a race — with
/// more workers, more in-flight shards slip through. Callers needing a
/// deterministic result must therefore reduce over a prefix that does not
/// depend on the raced tail (the SMC coordinator folds samples in
/// canonical index order and discards everything after its decision
/// point).
///
/// # Panics
///
/// A panic inside `run` propagates to the caller once all workers unwind.
pub fn run_shards_until<T, F, S>(plan: &[ShardSpec], jobs: usize, run: F, stop: S) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(&ShardSpec) -> T + Send + Sync,
    S: Fn() -> bool + Send + Sync,
{
    let workers = jobs.max(1).min(plan.len());
    if workers <= 1 {
        let mut out = Vec::with_capacity(plan.len());
        for shard in plan {
            if stop() {
                out.push(None);
            } else {
                out.push(Some(run(shard)));
            }
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = plan.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if stop() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(shard) = plan.get(i) else {
                    break;
                };
                let result = run(shard);
                *slots[i].lock().expect("result slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot lock"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_plan;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn results_come_back_in_plan_order() {
        let plan = shard_plan(100, 10, 3);
        let results = run_shards(&plan, 4, |shard| shard.index * 2);
        assert_eq!(results, (0..10).map(|i| i * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn each_shard_runs_exactly_once() {
        let plan = shard_plan(57, 5, 11);
        let calls = AtomicU64::new(0);
        let results = run_shards(&plan, 8, |shard| {
            calls.fetch_add(1, Ordering::Relaxed);
            shard.index
        });
        assert_eq!(calls.load(Ordering::Relaxed), plan.len() as u64);
        let distinct: HashSet<u64> = results.iter().copied().collect();
        assert_eq!(distinct.len(), plan.len());
    }

    #[test]
    fn single_job_runs_sequentially() {
        let plan = shard_plan(30, 10, 1);
        let results = run_shards(&plan, 1, |shard| shard.start_case);
        assert_eq!(results, vec![0, 10, 20]);
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let results: Vec<u64> = run_shards(&[], 4, |shard| shard.index);
        assert!(results.is_empty());
    }

    #[test]
    fn more_jobs_than_shards_is_fine() {
        let plan = shard_plan(2, 1, 5);
        let results = run_shards(&plan, 16, |shard| shard.seed);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn until_with_stop_never_true_runs_everything() {
        let plan = shard_plan(40, 4, 3);
        let results = run_shards_until(&plan, 4, |shard| shard.index, || false);
        assert_eq!(results.len(), plan.len());
        assert!(results.iter().all(|r| r.is_some()));
        let expected: Vec<u64> = (0..plan.len() as u64).collect();
        let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn until_stops_issuing_once_the_flag_flips() {
        let plan = shard_plan(100, 1, 7);
        let stop = AtomicBool::new(false);
        let ran = AtomicU64::new(0);
        let results = run_shards_until(
            &plan,
            4,
            |shard| {
                ran.fetch_add(1, Ordering::Relaxed);
                // The 10th shard (by index) flips the flag: shards still
                // in flight finish, but no new ones are issued.
                if shard.index == 9 {
                    stop.store(true, Ordering::Relaxed);
                }
                shard.index
            },
            || stop.load(Ordering::Relaxed),
        );
        let executed = results.iter().filter(|r| r.is_some()).count() as u64;
        assert_eq!(executed, ran.load(Ordering::Relaxed));
        assert!(executed < plan.len() as u64, "stop flag must cut the plan");
        // Every shard issued before the flag flipped produced its slot.
        assert!(results[9].is_some());
    }

    #[test]
    fn until_sequential_path_checks_stop_between_shards() {
        let plan = shard_plan(30, 10, 1);
        let stop = AtomicBool::new(false);
        let results = run_shards_until(
            &plan,
            1,
            |shard| {
                if shard.index == 0 {
                    stop.store(true, Ordering::Relaxed);
                }
                shard.start_case
            },
            || stop.load(Ordering::Relaxed),
        );
        assert_eq!(results, vec![Some(0), None, None]);
    }

    #[test]
    fn until_pre_stopped_runs_nothing() {
        let plan = shard_plan(10, 2, 9);
        let results: Vec<Option<u64>> = run_shards_until(&plan, 3, |s| s.index, || true);
        assert!(results.iter().all(|r| r.is_none()));
    }

    #[test]
    fn lease_grants_at_most_the_request_and_at_least_one() {
        let lease = lease_workers(1);
        assert_eq!(lease.workers(), 1);
        let zero = lease_workers(0);
        assert!(zero.workers() >= 1);
    }

    #[test]
    fn lease_clips_to_the_budget_but_never_starves() {
        // Drain the whole budget, then confirm an oversubscribed caller
        // still gets one worker and everything returns on drop.
        let budget = worker_budget();
        let hog = lease_workers(budget * 4);
        assert!(hog.workers() >= 1 && hog.workers() <= budget);
        let starved = lease_workers(8);
        assert!(starved.workers() >= 1);
        drop(starved);
        drop(hog);
        // After both drops the pool is whole again: a fresh small request
        // within budget is granted in full.
        let fresh = lease_workers(2);
        assert!(fresh.workers() >= 1 && fresh.workers() <= 2);
    }
}
