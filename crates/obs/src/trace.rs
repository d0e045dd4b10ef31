//! Structured event tracing and the always-on flight recorder.
//!
//! The live telemetry plane of the verification service: dependency-free
//! [`TraceEvent`]s emitted at job admission, cache lead/follow/hit, shard
//! dispatch, SPRT fold advances, engine synthesis, and witness capture.
//! Every event carries a `trace_id` minted per server job ([`mint_trace_id`])
//! and propagated through worker leases and shard closures as a
//! thread-local id ([`current`], [`adopt`]), so one job's events can be
//! filtered out of a process shared by many concurrent jobs.
//!
//! # Flight recorder
//!
//! Emission goes into one process-wide ring of [`RING_CAPACITY`] events
//! behind one mutex; a full ring drops its **oldest** event first. One
//! lock is enough because emit sites fire per job stage, shard, SMC
//! sample or property registration — never per statement or clock
//! cycle. Events of exited threads (shard workers are scoped threads)
//! stay in the ring like any other.
//!
//! # Ordering
//!
//! `span_id` is minted and `t_us` read under the ring's lock, so the
//! stored log is in emission order across all threads: `span_id` strictly
//! increases and `t_us` never decreases along it. [`drain`] and
//! [`snapshot`] return it as stored.
//!
//! # Zero-cost discipline
//!
//! Telemetry never feeds back into verification: verdicts, fingerprints,
//! and detection matrices are bit-identical with tracing enabled or
//! disabled ([`set_enabled`]). With tracing disabled, [`emit`] is a single
//! relaxed atomic load.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Capacity of the event ring. Oldest events are dropped first.
pub const RING_CAPACITY: usize = 8192;

/// Bound on the number of live progress rows ([`progress`]); oldest
/// trace ids are evicted first.
const PROGRESS_CAPACITY: usize = 1024;

/// One structured telemetry event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The job-scoped correlation id (0 = emitted outside any job).
    pub trace_id: u64,
    /// Unique id of this event, minted from a global monotone counter.
    pub span_id: u64,
    /// What happened — a static stage name such as `"shard.dispatch"`.
    pub stage: &'static str,
    /// Microseconds since the process-wide trace epoch.
    pub t_us: u64,
    /// Id of the emitting thread (stable per thread, process-unique).
    pub tid: u64,
    /// Small numeric payload, e.g. `[("shard", 3), ("cases", 25)]`.
    pub fields: Vec<(&'static str, u64)>,
}

/// A sampled progress row for one job: monotone `done` out of `total`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ProgressSnap {
    /// Work units completed so far (shards merged, samples folded, …).
    pub done: u64,
    /// Total planned work units (the shard plan length, the Chernoff
    /// sample budget, …).
    pub total: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(true);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static RING: Mutex<VecDeque<TraceEvent>> = Mutex::new(VecDeque::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn progress_table() -> &'static Mutex<BTreeMap<u64, ProgressSnap>> {
    static TABLE: OnceLock<Mutex<BTreeMap<u64, ProgressSnap>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    static TRACE_ID: Cell<u64> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Globally enables or disables event emission (default: enabled). The
/// flag gates [`emit`] and [`progress`] only — drains and dumps always
/// work on whatever the recorder holds.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether event emission is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Mints a fresh, process-unique, nonzero trace id.
pub fn mint_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's current trace id (0 = none).
pub fn current() -> u64 {
    TRACE_ID.with(Cell::get)
}

/// Guard restoring the thread's previous trace id on drop.
#[derive(Debug)]
pub struct ContextGuard {
    previous: u64,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        TRACE_ID.with(|id| id.set(self.previous));
    }
}

/// Installs `trace_id` as the calling thread's trace id until the
/// returned guard drops. This is the propagation primitive: capture
/// [`current`] (or mint an id) on the submitting thread, move the id into
/// the worker closure, and `adopt` it there.
pub fn adopt(trace_id: u64) -> ContextGuard {
    ContextGuard {
        previous: TRACE_ID.with(|id| id.replace(trace_id)),
    }
}

fn tid() -> u64 {
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

/// Records one event under the calling thread's current trace id.
pub fn emit(stage: &'static str, fields: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let (trace_id, tid, fields) = (current(), tid(), fields.to_vec());
    let mut ring = RING.lock().expect("trace ring lock");
    if ring.len() >= RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(TraceEvent {
        trace_id,
        span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        stage,
        t_us: now_us(),
        tid,
        fields,
    });
}

/// Removes and returns every recorded event, in emission order.
pub fn drain() -> Vec<TraceEvent> {
    RING.lock().expect("trace ring lock").drain(..).collect()
}

/// Copies the recorder's current contents without clearing them.
pub fn snapshot() -> Vec<TraceEvent> {
    RING.lock()
        .expect("trace ring lock")
        .iter()
        .cloned()
        .collect()
}

/// Copies the recorded events of one job, in emission order.
pub fn snapshot_trace(trace_id: u64) -> Vec<TraceEvent> {
    RING.lock()
        .expect("trace ring lock")
        .iter()
        .filter(|e| e.trace_id == trace_id)
        .cloned()
        .collect()
}

/// The stage name of the most recent event recorded for `trace_id` —
/// i.e. the last stage the job completed before it stalled, panicked, or
/// deadlined out.
pub fn last_stage(trace_id: u64) -> Option<&'static str> {
    RING.lock()
        .expect("trace ring lock")
        .iter()
        .rev()
        .find(|e| e.trace_id == trace_id)
        .map(|e| e.stage)
}

/// Renders a human-readable flight-recorder excerpt for one job: one
/// line per event, in log order. Empty string when nothing was recorded.
pub fn dump(trace_id: u64) -> String {
    let mut out = String::new();
    for event in snapshot_trace(trace_id) {
        let _ = write!(
            out,
            "  [{:>10}us] trace={} span={} tid={} {}",
            event.t_us, event.trace_id, event.span_id, event.tid, event.stage
        );
        for (key, value) in &event.fields {
            let _ = write!(out, " {key}={value}");
        }
        out.push('\n');
    }
    out
}

/// Publishes a progress advance for the calling thread's current trace:
/// `done` work units out of `total`. Rows are **monotone** — a racing
/// older snapshot never overwrites a newer one — so readers always see
/// non-decreasing `done`. No-op with no current trace or when emission
/// is disabled.
pub fn progress(done: u64, total: u64) {
    if !enabled() {
        return;
    }
    let trace_id = current();
    if trace_id == 0 {
        return;
    }
    let mut table = progress_table().lock().expect("trace progress lock");
    let row = table
        .entry(trace_id)
        .or_insert(ProgressSnap { done: 0, total });
    if done >= row.done {
        *row = ProgressSnap { done, total };
    }
    if table.len() > PROGRESS_CAPACITY {
        table.pop_first();
    }
}

/// Reads the latest progress row published for `trace_id`.
pub fn progress_of(trace_id: u64) -> Option<ProgressSnap> {
    progress_table()
        .lock()
        .expect("trace progress lock")
        .get(&trace_id)
        .copied()
}

/// Removes the progress row of a finished job.
pub fn clear_progress(trace_id: u64) {
    progress_table()
        .lock()
        .expect("trace progress lock")
        .remove(&trace_id);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global and these tests toggle the enable
    /// flag and drain the ring; serialize them so the default parallel
    /// test runner cannot interleave a disabled window into another test.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn events_carry_the_adopted_trace_id_and_drain_in_order() {
        let _serial = serial();
        let trace_id = mint_trace_id();
        let guard = adopt(trace_id);
        emit("test.first", &[("k", 1)]);
        emit("test.second", &[]);
        drop(guard);

        let events = snapshot_trace(trace_id);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, "test.first");
        assert_eq!(events[0].fields, vec![("k", 1)]);
        assert_eq!(events[1].stage, "test.second");
        assert!(events[0].span_id < events[1].span_id);
        assert_eq!(last_stage(trace_id), Some("test.second"));
        let dump = dump(trace_id);
        assert!(dump.contains("test.first") && dump.contains("test.second"));
    }

    #[test]
    fn trace_id_restores_on_guard_drop_and_crosses_threads() {
        let _serial = serial();
        let outer = current();
        let trace_id = mint_trace_id();
        {
            let _guard = adopt(trace_id);
            assert_eq!(current(), trace_id);
            let id = current();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    assert_eq!(current(), 0, "fresh thread starts blank");
                    let _g = adopt(id);
                    emit("test.worker", &[]);
                });
            });
        }
        assert_eq!(current(), outer, "guard restores the previous trace id");
        assert!(snapshot_trace(trace_id)
            .iter()
            .any(|e| e.stage == "test.worker"));
    }

    #[test]
    fn disabled_emission_records_nothing() {
        let _serial = serial();
        let trace_id = mint_trace_id();
        let _guard = adopt(trace_id);
        set_enabled(false);
        emit("test.dropped", &[]);
        progress(1, 2);
        set_enabled(true);
        assert!(snapshot_trace(trace_id).is_empty());
        assert!(progress_of(trace_id).is_none());
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let _serial = serial();
        let trace_id = mint_trace_id();
        let _guard = adopt(trace_id);
        // Overflow the ring; the survivors must be the newest, in order.
        let flood = RING_CAPACITY as u64 + 50;
        for i in 0..flood {
            emit("test.flood", &[("i", i)]);
        }
        let events = snapshot_trace(trace_id);
        assert_eq!(events.len(), RING_CAPACITY);
        assert!(events
            .iter()
            .zip(50..flood)
            .all(|(e, i)| e.fields == vec![("i", i)]));
        drain();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn threads_share_one_ordered_log_that_outlives_them() {
        let _serial = serial();
        drain();
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 200;
        let ids: Vec<u64> = (0..THREADS).map(|_| mint_trace_id()).collect();
        std::thread::scope(|scope| {
            for &id in &ids {
                scope.spawn(move || {
                    let _g = adopt(id);
                    for i in 0..PER_THREAD {
                        emit("test.thread", &[("i", i)]);
                    }
                });
            }
        });
        // Every worker has exited; its events are still in the log.
        let events = drain();
        assert_eq!(events.len(), THREADS * PER_THREAD as usize);
        assert!(events
            .windows(2)
            .all(|w| w[0].span_id < w[1].span_id && w[0].t_us <= w[1].t_us));
        let mut tids = Vec::new();
        for id in ids {
            let mine: Vec<&TraceEvent> = events.iter().filter(|e| e.trace_id == id).collect();
            assert!(mine.iter().map(|e| e.fields[0].1).eq(0..PER_THREAD));
            assert!(mine.iter().all(|e| e.tid == mine[0].tid));
            tids.push(mine[0].tid);
        }
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), THREADS, "each thread has its own tid");
    }

    #[test]
    fn progress_rows_are_monotone() {
        let _serial = serial();
        let trace_id = mint_trace_id();
        let _guard = adopt(trace_id);
        progress(5, 10);
        progress(3, 10); // a racing stale snapshot must not regress
        assert_eq!(progress_of(trace_id).expect("row").done, 5);
        progress(9, 10);
        let row = progress_of(trace_id).expect("row");
        assert_eq!((row.done, row.total), (9, 10));
        clear_progress(trace_id);
        assert!(progress_of(trace_id).is_none());
    }
}
