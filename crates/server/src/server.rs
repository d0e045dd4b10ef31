//! The service: accept loop, per-connection handlers, job scheduling, and
//! graceful drain.
//!
//! Threading model: flows are `!Send`, so a job runs wholly on one
//! dedicated thread (which internally fans out over the leased shard
//! workers). The connection handler never computes — it classifies the
//! job against the result cache, spawns or joins the producing thread,
//! and waits on the single-flight condvar with the job's deadline. A
//! timeout therefore abandons the *wait*, not the work: the job finishes
//! in the background and lands in the cache for the next request.
//!
//! Shutdown: the shutdown frame (or [`ServerHandle::shutdown`]) flips a
//! flag. The accept loop stops admitting connections, handlers refuse new
//! jobs with a typed `ERR_SHUTTING_DOWN`, and the listener thread blocks
//! until the in-flight job counter drains to zero. There is no in-process
//! SIGTERM hook (that would need a signal-handling dependency); an
//! embedder's signal handler should call [`ServerHandle::shutdown`], which
//! performs the same drain.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sctc_obs::{trace, MetricValue, Metrics};
use sctc_temporal::{Lookup, ResultCache, WaitOutcome};

use crate::job::{run_job, JobOptions, JobOutput, JobSpec};
use crate::protocol::{
    Reply, Request, Served, TelemetryValue, ERR_BAD_REQUEST, ERR_JOB_FAILED, ERR_SHUTTING_DOWN,
    MAGIC, VERSION,
};
use crate::wire::{encode_frame, FrameBuf, WireError};

/// How often the handler wakes from the single-flight wait to stream a
/// `Progress` frame and poke the watchdog.
const PROGRESS_SLICE: Duration = Duration::from_millis(25);

/// The slow-job watchdog fires when a job's elapsed wall exceeds this
/// multiple of the historical median for its kind.
const WATCHDOG_FACTOR: f64 = 4.0;

/// Minimum completed jobs of a kind before the watchdog trusts the
/// median enough to fire.
const WATCHDOG_MIN_HISTORY: u64 = 8;

/// Tuning knobs of a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Result-cache byte budget.
    pub cache_budget: usize,
    /// Default per-job deadline in milliseconds (`0` = wait forever);
    /// individual jobs override it via [`JobOptions::deadline_ms`].
    pub default_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            cache_budget: 64 * 1024 * 1024,
            default_deadline_ms: 0,
        }
    }
}

struct ServerState {
    cache: ResultCache<JobOutput>,
    metrics: Mutex<Metrics>,
    shutdown: AtomicBool,
    next_job_id: AtomicU64,
    inflight: Mutex<u64>,
    drained: Condvar,
    /// In-flight content key → the leader's trace id, so coalesced
    /// followers can stream the leader's progress rows.
    leads: Mutex<HashMap<Vec<u8>, u64>>,
}

impl ServerState {
    fn job_started(&self) {
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        *inflight += 1;
    }

    fn job_finished(&self) {
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        *inflight -= 1;
        if *inflight == 0 {
            self.drained.notify_all();
        }
    }

    fn inflight(&self) -> u64 {
        *self.inflight.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_for_drain(&self) {
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        while *inflight > 0 {
            inflight = self
                .drained
                .wait(inflight)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn count(&self, name: &str) {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .counter_add(name, 1);
    }

    fn set_lead(&self, key: Vec<u8>, trace_id: u64) {
        self.leads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, trace_id);
    }

    fn clear_lead(&self, key: &[u8]) {
        self.leads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key);
    }

    fn lead_trace(&self, key: &[u8]) -> Option<u64> {
        self.leads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .copied()
    }

    /// Records a completed job's wall into the per-kind histogram the
    /// watchdog derives its median from.
    fn observe_wall(&self, kind: &str, wall: Duration) {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(
                &format!("server.job_wall_us.{kind}"),
                wall.as_micros() as f64,
            );
    }

    /// Fires the slow-job watchdog once per job: when `elapsed` exceeds
    /// [`WATCHDOG_FACTOR`] × the historical median wall of this job kind,
    /// logs a flight-recorder excerpt so the stall is diagnosable while
    /// the job is still running. Returns whether it fired.
    fn watchdog_check(&self, kind: &str, trace_id: u64, elapsed: Duration) -> bool {
        let median = {
            let metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
            match metrics.get(&format!("server.job_wall_us.{kind}")) {
                Some(MetricValue::Histogram(h)) if h.count >= WATCHDOG_MIN_HISTORY => {
                    h.quantile(0.5)
                }
                _ => None,
            }
        };
        let Some(median) = median else {
            return false;
        };
        let elapsed_us = elapsed.as_micros() as f64;
        if elapsed_us <= WATCHDOG_FACTOR * median {
            return false;
        }
        self.count("server.watchdog_fires");
        let last = trace::last_stage(trace_id).unwrap_or("<none>");
        eprintln!(
            "sctc-serve: watchdog: {kind} job trace={trace_id} at {elapsed_us:.0}us \
             (> {WATCHDOG_FACTOR}x median {median:.0}us), last stage {last}; flight recorder:\n{}",
            trace::dump(trace_id)
        );
        true
    }

    /// The one metrics snapshot, sorted by name: the registry's counters
    /// and histograms plus the result cache's counters.
    fn snapshot(&self) -> Vec<(String, TelemetryValue)> {
        let mut out: Vec<(String, TelemetryValue)> = self
            .metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, value)| {
                let value = match value {
                    MetricValue::Counter(v) => TelemetryValue::Counter(v),
                    MetricValue::Histogram(h) => TelemetryValue::Histogram {
                        count: h.count,
                        sum: h.sum,
                        min: h.min,
                        max: h.max,
                        p50: h.quantile(0.5).unwrap_or(0.0),
                        p90: h.quantile(0.9).unwrap_or(0.0),
                        p99: h.quantile(0.99).unwrap_or(0.0),
                    },
                };
                (name.to_owned(), value)
            })
            .collect();
        let cache = self.cache.stats();
        for (name, value) in [
            ("cache.hits", cache.hits),
            ("cache.misses", cache.misses),
            ("cache.coalesced", cache.coalesced),
            ("cache.evictions", cache.evictions),
            ("cache.failures", cache.failures),
            ("cache.uncacheable", cache.uncacheable),
            ("cache.entries", cache.entries as u64),
            ("cache.bytes", cache.bytes as u64),
        ] {
            out.push((name.to_owned(), TelemetryValue::Counter(value)));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The snapshot's counter entries.
    fn counters(&self) -> Vec<(String, u64)> {
        self.snapshot()
            .into_iter()
            .filter_map(|(name, value)| match value {
                TelemetryValue::Counter(v) => Some((name, v)),
                TelemetryValue::Histogram { .. } => None,
            })
            .collect()
    }
}

/// Handle to a running server: address, programmatic shutdown, join.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    listener: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// In-process read of the counter entries of the `Telemetry`
    /// snapshot, sorted by name — the operator log line's data source.
    pub fn stats(&self) -> Vec<(String, u64)> {
        self.state.counters()
    }

    /// A clonable `'static` reader of the same snapshot, for logging
    /// threads that must not borrow the handle (the handle's owner still
    /// needs `&mut self` to shut down).
    pub fn stats_reader(&self) -> impl Fn() -> Vec<(String, u64)> + Send + 'static {
        let state = self.state.clone();
        move || state.counters()
    }

    /// Blocks until a shutdown frame (or another thread) flips the flag,
    /// then drains and joins. The standalone binary's main loop.
    pub fn shutdown_when_requested(&mut self) {
        while !self.state.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }

    /// Flips the shutdown flag, waits for in-flight jobs to drain, and
    /// joins the accept loop. Idempotent.
    pub fn shutdown(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.wait_for_drain();
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds and spawns the server; returns once the listener is accepting.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        cache: ResultCache::new(config.cache_budget),
        metrics: Mutex::new(Metrics::default()),
        shutdown: AtomicBool::new(false),
        next_job_id: AtomicU64::new(1),
        inflight: Mutex::new(0),
        drained: Condvar::new(),
        leads: Mutex::new(HashMap::new()),
    });
    let default_deadline_ms = config.default_deadline_ms;
    let loop_state = state.clone();
    let handle = std::thread::spawn(move || {
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !loop_state.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    loop_state.count("server.connections");
                    let conn_state = loop_state.clone();
                    connections.push(std::thread::spawn(move || {
                        handle_connection(stream, &conn_state, default_deadline_ms);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
            connections.retain(|c| !c.is_finished());
        }
        drop(listener);
        // Handlers notice the flag within one read-timeout tick; in-flight
        // jobs are awaited by `ServerHandle::shutdown` via the job counter.
        for connection in connections {
            let _ = connection.join();
        }
    });
    Ok(ServerHandle {
        addr,
        state,
        listener: Some(handle),
    })
}

fn send_reply(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    let (tag, payload) = reply.encode();
    stream.write_all(&encode_frame(tag, &payload))
}

enum NextFrame {
    Frame(u8, Vec<u8>),
    Closed,
    Malformed(WireError),
}

/// Reads the next frame, ticking every 50 ms so the handler can observe
/// the shutdown flag even while the peer is idle.
fn next_frame(stream: &mut TcpStream, buf: &mut FrameBuf, state: &ServerState) -> NextFrame {
    let mut chunk = [0u8; 4096];
    loop {
        match buf.take_frame() {
            Ok(Some((tag, payload))) => return NextFrame::Frame(tag, payload),
            Ok(None) => {}
            Err(e) => return NextFrame::Malformed(e),
        }
        if state.shutdown.load(Ordering::SeqCst) && !buf.mid_frame() {
            return NextFrame::Closed;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.mid_frame() {
                    NextFrame::Malformed(WireError::Truncated)
                } else {
                    NextFrame::Closed
                };
            }
            Ok(n) => buf.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return NextFrame::Closed,
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>, default_deadline_ms: u64) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut buf = FrameBuf::new();

    // Handshake first: anything else on a fresh connection is an error.
    match next_frame(&mut stream, &mut buf, state) {
        NextFrame::Frame(tag, payload) => match Request::decode(tag, &payload) {
            Ok(Request::Hello { magic, version }) if magic == MAGIC && version == VERSION => {
                let _ = send_reply(&mut stream, &Reply::HelloAck { version: VERSION });
            }
            Ok(Request::Hello { .. }) => {
                state.count("server.protocol_errors");
                let _ = send_reply(
                    &mut stream,
                    &Reply::Error {
                        code: ERR_BAD_REQUEST,
                        message: "handshake magic/version mismatch".to_owned(),
                    },
                );
                return;
            }
            Ok(_) => {
                state.count("server.protocol_errors");
                let _ = send_reply(
                    &mut stream,
                    &Reply::Error {
                        code: ERR_BAD_REQUEST,
                        message: "expected hello".to_owned(),
                    },
                );
                return;
            }
            Err(e) => {
                state.count("server.protocol_errors");
                let _ = send_reply(
                    &mut stream,
                    &Reply::Error {
                        code: ERR_BAD_REQUEST,
                        message: e.to_string(),
                    },
                );
                return;
            }
        },
        NextFrame::Malformed(e) => {
            state.count("server.protocol_errors");
            let _ = send_reply(
                &mut stream,
                &Reply::Error {
                    code: ERR_BAD_REQUEST,
                    message: e.to_string(),
                },
            );
            return;
        }
        NextFrame::Closed => return,
    }

    loop {
        match next_frame(&mut stream, &mut buf, state) {
            NextFrame::Frame(tag, payload) => match Request::decode(tag, &payload) {
                Ok(Request::Job { options, spec }) => {
                    handle_job(&mut stream, state, &options, &spec, default_deadline_ms);
                }
                Ok(Request::Telemetry) => {
                    let metrics = state.snapshot();
                    let _ = send_reply(&mut stream, &Reply::TelemetryReply { metrics });
                }
                Ok(Request::Shutdown) => {
                    state.shutdown.store(true, Ordering::SeqCst);
                    let _ = send_reply(
                        &mut stream,
                        &Reply::ShutdownAck {
                            draining: state.inflight(),
                        },
                    );
                    return;
                }
                Ok(Request::Hello { .. }) => {
                    state.count("server.protocol_errors");
                    let _ = send_reply(
                        &mut stream,
                        &Reply::Error {
                            code: ERR_BAD_REQUEST,
                            message: "duplicate hello".to_owned(),
                        },
                    );
                    return;
                }
                Err(e) => {
                    state.count("server.protocol_errors");
                    let _ = send_reply(
                        &mut stream,
                        &Reply::Error {
                            code: ERR_BAD_REQUEST,
                            message: e.to_string(),
                        },
                    );
                    return;
                }
            },
            NextFrame::Malformed(e) => {
                state.count("server.protocol_errors");
                let _ = send_reply(
                    &mut stream,
                    &Reply::Error {
                        code: ERR_BAD_REQUEST,
                        message: e.to_string(),
                    },
                );
                return;
            }
            NextFrame::Closed => return,
        }
    }
}

fn handle_job(
    stream: &mut TcpStream,
    state: &Arc<ServerState>,
    options: &JobOptions,
    spec: &JobSpec,
    default_deadline_ms: u64,
) {
    if state.shutdown.load(Ordering::SeqCst) {
        let _ = send_reply(
            stream,
            &Reply::Error {
                code: ERR_SHUTTING_DOWN,
                message: "server is draining".to_owned(),
            },
        );
        return;
    }

    let job_id = state.next_job_id.fetch_add(1, Ordering::Relaxed);
    let kind = spec.kind();
    // One trace per flight: every event this job emits — here and in the
    // shard workers downstream — carries this id, and the client gets it
    // echoed on `Accepted`/`Done` for cross-machine correlation.
    let trace_id = trace::mint_trace_id();
    let _trace = trace::adopt(trace_id);
    state.count("server.jobs");
    state.count(&format!("server.jobs.{kind}"));
    let key = spec.content_key();

    let lookup = state.cache.lookup(&key);
    let (served, served_name) = match &lookup {
        Lookup::Hit(_) => (Served::Hit, "hit"),
        Lookup::Lead(_) => (Served::Cold, "cold"),
        Lookup::Follow(_) => (Served::Coalesced, "coalesced"),
    };
    state.count(&format!("server.served.{served_name}"));
    trace::emit("job.admit", &[("job", job_id)]);
    trace::emit(
        match served {
            Served::Hit => "cache.hit",
            Served::Cold => "cache.lead",
            Served::Coalesced => "cache.follow",
        },
        &[("job", job_id)],
    );
    // Admission first: the client learns the cache classification before
    // the (potentially long) wait for the result.
    let _ = send_reply(
        stream,
        &Reply::Accepted {
            job_id,
            served,
            trace_id,
        },
    );

    // Coalesced followers stream the *leader's* progress rows (the work
    // is the leader's flight); their frames still carry their own ids.
    let progress_key = match &lookup {
        Lookup::Follow(_) => state.lead_trace(&key).unwrap_or(trace_id),
        _ => trace_id,
    };
    let mut last_progress = None;
    let outcome = match lookup {
        Lookup::Hit(output) => WaitOutcome::Ready(output),
        Lookup::Lead(handle) => {
            state.job_started();
            state.set_lead(key.clone(), trace_id);
            let worker_state = state.clone();
            let worker_key = key.clone();
            let worker_spec = spec.clone();
            let worker_options = *options;
            std::thread::spawn(move || {
                let _trace = trace::adopt(trace_id);
                let result =
                    catch_unwind(AssertUnwindSafe(|| run_job(&worker_spec, &worker_options)))
                        .inspect(|output| {
                            worker_state.observe_wall(worker_spec.kind(), output.wall);
                        })
                        .map_err(|panic| {
                            let detail = panic
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_owned())
                                .or_else(|| panic.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "job panicked".to_owned());
                            salvage_panicked_flight(&worker_state, trace_id, job_id, &detail);
                            format!("job panicked: {detail}")
                        });
                worker_state.clear_lead(&worker_key);
                worker_state.cache.complete(&worker_key, result);
                trace::clear_progress(trace_id);
                worker_state.job_finished();
            });
            wait_streaming(
                stream,
                state,
                &handle,
                options,
                default_deadline_ms,
                job_id,
                trace_id,
                progress_key,
                kind,
                &mut last_progress,
            )
        }
        Lookup::Follow(handle) => wait_streaming(
            stream,
            state,
            &handle,
            options,
            default_deadline_ms,
            job_id,
            trace_id,
            progress_key,
            kind,
            &mut last_progress,
        ),
    };
    match outcome {
        WaitOutcome::Ready(output) => {
            // Always close the stream's progress story before the terminal
            // frame: every completed job gets at least one `Progress`.
            let last_done = last_progress.map_or(0, |p: sctc_obs::ProgressSnap| p.done);
            let snap = trace::progress_of(progress_key)
                .or(last_progress)
                .unwrap_or(sctc_obs::ProgressSnap { done: 0, total: 0 });
            let _ = send_reply(
                stream,
                &Reply::Progress {
                    job_id,
                    trace_id,
                    done: snap.done.max(last_done),
                    total: snap.total,
                    eta_us: 0,
                },
            );
            for (property, text) in &output.witnesses {
                let _ = send_reply(
                    stream,
                    &Reply::Witness {
                        job_id,
                        property: property.clone(),
                        text: text.clone(),
                    },
                );
            }
            if let Some(text) = &output.vcd {
                let _ = send_reply(
                    stream,
                    &Reply::Vcd {
                        job_id,
                        text: text.clone(),
                    },
                );
            }
            trace::emit(
                "job.done",
                &[
                    ("job", job_id),
                    (
                        "wall_us",
                        u64::try_from(output.wall.as_micros()).unwrap_or(u64::MAX),
                    ),
                ],
            );
            let _ = send_reply(
                stream,
                &Reply::Done {
                    job_id,
                    digest: output.digest.clone(),
                    table: output.table.clone(),
                    wall_nanos: u64::try_from(output.wall.as_nanos()).unwrap_or(u64::MAX),
                    trace_id,
                },
            );
        }
        WaitOutcome::TimedOut => {
            state.count("server.timeouts");
            let deadline_ms = effective_deadline(options, default_deadline_ms).unwrap_or(0);
            trace::emit(
                "job.timeout",
                &[("job", job_id), ("deadline_ms", deadline_ms)],
            );
            eprintln!(
                "sctc-serve: job {job_id} ({kind}) exceeded its {deadline_ms}ms deadline, \
                 last stage {}; flight recorder:\n{}",
                trace::last_stage(trace_id).unwrap_or("<none>"),
                trace::dump(trace_id)
            );
            let _ = send_reply(
                stream,
                &Reply::Timeout {
                    job_id,
                    deadline_ms,
                },
            );
        }
        WaitOutcome::Failed(message) => {
            state.count("server.job_failures");
            let _ = send_reply(
                stream,
                &Reply::Error {
                    code: ERR_JOB_FAILED,
                    message,
                },
            );
        }
    }
}

/// Satellite fix for the silent-loss bug: a cold job that panics used to
/// drop its partial progress on the floor — the `catch_unwind` in the
/// worker turned everything the run had recorded into a bare error
/// string. Salvage what the flight recorder still holds into `server.*`
/// counters and an operator-visible dump *before* the flight completes
/// as a failure (completion wakes the waiters, who only see the string).
fn salvage_panicked_flight(state: &ServerState, trace_id: u64, job_id: u64, detail: &str) {
    trace::emit("job.panic", &[("job", job_id)]);
    let events = trace::snapshot_trace(trace_id);
    {
        let mut metrics = state.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics.counter_add("server.job_panics", 1);
        metrics.counter_add("server.salvaged_events", events.len() as u64);
        for event in &events {
            metrics.counter_add(&format!("server.salvaged.{}", event.stage), 1);
        }
    }
    eprintln!(
        "sctc-serve: job {job_id} panicked ({detail}); salvaged {} events:\n{}",
        events.len(),
        trace::dump(trace_id)
    );
}

fn effective_deadline(options: &JobOptions, default_deadline_ms: u64) -> Option<u64> {
    match (options.deadline_ms, default_deadline_ms) {
        (0, 0) => None,
        (0, d) => Some(d),
        (d, _) => Some(d),
    }
}

/// Estimated remaining wall from linear extrapolation of progress so far.
fn eta_us(elapsed: Duration, done: u64, total: u64) -> u64 {
    if done == 0 || total <= done {
        return 0;
    }
    let elapsed_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    elapsed_us.saturating_mul(total - done) / done
}

/// Waits on the single-flight handle in [`PROGRESS_SLICE`] ticks instead
/// of one long block, streaming a `Progress` frame whenever the job's
/// progress row advances and arming the slow-job watchdog. The overall
/// deadline semantics are unchanged from a single blocking wait.
#[allow(clippy::too_many_arguments)]
fn wait_streaming(
    stream: &mut TcpStream,
    state: &ServerState,
    handle: &sctc_temporal::FlightHandle<JobOutput>,
    options: &JobOptions,
    default_deadline_ms: u64,
    job_id: u64,
    trace_id: u64,
    progress_key: u64,
    kind: &'static str,
    last_progress: &mut Option<sctc_obs::ProgressSnap>,
) -> WaitOutcome<JobOutput> {
    let deadline = effective_deadline(options, default_deadline_ms).map(Duration::from_millis);
    let start = Instant::now();
    let mut watchdog_fired = false;
    loop {
        let elapsed = start.elapsed();
        let slice = match deadline {
            Some(deadline) if elapsed >= deadline => return WaitOutcome::TimedOut,
            Some(deadline) => (deadline - elapsed).min(PROGRESS_SLICE),
            None => PROGRESS_SLICE,
        };
        match state.cache.wait(handle, Some(slice)) {
            WaitOutcome::TimedOut => {}
            outcome => return outcome,
        }
        if let Some(snap) = trace::progress_of(progress_key) {
            if last_progress.is_none_or(|last| snap.done > last.done) {
                *last_progress = Some(snap);
                let _ = send_reply(
                    stream,
                    &Reply::Progress {
                        job_id,
                        trace_id,
                        done: snap.done,
                        total: snap.total,
                        eta_us: eta_us(start.elapsed(), snap.done, snap.total),
                    },
                );
            }
        }
        if !watchdog_fired {
            watchdog_fired = state.watchdog_check(kind, trace_id, start.elapsed());
        }
    }
}
