//! A small blocking client for the framed-TCP protocol.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::job::{JobDigest, JobOptions, JobSpec};
use crate::protocol::{Reply, Request, Served, TelemetryValue, MAGIC, VERSION};
use crate::wire::{encode_frame, FrameBuf, WireError};

/// One streamed `Progress` frame, as collected by [`Client::submit`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ProgressFrame {
    /// Work units finished when the frame was sent.
    pub done: u64,
    /// Total planned work units.
    pub total: u64,
    /// Server's linear ETA estimate, microseconds (0 = unknown).
    pub eta_us: u64,
}

/// Client-side failure: transport, wire grammar, or protocol sequencing.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent bytes that do not decode.
    Wire(WireError),
    /// The server sent a well-formed frame the protocol does not allow
    /// here (e.g. a `Done` before an `Accepted`).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Protocol(detail) => write!(f, "protocol: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Result of one submitted job.
// `Done` dwarfs the other variants by design: it owns the full rendered
// payloads, and one short-lived outcome per submission is not worth a Box.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job finished; all streamed payloads collected.
    Done {
        /// Server-assigned job id.
        job_id: u64,
        /// Cache classification.
        served: Served,
        /// Deterministic result fingerprint.
        digest: JobDigest,
        /// Rendered report table.
        table: String,
        /// `(property, rendered witness)` pairs.
        witnesses: Vec<(String, String)>,
        /// Rendered VCD, if requested.
        vcd: Option<String>,
        /// Producing run's wall clock, nanoseconds.
        wall_nanos: u64,
        /// Trace id the server minted for this flight (echoed from
        /// `Accepted` and verified identical on `Done`).
        trace_id: u64,
        /// The `Progress` frames streamed before `Done`, in arrival
        /// order; servers guarantee at least one.
        progress: Vec<ProgressFrame>,
    },
    /// The job exceeded its deadline (it keeps running server-side).
    TimedOut {
        /// Server-assigned job id.
        job_id: u64,
        /// The expired deadline, milliseconds.
        deadline_ms: u64,
        /// Trace id from the `Accepted` frame — quote it to the operator
        /// to find the stalled flight in the server's recorder.
        trace_id: u64,
    },
    /// The server refused or failed the job with a typed error.
    Rejected {
        /// `ERR_*` code.
        code: u32,
        /// Human-readable detail.
        message: String,
    },
}

/// A connected, handshaken client.
pub struct Client {
    stream: TcpStream,
    buf: FrameBuf,
}

impl Client {
    /// Connects and performs the hello handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            buf: FrameBuf::new(),
        };
        client.send(&Request::Hello {
            magic: MAGIC,
            version: VERSION,
        })?;
        match client.next_reply()? {
            Reply::HelloAck { .. } => Ok(client),
            Reply::Error { code, message } => Err(ClientError::Protocol(format!(
                "handshake refused ({code}): {message}"
            ))),
            other => Err(ClientError::Protocol(format!(
                "expected hello ack, got {other:?}"
            ))),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let (tag, payload) = request.encode();
        self.stream.write_all(&encode_frame(tag, &payload))?;
        Ok(())
    }

    fn next_reply(&mut self) -> Result<Reply, ClientError> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((tag, payload)) = self.buf.take_frame()? {
                return Ok(Reply::decode(tag, &payload)?);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ClientError::Wire(WireError::Truncated));
            }
            self.buf.push(&chunk[..n]);
        }
    }

    /// Submits one job and collects its full reply stream.
    pub fn submit(
        &mut self,
        spec: &JobSpec,
        options: &JobOptions,
    ) -> Result<JobOutcome, ClientError> {
        self.send(&Request::Job {
            options: *options,
            spec: spec.clone(),
        })?;
        let (job_id, served, trace_id) = match self.next_reply()? {
            Reply::Accepted {
                job_id,
                served,
                trace_id,
            } => (job_id, served, trace_id),
            Reply::Error { code, message } => return Ok(JobOutcome::Rejected { code, message }),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected accepted, got {other:?}"
                )))
            }
        };
        let mut witnesses = Vec::new();
        let mut vcd = None;
        let mut progress = Vec::new();
        loop {
            match self.next_reply()? {
                Reply::Witness { property, text, .. } => witnesses.push((property, text)),
                Reply::Vcd { text, .. } => vcd = Some(text),
                Reply::Progress {
                    done,
                    total,
                    eta_us,
                    trace_id: progress_trace,
                    ..
                } => {
                    if progress_trace != trace_id {
                        return Err(ClientError::Protocol(format!(
                            "progress trace id {progress_trace} does not match accepted {trace_id}"
                        )));
                    }
                    progress.push(ProgressFrame {
                        done,
                        total,
                        eta_us,
                    });
                }
                Reply::Done {
                    digest,
                    table,
                    wall_nanos,
                    trace_id: done_trace,
                    ..
                } => {
                    if done_trace != trace_id {
                        return Err(ClientError::Protocol(format!(
                            "done trace id {done_trace} does not match accepted {trace_id}"
                        )));
                    }
                    return Ok(JobOutcome::Done {
                        job_id,
                        served,
                        digest,
                        table,
                        witnesses,
                        vcd,
                        wall_nanos,
                        trace_id,
                        progress,
                    });
                }
                Reply::Timeout { deadline_ms, .. } => {
                    return Ok(JobOutcome::TimedOut {
                        job_id,
                        deadline_ms,
                        trace_id,
                    });
                }
                Reply::Error { code, message } => {
                    return Ok(JobOutcome::Rejected { code, message })
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected mid-job frame {other:?}"
                    )))
                }
            }
        }
    }

    /// Fetches the server's metrics snapshot: `(name, value)` pairs,
    /// sorted by name.
    pub fn telemetry(&mut self) -> Result<Vec<(String, TelemetryValue)>, ClientError> {
        self.send(&Request::Telemetry)?;
        match self.next_reply()? {
            Reply::TelemetryReply { metrics } => Ok(metrics),
            other => Err(ClientError::Protocol(format!(
                "expected telemetry reply, got {other:?}"
            ))),
        }
    }

    /// Requests graceful shutdown; returns the number of jobs the server
    /// was still draining.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        self.send(&Request::Shutdown)?;
        match self.next_reply()? {
            Reply::ShutdownAck { draining } => Ok(draining),
            other => Err(ClientError::Protocol(format!(
                "expected shutdown ack, got {other:?}"
            ))),
        }
    }

    /// Sets a read timeout on the underlying socket (tests use this to
    /// bound how long a malformed exchange can hang).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }
}
