//! Frame grammar: request/reply types and their byte encodings.
//!
//! ```text
//! frame      := u32 len (LE, covers tag) · u8 tag · payload
//! requests   : 0x01 Hello      magic=0x53435443 u32 · version u16-as-u32
//!              0x02 Job        options · spec
//!              0x04 Shutdown
//!              0x05 Telemetry
//! replies    : 0x81 HelloAck   version u32
//!              0x82 Accepted   job_id u64 · served u8 (0 cold|1 hit|2 coalesced)
//!                              · trace_id u64
//!              0x83 Witness    job_id u64 · property str · text str
//!              0x84 Vcd        job_id u64 · text str
//!              0x85 Done       job_id u64 · digest · table str · wall_nanos u64
//!                              · trace_id u64
//!              0x86 Timeout    job_id u64 · deadline_ms u64
//!              0x87 Error      code u32 · message str
//!              0x89 ShutdownAck draining u64
//!              0x8A Progress   job_id u64 · trace_id u64 · done u64 ·
//!                              total u64 · eta_us u64
//!              0x8B TelemetryReply count u32 · (name str · value)*
//! value      := 0x00 counter u64
//!             | 0x02 histogram count u64 · sum · min · max · p50 · p90 · p99 (f64)
//! ```
//!
//! Version 4 retired request 0x03 and reply 0x88 (the stats pair) and
//! value kind 0x01 (gauge); they decode to [`WireError::BadTag`].
//!
//! All integers little-endian; strings length-prefixed UTF-8; `f64` as
//! IEEE-754 bits. Decoders are total: any byte sequence maps to a value
//! or a [`WireError`], never a panic. A spec carries content only, with
//! no scheduling knob and (since version 3) no monitoring engine, so its
//! bytes double as the result-cache key ([`encode_spec`]).

use faults::EswProgram;
use sctc_campaign::{CampaignFingerprint, FlowKind};
use sctc_cpu::IsaKind;
use sctc_smc::{SmcMethod, SmcQuery, SmcVerdict, SmcWorkload};
use sctc_temporal::Verdict;

use crate::job::{CampaignJob, FaultsJob, JobDigest, JobOptions, JobSpec, ScenarioJob, SmcJob};
use crate::wire::{WireError, WireReader, WireWriter};

/// Protocol magic: `"SCTC"` as a big-endian u32 spelling.
pub const MAGIC: u32 = 0x5343_5443;
/// Protocol version. Bumped on any grammar change. Version 2 added the
/// telemetry plane: trace ids on `Accepted`/`Done`, streamed `Progress`
/// frames, and the `Telemetry` request/reply pair. Version 3 dropped the
/// monitoring-engine byte from every job spec. Version 4 dropped the
/// stats request/reply pair, gauges and the telemetry text: the
/// `Telemetry` reply is the one metrics snapshot.
pub const VERSION: u32 = 4;

/// Server refused the job: malformed request.
pub const ERR_BAD_REQUEST: u32 = 1;
/// Server is draining and no longer accepts jobs.
pub const ERR_SHUTTING_DOWN: u32 = 2;
/// The job itself failed (panic or internal error), not the protocol.
pub const ERR_JOB_FAILED: u32 = 3;

/// How the server satisfied a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Ran fresh — a cache miss.
    Cold,
    /// Whole result served from the result cache.
    Hit,
    /// Joined an identical in-flight job (single-flight dedup).
    Coalesced,
}

/// One metric in a [`Reply::TelemetryReply`] snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum TelemetryValue {
    /// Monotone counter.
    Counter(u64),
    /// Histogram summary with pre-computed quantile estimates.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Smallest observation.
        min: f64,
        /// Largest observation.
        max: f64,
        /// Median estimate.
        p50: f64,
        /// 90th-percentile estimate.
        p90: f64,
        /// 99th-percentile estimate.
        p99: f64,
    },
}

/// A client-to-server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Handshake opener.
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Must equal [`VERSION`].
        version: u32,
    },
    /// Submit a job.
    Job {
        /// Scheduling knobs (outside the cache key).
        options: JobOptions,
        /// The job content.
        spec: JobSpec,
    },
    /// Begin graceful shutdown: drain in-flight jobs, refuse new ones.
    Shutdown,
    /// Snapshot the server's metrics: counters and histogram quantiles.
    Telemetry,
}

/// A server-to-client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Handshake accepted.
    HelloAck {
        /// Server protocol version.
        version: u32,
    },
    /// Job admitted; results follow on this connection.
    Accepted {
        /// Server-assigned id echoed on every frame of this job.
        job_id: u64,
        /// Cache classification at admission time.
        served: Served,
        /// Telemetry trace id minted for this flight; echoed on `Done`
        /// so clients can correlate wire frames with server-side traces.
        trace_id: u64,
    },
    /// One rendered counterexample witness (scenario jobs).
    Witness {
        /// Job this belongs to.
        job_id: u64,
        /// Property name.
        property: String,
        /// Rendered witness report.
        text: String,
    },
    /// The rendered VCD document (scenario jobs).
    Vcd {
        /// Job this belongs to.
        job_id: u64,
        /// VCD text.
        text: String,
    },
    /// Terminal success frame of a job.
    Done {
        /// Job this belongs to.
        job_id: u64,
        /// Deterministic fingerprint of the result.
        digest: JobDigest,
        /// Human-readable report table.
        table: String,
        /// Wall-clock of the producing run, nanoseconds.
        wall_nanos: u64,
        /// The trace id from this job's `Accepted` frame.
        trace_id: u64,
    },
    /// Terminal frame of a job that exceeded its deadline. The job keeps
    /// running server-side and lands in the cache for later requests.
    Timeout {
        /// Job this belongs to.
        job_id: u64,
        /// The deadline that expired, milliseconds.
        deadline_ms: u64,
    },
    /// Typed refusal or failure.
    Error {
        /// One of the `ERR_*` codes.
        code: u32,
        /// Human-readable detail.
        message: String,
    },
    /// Shutdown acknowledged; the ack is the last frame on the wire.
    ShutdownAck {
        /// Jobs still in flight when the drain began.
        draining: u64,
    },
    /// Mid-flight progress of a running job. Optional: servers may send
    /// zero or more of these between `Accepted` and the terminal frame;
    /// `done` is monotone non-decreasing within a job.
    Progress {
        /// Job this belongs to.
        job_id: u64,
        /// The trace id from this job's `Accepted` frame.
        trace_id: u64,
        /// Work units finished (shards merged, or SMC samples folded).
        done: u64,
        /// Total work units planned (the Chernoff budget for SMC jobs).
        total: u64,
        /// Estimated remaining wall, microseconds (0 = unknown).
        eta_us: u64,
    },
    /// Metrics snapshot: the server's counters and histograms plus the
    /// result cache's counters.
    TelemetryReply {
        /// `(name, value)` pairs, sorted by name.
        metrics: Vec<(String, TelemetryValue)>,
    },
}

fn put_flow(w: &mut WireWriter, flow: FlowKind) {
    w.u8(match flow {
        FlowKind::Derived => 0,
        FlowKind::Microprocessor => 1,
    });
}

fn get_flow(r: &mut WireReader) -> Result<FlowKind, WireError> {
    match r.u8()? {
        0 => Ok(FlowKind::Derived),
        1 => Ok(FlowKind::Microprocessor),
        code => Err(WireError::BadTag {
            what: "flow kind",
            code: u64::from(code),
        }),
    }
}

fn put_program(w: &mut WireWriter, program: EswProgram) {
    w.u8(match program {
        EswProgram::Healthy => 0,
        EswProgram::TornWrite => 1,
    });
}

fn get_program(r: &mut WireReader) -> Result<EswProgram, WireError> {
    match r.u8()? {
        0 => Ok(EswProgram::Healthy),
        1 => Ok(EswProgram::TornWrite),
        code => Err(WireError::BadTag {
            what: "esw program",
            code: u64::from(code),
        }),
    }
}

fn put_op(w: &mut WireWriter, op: eee::Op) {
    w.u8(u8::try_from(op.code()).expect("op codes are 1..=7"));
}

fn get_op(r: &mut WireReader) -> Result<eee::Op, WireError> {
    match r.u8()? {
        1 => Ok(eee::Op::Read),
        2 => Ok(eee::Op::Write),
        3 => Ok(eee::Op::Format),
        4 => Ok(eee::Op::Prepare),
        5 => Ok(eee::Op::Refresh),
        6 => Ok(eee::Op::Startup1),
        7 => Ok(eee::Op::Startup2),
        code => Err(WireError::BadTag {
            what: "eee op",
            code: u64::from(code),
        }),
    }
}

fn put_verdict(w: &mut WireWriter, verdict: Verdict) {
    w.u8(match verdict {
        Verdict::True => 0,
        Verdict::False => 1,
        Verdict::Pending => 2,
    });
}

fn get_verdict(r: &mut WireReader) -> Result<Verdict, WireError> {
    match r.u8()? {
        0 => Ok(Verdict::True),
        1 => Ok(Verdict::False),
        2 => Ok(Verdict::Pending),
        code => Err(WireError::BadTag {
            what: "verdict",
            code: u64::from(code),
        }),
    }
}

fn put_opt_u64(w: &mut WireWriter, value: Option<u64>) {
    match value {
        Some(v) => {
            w.u8(1);
            w.u64(v);
        }
        None => w.u8(0),
    }
}

fn get_opt_u64(r: &mut WireReader) -> Result<Option<u64>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        code => Err(WireError::BadTag {
            what: "option flag",
            code: u64::from(code),
        }),
    }
}

fn put_workload(w: &mut WireWriter, workload: &SmcWorkload) {
    match workload {
        SmcWorkload::Faults {
            program,
            fault_percent,
            cases_per_sample,
            pool,
        } => {
            w.u8(0);
            put_program(w, *program);
            w.u32(*fault_percent);
            w.u64(*cases_per_sample);
            put_opt_u64(w, *pool);
        }
        SmcWorkload::PlantedTorn { fail_per_mille } => {
            w.u8(1);
            w.u32(*fail_per_mille);
        }
    }
}

fn get_workload(r: &mut WireReader) -> Result<SmcWorkload, WireError> {
    match r.u8()? {
        0 => Ok(SmcWorkload::Faults {
            program: get_program(r)?,
            fault_percent: r.u32()?,
            cases_per_sample: r.u64()?,
            pool: get_opt_u64(r)?,
        }),
        1 => Ok(SmcWorkload::PlantedTorn {
            fail_per_mille: r.u32()?,
        }),
        code => Err(WireError::BadTag {
            what: "smc workload",
            code: u64::from(code),
        }),
    }
}

fn put_query(w: &mut WireWriter, query: &SmcQuery) {
    w.f64(query.theta);
    w.f64(query.delta);
    w.f64(query.alpha);
    w.f64(query.beta);
}

fn get_query(r: &mut WireReader) -> Result<SmcQuery, WireError> {
    let (theta, delta) = (r.f64()?, r.f64()?);
    let (alpha, beta) = (r.f64()?, r.f64()?);
    // `SmcQuery::with_errors` panics on degenerate parameters; a decoder
    // must reject them as data instead.
    let proper = |v: f64| v.is_finite() && v > 0.0 && v < 1.0;
    if !(proper(alpha) && proper(beta) && delta > 0.0 && delta.is_finite()) {
        return Err(WireError::BadTag {
            what: "smc query error bounds",
            code: 0,
        });
    }
    if !(theta.is_finite() && theta - delta > 0.0 && theta + delta < 1.0) {
        return Err(WireError::BadTag {
            what: "smc query hypotheses",
            code: 0,
        });
    }
    Ok(SmcQuery::with_errors(theta, delta, alpha, beta))
}

fn put_smc_verdict(w: &mut WireWriter, verdict: SmcVerdict) {
    w.u8(match verdict {
        SmcVerdict::Holds => 0,
        SmcVerdict::Fails => 1,
        SmcVerdict::Undecided => 2,
    });
}

fn get_smc_verdict(r: &mut WireReader) -> Result<SmcVerdict, WireError> {
    match r.u8()? {
        0 => Ok(SmcVerdict::Holds),
        1 => Ok(SmcVerdict::Fails),
        2 => Ok(SmcVerdict::Undecided),
        code => Err(WireError::BadTag {
            what: "smc verdict",
            code: u64::from(code),
        }),
    }
}

fn put_method(w: &mut WireWriter, method: SmcMethod) {
    w.u8(match method {
        SmcMethod::Sprt => 0,
        SmcMethod::FixedChernoff => 1,
    });
}

fn get_method(r: &mut WireReader) -> Result<SmcMethod, WireError> {
    match r.u8()? {
        0 => Ok(SmcMethod::Sprt),
        1 => Ok(SmcMethod::FixedChernoff),
        code => Err(WireError::BadTag {
            what: "smc method",
            code: u64::from(code),
        }),
    }
}

fn put_isa(w: &mut WireWriter, isa: IsaKind) {
    w.u8(isa.to_byte());
}

fn get_isa(r: &mut WireReader) -> Result<IsaKind, WireError> {
    let code = r.u8()?;
    IsaKind::from_byte(code).ok_or(WireError::BadTag {
        what: "isa kind",
        code: u64::from(code),
    })
}

/// Encodes a job spec. The ISA byte is content: results are
/// encoding-independent, but the server must execute the encoding the
/// client asked for, so the two encodings are distinct cache entries.
fn put_spec(w: &mut WireWriter, spec: &JobSpec) {
    match spec {
        JobSpec::Campaign(j) => {
            w.u8(0);
            put_flow(w, j.flow);
            w.seq(j.ops.len());
            for op in &j.ops {
                put_op(w, *op);
            }
            put_opt_u64(w, j.bound);
            w.u64(j.cases);
            w.u64(j.seed);
            w.u64(j.chunk);
            w.u32(j.fault_percent);
            put_isa(w, j.isa);
        }
        JobSpec::Faults(j) => {
            w.u8(1);
            put_flow(w, j.flow);
            w.u64(j.cases);
            w.u64(j.seed);
            w.u64(j.chunk);
            w.u32(j.fault_percent);
            w.u64(j.recovery_bound);
        }
        JobSpec::Smc(j) => {
            w.u8(2);
            put_flow(w, j.flow);
            put_workload(w, &j.workload);
            put_query(w, &j.query);
            put_method(w, j.method);
            w.u64(j.seed);
            w.u64(j.max_samples);
            w.u64(j.recovery_bound);
        }
        JobSpec::Scenario(j) => {
            w.u8(3);
            put_flow(w, j.flow);
            put_program(w, j.program);
            w.u64(j.recovery_bound);
            w.bool(j.want_witness);
            w.bool(j.want_vcd);
        }
    }
}

fn get_spec(r: &mut WireReader) -> Result<JobSpec, WireError> {
    match r.u8()? {
        0 => {
            let flow = get_flow(r)?;
            let count = r.seq(1)?;
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                ops.push(get_op(r)?);
            }
            Ok(JobSpec::Campaign(CampaignJob {
                flow,
                ops,
                bound: get_opt_u64(r)?,
                cases: r.u64()?,
                seed: r.u64()?,
                chunk: r.u64()?,
                fault_percent: r.u32()?,
                isa: get_isa(r)?,
            }))
        }
        1 => Ok(JobSpec::Faults(FaultsJob {
            flow: get_flow(r)?,
            cases: r.u64()?,
            seed: r.u64()?,
            chunk: r.u64()?,
            fault_percent: r.u32()?,
            recovery_bound: r.u64()?,
        })),
        2 => Ok(JobSpec::Smc(SmcJob {
            flow: get_flow(r)?,
            workload: get_workload(r)?,
            query: get_query(r)?,
            method: get_method(r)?,
            seed: r.u64()?,
            max_samples: r.u64()?,
            recovery_bound: r.u64()?,
        })),
        3 => Ok(JobSpec::Scenario(ScenarioJob {
            flow: get_flow(r)?,
            program: get_program(r)?,
            recovery_bound: r.u64()?,
            want_witness: r.bool()?,
            want_vcd: r.bool()?,
        })),
        code => Err(WireError::BadTag {
            what: "job spec kind",
            code: u64::from(code),
        }),
    }
}

/// A spec's wire encoding, exactly as a `Job` frame carries it after the
/// options — the result-cache key.
pub fn encode_spec(spec: &JobSpec) -> Vec<u8> {
    let mut w = WireWriter::new();
    put_spec(&mut w, spec);
    w.into_bytes()
}

fn put_digest(w: &mut WireWriter, digest: &JobDigest) {
    match digest {
        JobDigest::Campaign(fp) => {
            w.u8(0);
            w.u64(fp.test_cases);
            w.u64(fp.samples);
            w.u64(fp.sim_ticks);
            w.u64(fp.resumes);
            w.seq(fp.properties.len());
            for (name, verdict, violating, decided) in &fp.properties {
                w.str(name);
                put_verdict(w, *verdict);
                w.seq(violating.len());
                for shard in violating {
                    w.u64(*shard);
                }
                w.u64(*decided);
            }
            w.seq(fp.coverage_bits.len());
            for bits in &fp.coverage_bits {
                w.u64(*bits);
            }
            w.u64(fp.overall_bits);
            w.seq(fp.violations.len());
            for line in &fp.violations {
                w.str(line);
            }
            w.seq(fp.anomalies.len());
            for line in &fp.anomalies {
                w.str(line);
            }
            w.seq(fp.shard_cases.len());
            for (index, cases) in &fp.shard_cases {
                w.u64(*index);
                w.u64(*cases);
            }
        }
        JobDigest::Faults { fingerprint } => {
            w.u8(1);
            w.u64(*fingerprint);
        }
        JobDigest::Smc {
            fingerprint,
            verdict,
            samples,
            successes,
        } => {
            w.u8(2);
            w.u64(*fingerprint);
            put_smc_verdict(w, *verdict);
            w.u64(*samples);
            w.u64(*successes);
        }
        JobDigest::Scenario {
            fingerprint,
            properties,
        } => {
            w.u8(3);
            w.u64(*fingerprint);
            w.seq(properties.len());
            for (name, verdict) in properties {
                w.str(name);
                put_verdict(w, *verdict);
            }
        }
    }
}

fn get_digest(r: &mut WireReader) -> Result<JobDigest, WireError> {
    match r.u8()? {
        0 => {
            let test_cases = r.u64()?;
            let samples = r.u64()?;
            let sim_ticks = r.u64()?;
            let resumes = r.u64()?;
            let count = r.seq(1)?;
            let mut properties = Vec::with_capacity(count);
            for _ in 0..count {
                let name = r.str()?;
                let verdict = get_verdict(r)?;
                let shard_count = r.seq(8)?;
                let mut violating = Vec::with_capacity(shard_count);
                for _ in 0..shard_count {
                    violating.push(r.u64()?);
                }
                let decided = r.u64()?;
                properties.push((name, verdict, violating, decided));
            }
            let count = r.seq(8)?;
            let mut coverage_bits = Vec::with_capacity(count);
            for _ in 0..count {
                coverage_bits.push(r.u64()?);
            }
            let overall_bits = r.u64()?;
            let count = r.seq(4)?;
            let mut violations = Vec::with_capacity(count);
            for _ in 0..count {
                violations.push(r.str()?);
            }
            let count = r.seq(4)?;
            let mut anomalies = Vec::with_capacity(count);
            for _ in 0..count {
                anomalies.push(r.str()?);
            }
            let count = r.seq(16)?;
            let mut shard_cases = Vec::with_capacity(count);
            for _ in 0..count {
                shard_cases.push((r.u64()?, r.u64()?));
            }
            Ok(JobDigest::Campaign(CampaignFingerprint {
                test_cases,
                samples,
                sim_ticks,
                resumes,
                properties,
                coverage_bits,
                overall_bits,
                violations,
                anomalies,
                shard_cases,
            }))
        }
        1 => Ok(JobDigest::Faults {
            fingerprint: r.u64()?,
        }),
        2 => Ok(JobDigest::Smc {
            fingerprint: r.u64()?,
            verdict: get_smc_verdict(r)?,
            samples: r.u64()?,
            successes: r.u64()?,
        }),
        3 => {
            let fingerprint = r.u64()?;
            let count = r.seq(5)?;
            let mut properties = Vec::with_capacity(count);
            for _ in 0..count {
                let name = r.str()?;
                properties.push((name, get_verdict(r)?));
            }
            Ok(JobDigest::Scenario {
                fingerprint,
                properties,
            })
        }
        code => Err(WireError::BadTag {
            what: "job digest kind",
            code: u64::from(code),
        }),
    }
}

impl Request {
    /// Encodes into `(tag, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = WireWriter::new();
        let tag = match self {
            Request::Hello { magic, version } => {
                w.u32(*magic);
                w.u32(*version);
                0x01
            }
            Request::Job { options, spec } => {
                w.u64(options.deadline_ms);
                w.u64(options.jobs as u64);
                put_spec(&mut w, spec);
                0x02
            }
            Request::Shutdown => 0x04,
            Request::Telemetry => 0x05,
        };
        (tag, w.into_bytes())
    }

    /// Decodes from `(tag, payload)`; rejects trailing bytes.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = WireReader::new(payload);
        let request = match tag {
            0x01 => Request::Hello {
                magic: r.u32()?,
                version: r.u32()?,
            },
            0x02 => {
                let deadline_ms = r.u64()?;
                let jobs = usize::try_from(r.u64()?).map_err(|_| WireError::Oversized {
                    announced: u64::MAX,
                    limit: usize::MAX as u64,
                })?;
                let spec = get_spec(&mut r)?;
                Request::Job {
                    options: JobOptions { deadline_ms, jobs },
                    spec,
                }
            }
            0x04 => Request::Shutdown,
            0x05 => Request::Telemetry,
            code => {
                return Err(WireError::BadTag {
                    what: "request frame",
                    code: u64::from(code),
                })
            }
        };
        r.finish()?;
        Ok(request)
    }
}

impl Reply {
    /// Encodes into `(tag, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = WireWriter::new();
        let tag = match self {
            Reply::HelloAck { version } => {
                w.u32(*version);
                0x81
            }
            Reply::Accepted {
                job_id,
                served,
                trace_id,
            } => {
                w.u64(*job_id);
                w.u8(match served {
                    Served::Cold => 0,
                    Served::Hit => 1,
                    Served::Coalesced => 2,
                });
                w.u64(*trace_id);
                0x82
            }
            Reply::Witness {
                job_id,
                property,
                text,
            } => {
                w.u64(*job_id);
                w.str(property);
                w.str(text);
                0x83
            }
            Reply::Vcd { job_id, text } => {
                w.u64(*job_id);
                w.str(text);
                0x84
            }
            Reply::Done {
                job_id,
                digest,
                table,
                wall_nanos,
                trace_id,
            } => {
                w.u64(*job_id);
                put_digest(&mut w, digest);
                w.str(table);
                w.u64(*wall_nanos);
                w.u64(*trace_id);
                0x85
            }
            Reply::Timeout {
                job_id,
                deadline_ms,
            } => {
                w.u64(*job_id);
                w.u64(*deadline_ms);
                0x86
            }
            Reply::Error { code, message } => {
                w.u32(*code);
                w.str(message);
                0x87
            }
            Reply::ShutdownAck { draining } => {
                w.u64(*draining);
                0x89
            }
            Reply::Progress {
                job_id,
                trace_id,
                done,
                total,
                eta_us,
            } => {
                w.u64(*job_id);
                w.u64(*trace_id);
                w.u64(*done);
                w.u64(*total);
                w.u64(*eta_us);
                0x8A
            }
            Reply::TelemetryReply { metrics } => {
                w.seq(metrics.len());
                for (name, value) in metrics {
                    w.str(name);
                    match value {
                        TelemetryValue::Counter(v) => {
                            w.u8(0);
                            w.u64(*v);
                        }
                        TelemetryValue::Histogram {
                            count,
                            sum,
                            min,
                            max,
                            p50,
                            p90,
                            p99,
                        } => {
                            w.u8(2);
                            w.u64(*count);
                            w.f64(*sum);
                            w.f64(*min);
                            w.f64(*max);
                            w.f64(*p50);
                            w.f64(*p90);
                            w.f64(*p99);
                        }
                    }
                }
                0x8B
            }
        };
        (tag, w.into_bytes())
    }

    /// Decodes from `(tag, payload)`; rejects trailing bytes.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Reply, WireError> {
        let mut r = WireReader::new(payload);
        let reply = match tag {
            0x81 => Reply::HelloAck { version: r.u32()? },
            0x82 => Reply::Accepted {
                job_id: r.u64()?,
                served: match r.u8()? {
                    0 => Served::Cold,
                    1 => Served::Hit,
                    2 => Served::Coalesced,
                    code => {
                        return Err(WireError::BadTag {
                            what: "served kind",
                            code: u64::from(code),
                        })
                    }
                },
                trace_id: r.u64()?,
            },
            0x83 => Reply::Witness {
                job_id: r.u64()?,
                property: r.str()?,
                text: r.str()?,
            },
            0x84 => Reply::Vcd {
                job_id: r.u64()?,
                text: r.str()?,
            },
            0x85 => Reply::Done {
                job_id: r.u64()?,
                digest: get_digest(&mut r)?,
                table: r.str()?,
                wall_nanos: r.u64()?,
                trace_id: r.u64()?,
            },
            0x86 => Reply::Timeout {
                job_id: r.u64()?,
                deadline_ms: r.u64()?,
            },
            0x87 => Reply::Error {
                code: r.u32()?,
                message: r.str()?,
            },
            0x89 => Reply::ShutdownAck { draining: r.u64()? },
            0x8A => Reply::Progress {
                job_id: r.u64()?,
                trace_id: r.u64()?,
                done: r.u64()?,
                total: r.u64()?,
                eta_us: r.u64()?,
            },
            0x8B => {
                let count = r.seq(10)?;
                let mut metrics = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = r.str()?;
                    let value = match r.u8()? {
                        0 => TelemetryValue::Counter(r.u64()?),
                        2 => TelemetryValue::Histogram {
                            count: r.u64()?,
                            sum: r.f64()?,
                            min: r.f64()?,
                            max: r.f64()?,
                            p50: r.f64()?,
                            p90: r.f64()?,
                            p99: r.f64()?,
                        },
                        code => {
                            return Err(WireError::BadTag {
                                what: "telemetry value kind",
                                code: u64::from(code),
                            })
                        }
                    };
                    metrics.push((name, value));
                }
                Reply::TelemetryReply { metrics }
            }
            code => {
                return Err(WireError::BadTag {
                    what: "reply frame",
                    code: u64::from(code),
                })
            }
        };
        r.finish()?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let (tag, payload) = request.encode();
        assert_eq!(Request::decode(tag, &payload).unwrap(), request);
    }

    fn round_trip_reply(reply: Reply) {
        let (tag, payload) = reply.encode();
        assert_eq!(Reply::decode(tag, &payload).unwrap(), reply);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello {
            magic: MAGIC,
            version: VERSION,
        });
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Telemetry);
        for spec in [
            JobSpec::small_campaign(40, 7),
            JobSpec::small_faults(24, 9),
            JobSpec::planted_smc(20, 11),
            JobSpec::observed_scenario(EswProgram::TornWrite),
        ] {
            round_trip_request(Request::Job {
                options: JobOptions {
                    deadline_ms: 250,
                    jobs: 2,
                },
                spec,
            });
        }
    }

    #[test]
    fn replies_round_trip() {
        round_trip_reply(Reply::HelloAck { version: VERSION });
        round_trip_reply(Reply::Accepted {
            job_id: 3,
            served: Served::Coalesced,
            trace_id: 77,
        });
        round_trip_reply(Reply::Witness {
            job_id: 3,
            property: "recovery".into(),
            text: "…".into(),
        });
        round_trip_reply(Reply::Vcd {
            job_id: 3,
            text: "$version sctc $end".into(),
        });
        round_trip_reply(Reply::Done {
            job_id: 3,
            digest: JobDigest::Smc {
                fingerprint: 0xABCD,
                verdict: SmcVerdict::Holds,
                samples: 44,
                successes: 43,
            },
            table: "tbl".into(),
            wall_nanos: 123,
            trace_id: 77,
        });
        round_trip_reply(Reply::Done {
            job_id: 4,
            digest: JobDigest::Campaign(CampaignFingerprint {
                test_cases: 40,
                samples: 1000,
                sim_ticks: 999,
                resumes: 7,
                properties: vec![("p".into(), Verdict::True, vec![1, 2], 3)],
                coverage_bits: vec![0x3FF0_0000_0000_0000],
                overall_bits: 0x3FF0_0000_0000_0000,
                violations: vec!["v".into()],
                anomalies: vec![],
                shard_cases: vec![(0, 20), (1, 20)],
            }),
            table: String::new(),
            wall_nanos: 0,
            trace_id: 0,
        });
        round_trip_reply(Reply::Timeout {
            job_id: 5,
            deadline_ms: 100,
        });
        round_trip_reply(Reply::Error {
            code: ERR_SHUTTING_DOWN,
            message: "draining".into(),
        });
        round_trip_reply(Reply::ShutdownAck { draining: 1 });
        round_trip_reply(Reply::Progress {
            job_id: 3,
            trace_id: 77,
            done: 12,
            total: 40,
            eta_us: 1_500,
        });
        round_trip_reply(Reply::TelemetryReply {
            metrics: vec![
                ("server.jobs".into(), TelemetryValue::Counter(9)),
                (
                    "server.job_wall_us.smc".into(),
                    TelemetryValue::Histogram {
                        count: 4,
                        sum: 10.0,
                        min: 1.0,
                        max: 4.0,
                        p50: 2.0,
                        p90: 4.0,
                        p99: 4.0,
                    },
                ),
            ],
        });
    }

    #[test]
    fn telemetry_reply_rejects_unknown_value_kinds() {
        let (tag, payload) = Reply::TelemetryReply {
            metrics: vec![("n".into(), TelemetryValue::Counter(1))],
        }
        .encode();
        // The value-kind byte sits right after the name: count (4) +
        // name len (4) + "n" (1) = offset 9. Kind 1 is the retired gauge.
        for kind in [1, 9] {
            let mut bad = payload.clone();
            bad[9] = kind;
            assert!(matches!(
                Reply::decode(tag, &bad),
                Err(WireError::BadTag {
                    what: "telemetry value kind",
                    ..
                })
            ));
        }
    }

    #[test]
    fn retired_frame_tags_decode_to_bad_tags() {
        // Version 3's stats request (0x03) and its reply (0x88).
        assert!(matches!(
            Request::decode(0x03, &[]),
            Err(WireError::BadTag {
                what: "request frame",
                code: 0x03
            })
        ));
        let mut pairs = WireWriter::new();
        pairs.seq(1);
        pairs.str("cache.hits");
        pairs.u64(9);
        assert!(matches!(
            Reply::decode(0x88, &pairs.into_bytes()),
            Err(WireError::BadTag {
                what: "reply frame",
                code: 0x88
            })
        ));
    }

    #[test]
    fn cache_key_is_the_spec_wire_encoding() {
        let base = JobSpec::small_campaign(40, 7);
        let (_, payload) = Request::Job {
            options: JobOptions::default(),
            spec: base.clone(),
        }
        .encode();
        // The Job payload is the 16 option bytes followed by the spec.
        assert_eq!(payload[16..], base.content_key()[..]);
    }

    #[test]
    fn job_specs_carry_no_engine_byte() {
        let ops = eee::Op::ALL.len();
        for (spec, len) in [
            // kind, flow, ops (count + one byte each), bound flag + u64,
            // cases, seed, chunk, fault percent, isa.
            (
                JobSpec::small_campaign(40, 7),
                1 + 1 + 4 + ops + 9 + 24 + 4 + 1,
            ),
            // kind, flow, cases, seed, chunk, fault percent, recovery bound.
            (JobSpec::small_faults(24, 9), 1 + 1 + 24 + 4 + 8),
            // kind, flow, workload tag + rate, query, method, seed,
            // sample cap, recovery bound.
            (JobSpec::planted_smc(20, 11), 1 + 1 + 5 + 32 + 1 + 24),
            // kind, flow, program, recovery bound, witness and vcd flags.
            (
                JobSpec::observed_scenario(EswProgram::Healthy),
                1 + 1 + 1 + 8 + 1 + 1,
            ),
        ] {
            assert_eq!(spec.content_key().len(), len, "{spec:?}");
        }
    }

    #[test]
    fn cache_key_separates_every_content_field() {
        let base = JobSpec::small_campaign(40, 7);
        let mut reseeded = base.clone();
        if let JobSpec::Campaign(j) = &mut reseeded {
            j.seed += 1;
        }
        assert_ne!(base.content_key(), reseeded.content_key());

        let mut rechunked = base.clone();
        if let JobSpec::Campaign(j) = &mut rechunked {
            j.chunk = 5;
        }
        assert_ne!(
            rechunked.content_key(),
            JobSpec::small_campaign(40, 7).content_key()
        );

        // The ISA is content, not a scheduling knob: a compressed-encoding
        // run is a different execution even though its verdicts match.
        let mut compressed = base;
        if let JobSpec::Campaign(j) = &mut compressed {
            j.isa = sctc_cpu::IsaKind::Comp16;
        }
        assert_ne!(
            compressed.content_key(),
            JobSpec::small_campaign(40, 7).content_key()
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (tag, mut payload) = Request::Telemetry.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(tag, &payload),
            Err(WireError::Trailing { .. })
        ));
    }

    #[test]
    fn degenerate_smc_queries_decode_to_errors_not_panics() {
        // A planted SMC job with the query bytes replaced by NaN/0 values.
        let (tag, payload) = Request::Job {
            options: JobOptions::default(),
            spec: JobSpec::planted_smc(20, 1),
        }
        .encode();
        // theta starts right after: options (16) + kind (1) + flow (1) +
        // workload tag (1) + fail_per_mille (4) = offset 23.
        let mut bad = payload.clone();
        bad[23..31].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(Request::decode(tag, &bad).is_err());
        let mut bad = payload;
        bad[23..31].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert!(Request::decode(tag, &bad).is_err());
    }
}
