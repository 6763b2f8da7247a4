//! The versioned claire-serve wire protocol.
//!
//! Frames are `4-byte big-endian length ‖ JSON payload` over any byte
//! stream (TCP in practice). Every message is a tagged JSON object
//! (`{"type": "...", ...}`); [`Request`] and [`Response`] are the two
//! envelope enums, both `#[non_exhaustive]` so variants can be added
//! without breaking downstream matches. A connection starts with a
//! [`Request::Hello`] / [`Response::Hello`] exchange carrying
//! [`PROTOCOL_VERSION`]; a server refuses mismatched clients with a typed
//! [`ErrorCode::VersionMismatch`] before any job traffic.
//!
//! Numbers survive the trip bitwise: the vendored `serde_json` renders
//! `f64` with Rust's shortest-roundtrip formatting, so image data and
//! report metrics decode to the exact bits that were encoded (non-finite
//! values are not wire-safe — they render as `null`, like serde_json).

use std::fmt;
use std::io::{self, Write};
use std::time::Duration;

use claire_core::RegistrationConfig;
use claire_grid::{Grid, Layout, Real, ScalarField};
use claire_ipc::FrameError;
use serde::{field, DeError, Deserialize, Serialize, Value};

use crate::job::{JobId, JobInput, JobResult, JobSpec, JobStatus, ParseJobIdError, Priority};

/// Protocol revision negotiated in `Hello`. Bump on any change to frame
/// layout or message schemas that an old peer cannot ignore.
pub const PROTOCOL_VERSION: u32 = 5;

/// Typed wire failure. [`WireError::Frame`] means the byte stream itself
/// broke (the codec of `claire_ipc::frame`, shared with the socket
/// transport); the rest mean the peer sent something this implementation
/// refuses.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The stream failed below the message layer: i/o error, idle timeout,
    /// clean close, truncated or oversized frame.
    Frame(FrameError),
    /// The payload is not valid JSON or not a valid message schema.
    Malformed(String),
    /// `Hello` carried an incompatible [`PROTOCOL_VERSION`].
    VersionMismatch {
        /// Our version.
        ours: u32,
        /// The peer's version.
        theirs: u32,
    },
    /// A well-formed message arrived where the protocol forbids it.
    Protocol(String),
    /// The remote peer reported a typed error.
    Remote {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "wire {e}"),
            WireError::Malformed(m) => write!(f, "malformed message: {m}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
            WireError::Remote { code, message } => {
                write!(f, "remote error [{}]: {message}", code.as_str())
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Frame(FrameError::Io(e))
    }
}

/// Machine-readable error class carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// Handshake refused: incompatible [`PROTOCOL_VERSION`].
    VersionMismatch,
    /// The request frame did not decode.
    Malformed,
    /// The request type is not supported by this server.
    Unsupported,
    /// Admission queue at capacity (open-loop backpressure).
    QueueFull,
    /// The server is shutting down.
    ShuttingDown,
    /// The job spec failed admission validation.
    InvalidSpec,
    /// No job with the given id.
    UnknownJob,
    /// Anything else (worker panic, internal invariant).
    Internal,
}

impl ErrorCode {
    /// Stable wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::VersionMismatch => "version_mismatch",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::InvalidSpec => "invalid_spec",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parse a wire label; unknown labels map to [`ErrorCode::Internal`] so
    /// a newer server's codes degrade instead of failing the decode.
    pub fn parse(s: &str) -> ErrorCode {
        match s {
            "version_mismatch" => ErrorCode::VersionMismatch,
            "malformed" => ErrorCode::Malformed,
            "unsupported" => ErrorCode::Unsupported,
            "queue_full" => ErrorCode::QueueFull,
            "shutting_down" => ErrorCode::ShuttingDown,
            "invalid_spec" => ErrorCode::InvalidSpec,
            "unknown_job" => ErrorCode::UnknownJob,
            _ => ErrorCode::Internal,
        }
    }
}

// ---------------------------------------------------------------------------
// messages in frames — the byte-level codec is `claire_ipc::frame`, shared
// with the socket transport's binary rank protocol
// ---------------------------------------------------------------------------

/// Serialize any wire message to its frame payload.
pub fn encode<T: Serialize + ?Sized>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg).expect("wire serialization is total").into_bytes()
}

/// Write one message as a frame.
pub fn send<T: Serialize + ?Sized>(w: &mut impl Write, msg: &T) -> Result<(), WireError> {
    Ok(claire_ipc::frame::write_frame(w, &encode(msg))?)
}

// ---------------------------------------------------------------------------
// envelopes
// ---------------------------------------------------------------------------

/// Client → server messages.
///
/// `Submit` dwarfs the control variants by design: images travel inline in
/// the envelope, and boxing them would only add indirection on a path that
/// immediately serializes.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// Connection opener; must precede anything else.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Free-form client identification (logged, never parsed).
        client: String,
    },
    /// Submit a job for execution.
    Submit {
        /// The job, images inline.
        spec: WireJobSpec,
    },
    /// Query a job's lifecycle status.
    Status {
        /// Target job.
        id: JobId,
    },
    /// Request cancellation (effective within one GN iteration).
    Cancel {
        /// Target job.
        id: JobId,
    },
    /// Block until terminal and return the full result.
    Result {
        /// Target job.
        id: JobId,
    },
}

/// Server → client messages.
///
/// `Result` carries the full report inline for the same reason
/// [`Request::Submit`] carries images inline.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
#[allow(clippy::large_enum_variant)]
pub enum Response {
    /// Handshake acceptance.
    Hello {
        /// Server's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Free-form server identification.
        server: String,
    },
    /// Job admitted.
    Submitted {
        /// Server-assigned id.
        id: JobId,
    },
    /// Answer to [`Request::Status`].
    Status {
        /// Queried job.
        id: JobId,
        /// Its current lifecycle state.
        status: JobStatus,
    },
    /// Answer to [`Request::Cancel`].
    Cancelled {
        /// Target job.
        id: JobId,
        /// Whether the cancel reached a live (non-terminal) job.
        delivered: bool,
    },
    /// Answer to [`Request::Result`].
    Result {
        /// The terminal result, reports inline.
        result: RemoteJobResult,
    },
    /// Typed refusal.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// job spec / result payloads
// ---------------------------------------------------------------------------

/// A [`JobSpec`] in wire form: images inline as flat `f64` arrays, the
/// config fully spelled out, hooks (not serializable) left behind — the
/// server installs its own cancel token. Field order is the wire's key
/// order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireJobSpec {
    /// Free-form label (used in reports).
    pub label: String,
    /// Admission priority class.
    pub priority: Priority,
    /// Deadline in milliseconds from server-side admission (None = none).
    pub deadline_ms: Option<u64>,
    /// Full solver configuration, one key per
    /// [`ConfigField`](claire_core::config::ConfigField).
    pub config: RegistrationConfig,
    /// Input images or synthetic problem size.
    pub input: WireInput,
}

/// Wire form of [`JobInput`].
#[derive(Clone, Debug, PartialEq)]
pub enum WireInput {
    /// Generate the analytic SYN pair server-side.
    Synthetic {
        /// Grid extents.
        n: [usize; 3],
    },
    /// Concrete images, row-major over the serial layout of `n`.
    Pair {
        /// Grid extents.
        n: [usize; 3],
        /// Template image `m0`.
        template: Vec<Real>,
        /// Reference image `m1`.
        reference: Vec<Real>,
    },
}

impl WireJobSpec {
    /// Lower an in-process spec (image data is copied; hooks are dropped —
    /// they cannot cross the wire).
    pub fn from_spec(spec: &JobSpec) -> WireJobSpec {
        let input = match &spec.input {
            JobInput::Synthetic { n } => WireInput::Synthetic { n: *n },
            JobInput::Pair { template, reference } => WireInput::Pair {
                n: template.layout().grid.n,
                template: template.data().to_vec(),
                reference: reference.data().to_vec(),
            },
        };
        WireJobSpec {
            label: spec.label.clone(),
            config: spec.config,
            input,
            priority: spec.priority,
            deadline_ms: spec.deadline.map(|d| d.as_millis() as u64),
        }
    }

    /// Rehydrate into an in-process [`JobSpec`] (serial layout; the service
    /// validates the rest at admission).
    pub fn into_spec(self) -> Result<JobSpec, WireError> {
        let input = match self.input {
            WireInput::Synthetic { n } => JobInput::Synthetic { n },
            WireInput::Pair { n, template, reference } => {
                if n.iter().any(|&d| d < 2) {
                    return Err(WireError::Malformed(format!(
                        "pair grid extents must all be >= 2, got {n:?}"
                    )));
                }
                let layout = Layout::serial(Grid::new(n));
                let expect = layout.local_len();
                for (name, data) in [("template", &template), ("reference", &reference)] {
                    if data.len() != expect {
                        return Err(WireError::Malformed(format!(
                            "{name} carries {} samples, grid {n:?} needs {expect}",
                            data.len()
                        )));
                    }
                }
                JobInput::Pair {
                    template: ScalarField::from_data(layout, template),
                    reference: ScalarField::from_data(layout, reference),
                }
            }
        };
        let mut spec = JobSpec::new(self.label, self.config, input).priority(self.priority);
        if let Some(ms) = self.deadline_ms {
            spec = spec.deadline(Duration::from_millis(ms));
        }
        Ok(spec)
    }
}

/// A [`JobResult`] in wire form. The `RunReport` travels as an opaque JSON
/// document (`run`): it is a reporting artifact, not an API type, so the
/// client hands it through without imposing a schema. Its `summary` is the
/// solve's Table 6 row, the only copy of it in the frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RemoteJobResult {
    /// Server-assigned id.
    pub id: JobId,
    /// The spec's label.
    pub label: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Per-job `RunReport` JSON document (`Succeeded` only).
    pub run: Option<Value>,
    /// Error text for non-succeeded statuses.
    pub error: Option<String>,
    /// Seconds queued server-side.
    pub queue_wait_secs: f64,
    /// Seconds executing server-side.
    pub run_secs: f64,
    /// End-to-end server-side seconds.
    pub total_secs: f64,
}

impl RemoteJobResult {
    /// Lower a service result for the wire.
    pub fn from_result(r: &JobResult) -> RemoteJobResult {
        RemoteJobResult {
            id: r.id,
            label: r.label.clone(),
            status: r.status,
            run: r.run.as_ref().map(|run| run.to_value()),
            error: r.error.clone(),
            queue_wait_secs: r.queue_wait.as_secs_f64(),
            run_secs: r.run_time.as_secs_f64(),
            total_secs: r.total.as_secs_f64(),
        }
    }
}

// ---------------------------------------------------------------------------
// codec: the payload structs above and `RegistrationConfig` derive both
// directions; what is written by hand is what is tagged by a string
// ---------------------------------------------------------------------------

impl From<DeError> for WireError {
    fn from(e: DeError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

/// `{"<tag_key>": "<tag>", ...rest}`.
fn tagged(tag_key: &str, tag: &str, rest: Vec<(&str, Value)>) -> Value {
    let pairs = std::iter::once((tag_key, Value::Str(tag.to_string()))).chain(rest);
    Value::Object(pairs.map(|(k, v)| (k.to_string(), v)).collect())
}

impl Serialize for JobId {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for JobId {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        String::from_value(v)?.parse().map_err(|e: ParseJobIdError| DeError::new(e.to_string()))
    }
}

impl Serialize for WireInput {
    fn to_value(&self) -> Value {
        match self {
            WireInput::Synthetic { n } => tagged("kind", "synthetic", vec![("n", n.to_value())]),
            WireInput::Pair { n, template, reference } => tagged(
                "kind",
                "pair",
                vec![
                    ("n", n.to_value()),
                    ("template", template.to_value()),
                    ("reference", reference.to_value()),
                ],
            ),
        }
    }
}

impl Deserialize for WireInput {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match field::<String>(v, "kind")?.as_str() {
            "synthetic" => Ok(WireInput::Synthetic { n: field(v, "n")? }),
            "pair" => Ok(WireInput::Pair {
                n: field(v, "n")?,
                template: field(v, "template")?,
                reference: field(v, "reference")?,
            }),
            other => Err(DeError::new(format!("unknown input kind `{other}`"))),
        }
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        let (tag, rest) = match self {
            Request::Hello { protocol, client } => {
                ("hello", vec![("protocol", protocol.to_value()), ("client", client.to_value())])
            }
            Request::Submit { spec } => ("submit", vec![("spec", spec.to_value())]),
            Request::Status { id } => ("status", vec![("id", id.to_value())]),
            Request::Cancel { id } => ("cancel", vec![("id", id.to_value())]),
            Request::Result { id } => ("result", vec![("id", id.to_value())]),
        };
        tagged("type", tag, rest)
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        let (tag, rest) = match self {
            Response::Hello { protocol, server } => {
                ("hello", vec![("protocol", protocol.to_value()), ("server", server.to_value())])
            }
            Response::Submitted { id } => ("submitted", vec![("id", id.to_value())]),
            Response::Status { id, status } => {
                ("status", vec![("id", id.to_value()), ("status", status.to_value())])
            }
            Response::Cancelled { id, delivered } => {
                ("cancelled", vec![("id", id.to_value()), ("delivered", delivered.to_value())])
            }
            Response::Result { result } => ("result", vec![("result", result.to_value())]),
            Response::Error { code, message } => {
                ("error", vec![("code", code.as_str().to_value()), ("message", message.to_value())])
            }
        };
        tagged("type", tag, rest)
    }
}

/// The JSON document in a frame payload and its `type` tag.
fn parse_tagged(bytes: &[u8]) -> Result<(Value, String), WireError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| WireError::Malformed(format!("invalid UTF-8: {e}")))?;
    let v = serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))?;
    let tag = field(&v, "type")?;
    Ok((v, tag))
}

/// Decode one frame payload as a [`Request`].
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let (v, tag) = parse_tagged(bytes)?;
    Ok(match tag.as_str() {
        "hello" => {
            Request::Hello { protocol: field(&v, "protocol")?, client: field(&v, "client")? }
        }
        "submit" => Request::Submit { spec: field(&v, "spec")? },
        "status" => Request::Status { id: field(&v, "id")? },
        "cancel" => Request::Cancel { id: field(&v, "id")? },
        "result" => Request::Result { id: field(&v, "id")? },
        other => return Err(WireError::Protocol(format!("unsupported request type `{other}`"))),
    })
}

/// Decode one frame payload as a [`Response`].
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let (v, tag) = parse_tagged(bytes)?;
    Ok(match tag.as_str() {
        "hello" => {
            Response::Hello { protocol: field(&v, "protocol")?, server: field(&v, "server")? }
        }
        "submitted" => Response::Submitted { id: field(&v, "id")? },
        "status" => Response::Status { id: field(&v, "id")?, status: field(&v, "status")? },
        "cancelled" => {
            Response::Cancelled { id: field(&v, "id")?, delivered: field(&v, "delivered")? }
        }
        "result" => Response::Result { result: field(&v, "result")? },
        "error" => Response::Error {
            code: ErrorCode::parse(&field::<String>(&v, "code")?),
            message: field(&v, "message")?,
        },
        other => return Err(WireError::Protocol(format!("unsupported response type `{other}`"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WireJobSpec {
        WireJobSpec {
            label: "unit".into(),
            config: RegistrationConfig::default(),
            input: WireInput::Synthetic { n: [8, 8, 8] },
            priority: Priority::High,
            deadline_ms: Some(1500),
        }
    }

    #[test]
    fn request_envelopes_round_trip() {
        let id: JobId = "job-42".parse().unwrap();
        let reqs = vec![
            Request::Hello { protocol: PROTOCOL_VERSION, client: "test".into() },
            Request::Submit { spec: spec() },
            Request::Status { id },
            Request::Cancel { id },
            Request::Result { id },
        ];
        for req in reqs {
            let back = decode_request(&encode(&req)).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_envelopes_round_trip() {
        let id: JobId = "job-7".parse().unwrap();
        let resps = vec![
            Response::Hello { protocol: PROTOCOL_VERSION, server: "srv".into() },
            Response::Submitted { id },
            Response::Status { id, status: JobStatus::Running },
            Response::Cancelled { id, delivered: false },
            Response::Error { code: ErrorCode::QueueFull, message: "slow down".into() },
        ];
        for resp in resps {
            let back = decode_response(&encode(&resp)).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn garbage_payloads_are_malformed() {
        assert!(matches!(decode_request(b"not json"), Err(WireError::Malformed(_))));
        assert!(matches!(decode_request(b"[1,2,3]"), Err(WireError::Malformed(_))));
        assert!(matches!(decode_request(b"{\"no\":\"type\"}"), Err(WireError::Malformed(_))));
        assert!(matches!(decode_request(b"{\"type\":\"warp\"}"), Err(WireError::Protocol(_))));
        // 2³² + 1 must not wrap to protocol version 1
        let wrapped = b"{\"type\":\"hello\",\"protocol\":4294967297,\"client\":\"c\"}";
        assert!(matches!(decode_request(wrapped), Err(WireError::Malformed(_))));
        assert!(matches!(decode_response(&[0xff, 0xfe]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn pair_spec_survives_bitwise() {
        let data: Vec<Real> = (0..8 * 8 * 8).map(|i| (i as Real).sin() * 1e-3).collect();
        let w = WireJobSpec {
            input: WireInput::Pair {
                n: [8, 8, 8],
                template: data.clone(),
                reference: data.iter().map(|x| x * 0.5).collect(),
            },
            ..spec()
        };
        let Request::Submit { spec: back } =
            decode_request(&encode(&Request::Submit { spec: w.clone() })).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(back, w);
        let (WireInput::Pair { template: a, .. }, WireInput::Pair { template: b, .. }) =
            (&back.input, &w.input)
        else {
            panic!("wrong input kind");
        };
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "image samples must survive bitwise");
        }
    }

    #[test]
    fn into_spec_validates_sample_counts() {
        let w = WireJobSpec {
            input: WireInput::Pair { n: [8, 8, 8], template: vec![0.0; 5], reference: vec![] },
            ..spec()
        };
        assert!(matches!(w.into_spec(), Err(WireError::Malformed(_))));
    }

    /// Frame payloads of protocol 5, every key in wire order: what the
    /// hand-written codec before the derive produced (captured by running
    /// it), less the report's five modeled-seconds keys protocol 1 carried,
    /// the `tenant` and `cached` keys protocol 2 carried, the config's
    /// coarse-to-fine switch protocol 3 carried and the result's separate
    /// `report` protocol 4 carried (its row is the run's `summary`), plus
    /// the report's `obj_evals`, `hess_applies` and `converged`.
    const GOLDEN_SUBMIT: &str = r#"{"type":"submit","spec":{"label":"golden","priority":"high","deadline_ms":1234,"config":{"nt":2,"ip_order":"cubic","store_grad":true,"precond":"2LInvH0","beta_target":0.001,"beta_init":0.5,"beta_reduction":0.25,"continuation":false,"eps_h0":0.01,"beta_floor":0.1,"grad_rtol":0.02,"max_gn_iter":3,"max_pcg_iter":4,"max_inner_iter":5,"fixed_pcg":6,"precision":"mixed","verbose":false},"input":{"kind":"synthetic","n":[8,6,4]}}}"#;
    const GOLDEN_RESULT: &str = r#"{"type":"result","result":{"id":"job-42","label":"golden","status":"succeeded","run":{"backend":"scalar","transport":"channel","summary":{"data":"golden","pc":"2LInvH0","precision":"mixed","grid":[8,6,4],"nt":2,"nranks":1,"gn_iters":3,"pcg_iters":7,"obj_evals":5,"hess_applies":7,"converged":true,"rel_mismatch":0.123456789012345,"grad_rel":0.015,"n_inva":2,"n_invh0":5,"inner_cg_total":40,"inner_cg_avg":8.0,"time_pc":0.25,"time_obj":0.125,"time_grad":0.5,"time_hess":1.0,"time_total":2.0,"jac_det_min":0.75,"jac_det_max":1.5,"memory_bytes_per_rank":123456}},"error":null,"queue_wait_secs":0.001,"run_secs":2.0,"total_secs":2.5}}"#;

    fn text(msg: &impl Serialize) -> String {
        String::from_utf8(encode(msg)).unwrap()
    }

    #[test]
    fn golden_frames_decode_and_the_derived_codec_writes_the_same_bytes() {
        let Request::Submit { spec } = decode_request(GOLDEN_SUBMIT.as_bytes()).unwrap() else {
            panic!("golden submit decoded to another variant");
        };
        assert_eq!(spec.label, "golden");
        assert_eq!((spec.priority, spec.deadline_ms), (Priority::High, Some(1234)));
        assert_eq!(spec.input, WireInput::Synthetic { n: [8, 6, 4] });
        let c = spec.config;
        assert_eq!((c.nt, c.ip_order.label(), c.precond.label()), (2, "cubic", "2LInvH0"));
        assert_eq!((c.beta_target, c.beta_init, c.beta_reduction), (1e-3, 0.5, 0.25));
        assert_eq!((c.store_grad, c.continuation, c.verbose), (true, false, false));
        assert_eq!((c.eps_h0, c.beta_floor, c.grad_rtol), (1e-2, 0.1, 2e-2));
        assert_eq!(
            (c.max_gn_iter, c.max_pcg_iter, c.max_inner_iter, c.fixed_pcg),
            (3, 4, 5, Some(6))
        );
        assert_eq!(c.precision, claire_core::Precision::Mixed);
        assert_eq!(text(&Request::Submit { spec }), GOLDEN_SUBMIT);

        let Response::Result { result } = decode_response(GOLDEN_RESULT.as_bytes()).unwrap() else {
            panic!("golden result decoded to another variant");
        };
        assert_eq!((result.id.as_u64(), result.status), (42, JobStatus::Succeeded));
        assert_eq!((result.error.as_deref(), result.total_secs), (None, 2.5));
        let run = result.run.as_ref().expect("golden result carries a run document");
        assert_eq!(run.get("transport"), Some(&Value::Str("channel".into())));
        let report: claire_core::RegistrationReport = field(run, "summary").unwrap();
        assert_eq!((report.pc.as_str(), report.precision.as_str()), ("2LInvH0", "mixed"));
        assert_eq!((report.grid, report.pcg_iters), ([8, 6, 4], 7));
        assert_eq!((report.obj_evals, report.hess_applies, report.converged), (5, 7, true));
        assert_eq!(report.rel_mismatch.to_bits(), 0.123456789012345f64.to_bits());
        assert_eq!(report.memory_bytes_per_rank, 123456);
        assert_eq!(text(&Response::Result { result }), GOLDEN_RESULT);
    }

    #[test]
    fn a_config_key_the_table_does_not_know_is_malformed_and_named() {
        // the switch a protocol-3 peer still sends after `continuation`
        // (spelled in parts: the option it set is gone)
        let gone = concat!("grid", "_continuation");
        let old = format!(r#""continuation":false,"{gone}":true"#);
        let old_names = format!("unknown key `{gone}`");
        for (from, to, names) in [
            (r#""nt":2"#, r#""nt":2,"presision":"mixed""#, "unknown key `presision`"),
            (r#""continuation":false"#, old.as_str(), old_names.as_str()),
            (r#""nt":2,"#, "", "missing `nt`"),
            (r#""precision":"mixed","#, "", "missing `precision`"),
            (r#""eps_h0":0.01"#, r#""eps_h0":"tight""#, "`spec.config.eps_h0`"),
            (r#""precond":"2LInvH0""#, r#""precond":"TwoLevelInvH0""#, "unknown PrecondKind"),
        ] {
            let frame = GOLDEN_SUBMIT.replace(from, to);
            assert_ne!(frame, GOLDEN_SUBMIT);
            match decode_request(frame.as_bytes()) {
                Err(WireError::Malformed(m)) => assert!(m.contains(names), "{to}: {m}"),
                other => panic!("{to}: expected Malformed, got {other:?}"),
            }
        }
    }
}
