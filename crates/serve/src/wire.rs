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
use std::io::{self, Read, Write};
use std::time::Duration;

use claire_core::config::IpOrder;
use claire_core::{Precision, PrecondKind, RegistrationConfig, RegistrationReport};
use claire_grid::{Grid, Layout, Real, ScalarField};
use serde::{Serialize, Value};

use crate::job::{JobId, JobInput, JobResult, JobSpec, JobStatus, Priority};

/// Protocol revision negotiated in `Hello`. Bump on any change to frame
/// layout or message schemas that an old peer cannot ignore.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard upper bound on one frame's payload (guards against a hostile or
/// corrupt length prefix allocating unbounded memory). Large enough for a
/// 256³ image pair with slack. Shared with the socket transport's binary
/// protocol — one framing discipline per workspace.
pub use claire_ipc::frame::MAX_FRAME_BYTES;

/// Typed wire failure. Transport-level variants (`Io`, `Timeout`,
/// `Closed`, `Truncated`) mean the byte stream itself broke; the rest mean
/// the peer sent something this implementation refuses.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// Underlying socket/stream error.
    Io(io::Error),
    /// A read timed out with no frame started (idle poll tick).
    Timeout,
    /// Clean EOF on a frame boundary (peer closed the connection).
    Closed,
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes the frame promised.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The length prefix exceeds the receiver's frame cap.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// Receiver's cap.
        max: usize,
    },
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

impl WireError {
    /// Whether the failure broke the byte stream (reconnect-worthy) as
    /// opposed to a per-request refusal on a healthy connection.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            WireError::Io(_) | WireError::Timeout | WireError::Closed | WireError::Truncated { .. }
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Timeout => write!(f, "read timed out before a frame started"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
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

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
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
    /// The tenant's token bucket is empty.
    QuotaExceeded,
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
            ErrorCode::QuotaExceeded => "quota_exceeded",
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
            "quota_exceeded" => ErrorCode::QuotaExceeded,
            "unknown_job" => ErrorCode::UnknownJob,
            _ => ErrorCode::Internal,
        }
    }
}

// ---------------------------------------------------------------------------
// framing — the byte-level codec lives in `claire_ipc::frame`, shared with
// the socket transport's binary rank protocol; these wrappers keep the
// serve-facing API and map the codec's typed errors onto `WireError`
// ---------------------------------------------------------------------------

impl From<claire_ipc::FrameError> for WireError {
    fn from(e: claire_ipc::FrameError) -> Self {
        use claire_ipc::FrameError as F;
        match e {
            F::Io(e) => WireError::Io(e),
            F::Timeout => WireError::Timeout,
            F::Closed => WireError::Closed,
            F::Truncated { expected, got } => WireError::Truncated { expected, got },
            F::TooLarge { len, max } => WireError::FrameTooLarge { len, max },
        }
    }
}

/// Write one frame: 4-byte big-endian payload length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    claire_ipc::frame::write_frame(w, payload).map_err(WireError::from)
}

/// Read one frame's payload, enforcing `max` against the length prefix
/// *before* allocating. A clean EOF on the frame boundary is
/// [`WireError::Closed`]; a read timeout before any header byte is
/// [`WireError::Timeout`] (so pollers can use short socket timeouts as
/// idle ticks); EOF mid-frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, WireError> {
    claire_ipc::frame::read_frame(r, max).map_err(WireError::from)
}

/// Serialize any wire message to its frame payload.
pub fn encode<T: Serialize + ?Sized>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg).expect("wire serialization is total").into_bytes()
}

/// Write one message as a frame.
pub fn send<T: Serialize + ?Sized>(w: &mut impl Write, msg: &T) -> Result<(), WireError> {
    write_frame(w, &encode(msg))
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
    /// Subscribe to status events until the job is terminal.
    Stream {
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
    /// Job admitted (possibly straight from the result cache).
    Submitted {
        /// Server-assigned id.
        id: JobId,
        /// Whether the result was served from the content-hash cache
        /// without queueing a solve.
        cached: bool,
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
    /// One streamed status event (answer stream to [`Request::Stream`]).
    Event {
        /// Subscribed job.
        id: JobId,
        /// What happened.
        event: StreamEvent,
    },
    /// Typed refusal.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One entry in a [`Request::Stream`] subscription. The stream always ends
/// with exactly one `Terminal`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StreamEvent {
    /// The job is waiting in the admission queue.
    Queued,
    /// A worker started executing the job.
    Running,
    /// The solver finished Gauss–Newton iteration `iter` (0-based,
    /// monotone within one job).
    GnIter {
        /// Iteration index.
        iter: usize,
    },
    /// The job reached a terminal status; the stream is over.
    Terminal {
        /// The terminal status.
        status: JobStatus,
    },
}

// ---------------------------------------------------------------------------
// job spec / result payloads
// ---------------------------------------------------------------------------

/// A [`JobSpec`] in wire form: images inline as flat `f64` arrays, the
/// config fully spelled out, hooks (not serializable) left behind — the
/// server installs its own cancel token and streaming hook.
#[derive(Clone, Debug, PartialEq)]
pub struct WireJobSpec {
    /// Free-form label (used in reports).
    pub label: String,
    /// Tenant name for quota accounting (empty = the default tenant).
    pub tenant: String,
    /// Full solver configuration.
    pub config: RegistrationConfig,
    /// Input images or synthetic problem size.
    pub input: WireInput,
    /// Admission priority class.
    pub priority: Priority,
    /// Deadline in milliseconds from server-side admission (None = none).
    pub deadline_ms: Option<u64>,
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
            tenant: spec.tenant.clone(),
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
        let mut spec = JobSpec::new(self.label, self.config, input)
            .tenant(self.tenant)
            .priority(self.priority);
        if let Some(ms) = self.deadline_ms {
            spec = spec.deadline(Duration::from_millis(ms));
        }
        Ok(spec)
    }
}

/// A [`JobResult`] in wire form. The `RunReport` travels as an opaque JSON
/// document (`run`): it is a reporting artifact, not an API type, so the
/// client hands it through without imposing a schema.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteJobResult {
    /// Server-assigned id.
    pub id: JobId,
    /// The spec's label.
    pub label: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Table 6-style solve report (`Succeeded` only).
    pub report: Option<RegistrationReport>,
    /// Per-job `RunReport` JSON document (when the server collects them).
    pub run: Option<Value>,
    /// Error text for non-succeeded statuses.
    pub error: Option<String>,
    /// Seconds queued server-side.
    pub queue_wait_secs: f64,
    /// Seconds executing server-side.
    pub run_secs: f64,
    /// End-to-end server-side seconds.
    pub total_secs: f64,
    /// Whether this result came from the content-hash cache.
    pub cached: bool,
}

impl RemoteJobResult {
    /// Lower a service result for the wire.
    pub fn from_result(r: &JobResult) -> RemoteJobResult {
        RemoteJobResult {
            id: r.id,
            label: r.label.clone(),
            status: r.status,
            report: r.report.clone(),
            run: r.run.as_ref().map(|run| run.to_value()),
            error: r.error.clone(),
            queue_wait_secs: r.queue_wait.as_secs_f64(),
            run_secs: r.run_time.as_secs_f64(),
            total_secs: r.total.as_secs_f64(),
            cached: r.from_cache,
        }
    }
}

// ---------------------------------------------------------------------------
// encoding (Serialize impls)
// ---------------------------------------------------------------------------

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn tagged(tag: &str, mut rest: Vec<(&str, Value)>) -> Value {
    let mut pairs = vec![("type", Value::Str(tag.to_string()))];
    pairs.append(&mut rest);
    obj(pairs)
}

impl Serialize for JobId {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Hello { protocol, client } => tagged(
                "hello",
                vec![("protocol", Value::UInt(*protocol as u64)), ("client", client.to_value())],
            ),
            Request::Submit { spec } => tagged("submit", vec![("spec", spec.to_value())]),
            Request::Status { id } => tagged("status", vec![("id", id.to_value())]),
            Request::Cancel { id } => tagged("cancel", vec![("id", id.to_value())]),
            Request::Result { id } => tagged("result", vec![("id", id.to_value())]),
            Request::Stream { id } => tagged("stream", vec![("id", id.to_value())]),
        }
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Hello { protocol, server } => tagged(
                "hello",
                vec![("protocol", Value::UInt(*protocol as u64)), ("server", server.to_value())],
            ),
            Response::Submitted { id, cached } => {
                tagged("submitted", vec![("id", id.to_value()), ("cached", Value::Bool(*cached))])
            }
            Response::Status { id, status } => tagged(
                "status",
                vec![("id", id.to_value()), ("status", Value::Str(status.label().into()))],
            ),
            Response::Cancelled { id, delivered } => tagged(
                "cancelled",
                vec![("id", id.to_value()), ("delivered", Value::Bool(*delivered))],
            ),
            Response::Result { result } => tagged("result", vec![("result", result.to_value())]),
            Response::Event { id, event } => {
                let mut fields = vec![("id", id.to_value())];
                match event {
                    StreamEvent::Queued => fields.push(("event", Value::Str("queued".into()))),
                    StreamEvent::Running => fields.push(("event", Value::Str("running".into()))),
                    StreamEvent::GnIter { iter } => {
                        fields.push(("event", Value::Str("gn_iter".into())));
                        fields.push(("iter", Value::UInt(*iter as u64)));
                    }
                    StreamEvent::Terminal { status } => {
                        fields.push(("event", Value::Str("terminal".into())));
                        fields.push(("status", Value::Str(status.label().into())));
                    }
                }
                tagged("event", fields)
            }
            Response::Error { code, message } => tagged(
                "error",
                vec![("code", Value::Str(code.as_str().into())), ("message", message.to_value())],
            ),
        }
    }
}

fn config_to_value(c: &RegistrationConfig) -> Value {
    obj(vec![
        ("nt", Value::UInt(c.nt as u64)),
        ("ip_order", Value::Str(c.ip_order.label().into())),
        ("store_grad", Value::Bool(c.store_grad)),
        ("precond", Value::Str(c.precond.label().into())),
        ("beta_target", Value::Num(c.beta_target)),
        ("beta_init", Value::Num(c.beta_init)),
        ("beta_reduction", Value::Num(c.beta_reduction)),
        ("continuation", Value::Bool(c.continuation)),
        ("grid_continuation", Value::Bool(c.grid_continuation)),
        ("eps_h0", Value::Num(c.eps_h0)),
        ("beta_floor", Value::Num(c.beta_floor)),
        ("grad_rtol", Value::Num(c.grad_rtol)),
        ("max_gn_iter", Value::UInt(c.max_gn_iter as u64)),
        ("max_pcg_iter", Value::UInt(c.max_pcg_iter as u64)),
        ("max_inner_iter", Value::UInt(c.max_inner_iter as u64)),
        ("fixed_pcg", c.fixed_pcg.map(|n| n as u64).to_value()),
        ("precision", Value::Str(c.precision.label().into())),
        ("verbose", Value::Bool(c.verbose)),
    ])
}

impl Serialize for WireInput {
    fn to_value(&self) -> Value {
        match self {
            WireInput::Synthetic { n } => {
                obj(vec![("kind", Value::Str("synthetic".into())), ("n", n.to_value())])
            }
            WireInput::Pair { n, template, reference } => obj(vec![
                ("kind", Value::Str("pair".into())),
                ("n", n.to_value()),
                ("template", real_array(template)),
                ("reference", real_array(reference)),
            ]),
        }
    }
}

fn real_array(data: &[Real]) -> Value {
    Value::Array(data.iter().map(|&x| Value::Num(x)).collect())
}

impl Serialize for WireJobSpec {
    fn to_value(&self) -> Value {
        obj(vec![
            ("label", self.label.to_value()),
            ("tenant", self.tenant.to_value()),
            ("priority", Value::Str(self.priority.label().into())),
            ("deadline_ms", self.deadline_ms.to_value()),
            ("config", config_to_value(&self.config)),
            ("input", self.input.to_value()),
        ])
    }
}

impl Serialize for RemoteJobResult {
    fn to_value(&self) -> Value {
        obj(vec![
            ("id", self.id.to_value()),
            ("label", self.label.to_value()),
            ("status", Value::Str(self.status.label().into())),
            ("report", self.report.as_ref().map(|r| r.to_value()).to_value()),
            ("run", self.run.to_value()),
            ("error", self.error.to_value()),
            ("queue_wait_secs", Value::Num(self.queue_wait_secs)),
            ("run_secs", Value::Num(self.run_secs)),
            ("total_secs", Value::Num(self.total_secs)),
            ("cached", Value::Bool(self.cached)),
        ])
    }
}

// ---------------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------------

fn bad(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

fn as_obj(v: &Value) -> Result<&[(String, Value)], WireError> {
    match v {
        Value::Object(pairs) => Ok(pairs),
        other => Err(bad(format!("expected an object, got {other:?}"))),
    }
}

fn field<'a>(o: &'a [(String, Value)], key: &str) -> Result<&'a Value, WireError> {
    o.iter().find(|(k, _)| k == key).map(|(_, v)| v).ok_or_else(|| bad(format!("missing `{key}`")))
}

fn opt_field<'a>(o: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    o.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_str(v: &Value, key: &str) -> Result<String, WireError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(bad(format!("`{key}` must be a string, got {other:?}"))),
    }
}

fn as_bool(v: &Value, key: &str) -> Result<bool, WireError> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(bad(format!("`{key}` must be a bool, got {other:?}"))),
    }
}

fn as_u64(v: &Value, key: &str) -> Result<u64, WireError> {
    match v {
        Value::UInt(n) => Ok(*n),
        Value::Int(n) if *n >= 0 => Ok(*n as u64),
        Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => Ok(*x as u64),
        other => Err(bad(format!("`{key}` must be a non-negative integer, got {other:?}"))),
    }
}

fn as_usize(v: &Value, key: &str) -> Result<usize, WireError> {
    Ok(as_u64(v, key)? as usize)
}

fn as_u32(v: &Value, key: &str) -> Result<u32, WireError> {
    u32::try_from(as_u64(v, key)?).map_err(|_| bad(format!("`{key}` does not fit in 32 bits")))
}

fn as_f64(v: &Value, key: &str) -> Result<f64, WireError> {
    match v {
        Value::Num(x) => Ok(*x),
        Value::UInt(n) => Ok(*n as f64),
        Value::Int(n) => Ok(*n as f64),
        other => Err(bad(format!("`{key}` must be a number, got {other:?}"))),
    }
}

fn as_array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], WireError> {
    match v {
        Value::Array(items) => Ok(items),
        other => Err(bad(format!("`{key}` must be an array, got {other:?}"))),
    }
}

fn extents(v: &Value) -> Result<[usize; 3], WireError> {
    let items = as_array(v, "n")?;
    if items.len() != 3 {
        return Err(bad(format!("`n` must have 3 extents, got {}", items.len())));
    }
    Ok([as_usize(&items[0], "n")?, as_usize(&items[1], "n")?, as_usize(&items[2], "n")?])
}

fn reals(v: &Value, key: &str) -> Result<Vec<Real>, WireError> {
    as_array(v, key)?.iter().map(|x| as_f64(x, key).map(|f| f as Real)).collect()
}

fn job_id(v: &Value) -> Result<JobId, WireError> {
    let s = as_str(v, "id")?;
    s.parse().map_err(|e: crate::job::ParseJobIdError| bad(e.to_string()))
}

fn job_status(v: &Value, key: &str) -> Result<JobStatus, WireError> {
    let s = as_str(v, key)?;
    JobStatus::parse(&s).ok_or_else(|| bad(format!("unknown job status `{s}`")))
}

fn parse_json(bytes: &[u8]) -> Result<Value, WireError> {
    let text = std::str::from_utf8(bytes).map_err(|e| bad(format!("invalid UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| bad(e.to_string()))
}

fn message_type(o: &[(String, Value)]) -> Result<String, WireError> {
    as_str(field(o, "type")?, "type")
}

/// Decode one frame payload as a [`Request`].
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let v = parse_json(bytes)?;
    let o = as_obj(&v)?;
    match message_type(o)?.as_str() {
        "hello" => Ok(Request::Hello {
            protocol: as_u32(field(o, "protocol")?, "protocol")?,
            client: as_str(field(o, "client")?, "client")?,
        }),
        "submit" => Ok(Request::Submit { spec: decode_spec(field(o, "spec")?)? }),
        "status" => Ok(Request::Status { id: job_id(field(o, "id")?)? }),
        "cancel" => Ok(Request::Cancel { id: job_id(field(o, "id")?)? }),
        "result" => Ok(Request::Result { id: job_id(field(o, "id")?)? }),
        "stream" => Ok(Request::Stream { id: job_id(field(o, "id")?)? }),
        other => Err(WireError::Protocol(format!("unsupported request type `{other}`"))),
    }
}

/// Decode one frame payload as a [`Response`].
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let v = parse_json(bytes)?;
    let o = as_obj(&v)?;
    match message_type(o)?.as_str() {
        "hello" => Ok(Response::Hello {
            protocol: as_u32(field(o, "protocol")?, "protocol")?,
            server: as_str(field(o, "server")?, "server")?,
        }),
        "submitted" => Ok(Response::Submitted {
            id: job_id(field(o, "id")?)?,
            cached: as_bool(field(o, "cached")?, "cached")?,
        }),
        "status" => Ok(Response::Status {
            id: job_id(field(o, "id")?)?,
            status: job_status(field(o, "status")?, "status")?,
        }),
        "cancelled" => Ok(Response::Cancelled {
            id: job_id(field(o, "id")?)?,
            delivered: as_bool(field(o, "delivered")?, "delivered")?,
        }),
        "result" => Ok(Response::Result { result: decode_result(field(o, "result")?)? }),
        "event" => {
            let id = job_id(field(o, "id")?)?;
            let event = match as_str(field(o, "event")?, "event")?.as_str() {
                "queued" => StreamEvent::Queued,
                "running" => StreamEvent::Running,
                "gn_iter" => StreamEvent::GnIter { iter: as_usize(field(o, "iter")?, "iter")? },
                "terminal" => {
                    StreamEvent::Terminal { status: job_status(field(o, "status")?, "status")? }
                }
                other => return Err(bad(format!("unknown stream event `{other}`"))),
            };
            Ok(Response::Event { id, event })
        }
        "error" => Ok(Response::Error {
            code: ErrorCode::parse(&as_str(field(o, "code")?, "code")?),
            message: as_str(field(o, "message")?, "message")?,
        }),
        other => Err(WireError::Protocol(format!("unsupported response type `{other}`"))),
    }
}

fn decode_config(v: &Value) -> Result<RegistrationConfig, WireError> {
    let o = as_obj(v)?;
    let ip = as_str(field(o, "ip_order")?, "ip_order")?;
    let pc = as_str(field(o, "precond")?, "precond")?;
    Ok(RegistrationConfig {
        nt: as_usize(field(o, "nt")?, "nt")?,
        ip_order: IpOrder::parse(&ip).ok_or_else(|| bad(format!("unknown ip_order `{ip}`")))?,
        store_grad: as_bool(field(o, "store_grad")?, "store_grad")?,
        precond: PrecondKind::parse(&pc).ok_or_else(|| bad(format!("unknown precond `{pc}`")))?,
        beta_target: as_f64(field(o, "beta_target")?, "beta_target")?,
        beta_init: as_f64(field(o, "beta_init")?, "beta_init")?,
        beta_reduction: as_f64(field(o, "beta_reduction")?, "beta_reduction")?,
        continuation: as_bool(field(o, "continuation")?, "continuation")?,
        grid_continuation: as_bool(field(o, "grid_continuation")?, "grid_continuation")?,
        eps_h0: as_f64(field(o, "eps_h0")?, "eps_h0")?,
        beta_floor: as_f64(field(o, "beta_floor")?, "beta_floor")?,
        grad_rtol: as_f64(field(o, "grad_rtol")?, "grad_rtol")?,
        max_gn_iter: as_usize(field(o, "max_gn_iter")?, "max_gn_iter")?,
        max_pcg_iter: as_usize(field(o, "max_pcg_iter")?, "max_pcg_iter")?,
        max_inner_iter: as_usize(field(o, "max_inner_iter")?, "max_inner_iter")?,
        fixed_pcg: match field(o, "fixed_pcg")? {
            Value::Null => None,
            v => Some(as_usize(v, "fixed_pcg")?),
        },
        // Absent on pre-precision peers: default to the full-width path.
        precision: opt_field(o, "precision")
            .map(|v| as_str(v, "precision"))
            .transpose()?
            .map(|s| Precision::parse(&s).ok_or_else(|| bad(format!("unknown precision `{s}`"))))
            .transpose()?
            .unwrap_or(Precision::F64),
        verbose: as_bool(field(o, "verbose")?, "verbose")?,
    })
}

fn decode_spec(v: &Value) -> Result<WireJobSpec, WireError> {
    let o = as_obj(v)?;
    let prio = as_str(field(o, "priority")?, "priority")?;
    let input_o = as_obj(field(o, "input")?)?;
    let input = match as_str(field(input_o, "kind")?, "kind")?.as_str() {
        "synthetic" => WireInput::Synthetic { n: extents(field(input_o, "n")?)? },
        "pair" => WireInput::Pair {
            n: extents(field(input_o, "n")?)?,
            template: reals(field(input_o, "template")?, "template")?,
            reference: reals(field(input_o, "reference")?, "reference")?,
        },
        other => return Err(bad(format!("unknown input kind `{other}`"))),
    };
    Ok(WireJobSpec {
        label: as_str(field(o, "label")?, "label")?,
        tenant: as_str(field(o, "tenant")?, "tenant")?,
        config: decode_config(field(o, "config")?)?,
        input,
        priority: Priority::parse(&prio)
            .ok_or_else(|| bad(format!("unknown priority `{prio}`")))?,
        deadline_ms: match field(o, "deadline_ms")? {
            Value::Null => None,
            v => Some(as_u64(v, "deadline_ms")?),
        },
    })
}

fn decode_report(v: &Value) -> Result<RegistrationReport, WireError> {
    let o = as_obj(v)?;
    let grid_v = as_array(field(o, "grid")?, "grid")?;
    if grid_v.len() != 3 {
        return Err(bad("`grid` must have 3 extents"));
    }
    Ok(RegistrationReport {
        data: as_str(field(o, "data")?, "data")?,
        pc: as_str(field(o, "pc")?, "pc")?,
        precision: opt_field(o, "precision")
            .map(|v| as_str(v, "precision"))
            .transpose()?
            .unwrap_or_else(|| "f64".into()),
        grid: [
            as_usize(&grid_v[0], "grid")?,
            as_usize(&grid_v[1], "grid")?,
            as_usize(&grid_v[2], "grid")?,
        ],
        nt: as_usize(field(o, "nt")?, "nt")?,
        nranks: as_usize(field(o, "nranks")?, "nranks")?,
        gn_iters: as_usize(field(o, "gn_iters")?, "gn_iters")?,
        pcg_iters: as_usize(field(o, "pcg_iters")?, "pcg_iters")?,
        rel_mismatch: as_f64(field(o, "rel_mismatch")?, "rel_mismatch")?,
        grad_rel: as_f64(field(o, "grad_rel")?, "grad_rel")?,
        n_inva: as_usize(field(o, "n_inva")?, "n_inva")?,
        n_invh0: as_usize(field(o, "n_invh0")?, "n_invh0")?,
        inner_cg_total: as_usize(field(o, "inner_cg_total")?, "inner_cg_total")?,
        inner_cg_avg: as_f64(field(o, "inner_cg_avg")?, "inner_cg_avg")?,
        time_pc: as_f64(field(o, "time_pc")?, "time_pc")?,
        time_obj: as_f64(field(o, "time_obj")?, "time_obj")?,
        time_grad: as_f64(field(o, "time_grad")?, "time_grad")?,
        time_hess: as_f64(field(o, "time_hess")?, "time_hess")?,
        time_total: as_f64(field(o, "time_total")?, "time_total")?,
        modeled_pc: as_f64(field(o, "modeled_pc")?, "modeled_pc")?,
        modeled_obj: as_f64(field(o, "modeled_obj")?, "modeled_obj")?,
        modeled_grad: as_f64(field(o, "modeled_grad")?, "modeled_grad")?,
        modeled_hess: as_f64(field(o, "modeled_hess")?, "modeled_hess")?,
        modeled_total: as_f64(field(o, "modeled_total")?, "modeled_total")?,
        jac_det_min: as_f64(field(o, "jac_det_min")?, "jac_det_min")?,
        jac_det_max: as_f64(field(o, "jac_det_max")?, "jac_det_max")?,
        memory_bytes_per_rank: as_u64(field(o, "memory_bytes_per_rank")?, "memory_bytes_per_rank")?,
    })
}

fn decode_result(v: &Value) -> Result<RemoteJobResult, WireError> {
    let o = as_obj(v)?;
    Ok(RemoteJobResult {
        id: job_id(field(o, "id")?)?,
        label: as_str(field(o, "label")?, "label")?,
        status: job_status(field(o, "status")?, "status")?,
        report: match field(o, "report")? {
            Value::Null => None,
            v => Some(decode_report(v)?),
        },
        run: match field(o, "run")? {
            Value::Null => None,
            v => Some(v.clone()),
        },
        error: match field(o, "error")? {
            Value::Null => None,
            v => Some(as_str(v, "error")?),
        },
        queue_wait_secs: as_f64(field(o, "queue_wait_secs")?, "queue_wait_secs")?,
        run_secs: as_f64(field(o, "run_secs")?, "run_secs")?,
        total_secs: as_f64(field(o, "total_secs")?, "total_secs")?,
        cached: opt_field(o, "cached").map(|v| as_bool(v, "cached")).transpose()?.unwrap_or(false),
    })
}

// ---------------------------------------------------------------------------
// fingerprints
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Incremental 64-bit FNV-1a (stable across processes and builds, unlike
/// `DefaultHasher`).
#[derive(Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }
}

/// Feed grid extents plus every solver-relevant configuration field into
/// `h`. This is the one list behind the result cache's content key, the
/// router's [`solver_fingerprint`] and the service's coalescing key — a new
/// `RegistrationConfig` field that changes the arithmetic goes here.
pub(crate) fn hash_config(h: &mut Fnv, n: [usize; 3], c: &RegistrationConfig) {
    for d in n {
        h.write_u64(d as u64);
    }
    h.write_u64(c.nt as u64);
    h.write(c.ip_order.label().as_bytes());
    h.write_u64(c.store_grad as u64);
    h.write(c.precond.label().as_bytes());
    h.write_u64(c.beta_target.to_bits());
    h.write_u64(c.beta_init.to_bits());
    h.write_u64(c.beta_reduction.to_bits());
    h.write_u64(c.continuation as u64);
    h.write_u64(c.grid_continuation as u64);
    h.write_u64(c.eps_h0.to_bits());
    h.write_u64(c.beta_floor.to_bits());
    h.write_u64(c.grad_rtol.to_bits());
    h.write_u64(c.max_gn_iter as u64);
    h.write_u64(c.max_pcg_iter as u64);
    h.write_u64(c.max_inner_iter as u64);
    match c.fixed_pcg {
        Some(k) => {
            h.write_u64(1);
            h.write_u64(k as u64);
        }
        None => h.write_u64(0),
    }
    h.write_u64(c.verbose as u64);
    h.write(c.precision.label().as_bytes());
}

/// Deterministic solver fingerprint of a wire spec: grid extents plus every
/// solver-relevant configuration field (exactly the fields the service's
/// coalescing key uses), *excluding* image data, labels, tenants,
/// priorities, and deadlines. Two jobs with equal fingerprints can share
/// one `BatchSolver` run — the router shards on this so same-fingerprint
/// jobs land on the same worker process and coalescing still finds peers.
pub fn solver_fingerprint(spec: &WireJobSpec) -> u64 {
    let n = match &spec.input {
        WireInput::Synthetic { n } => *n,
        WireInput::Pair { n, .. } => *n,
    };
    let mut h = Fnv::new();
    hash_config(&mut h, n, &spec.config);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WireJobSpec {
        WireJobSpec {
            label: "unit".into(),
            tenant: "t0".into(),
            config: RegistrationConfig::default(),
            input: WireInput::Synthetic { n: [8, 8, 8] },
            priority: Priority::High,
            deadline_ms: Some(1500),
        }
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(&buf[..4], &5u32.to_be_bytes());
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap(), b"hello");
        assert!(matches!(read_frame(&mut r, MAX_FRAME_BYTES), Err(WireError::Closed)));
    }

    #[test]
    fn oversized_and_truncated_frames_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 64]).unwrap();
        let err = read_frame(&mut io::Cursor::new(&buf), 16).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { len: 64, max: 16 }), "{err}");

        let err = read_frame(&mut io::Cursor::new(&buf[..buf.len() - 10]), 1024).unwrap_err();
        assert!(matches!(err, WireError::Truncated { expected: 64, got: 54 }), "{err}");

        // header itself cut short
        let err = read_frame(&mut io::Cursor::new(&buf[..2]), 1024).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err}");
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
            Request::Stream { id },
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
            Response::Submitted { id, cached: true },
            Response::Status { id, status: JobStatus::Running },
            Response::Cancelled { id, delivered: false },
            Response::Event { id, event: StreamEvent::Queued },
            Response::Event { id, event: StreamEvent::GnIter { iter: 3 } },
            Response::Event { id, event: StreamEvent::Terminal { status: JobStatus::Succeeded } },
            Response::Error { code: ErrorCode::QuotaExceeded, message: "slow down".into() },
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

    #[test]
    fn fingerprint_ignores_identity_but_not_solver_fields() {
        let a = spec();
        let mut b = spec();
        b.label = "other".into();
        b.tenant = "t9".into();
        b.priority = Priority::Low;
        b.deadline_ms = None;
        assert_eq!(solver_fingerprint(&a), solver_fingerprint(&b));

        let mut c = spec();
        c.config.nt += 1;
        assert_ne!(solver_fingerprint(&a), solver_fingerprint(&c));
        let mut d = spec();
        d.input = WireInput::Synthetic { n: [16, 8, 8] };
        assert_ne!(solver_fingerprint(&a), solver_fingerprint(&d));
        let mut e = spec();
        e.config.precision = claire_core::Precision::Mixed;
        let mut f = spec();
        f.config.precision = claire_core::Precision::F64;
        assert_ne!(solver_fingerprint(&e), solver_fingerprint(&f));
    }
}
