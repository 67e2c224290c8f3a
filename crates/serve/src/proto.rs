//! The length-prefixed socket protocol, hardened against hostile bytes.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. Everything that arrives is *untrusted input* and
//! every way it can be wrong has a typed outcome — never a panic, never a
//! silent drop:
//!
//! - an advertised length over [`MAX_FRAME_BYTES`] is rejected *before*
//!   any payload allocation ([`ErrorKind::BadFrame`]);
//! - EOF mid-length or mid-payload is a typed truncation, distinct from a
//!   clean close at a frame boundary ([`read_frame`] returns `Ok(None)`
//!   for the latter);
//! - non-UTF-8 payloads, malformed JSON, and structure that nests deeper
//!   than [`MAX_REQUEST_DEPTH`] are all typed errors — the depth pre-scan
//!   runs before the recursive JSON parser ever sees the bytes, so a
//!   nesting bomb cannot blow the stack;
//! - semantic caps ([`MAX_BATCH_QUERIES`], [`MAX_EVENTS_PER_QUERY`],
//!   non-finite numbers) are enforced during decoding.
//!
//! Responses are rendered here too, so the wire shape — including the
//! end-to-end `degraded` provenance field carried from
//! [`GateTiming::degradation`] — is owned by one module.

use proxim_model::{DegradedReason, GateTiming, InputEvent, ModelError};
use proxim_numeric::pwl::Edge;
use proxim_obs::json::{push_escaped, push_f64, Json};
use std::fmt::{self, Write as _};
use std::io::{Read, Write};
use std::time::Duration;

/// Hard cap on a frame payload. Every real request is far smaller; the cap
/// exists so a hostile 4-byte prefix cannot demand a huge allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Maximum bracket-nesting depth of a request document, enforced by a
/// string-aware pre-scan *before* the recursive parser runs.
pub const MAX_REQUEST_DEPTH: usize = 16;

/// Maximum queries in one `batch` request.
pub const MAX_BATCH_QUERIES: usize = 256;

/// Maximum input events in one query. The widest characterized cell has a
/// handful of pins; 16 leaves headroom without letting a request buy
/// unbounded evaluation work.
pub const MAX_EVENTS_PER_QUERY: usize = 16;

/// The typed category of a protocol-level failure, as spelled on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Every in-flight permit was held and the wait line was full; the
    /// request was shed, not silently dropped.
    Overloaded,
    /// The frame itself was unusable: oversized, truncated, or not UTF-8.
    BadFrame,
    /// The frame decoded but the request inside it did not: malformed
    /// JSON, unknown op, structural caps, non-finite numbers.
    BadRequest,
    /// The request named a model the library does not hold.
    UnknownModel,
    /// The model rejected the query ([`ModelError::InvalidQuery`]).
    InvalidQuery,
    /// The per-request wall-clock deadline expired before an answer.
    DeadlineExceeded,
    /// The daemon is draining after `SIGTERM` and no longer admits work.
    ShuttingDown,
    /// A `reload` candidate loaded worse than the live generation (or its
    /// store root was unreadable) and was refused; the live generation is
    /// untouched.
    ReloadRejected,
    /// A fleet replica crash-looped (too many exits inside the quarantine
    /// window) and the supervisor stopped restarting it; the fleet keeps
    /// serving degraded on the survivors.
    ReplicaQuarantined,
    /// An unexpected server-side failure; the detail names it.
    Internal,
}

impl ErrorKind {
    /// The stable wire spelling of this kind.
    pub fn wire_name(self) -> &'static str {
        match self {
            Self::Overloaded => "overloaded",
            Self::BadFrame => "bad_frame",
            Self::BadRequest => "bad_request",
            Self::UnknownModel => "unknown_model",
            Self::InvalidQuery => "invalid_query",
            Self::DeadlineExceeded => "deadline_exceeded",
            Self::ShuttingDown => "shutting_down",
            Self::ReloadRejected => "reload_rejected",
            Self::ReplicaQuarantined => "replica_quarantined",
            Self::Internal => "internal",
        }
    }

    /// Whether a client may safely retry after this kind: the request was
    /// refused *before* any server-side effect (shed at admission, or the
    /// daemon is draining), so re-sending cannot double-apply anything.
    pub fn is_retryable(self) -> bool {
        matches!(self, Self::Overloaded | Self::ShuttingDown)
    }

    /// Every kind, in declaration order.
    pub const ALL: [Self; 10] = [
        Self::Overloaded,
        Self::BadFrame,
        Self::BadRequest,
        Self::UnknownModel,
        Self::InvalidQuery,
        Self::DeadlineExceeded,
        Self::ShuttingDown,
        Self::ReloadRejected,
        Self::ReplicaQuarantined,
        Self::Internal,
    ];
}

/// A typed protocol failure: what category, and the human detail.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    /// The typed category, stable on the wire.
    pub kind: ErrorKind,
    /// Human-readable specifics (never parsed by clients).
    pub detail: String,
    /// Whether the underlying transport failure was a read/write timeout
    /// (`WouldBlock`/`TimedOut`). Classified from [`std::io::Error::kind`]
    /// at the I/O boundary — never from the error message, whose text is
    /// OS- and locale-dependent (Linux spells a socket read timeout
    /// "Resource temporarily unavailable").
    pub timeout: bool,
    /// Whether this is a failed `connect()`: the request never left the
    /// client, so no server can have acted on it. Set where the connect
    /// fails ([`crate::server::one_shot`]), never read from the detail.
    pub connect_failed: bool,
    /// Server hint: how long a retrying client should wait before trying
    /// again. Set on shed (`overloaded`) responses from the daemon's own
    /// queue-drain estimate; rendered on the wire as `retry_after_ms`.
    pub retry_after_ms: Option<u64>,
}

impl ProtoError {
    /// Builds an error of `kind` with `detail`.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
            timeout: false,
            connect_failed: false,
            retry_after_ms: None,
        }
    }

    /// Attaches a retry-after hint in milliseconds.
    pub fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.wire_name(), self.detail)
    }
}

impl std::error::Error for ProtoError {}

/// One timing query: the input events and an optional explicit load.
#[derive(Debug, Clone, PartialEq)]
pub struct WireQuery {
    /// The switching input events.
    pub events: Vec<InputEvent>,
    /// Output load in farads; `None` queries at the characterized
    /// reference load.
    pub c_load: Option<f64>,
}

/// Maximum length of a client-supplied `trace_id`.
pub const MAX_TRACE_ID_LEN: usize = 64;

/// Runtime observability controls carried by the `obs` op. Every field is
/// optional: an empty `obs` request is a read of the current configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsControl {
    /// New process-wide observability level.
    pub level: Option<proxim_obs::Level>,
    /// New head-sampling rate: trace 1 in `n` requests (0 disables
    /// head sampling; slow requests are still force-sampled).
    pub sample_every: Option<u64>,
    /// New slow-request threshold in milliseconds.
    pub slow_ms: Option<u64>,
    /// Whether to include a flight-recorder dump in the response.
    pub dump: bool,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate one timing query against the named model.
    Query {
        /// The library entry to query.
        model: String,
        /// The query itself.
        query: WireQuery,
        /// Client-supplied trace correlation id, echoed in the response
        /// and stamped on the request's spans. The server generates one
        /// when absent.
        trace_id: Option<String>,
    },
    /// Evaluate up to [`MAX_BATCH_QUERIES`] queries against one model in
    /// a single round trip.
    Batch {
        /// The library entry to query.
        model: String,
        /// The queries, answered in order.
        queries: Vec<WireQuery>,
        /// Client-supplied trace correlation id (see [`Request::Query`]).
        trace_id: Option<String>,
    },
    /// Liveness/readiness probe; answered inline, bypassing the admission
    /// queue so it works under full overload.
    Health,
    /// A snapshot of the daemon's metrics registry, uptime, queue depth,
    /// and in-flight request table.
    Stats,
    /// The names of every servable model.
    List,
    /// The metrics registry rendered as Prometheus text exposition.
    /// Answered inline like the other probes.
    Metrics,
    /// Flip observability settings at runtime and/or fetch a
    /// flight-recorder dump. Answered inline so it works under overload.
    Obs(ObsControl),
    /// Per-replica fleet state: supervision state, generation, uptime, and
    /// restart counts for every replica. Answered by a fleet supervisor's
    /// control socket; a plain replica daemon refuses it typed, pointing
    /// the client at the supervisor. Read-only, so it is retry-safe.
    Fleet,
    /// Load a candidate library generation from the store, validate it
    /// against the live one, and swap it in if it is no worse. Answered
    /// inline (reload must work while the queue is full of queries).
    Reload {
        /// Accept a candidate that loaded worse than the live generation
        /// (fewer survivors, new quarantines). Never overrides the
        /// unreadable-store-root gate.
        force: bool,
        /// Optional operator label stamped on the new generation and
        /// echoed on the health probe.
        label: Option<String>,
    },
}

/// Maximum length of an operator-supplied generation label (same bound and
/// charset as `trace_id`: it lands in log lines and health probes).
pub const MAX_LABEL_LEN: usize = MAX_TRACE_ID_LEN;

/// Every `op` the protocol recognizes, in dispatch order. The retrying
/// client's idempotency table is tested against this list, so adding an op
/// here without classifying it there is a compile-visible test failure —
/// a new op can never silently become retry-unsafe (or unsafely
/// retryable).
pub const WIRE_OPS: &[&str] = &[
    "query", "batch", "health", "stats", "list", "metrics", "obs", "reload", "fleet",
];

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Reads one frame. `Ok(None)` is a clean close (EOF exactly at a frame
/// boundary); everything else wrong is a typed error.
///
/// # Errors
///
/// [`ErrorKind::BadFrame`] for oversized advertisements and mid-frame
/// truncation; [`ErrorKind::Internal`] for transport errors (including
/// read timeouts — the caller decides whether that means a slow client).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProtoError::new(
                    ErrorKind::BadFrame,
                    format!("connection closed {got} bytes into the length prefix"),
                ))
            }
            Ok(n) => got += n,
            Err(e) => return Err(io_proto(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::new(
            ErrorKind::BadFrame,
            format!("frame advertises {len} bytes, over the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(ProtoError::new(
                    ErrorKind::BadFrame,
                    format!("frame truncated: got {got} of {len} payload bytes"),
                ))
            }
            Ok(n) => got += n,
            Err(e) => return Err(io_proto(e)),
        }
    }
    Ok(Some(payload))
}

fn io_proto(e: std::io::Error) -> ProtoError {
    let timeout = matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    );
    ProtoError {
        kind: ErrorKind::Internal,
        detail: format!("transport error: {e}"),
        timeout,
        connect_failed: false,
        retry_after_ms: None,
    }
}

/// Whether a [`read_frame`]/[`write_frame`] transport error was a timeout
/// — the slow-client signal, as opposed to a reset or a hard I/O failure.
pub fn is_timeout(e: &ProtoError) -> bool {
    e.timeout
}

/// Reads a response as a retryable refusal: an `overloaded` or
/// `shutting_down` error, which the daemon issues before any server-side
/// effect. Returns the kind and the server's `retry_after_ms` hint, or
/// `None` for every other response (answers, other typed errors, text that
/// does not parse). What to do about a transport failure is the caller's
/// policy, not this reader's.
pub fn retryable_refusal(response: &str) -> Option<(ErrorKind, Option<Duration>)> {
    let json = Json::parse(response).ok()?;
    let error = json.get("error")?;
    let wire = error.get("kind").and_then(Json::as_str)?;
    let kind = ErrorKind::ALL
        .into_iter()
        .find(|k| k.is_retryable() && k.wire_name() == wire)?;
    let hint = error
        .get("retry_after_ms")
        .and_then(Json::as_f64)
        .filter(|ms| ms.is_finite() && *ms >= 0.0)
        .map(|ms| Duration::from_millis(ms as u64));
    Some((kind, hint))
}

/// Assembles the on-wire bytes of one frame: 4-byte big-endian length,
/// then the payload. Exposed so the server's write path (which may need to
/// tear the assembled frame under fault injection) frames identically to
/// [`write_frame`].
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// [`ErrorKind::Internal`] on transport failure (including write timeouts
/// against a stalled client) and for payloads over [`MAX_FRAME_BYTES`],
/// which a correct server never produces.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(ProtoError::new(
            ErrorKind::Internal,
            format!("refusing to send a {}-byte frame", payload.len()),
        ));
    }
    // One write call for prefix + payload: a kill between two writes must
    // not be able to leave a prefix with no payload on the wire.
    w.write_all(&frame_bytes(payload)).map_err(io_proto)?;
    w.flush().map_err(io_proto)
}

/// One request/response round trip over any bidirectional stream.
///
/// # Errors
///
/// Frame-layer errors from [`write_frame`]/[`read_frame`], plus
/// [`ErrorKind::BadFrame`] if the server closes without responding or the
/// response is not UTF-8.
pub fn call<S: Read + Write>(stream: &mut S, request: &str) -> Result<String, ProtoError> {
    write_frame(stream, request.as_bytes())?;
    let bytes = read_frame(stream)?
        .ok_or_else(|| ProtoError::new(ErrorKind::BadFrame, "server closed without responding"))?;
    String::from_utf8(bytes)
        .map_err(|_| ProtoError::new(ErrorKind::BadFrame, "response is not UTF-8"))
}

// ---------------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------------

/// A string-aware bracket-depth pre-scan. Runs in one pass before the
/// recursive parser so hostile nesting depth is a typed error, not a stack
/// overflow.
fn max_nesting_depth(text: &str) -> usize {
    let (mut depth, mut max, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for b in text.bytes() {
        if in_str {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => {
                depth += 1;
                max = max.max(depth);
            }
            b'}' | b']' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    max
}

fn bad_request(detail: impl Into<String>) -> ProtoError {
    ProtoError::new(ErrorKind::BadRequest, detail)
}

fn finite(json: &Json, what: &str) -> Result<f64, ProtoError> {
    let x = json
        .as_f64()
        .ok_or_else(|| bad_request(format!("{what} is not a number")))?;
    if !x.is_finite() {
        return Err(bad_request(format!("{what} is not finite")));
    }
    Ok(x)
}

fn parse_events(json: &Json) -> Result<Vec<InputEvent>, ProtoError> {
    let arr = json
        .as_arr()
        .ok_or_else(|| bad_request("\"events\" must be an array"))?;
    if arr.is_empty() {
        return Err(bad_request("\"events\" must not be empty"));
    }
    if arr.len() > MAX_EVENTS_PER_QUERY {
        return Err(bad_request(format!(
            "{} events, over the {MAX_EVENTS_PER_QUERY}-event cap",
            arr.len()
        )));
    }
    let mut events = Vec::with_capacity(arr.len());
    for (i, ev) in arr.iter().enumerate() {
        let pin = finite(
            ev.get("pin")
                .ok_or_else(|| bad_request("event missing \"pin\""))?,
            "event pin",
        )?;
        if pin < 0.0 || pin.fract() != 0.0 || pin > 255.0 {
            return Err(bad_request(format!(
                "event {i} pin {pin} is not a small integer"
            )));
        }
        let edge = match ev.get("edge").and_then(Json::as_str) {
            Some("rise") => Edge::Rising,
            Some("fall") => Edge::Falling,
            _ => {
                return Err(bad_request(format!(
                    "event {i} edge must be \"rise\" or \"fall\""
                )))
            }
        };
        let t = finite(
            ev.get("t")
                .ok_or_else(|| bad_request("event missing \"t\""))?,
            "event t",
        )?;
        let tt = finite(
            ev.get("tt")
                .ok_or_else(|| bad_request("event missing \"tt\""))?,
            "event tt",
        )?;
        if tt <= 0.0 {
            return Err(bad_request(format!(
                "event {i} transition time must be positive"
            )));
        }
        events.push(InputEvent::new(pin as usize, edge, t, tt));
    }
    Ok(events)
}

fn parse_wire_query(json: &Json) -> Result<WireQuery, ProtoError> {
    let events = parse_events(
        json.get("events")
            .ok_or_else(|| bad_request("query missing \"events\""))?,
    )?;
    let c_load = match json.get("c_load") {
        None => None,
        Some(j) => {
            let c = finite(j, "c_load")?;
            if c <= 0.0 {
                return Err(bad_request("c_load must be positive"));
            }
            Some(c)
        }
    };
    Ok(WireQuery { events, c_load })
}

/// Decodes and validates an optional client-supplied `trace_id`. The id is
/// echoed into responses and trace records, so the charset is restricted to
/// keep it harmless in JSONL, log lines, and shell pipelines.
fn parse_trace_id(json: &Json) -> Result<Option<String>, ProtoError> {
    let Some(j) = json.get("trace_id") else {
        return Ok(None);
    };
    let s = j
        .as_str()
        .ok_or_else(|| bad_request("\"trace_id\" must be a string"))?;
    if s.is_empty() || s.len() > MAX_TRACE_ID_LEN {
        return Err(bad_request(format!(
            "trace_id must be 1..={MAX_TRACE_ID_LEN} characters"
        )));
    }
    if !s
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'))
    {
        return Err(bad_request("trace_id may contain only [A-Za-z0-9._:-]"));
    }
    Ok(Some(s.to_owned()))
}

/// Decodes an optional non-negative integer field.
fn parse_u64_field(json: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    let Some(j) = json.get(key) else {
        return Ok(None);
    };
    let x = finite(j, key)?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(bad_request(format!(
            "\"{key}\" must be a non-negative integer"
        )));
    }
    Ok(Some(x as u64))
}

fn parse_obs_control(json: &Json) -> Result<ObsControl, ProtoError> {
    let level = match json.get("level") {
        None => None,
        Some(j) => match j.as_str() {
            Some("off") => Some(proxim_obs::Level::Off),
            Some("metrics") => Some(proxim_obs::Level::Metrics),
            Some("trace") => Some(proxim_obs::Level::Trace),
            _ => {
                return Err(bad_request(
                    "\"level\" must be \"off\", \"metrics\", or \"trace\"",
                ))
            }
        },
    };
    let dump = match json.get("dump") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(bad_request("\"dump\" must be a boolean")),
    };
    Ok(ObsControl {
        level,
        sample_every: parse_u64_field(json, "sample_every")?,
        slow_ms: parse_u64_field(json, "slow_ms")?,
        dump,
    })
}

fn parse_reload(json: &Json) -> Result<Request, ProtoError> {
    let force = match json.get("force") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(bad_request("\"force\" must be a boolean")),
    };
    let label = match json.get("label") {
        None => None,
        Some(j) => {
            let s = j
                .as_str()
                .ok_or_else(|| bad_request("\"label\" must be a string"))?;
            if s.is_empty() || s.len() > MAX_LABEL_LEN {
                return Err(bad_request(format!(
                    "label must be 1..={MAX_LABEL_LEN} characters"
                )));
            }
            if !s
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'))
            {
                return Err(bad_request("label may contain only [A-Za-z0-9._:-]"));
            }
            Some(s.to_owned())
        }
    };
    Ok(Request::Reload { force, label })
}

fn parse_model_name(json: &Json) -> Result<String, ProtoError> {
    let name = json
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| bad_request("request missing \"model\""))?;
    if !proxim_model::store::valid_name(name) {
        return Err(bad_request(format!("model name {name:?} is not servable")));
    }
    Ok(name.to_owned())
}

/// Decodes one frame payload into a [`Request`].
///
/// # Errors
///
/// [`ErrorKind::BadFrame`] for non-UTF-8 payloads; [`ErrorKind::BadRequest`]
/// for everything structurally or semantically wrong inside.
pub fn parse_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ProtoError::new(ErrorKind::BadFrame, "frame payload is not UTF-8"))?;
    if max_nesting_depth(text) > MAX_REQUEST_DEPTH {
        return Err(bad_request(format!(
            "request nests deeper than {MAX_REQUEST_DEPTH} levels"
        )));
    }
    let json =
        Json::parse(text).map_err(|e| bad_request(format!("request does not parse: {e}")))?;
    match json.get("op").and_then(Json::as_str) {
        Some("query") => Ok(Request::Query {
            model: parse_model_name(&json)?,
            query: parse_wire_query(&json)?,
            trace_id: parse_trace_id(&json)?,
        }),
        Some("batch") => {
            let model = parse_model_name(&json)?;
            let trace_id = parse_trace_id(&json)?;
            let arr = json
                .get("queries")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad_request("batch missing \"queries\" array"))?;
            if arr.is_empty() {
                return Err(bad_request("batch \"queries\" must not be empty"));
            }
            if arr.len() > MAX_BATCH_QUERIES {
                return Err(bad_request(format!(
                    "{} queries, over the {MAX_BATCH_QUERIES}-query cap",
                    arr.len()
                )));
            }
            let queries = arr
                .iter()
                .map(parse_wire_query)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Batch {
                model,
                queries,
                trace_id,
            })
        }
        Some("health") => Ok(Request::Health),
        Some("stats") => Ok(Request::Stats),
        Some("list") => Ok(Request::List),
        Some("metrics") => Ok(Request::Metrics),
        Some("obs") => Ok(Request::Obs(parse_obs_control(&json)?)),
        Some("reload") => parse_reload(&json),
        Some("fleet") => Ok(Request::Fleet),
        Some(op) => Err(bad_request(format!("unknown op {op:?}"))),
        None => Err(bad_request("request missing \"op\"")),
    }
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

/// The wire spelling of a degraded-answer provenance marker.
pub fn degraded_wire_name(reason: DegradedReason) -> &'static str {
    match reason {
        DegradedReason::DualSliceMissing => "dual_slice_missing",
        DegradedReason::NldmSliceMissing => "nldm_slice_missing",
    }
}

fn push_timing(out: &mut String, t: &GateTiming) {
    out.push_str("{\"reference_pin\":");
    out.push_str(&t.reference_pin.to_string());
    out.push_str(",\"delay\":");
    push_f64(out, t.delay);
    out.push_str(",\"output_transition\":");
    push_f64(out, t.output_transition);
    out.push_str(",\"output_arrival\":");
    push_f64(out, t.output_arrival);
    out.push_str(",\"output_edge\":");
    out.push_str(match t.output_edge {
        Edge::Rising => "\"rise\"",
        Edge::Falling => "\"fall\"",
    });
    out.push_str(",\"inputs_in_window\":");
    out.push_str(&t.inputs_in_window.to_string());
    out.push_str(",\"degraded\":");
    match t.degradation {
        None => out.push_str("null"),
        Some(reason) => push_escaped(out, degraded_wire_name(reason)),
    }
    out.push('}');
}

fn push_error(out: &mut String, e: &ProtoError) {
    out.push_str("{\"kind\":");
    push_escaped(out, e.kind.wire_name());
    out.push_str(",\"detail\":");
    push_escaped(out, &e.detail);
    if let Some(ms) = e.retry_after_ms {
        out.push_str(",\"retry_after_ms\":");
        out.push_str(&ms.to_string());
    }
    out.push('}');
}

/// The per-request trace context echoed into a response: the correlation
/// id plus the server-side phase breakdown in microseconds. The `render`
/// and `write` phases cannot appear here — a response is rendered before
/// its own rendering is timed and before its write happens — so they land
/// only in the trace and the phase histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEcho {
    /// The request's correlation id (client-supplied or server-generated).
    pub trace_id: String,
    /// Microseconds spent in admission (model resolution + the shed
    /// decision).
    pub admit_us: u64,
    /// Microseconds the admitted request waited for an in-flight permit.
    pub queue_us: u64,
    /// Microseconds spent evaluating the request under its permit.
    pub execute_us: u64,
    /// `Some(load_us)` when serving this request paid a cold model load
    /// from the store (the model was outside the memory budget's resident
    /// set); rendered as `"cold":true,"load_us":N`.
    pub cold_load_us: Option<u64>,
}

/// The two phases a served request passes on its connection before
/// admission, echoed in `breakdown` (by [`render_served`]) ahead of
/// [`TraceEcho`]'s three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FramePhases {
    /// Microseconds from the frame's first byte arriving to its last.
    pub read_us: u64,
    /// Microseconds spent decoding the frame into a request.
    pub parse_us: u64,
}

/// Opens a success envelope, `{"ok":true` plus the trace echo if any.
fn open_ok(echo: Option<&TraceEcho>, frame: Option<FramePhases>) -> String {
    let mut out = String::from("{\"ok\":true");
    let Some(echo) = echo else {
        return out;
    };
    out.push_str(",\"trace_id\":");
    push_escaped(&mut out, &echo.trace_id);
    out.push_str(",\"breakdown\":{");
    // Writing into a `String` cannot fail.
    if let Some(f) = frame {
        let _ = write!(
            out,
            "\"read_us\":{},\"parse_us\":{},",
            f.read_us, f.parse_us
        );
    }
    let _ = write!(
        out,
        "\"admit_us\":{},\"queue_us\":{},\"execute_us\":{}}}",
        echo.admit_us, echo.queue_us, echo.execute_us
    );
    if let Some(load_us) = echo.cold_load_us {
        let _ = write!(out, ",\"cold\":true,\"load_us\":{load_us}");
    }
    out
}

/// Renders a failed request: `{"ok":false,"error":{...}}`.
pub fn render_error(e: &ProtoError) -> String {
    render_error_traced(e, None)
}

/// Renders a failed request carrying its trace correlation id:
/// `{"ok":false,"trace_id":...,"error":{...}}`. Shed and expired requests
/// stay correlatable with their trace records this way.
pub fn render_error_traced(e: &ProtoError, trace_id: Option<&str>) -> String {
    let mut out = String::from("{\"ok\":false");
    if let Some(id) = trace_id {
        out.push_str(",\"trace_id\":");
        push_escaped(&mut out, id);
    }
    out.push_str(",\"error\":");
    push_error(&mut out, e);
    out.push('}');
    out
}

/// Renders a successful single query:
/// `{"ok":true[,"trace_id":...,"breakdown":{...}],"timing":{...}}`.
pub fn render_timing(t: &GateTiming, echo: Option<&TraceEcho>) -> String {
    timing_response(t, open_ok(echo, None))
}

fn timing_response(t: &GateTiming, mut out: String) -> String {
    out.push_str(",\"timing\":");
    push_timing(&mut out, t);
    out.push('}');
    out
}

/// Renders a batch response. The envelope is `ok` as long as the *frame*
/// was servable; each item is independently a timing or a typed error, so
/// one bad query cannot hide the other answers.
pub fn render_batch(
    results: &[Result<GateTiming, ProtoError>],
    echo: Option<&TraceEcho>,
) -> String {
    batch_response(results, open_ok(echo, None))
}

/// Renders what the daemon answers for an admitted request: a batch
/// envelope when `batch`, otherwise the single query's timing or traced
/// error. Success envelopes carry the full breakdown, `frame`'s phases
/// ahead of `echo`'s.
pub fn render_served(
    results: &[Result<GateTiming, ProtoError>],
    batch: bool,
    echo: &TraceEcho,
    frame: FramePhases,
) -> String {
    match (batch, results) {
        (false, [Ok(t)]) => timing_response(t, open_ok(Some(echo), Some(frame))),
        (false, [Err(e)]) => render_error_traced(e, Some(&echo.trace_id)),
        _ => batch_response(results, open_ok(Some(echo), Some(frame))),
    }
}

fn batch_response(results: &[Result<GateTiming, ProtoError>], mut out: String) -> String {
    out.push_str(",\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match r {
            Ok(t) => {
                out.push_str("{\"timing\":");
                push_timing(&mut out, t);
                out.push('}');
            }
            Err(e) => {
                out.push_str("{\"error\":");
                push_error(&mut out, e);
                out.push('}');
            }
        }
    }
    out.push_str("]}");
    out
}

/// Renders the health probe response, including which library generation
/// is serving and — so an unreadable store can never masquerade as an
/// empty one — the load-time store-root error, if any.
pub fn render_health(
    status: &str,
    models: usize,
    degraded: bool,
    generation: u64,
    store_error: Option<&str>,
) -> String {
    let mut out = String::from("{\"ok\":true,\"status\":");
    push_escaped(&mut out, status);
    out.push_str(",\"models\":");
    out.push_str(&models.to_string());
    out.push_str(",\"degraded\":");
    out.push_str(if degraded { "true" } else { "false" });
    out.push_str(",\"generation\":");
    out.push_str(&generation.to_string());
    out.push_str(",\"store_error\":");
    match store_error {
        None => out.push_str("null"),
        Some(e) => push_escaped(&mut out, e),
    }
    out.push('}');
    out
}

/// Renders a successful reload: the generation that is now live and how
/// long the candidate took to load, validate, and swap.
pub fn render_reload_swapped(generation: u64, models: usize, reload_us: u64) -> String {
    format!(
        "{{\"ok\":true,\"swapped\":true,\"generation\":{generation},\"models\":{models},\"reload_us\":{reload_us}}}"
    )
}

/// Renders a refused reload as a typed `reload_rejected` error carrying
/// the full comparison report, so an operator sees exactly how the
/// candidate was worse than the live generation.
pub fn render_reload_rejected(rej: &crate::library::ReloadRejection) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":");
    push_error(
        &mut out,
        &ProtoError::new(ErrorKind::ReloadRejected, rej.reasons.join("; ")),
    );
    out.push_str(",\"report\":{\"candidate_loaded\":");
    out.push_str(&rej.candidate_loaded.to_string());
    out.push_str(",\"live_loaded\":");
    out.push_str(&rej.live_loaded.to_string());
    out.push_str(",\"candidate_quarantined\":");
    out.push_str(&rej.candidate_quarantined.to_string());
    out.push_str(",\"root_error\":");
    match &rej.root_error {
        None => out.push_str("null"),
        Some(e) => push_escaped(&mut out, e),
    }
    out.push_str("}}");
    out
}

/// Renders the model-list response.
pub fn render_list(names: &[String]) -> String {
    let mut out = String::from("{\"ok\":true,\"models\":[");
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, n);
    }
    out.push_str("]}");
    out
}

/// Maps a model-evaluation failure onto the wire error taxonomy.
pub fn model_error_to_proto(e: &ModelError) -> ProtoError {
    match e {
        ModelError::InvalidQuery { detail } => {
            ProtoError::new(ErrorKind::InvalidQuery, detail.clone())
        }
        e if e.is_cancellation() => ProtoError::new(
            ErrorKind::DeadlineExceeded,
            "request deadline expired during evaluation",
        ),
        e => ProtoError::new(ErrorKind::Internal, e.to_string()),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"health\"}").unwrap();
        let mut r = Cursor::new(buf);
        let frame = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(frame, b"{\"op\":\"health\"}");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF is None");
    }

    #[test]
    fn oversized_advertisement_is_rejected_before_allocation() {
        let mut bytes = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"x");
        let e = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadFrame);
        assert!(e.detail.contains("cap"), "{e}");
    }

    #[test]
    fn truncation_everywhere_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"list\"}").unwrap();
        // Cut inside the prefix and inside the payload.
        for cut in [1, 2, 3, 5, buf.len() - 1] {
            let e = read_frame(&mut Cursor::new(buf[..cut].to_vec())).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadFrame, "cut at {cut}");
        }
    }

    #[test]
    fn timeouts_are_classified_by_io_error_kind_not_message_text() {
        // Linux spells a Unix-socket read timeout as ErrorKind::WouldBlock
        // with "Resource temporarily unavailable (os error 11)" — no
        // "timed out" substring anywhere. Classification must come from
        // the kind alone.
        struct FailingReader(Option<std::io::Error>);
        impl Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(self.0.take().expect("read called twice"))
            }
        }
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            let os11 = std::io::Error::new(kind, "Resource temporarily unavailable (os error 11)");
            let e = read_frame(&mut FailingReader(Some(os11))).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Internal);
            assert!(is_timeout(&e), "{kind:?} must classify as timeout: {e}");
        }
        let reset =
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "connection timed out");
        let e = read_frame(&mut FailingReader(Some(reset))).unwrap_err();
        assert!(
            !is_timeout(&e),
            "a reset is not a timeout even if its message says so: {e}"
        );
    }

    #[test]
    fn non_utf8_and_garbage_are_typed() {
        assert_eq!(
            parse_request(&[0xff, 0xfe, 0x00]).unwrap_err().kind,
            ErrorKind::BadFrame
        );
        assert_eq!(
            parse_request(b"not json at all").unwrap_err().kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            parse_request(b"{\"op\":\"conquer\"}").unwrap_err().kind,
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn nesting_bomb_is_a_typed_error_not_a_stack_overflow() {
        let mut bomb = String::new();
        for _ in 0..100_000 {
            bomb.push('[');
        }
        let e = parse_request(bomb.as_bytes()).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(e.detail.contains("nests deeper"), "{e}");
        // Balanced-but-deep is equally refused.
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert_eq!(
            parse_request(deep.as_bytes()).unwrap_err().kind,
            ErrorKind::BadRequest
        );
        // ...while strings full of brackets don't trip the scanner.
        let ok = r#"{"op":"health","note":"[[[[{{{{"}"#;
        assert!(matches!(parse_request(ok.as_bytes()), Ok(Request::Health)));
    }

    #[test]
    fn query_decodes_and_caps_hold() {
        let req = parse_request(
            br#"{"op":"query","model":"inv","events":[{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}]}"#,
        )
        .unwrap();
        match req {
            Request::Query {
                model,
                query,
                trace_id,
            } => {
                assert_eq!(model, "inv");
                assert_eq!(query.events.len(), 1);
                assert_eq!(query.c_load, None);
                assert_eq!(trace_id, None);
            }
            other => panic!("expected query, got {other:?}"),
        }

        let ev = r#"{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}"#;
        let too_many = format!(
            r#"{{"op":"query","model":"inv","events":[{}]}}"#,
            vec![ev; MAX_EVENTS_PER_QUERY + 1].join(",")
        );
        assert_eq!(
            parse_request(too_many.as_bytes()).unwrap_err().kind,
            ErrorKind::BadRequest
        );

        let q = format!(r#"{{"events":[{ev}]}}"#);
        let too_many_queries = format!(
            r#"{{"op":"batch","model":"inv","queries":[{}]}}"#,
            vec![q.as_str(); MAX_BATCH_QUERIES + 1].join(",")
        );
        assert_eq!(
            parse_request(too_many_queries.as_bytes()).unwrap_err().kind,
            ErrorKind::BadRequest
        );

        for bad in [
            r#"{"op":"query","model":"inv","events":[{"pin":0,"edge":"rise","t":1e999,"tt":1e-9}]}"#,
            r#"{"op":"query","model":"inv","events":[{"pin":0,"edge":"rise","t":0,"tt":-1e-9}]}"#,
            r#"{"op":"query","model":"inv","events":[{"pin":-3,"edge":"rise","t":0,"tt":1e-9}]}"#,
            r#"{"op":"query","model":"../x","events":[{"pin":0,"edge":"rise","t":0,"tt":1e-9}]}"#,
            r#"{"op":"query","model":"inv","events":[]}"#,
        ] {
            assert_eq!(
                parse_request(bad.as_bytes()).unwrap_err().kind,
                ErrorKind::BadRequest,
                "{bad}"
            );
        }
    }

    #[test]
    fn responses_render_parseable_json() {
        let t = GateTiming {
            reference_pin: 1,
            delay: 1.25e-9,
            output_transition: 0.5e-9,
            output_arrival: 2e-9,
            output_edge: Edge::Falling,
            inputs_in_window: 2,
            degradation: Some(DegradedReason::DualSliceMissing),
        };
        let json = Json::parse(&render_timing(&t, None)).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_f64), None);
        let timing = json.get("timing").unwrap();
        assert_eq!(
            timing.get("degraded").and_then(Json::as_str),
            Some("dual_slice_missing")
        );
        assert_eq!(
            timing.get("output_edge").and_then(Json::as_str),
            Some("fall")
        );

        let err = ProtoError::new(ErrorKind::Overloaded, "queue full (64)");
        let json = Json::parse(&render_error(&err)).unwrap();
        assert_eq!(
            json.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded")
        );

        let batch = render_batch(&[Ok(t), Err(err)], None);
        let json = Json::parse(&batch).unwrap();
        assert_eq!(json.get("results").and_then(Json::as_arr).unwrap().len(), 2);

        let health = Json::parse(&render_health("draining", 3, true, 2, None)).unwrap();
        assert_eq!(
            health.get("status").and_then(Json::as_str),
            Some("draining")
        );
        assert_eq!(health.get("generation").and_then(Json::as_f64), Some(2.0));
        assert!(matches!(health.get("store_error"), Some(Json::Null)));
        let sick = Json::parse(&render_health("serving", 0, true, 1, Some("EACCES"))).unwrap();
        assert_eq!(
            sick.get("store_error").and_then(Json::as_str),
            Some("EACCES")
        );
    }

    #[test]
    fn retry_after_hint_renders_only_when_present() {
        let bare = render_error(&ProtoError::new(ErrorKind::Overloaded, "queue full"));
        assert!(!bare.contains("retry_after_ms"), "{bare}");
        let hinted =
            render_error(&ProtoError::new(ErrorKind::Overloaded, "queue full").with_retry_after(7));
        let json = Json::parse(&hinted).unwrap();
        assert_eq!(
            json.get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn retryable_refusal_reads_exactly_the_retryable_kinds() {
        for kind in ErrorKind::ALL {
            let wire = render_error(&ProtoError::new(kind, "x").with_retry_after(3));
            let read = retryable_refusal(&wire);
            assert_eq!(read.is_some(), kind.is_retryable(), "{kind:?}");
            if let Some((got, hint)) = read {
                assert_eq!(got, kind);
                assert_eq!(hint, Some(Duration::from_millis(3)));
            }
        }
        let names: std::collections::HashSet<_> =
            ErrorKind::ALL.iter().map(|k| k.wire_name()).collect();
        assert_eq!(names.len(), ErrorKind::ALL.len(), "wire names are distinct");
    }

    #[test]
    fn reload_op_decodes_and_hostile_variants_are_typed() {
        match parse_request(br#"{"op":"reload"}"#).unwrap() {
            Request::Reload { force, label } => {
                assert!(!force);
                assert_eq!(label, None);
            }
            other => panic!("expected reload, got {other:?}"),
        }
        match parse_request(br#"{"op":"reload","force":true,"label":"corner-ff.v2"}"#).unwrap() {
            Request::Reload { force, label } => {
                assert!(force);
                assert_eq!(label.as_deref(), Some("corner-ff.v2"));
            }
            other => panic!("expected reload, got {other:?}"),
        }
        let oversized = format!(
            r#"{{"op":"reload","label":"{}"}}"#,
            "g".repeat(MAX_LABEL_LEN + 1)
        );
        for bad in [
            br#"{"op":"reload","force":"yes"}"#.as_slice(),
            br#"{"op":"reload","force":1}"#.as_slice(),
            br#"{"op":"reload","force":null}"#.as_slice(),
            br#"{"op":"reload","label":42}"#.as_slice(),
            br#"{"op":"reload","label":""}"#.as_slice(),
            br#"{"op":"reload","label":"has space"}"#.as_slice(),
            oversized.as_bytes(),
        ] {
            assert_eq!(
                parse_request(bad).unwrap_err().kind,
                ErrorKind::BadRequest,
                "{}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn trace_echo_rides_along_on_every_response_shape() {
        let echo = TraceEcho {
            trace_id: "client-7".into(),
            admit_us: 12,
            queue_us: 340,
            execute_us: 56,
            cold_load_us: None,
        };
        let t = GateTiming {
            reference_pin: 0,
            delay: 1e-9,
            output_transition: 1e-10,
            output_arrival: 2e-9,
            output_edge: Edge::Rising,
            inputs_in_window: 1,
            degradation: None,
        };
        for rendered in [
            render_timing(&t, Some(&echo)),
            render_batch(&[Ok(t)], Some(&echo)),
        ] {
            let json = Json::parse(&rendered).unwrap();
            assert_eq!(
                json.get("trace_id").and_then(Json::as_str),
                Some("client-7"),
                "{rendered}"
            );
            let b = json.get("breakdown").unwrap();
            assert_eq!(b.get("admit_us").and_then(Json::as_f64), Some(12.0));
            assert_eq!(b.get("queue_us").and_then(Json::as_f64), Some(340.0));
            assert_eq!(b.get("execute_us").and_then(Json::as_f64), Some(56.0));
        }
        let err = ProtoError::new(ErrorKind::Overloaded, "queue full");
        let shed = render_error_traced(&err, Some("client-7"));
        let json = Json::parse(&shed).unwrap();
        assert_eq!(
            json.get("trace_id").and_then(Json::as_str),
            Some("client-7")
        );
        assert!(
            render_error(&err).starts_with("{\"ok\":false,\"error\""),
            "untraced errors keep the bare shape"
        );
        // What the daemon serves: the same shapes, with the frame's read
        // and parse phases echoed beside the other three.
        let frame = FramePhases {
            read_us: 3,
            parse_us: 9,
        };
        let expired = ProtoError::new(ErrorKind::DeadlineExceeded, "late");
        for (results, batch) in [
            (vec![Ok(t)], false),
            (vec![Ok(t)], true),
            (vec![Ok(t), Err(expired.clone())], true),
        ] {
            let rendered = render_served(&results, batch, &echo, frame);
            let json = Json::parse(&rendered).unwrap();
            assert_eq!(json.get("results").is_some(), batch, "{rendered}");
            let b = json.get("breakdown").unwrap();
            for (key, us) in [
                ("read_us", 3.0),
                ("parse_us", 9.0),
                ("admit_us", 12.0),
                ("queue_us", 340.0),
                ("execute_us", 56.0),
            ] {
                assert_eq!(b.get(key).and_then(Json::as_f64), Some(us), "{rendered}");
            }
        }
        assert_eq!(
            render_served(&[Err(expired.clone())], false, &echo, frame),
            render_error_traced(&expired, Some("client-7")),
            "a failed single query answers as a traced error"
        );
        // A cold-load acquisition is marked on the response.
        let cold_echo = TraceEcho {
            cold_load_us: Some(870),
            ..echo
        };
        let json = Json::parse(&render_timing(&t, Some(&cold_echo))).unwrap();
        assert_eq!(json.get("cold").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("load_us").and_then(Json::as_f64), Some(870.0));
    }

    #[test]
    fn trace_ids_decode_and_hostile_ones_are_refused() {
        let with_id = br#"{"op":"query","model":"inv","trace_id":"abc.DEF:7-x_","events":[{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}]}"#;
        match parse_request(with_id).unwrap() {
            Request::Query { trace_id, .. } => {
                assert_eq!(trace_id.as_deref(), Some("abc.DEF:7-x_"));
            }
            other => panic!("expected query, got {other:?}"),
        }
        let without = br#"{"op":"batch","model":"inv","queries":[{"events":[{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}]}]}"#;
        match parse_request(without).unwrap() {
            Request::Batch { trace_id, .. } => assert_eq!(trace_id, None),
            other => panic!("expected batch, got {other:?}"),
        }
        let ev = r#"{"pin":0,"edge":"rise","t":0.0,"tt":1e-9}"#;
        for bad_id in [
            "\"\"",
            "42",
            "\"has space\"",
            "\"quote\\\"inside\"",
            &format!("\"{}\"", "x".repeat(MAX_TRACE_ID_LEN + 1)),
        ] {
            let req =
                format!(r#"{{"op":"query","model":"inv","trace_id":{bad_id},"events":[{ev}]}}"#);
            assert_eq!(
                parse_request(req.as_bytes()).unwrap_err().kind,
                ErrorKind::BadRequest,
                "{bad_id}"
            );
        }
    }

    #[test]
    fn wire_ops_lists_exactly_the_recognized_ops() {
        // Every listed op must dispatch past the unknown-op arm. A minimal
        // `{"op":...}` document is enough: ops with required fields fail
        // with their field-specific message, never with "unknown op".
        for op in WIRE_OPS {
            let req = format!("{{\"op\":\"{op}\"}}");
            match parse_request(req.as_bytes()) {
                Ok(_) => {}
                Err(e) => assert!(
                    !e.detail.contains("unknown op"),
                    "{op} is listed in WIRE_OPS but the parser does not know it: {e}"
                ),
            }
        }
        // And an op outside the list is refused as unknown, so the list
        // cannot silently lag behind the dispatch table.
        let e = parse_request(br#"{"op":"conquer"}"#).unwrap_err();
        assert!(e.detail.contains("unknown op"), "{e}");
        assert!(matches!(
            parse_request(br#"{"op":"fleet"}"#).unwrap(),
            Request::Fleet
        ));
        assert_eq!(
            ErrorKind::ReplicaQuarantined.wire_name(),
            "replica_quarantined"
        );
        assert!(!ErrorKind::ReplicaQuarantined.is_retryable());
    }

    #[test]
    fn obs_and_metrics_ops_decode() {
        assert!(matches!(
            parse_request(b"{\"op\":\"metrics\"}").unwrap(),
            Request::Metrics
        ));
        // An empty obs request is a configuration read.
        match parse_request(b"{\"op\":\"obs\"}").unwrap() {
            Request::Obs(c) => assert_eq!(c, ObsControl::default()),
            other => panic!("expected obs, got {other:?}"),
        }
        let full = br#"{"op":"obs","level":"trace","sample_every":4,"slow_ms":100,"dump":true}"#;
        match parse_request(full).unwrap() {
            Request::Obs(c) => {
                assert_eq!(c.level, Some(proxim_obs::Level::Trace));
                assert_eq!(c.sample_every, Some(4));
                assert_eq!(c.slow_ms, Some(100));
                assert!(c.dump);
            }
            other => panic!("expected obs, got {other:?}"),
        }
        for bad in [
            br#"{"op":"obs","level":"loud"}"#.as_slice(),
            br#"{"op":"obs","sample_every":-1}"#.as_slice(),
            br#"{"op":"obs","sample_every":1.5}"#.as_slice(),
            br#"{"op":"obs","dump":"yes"}"#.as_slice(),
        ] {
            assert_eq!(
                parse_request(bad).unwrap_err().kind,
                ErrorKind::BadRequest,
                "{}",
                String::from_utf8_lossy(bad)
            );
        }
    }
}
