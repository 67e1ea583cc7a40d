//! The wire protocol: length-prefixed JSON frames.
//!
//! # Frame layout
//!
//! ```text
//! +----------------+---------------------------+
//! | length (u32 BE)| payload: compact JSON     |
//! +----------------+---------------------------+
//! ```
//!
//! One request frame in, one response frame out, in order, per connection.
//! The length prefix counts payload bytes only. Frames above the
//! configured maximum ([`MAX_FRAME_BYTES`] by default) are rejected without
//! reading the payload, and the prefix is *never* trusted for allocation:
//! the reader preallocates at most [`PREALLOC_CAP`] and grows only as bytes
//! actually arrive (the same discipline as the storage layer's untrusted
//! length prefixes), so a lying 4 GiB prefix cannot over-allocate.
//!
//! # Versioning
//!
//! The frame layout is version-less and frozen; evolution happens inside
//! the JSON payload. There is one protocol version ([`PROTOCOL_VERSION`]),
//! so nothing is negotiated: any request may carry an optional `"v"` field
//! naming the version it was written against — a version the server does
//! not speak comes back as a typed `unsupported` error, as does an unknown
//! op, so mismatched servers and clients fail loudly instead of
//! misinterpreting each other. The ops are `knn`, `range`, `insert`,
//! `remove`, `ping`, `stats` and `shutdown`.
//!
//! # Number fidelity
//!
//! Payloads are JSON, and every number rides as an `f64`. The vendored
//! writer emits shortest-round-trip decimal and the parser is correctly
//! rounded, so finite `f64` values (pitch samples, distances) survive the
//! wire bit for bit — which is what makes "server responses are
//! bit-identical to in-process queries" a testable claim. Non-finite
//! samples cannot be encoded (JSON has no NaN); they serialize as `null`
//! and are rejected by the receiving side as a typed error.

use std::io::{self, Read, Write};

use hum_core::engine::EngineStats;
use hum_index::QueryStats;
use serde_json::Value;

use crate::service::ServiceMatch;

/// The protocol version this build speaks — the only one there is. The
/// server accepts every version in `1..=PROTOCOL_VERSION`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Default ceiling on payload size. Generous for this protocol: the
/// largest legitimate frame is an insert carrying a few thousand pitch
/// samples (tens of KiB).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Most the reader preallocates from an untrusted length prefix; beyond
/// this the buffer grows only as bytes actually arrive.
pub const PREALLOC_CAP: usize = 64 * 1024;

/// Protocol ceiling on `k` in a `knn` request. The engine clamps its own
/// preallocations to the corpus size, but a ceiling at the parse boundary
/// turns an absurd `k` (a typo'd `10^15`, a fuzzer's `u64::MAX`) into a
/// typed `bad_request` before it can drive a maximal index walk. One
/// million neighbors is far beyond any legitimate query-by-humming result
/// page and comfortably above the largest corpus the serve benchmarks use.
pub const MAX_WIRE_K: u64 = 1 << 20;

/// Outcome of reading one frame.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload.
    Frame(Vec<u8>),
    /// Read timed out before the first header byte — no frame in flight
    /// (the server's shutdown-poll point).
    Idle,
    /// Clean end of stream at a frame boundary.
    Eof,
    /// The stream ended (or stalled past the poll budget) mid-frame.
    Truncated,
    /// The length prefix exceeds the frame ceiling; payload left unread.
    Oversized(u32),
}

fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads one frame. Read timeouts surface as [`FrameRead::Idle`] at a
/// frame boundary; mid-frame they count against `mid_frame_poll_budget`
/// timeouts before the frame is declared [`FrameRead::Truncated`] (so a
/// stalled sender cannot pin a connection thread forever).
///
/// # Errors
/// Only hard I/O errors; timeouts, EOF, and malformed sizes are all
/// in-band [`FrameRead`] variants.
pub fn read_frame<R: Read>(
    reader: &mut R,
    max_frame: usize,
    mid_frame_poll_budget: usize,
) -> io::Result<FrameRead> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    let mut polls = 0usize;
    while filled < 4 {
        match reader.read(&mut header[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 { FrameRead::Eof } else { FrameRead::Truncated })
            }
            Ok(n) => filled += n,
            Err(e) if is_poll_timeout(&e) => {
                if filled == 0 {
                    return Ok(FrameRead::Idle);
                }
                polls += 1;
                if polls > mid_frame_poll_budget {
                    return Ok(FrameRead::Truncated);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header);
    if len as usize > max_frame {
        return Ok(FrameRead::Oversized(len));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(PREALLOC_CAP));
    let mut chunk = [0u8; 8192];
    while payload.len() < len {
        let want = (len - payload.len()).min(chunk.len());
        match reader.read(&mut chunk[..want]) {
            Ok(0) => return Ok(FrameRead::Truncated),
            Ok(n) => payload.extend_from_slice(&chunk[..n]),
            Err(e) if is_poll_timeout(&e) => {
                polls += 1;
                if polls > mid_frame_poll_budget {
                    return Ok(FrameRead::Truncated);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame(payload))
}

/// Writes one frame; returns the bytes put on the wire (header included).
///
/// # Errors
/// `InvalidInput` if the payload exceeds `max_frame`, else any I/O error.
pub fn write_frame<W: Write>(
    writer: &mut W,
    payload: &[u8],
    max_frame: usize,
) -> io::Result<u64> {
    if payload.len() > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds maximum {max_frame}", payload.len()),
        ));
    }
    // Header and payload leave in one write: two would put the header in a
    // segment of its own, and the payload behind it would wait for the
    // peer's delayed ACK wherever Nagle's algorithm is on.
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(frame.len() as u64)
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// k-NN query over a raw pitch series.
    Knn {
        /// Raw (hummed) pitch series.
        pitch: Vec<f64>,
        /// Neighbors requested.
        k: usize,
        /// Warping-band override (`None` = service default).
        band: Option<usize>,
        /// Per-request deadline in milliseconds from arrival.
        deadline_ms: Option<u64>,
        /// Ask for the cascade trace in the response.
        trace: bool,
    },
    /// ε-range query over a raw pitch series.
    Range {
        /// Raw (hummed) pitch series.
        pitch: Vec<f64>,
        /// Query radius (plain DTW distance).
        radius: f64,
        /// Warping-band override (`None` = service default).
        band: Option<usize>,
        /// Per-request deadline in milliseconds from arrival.
        deadline_ms: Option<u64>,
        /// Ask for the cascade trace in the response.
        trace: bool,
    },
    /// Live insert of a melody with provenance.
    Insert {
        /// New melody id (must be unused).
        id: u64,
        /// Song provenance.
        song: usize,
        /// Phrase provenance.
        phrase: usize,
        /// Raw pitch series.
        pitch: Vec<f64>,
    },
    /// Live removal by id.
    Remove {
        /// Melody id to remove.
        id: u64,
    },
    /// Liveness check; responds with the store size.
    Ping,
    /// Metrics snapshot (null when the server runs without a registry).
    Stats,
    /// Ask the server to begin graceful shutdown.
    Shutdown,
}

/// Typed error kinds a response can carry, with their wire codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission queue full: retry later.
    Overloaded,
    /// The request's deadline passed before or during execution.
    DeadlineExceeded,
    /// Well-formed frame, unacceptable content (bad op, bad input,
    /// duplicate id, non-finite samples, ...).
    BadRequest,
    /// Unreadable frame: bad prefix, truncation, non-UTF8, bad JSON.
    Protocol,
    /// Server is draining; no new work accepted.
    ShuttingDown,
    /// Unexpected internal failure.
    Internal,
    /// Unknown op or a protocol version this server does not speak.
    Unsupported,
}

impl ErrorKind {
    /// The wire code.
    pub fn code(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Protocol => "protocol",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
            ErrorKind::Unsupported => "unsupported",
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: &str) -> Option<Self> {
        Some(match code {
            "overloaded" => ErrorKind::Overloaded,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "bad_request" => ErrorKind::BadRequest,
            "protocol" => ErrorKind::Protocol,
            "shutting_down" => ErrorKind::ShuttingDown,
            "internal" => ErrorKind::Internal,
            "unsupported" => ErrorKind::Unsupported,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Value plumbing. The vendored `serde::Value` keeps objects as ordered
// `Vec<(String, Value)>`; these helpers read fields by first occurrence.

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

/// A JSON number that is a whole non-negative value exactly representable
/// in an `f64` (ids and counts stay below 2^53 everywhere in this system).
fn as_u64(value: &Value) -> Option<u64> {
    let n = as_f64(value)?;
    if n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
        Some(n as u64)
    } else {
        None
    }
}

fn get_f64(value: &Value, key: &str) -> Result<f64, String> {
    field(value, key)
        .and_then(as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn get_u64(value: &Value, key: &str) -> Result<u64, String> {
    field(value, key)
        .and_then(as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn opt_u64(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match field(value, key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => as_u64(v).map(Some).ok_or_else(|| format!("non-integer field '{key}'")),
    }
}

fn get_bool_or(value: &Value, key: &str, default: bool) -> Result<bool, String> {
    match field(value, key) {
        None | Some(Value::Null) => Ok(default),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("non-boolean field '{key}'")),
    }
}

fn get_pitch(value: &Value, key: &str) -> Result<Vec<f64>, String> {
    let Some(Value::Array(items)) = field(value, key) else {
        return Err(format!("missing or non-array field '{key}'"));
    };
    let mut pitch = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match as_f64(item) {
            // Non-finite f64 serializes as JSON null, so a NaN sample shows
            // up here as a typed error instead of poisoning the engine.
            Some(v) => pitch.push(v),
            None => return Err(format!("'{key}[{i}]' is not a number")),
        }
    }
    Ok(pitch)
}

fn num(n: u64) -> Value {
    Value::Number(n as f64)
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Why a request payload failed to parse: the typed error kind the server
/// should answer with, plus a human-readable message naming the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// How the server should classify the failure (`BadRequest` for
    /// missing/ill-typed fields, `Unsupported` for unknown ops and
    /// protocol versions this build does not speak).
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ParseError {
    fn unsupported(message: String) -> ParseError {
        ParseError { kind: ErrorKind::Unsupported, message }
    }
}

impl From<String> for ParseError {
    fn from(message: String) -> Self {
        ParseError { kind: ErrorKind::BadRequest, message }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.code(), self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a request payload (already JSON-decoded).
///
/// # Errors
/// [`ParseError`] naming the missing/ill-typed field (`bad_request`) or
/// the unknown op / unspeakable protocol version (`unsupported`).
pub fn parse_request(value: &Value) -> Result<Request, ParseError> {
    let Some(Value::String(op)) = field(value, "op") else {
        return Err("missing string field 'op'".to_string().into());
    };
    // Any request may pin the protocol version it was written against; a
    // version outside 1..=PROTOCOL_VERSION is a typed `unsupported` error
    // before any op-specific parsing happens.
    if let Some(v) = opt_u64(value, "v")? {
        if !(1..=PROTOCOL_VERSION).contains(&v) {
            return Err(ParseError::unsupported(format!(
                "protocol version {v} is not supported (this server speaks 1..={PROTOCOL_VERSION})"
            )));
        }
    }
    match op.as_str() {
        "knn" => {
            let k = get_u64(value, "k")?;
            // Resource-exhaustion guard: `k` sizes heaps and index walks
            // downstream, so anything above the documented ceiling is
            // rejected here as a typed error, not forwarded to the engine.
            if k > MAX_WIRE_K {
                return Err(format!(
                    "field 'k' ({k}) exceeds the protocol ceiling {MAX_WIRE_K}"
                )
                .into());
            }
            Ok(Request::Knn {
                pitch: get_pitch(value, "pitch")?,
                k: k as usize,
                band: opt_u64(value, "band")?.map(|b| b as usize),
                deadline_ms: opt_u64(value, "deadline_ms")?,
                trace: get_bool_or(value, "trace", false)?,
            })
        }
        "range" => {
            let radius = get_f64(value, "radius")?;
            // A negative radius can match nothing and a non-finite one is
            // meaningless (the JSON parser already rejects out-of-range
            // literals; this also covers values built programmatically).
            if !radius.is_finite() || radius < 0.0 {
                return Err(format!(
                    "field 'radius' ({radius}) must be finite and non-negative"
                )
                .into());
            }
            Ok(Request::Range {
                pitch: get_pitch(value, "pitch")?,
                radius,
                band: opt_u64(value, "band")?.map(|b| b as usize),
                deadline_ms: opt_u64(value, "deadline_ms")?,
                trace: get_bool_or(value, "trace", false)?,
            })
        }
        "insert" => Ok(Request::Insert {
            id: get_u64(value, "id")?,
            song: get_u64(value, "song")? as usize,
            phrase: get_u64(value, "phrase")? as usize,
            pitch: get_pitch(value, "pitch")?,
        }),
        "remove" => Ok(Request::Remove { id: get_u64(value, "id")? }),
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ParseError::unsupported(format!("unknown op '{other}'"))),
    }
}

/// Encodes a request for the wire (the client side of
/// [`parse_request`]).
pub fn request_to_value(request: &Request) -> Value {
    fn opt_num(v: Option<u64>) -> Value {
        v.map_or(Value::Null, num)
    }
    fn pitch_value(pitch: &[f64]) -> Value {
        Value::Array(pitch.iter().map(|&v| Value::Number(v)).collect())
    }
    match request {
        Request::Knn { pitch, k, band, deadline_ms, trace } => object(vec![
            ("op", Value::String("knn".to_string())),
            ("pitch", pitch_value(pitch)),
            ("k", num(*k as u64)),
            ("band", opt_num(band.map(|b| b as u64))),
            ("deadline_ms", opt_num(*deadline_ms)),
            ("trace", Value::Bool(*trace)),
        ]),
        Request::Range { pitch, radius, band, deadline_ms, trace } => object(vec![
            ("op", Value::String("range".to_string())),
            ("pitch", pitch_value(pitch)),
            ("radius", Value::Number(*radius)),
            ("band", opt_num(band.map(|b| b as u64))),
            ("deadline_ms", opt_num(*deadline_ms)),
            ("trace", Value::Bool(*trace)),
        ]),
        Request::Insert { id, song, phrase, pitch } => object(vec![
            ("op", Value::String("insert".to_string())),
            ("id", num(*id)),
            ("song", num(*song as u64)),
            ("phrase", num(*phrase as u64)),
            ("pitch", pitch_value(pitch)),
        ]),
        Request::Remove { id } => object(vec![
            ("op", Value::String("remove".to_string())),
            ("id", num(*id)),
        ]),
        Request::Ping => object(vec![("op", Value::String("ping".to_string()))]),
        Request::Stats => object(vec![("op", Value::String("stats".to_string()))]),
        Request::Shutdown => object(vec![("op", Value::String("shutdown".to_string()))]),
    }
}

/// Serializes [`EngineStats`] with the same field names the obs exporter
/// uses for traces, so scripted consumers see one vocabulary.
pub fn stats_to_value(stats: &EngineStats) -> Value {
    object(vec![
        (
            "index",
            object(vec![
                ("node_accesses", num(stats.index.node_accesses)),
                ("leaf_accesses", num(stats.index.leaf_accesses)),
                ("points_examined", num(stats.index.points_examined)),
                ("candidates", num(stats.index.candidates)),
            ]),
        ),
        ("lb_pruned", num(stats.lb_pruned)),
        ("lb_improved_pruned", num(stats.lb_improved_pruned)),
        ("exact_computations", num(stats.exact_computations)),
        ("early_abandoned", num(stats.early_abandoned)),
        ("dp_cells", num(stats.dp_cells)),
        ("matches", num(stats.matches)),
    ])
}

/// Parses [`stats_to_value`]'s output back into [`EngineStats`].
///
/// # Errors
/// Names the first missing or ill-typed field.
pub fn stats_from_value(value: &Value) -> Result<EngineStats, String> {
    let index = field(value, "index").ok_or("missing field 'index'")?;
    Ok(EngineStats {
        index: QueryStats {
            node_accesses: get_u64(index, "node_accesses")?,
            leaf_accesses: get_u64(index, "leaf_accesses")?,
            points_examined: get_u64(index, "points_examined")?,
            candidates: get_u64(index, "candidates")?,
        },
        lb_pruned: get_u64(value, "lb_pruned")?,
        lb_improved_pruned: get_u64(value, "lb_improved_pruned")?,
        exact_computations: get_u64(value, "exact_computations")?,
        early_abandoned: get_u64(value, "early_abandoned")?,
        dp_cells: get_u64(value, "dp_cells")?,
        matches: get_u64(value, "matches")?,
    })
}

/// Serializes one match.
pub fn match_to_value(m: &ServiceMatch) -> Value {
    object(vec![
        ("id", num(m.id)),
        ("song", num(m.song as u64)),
        ("phrase", num(m.phrase as u64)),
        ("distance", Value::Number(m.distance)),
    ])
}

/// Parses one match.
///
/// # Errors
/// Names the first missing or ill-typed field.
pub fn match_from_value(value: &Value) -> Result<ServiceMatch, String> {
    Ok(ServiceMatch {
        id: get_u64(value, "id")?,
        song: get_u64(value, "song")? as usize,
        phrase: get_u64(value, "phrase")? as usize,
        distance: get_f64(value, "distance")?,
    })
}

/// An `{"ok": true, ...}` response with extra fields.
pub fn ok_response(extra: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![("ok", Value::Bool(true))];
    fields.extend(extra);
    object(fields)
}

/// An `{"ok": false, "error": <code>, "message": ...}` response;
/// `deadline_exceeded` responses also attach the partial stats.
pub fn error_response(kind: ErrorKind, message: &str, stats: Option<&EngineStats>) -> Value {
    let mut fields = vec![
        ("ok", Value::Bool(false)),
        ("error", Value::String(kind.code().to_string())),
        ("message", Value::String(message.to_string())),
    ];
    if let Some(stats) = stats {
        fields.push(("stats", stats_to_value(stats)));
    }
    object(fields)
}

/// What a response payload decodes to on the client side.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `ok: true` — the whole payload, for typed extractors to pick over.
    Ok(Value),
    /// `ok: false` — the typed kind, the message, and (for deadline
    /// errors) the partial stats.
    Error {
        /// Typed error kind.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
        /// Partial work counters (deadline errors only).
        stats: Option<EngineStats>,
    },
}

/// Splits a decoded response payload into ok/error.
///
/// # Errors
/// A message when the payload is not a recognizable response object.
pub fn parse_response(value: Value) -> Result<Response, String> {
    match field(&value, "ok") {
        Some(Value::Bool(true)) => Ok(Response::Ok(value)),
        Some(Value::Bool(false)) => {
            let kind = match field(&value, "error") {
                Some(Value::String(code)) => ErrorKind::from_code(code)
                    .ok_or_else(|| format!("unknown error code '{code}'"))?,
                _ => return Err("error response without string 'error' code".to_string()),
            };
            let message = match field(&value, "message") {
                Some(Value::String(m)) => m.clone(),
                _ => String::new(),
            };
            let stats = match field(&value, "stats") {
                Some(v) => Some(stats_from_value(v)?),
                None => None,
            };
            Ok(Response::Error { kind, message, stats })
        }
        _ => Err("response without boolean 'ok' field".to_string()),
    }
}

/// Reads a field out of an [`Response::Ok`] payload as `u64`.
///
/// # Errors
/// Names the field when missing or ill-typed.
pub fn response_u64(value: &Value, key: &str) -> Result<u64, String> {
    get_u64(value, key)
}

/// Reads the `matches` array out of a query response.
///
/// # Errors
/// Names the first missing or ill-typed field.
pub fn response_matches(value: &Value) -> Result<Vec<ServiceMatch>, String> {
    let Some(Value::Array(items)) = field(value, "matches") else {
        return Err("missing or non-array field 'matches'".to_string());
    };
    items.iter().map(match_from_value).collect()
}

/// Reads the `stats` object out of a query response.
///
/// # Errors
/// Names the first missing or ill-typed field.
pub fn response_stats(value: &Value) -> Result<EngineStats, String> {
    stats_from_value(field(value, "stats").ok_or("missing field 'stats'")?)
}

/// Reads the optional `trace` object out of a query response (kept as a
/// raw [`Value`]; its totals always equal the response's `stats`).
pub fn response_trace(value: &Value) -> Option<Value> {
    match field(value, "trace") {
        None | Some(Value::Null) => None,
        Some(v) => Some(v.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        let written = write_frame(&mut wire, b"{\"op\":\"ping\"}", MAX_FRAME_BYTES).unwrap();
        assert_eq!(written as usize, wire.len());
        let mut reader = wire.as_slice();
        match read_frame(&mut reader, MAX_FRAME_BYTES, 4).unwrap() {
            FrameRead::Frame(payload) => assert_eq!(payload, b"{\"op\":\"ping\"}"),
            other => panic!("expected frame, got {other:?}"),
        }
        match read_frame(&mut reader, MAX_FRAME_BYTES, 4).unwrap() {
            FrameRead::Eof => {}
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_without_reading() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut reader = wire.as_slice();
        match read_frame(&mut reader, MAX_FRAME_BYTES, 4).unwrap() {
            FrameRead::Oversized(len) => assert_eq!(len, u32::MAX),
            other => panic!("expected oversized, got {other:?}"),
        }
    }

    #[test]
    fn lying_prefix_never_overallocates() {
        // Prefix claims 1 MiB (the max) but only 3 bytes follow: the reader
        // must cap its preallocation and report truncation, not OOM or hang.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_be_bytes());
        wire.extend_from_slice(b"abc");
        let mut reader = wire.as_slice();
        match read_frame(&mut reader, MAX_FRAME_BYTES, 4).unwrap() {
            FrameRead::Truncated => {}
            other => panic!("expected truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_is_truncated_not_eof() {
        let mut reader: &[u8] = &[0u8, 0u8];
        match read_frame(&mut reader, MAX_FRAME_BYTES, 4).unwrap() {
            FrameRead::Truncated => {}
            other => panic!("expected truncated, got {other:?}"),
        }
    }

    #[test]
    fn requests_round_trip_through_json() {
        let requests = [
            Request::Knn {
                pitch: vec![60.25, 61.5, -0.125],
                k: 5,
                band: Some(12),
                deadline_ms: Some(250),
                trace: true,
            },
            Request::Range {
                pitch: vec![55.0; 4],
                radius: 2.75,
                band: None,
                deadline_ms: None,
                trace: false,
            },
            Request::Insert { id: 901, song: 7, phrase: 3, pitch: vec![60.0, 62.0] },
            Request::Remove { id: 901 },
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
        ];
        for request in requests {
            let text = serde_json::to_string(&request_to_value(&request)).unwrap();
            let parsed = parse_request(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(parsed, request, "{text}");
        }
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (payload, needle) in [
            ("{}", "op"),
            ("{\"op\":\"fly\"}", "unknown op"),
            ("{\"op\":\"knn\",\"k\":3}", "pitch"),
            ("{\"op\":\"knn\",\"pitch\":[1,null],\"k\":3}", "pitch[1]"),
            ("{\"op\":\"knn\",\"pitch\":[1],\"k\":-1}", "k"),
            ("{\"op\":\"knn\",\"pitch\":[1],\"k\":1.5}", "k"),
            // Wire-boundary resource-exhaustion guards: an absurd `k` hits
            // the protocol ceiling, u64::MAX is not even an exact integer,
            // and a negative radius is rejected before reaching the engine.
            ("{\"op\":\"knn\",\"pitch\":[1],\"k\":1000000000000000}", "ceiling"),
            ("{\"op\":\"knn\",\"pitch\":[1],\"k\":18446744073709551615}", "k"),
            ("{\"op\":\"range\",\"pitch\":[1],\"radius\":-1.0}", "radius"),
            ("{\"op\":\"range\",\"pitch\":[1]}", "radius"),
            ("{\"op\":\"insert\",\"id\":1,\"song\":0,\"phrase\":0}", "pitch"),
            ("{\"op\":\"remove\"}", "id"),
        ] {
            let value = serde_json::from_str(payload).unwrap();
            let err = parse_request(&value).unwrap_err();
            assert!(err.message.contains(needle), "{payload}: {err}");
        }
    }

    #[test]
    fn unknown_ops_and_foreign_versions_are_unsupported_not_bad_request() {
        // Typed split at the parse boundary: field problems are
        // `bad_request`, but "this server never learned that op/version"
        // is `unsupported`, so a newer client can detect an older server.
        for payload in [
            "{\"op\":\"fly\"}",
            "{\"op\":\"ping\",\"v\":99}",
            "{\"op\":\"ping\",\"v\":0}",
            "{\"op\":\"knn\",\"pitch\":[1],\"k\":1,\"v\":3}",
        ] {
            let value = serde_json::from_str(payload).unwrap();
            let err = parse_request(&value).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Unsupported, "{payload}: {err}");
        }
        // Every spoken version is accepted on any op.
        for v in 1..=PROTOCOL_VERSION {
            let payload = format!("{{\"op\":\"ping\",\"v\":{v}}}");
            let value = serde_json::from_str(&payload).unwrap();
            assert_eq!(parse_request(&value).unwrap(), Request::Ping, "{payload}");
        }
        // And a field problem is still bad_request.
        let value = serde_json::from_str("{\"op\":\"remove\"}").unwrap();
        assert_eq!(parse_request(&value).unwrap_err().kind, ErrorKind::BadRequest);
    }

    #[test]
    fn wire_k_ceiling_and_radius_bounds() {
        let ok = format!("{{\"op\":\"knn\",\"pitch\":[1],\"k\":{MAX_WIRE_K}}}");
        assert!(parse_request(&serde_json::from_str(&ok).unwrap()).is_ok());
        let over = format!("{{\"op\":\"knn\",\"pitch\":[1],\"k\":{}}}", MAX_WIRE_K + 1);
        let err = parse_request(&serde_json::from_str(&over).unwrap()).unwrap_err();
        assert!(err.message.contains("ceiling"), "{err}");
        // A radius literal overflowing f64 never reaches parse_request: the
        // JSON layer rejects it (the server answers `protocol`).
        assert!(
            serde_json::from_str("{\"op\":\"range\",\"pitch\":[1],\"radius\":1e309}")
                .is_err()
        );
        let zero = serde_json::from_str("{\"op\":\"range\",\"pitch\":[1],\"radius\":0}").unwrap();
        assert!(parse_request(&zero).is_ok());
    }

    #[test]
    fn stats_and_matches_round_trip() {
        let stats = EngineStats {
            index: QueryStats {
                node_accesses: 12,
                leaf_accesses: 9,
                points_examined: 400,
                candidates: 37,
            },
            lb_pruned: 20,
            lb_improved_pruned: 5,
            exact_computations: 12,
            early_abandoned: 3,
            dp_cells: 123_456,
            matches: 4,
        };
        assert_eq!(stats_from_value(&stats_to_value(&stats)).unwrap(), stats);
        let m = ServiceMatch { id: 31, song: 2, phrase: 4, distance: 1.0625 };
        assert_eq!(match_from_value(&match_to_value(&m)).unwrap(), m);
    }

    #[test]
    fn responses_split_into_ok_and_typed_errors() {
        let ok = ok_response(vec![("len", num(42))]);
        match parse_response(ok).unwrap() {
            Response::Ok(value) => assert_eq!(response_u64(&value, "len").unwrap(), 42),
            other => panic!("expected ok, got {other:?}"),
        }
        let err = error_response(ErrorKind::Overloaded, "queue full", None);
        match parse_response(err).unwrap() {
            Response::Error { kind, message, stats } => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert_eq!(message, "queue full");
                assert!(stats.is_none());
            }
            other => panic!("expected error, got {other:?}"),
        }
        let deadline =
            error_response(ErrorKind::DeadlineExceeded, "late", Some(&EngineStats::default()));
        match parse_response(deadline).unwrap() {
            Response::Error { kind, stats, .. } => {
                assert_eq!(kind, ErrorKind::DeadlineExceeded);
                assert_eq!(stats, Some(EngineStats::default()));
            }
            other => panic!("expected error, got {other:?}"),
        }
    }
}
