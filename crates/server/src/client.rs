//! A small blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues strictly serialized
//! request/response pairs. Server-side rejections surface as typed
//! [`ClientError`] variants — `Overloaded` and `DeadlineExceeded` are
//! expected operating conditions callers are meant to match on, not
//! stringly-typed surprises.

use std::fmt;
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use hum_core::engine::EngineStats;
use serde_json::Value;

use crate::protocol::{self, ErrorKind, FrameRead, Request, Response, MAX_FRAME_BYTES};
use crate::service::ServiceMatch;

/// Per-query knobs (all optional).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Warping-band override (`None` = server default).
    pub band: Option<usize>,
    /// Deadline in milliseconds, measured from server-side admission.
    pub deadline_ms: Option<u64>,
    /// Ask the server for the per-stage cascade trace.
    pub trace: bool,
}

/// A successful query response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Hits, best first.
    pub matches: Vec<ServiceMatch>,
    /// Engine work counters for this query.
    pub stats: EngineStats,
    /// The cascade trace as raw JSON, present iff requested.
    pub trace: Option<Value>,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, close mid-frame).
    Io(io::Error),
    /// The server's bytes did not decode as a protocol response, or the
    /// server reported an unreadable frame from us.
    Protocol(String),
    /// Rejected at admission: the queue was full. Retry later.
    Overloaded(String),
    /// The deadline passed before the query finished; carries the
    /// partial work counters when the server attached them.
    DeadlineExceeded {
        /// Server-side detail.
        message: String,
        /// Work done before the abort (`matches` always 0).
        stats: Option<EngineStats>,
    },
    /// The server is draining and refused new work.
    ShuttingDown(String),
    /// The request was readable but unacceptable (bad field, duplicate
    /// id, non-finite samples, ...).
    BadRequest(String),
    /// Unexpected server-side failure.
    Internal(String),
    /// The server does not speak this op or protocol version.
    Unsupported(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Overloaded(m) => write!(f, "server overloaded: {m}"),
            ClientError::DeadlineExceeded { message, .. } => {
                write!(f, "deadline exceeded: {message}")
            }
            ClientError::ShuttingDown(m) => write!(f, "server shutting down: {m}"),
            ClientError::BadRequest(m) => write!(f, "bad request: {m}"),
            ClientError::Internal(m) => write!(f, "internal server error: {m}"),
            ClientError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn server_error(kind: ErrorKind, message: String, stats: Option<EngineStats>) -> ClientError {
    match kind {
        ErrorKind::Overloaded => ClientError::Overloaded(message),
        ErrorKind::DeadlineExceeded => ClientError::DeadlineExceeded { message, stats },
        ErrorKind::BadRequest => ClientError::BadRequest(message),
        ErrorKind::Protocol => ClientError::Protocol(message),
        ErrorKind::ShuttingDown => ClientError::ShuttingDown(message),
        ErrorKind::Internal => ClientError::Internal(message),
        ErrorKind::Unsupported => ClientError::Unsupported(message),
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    /// Any socket error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sets a read timeout for responses (`None` = wait forever).
    ///
    /// # Errors
    /// Any socket error.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request and decodes the response; `Ok` responses come
    /// back as the raw payload for the typed wrappers to pick over.
    fn call(&mut self, request: &Request) -> Result<Value, ClientError> {
        let payload = serde_json::to_string(&protocol::request_to_value(request))
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        protocol::write_frame(&mut self.stream, payload.as_bytes(), MAX_FRAME_BYTES)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Value, ClientError> {
        // A generous budget: the stream usually has no read timeout, and
        // when tests set one they want the first timeout to surface.
        match protocol::read_frame(&mut self.stream, MAX_FRAME_BYTES, 0)? {
            FrameRead::Frame(payload) => {
                let text = std::str::from_utf8(&payload)
                    .map_err(|_| ClientError::Protocol("response is not UTF-8".to_string()))?;
                let value = serde_json::from_str(text)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                match protocol::parse_response(value).map_err(ClientError::Protocol)? {
                    Response::Ok(value) => Ok(value),
                    Response::Error { kind, message, stats } => {
                        Err(server_error(kind, message, stats))
                    }
                }
            }
            FrameRead::Idle => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "timed out waiting for a response",
            ))),
            FrameRead::Eof | FrameRead::Truncated => Err(ClientError::Protocol(
                "connection closed before a full response arrived".to_string(),
            )),
            FrameRead::Oversized(len) => Err(ClientError::Protocol(format!(
                "response frame length {len} exceeds maximum {MAX_FRAME_BYTES}"
            ))),
        }
    }

    fn query_reply(value: &Value) -> Result<QueryReply, ClientError> {
        Ok(QueryReply {
            matches: protocol::response_matches(value).map_err(ClientError::Protocol)?,
            stats: protocol::response_stats(value).map_err(ClientError::Protocol)?,
            trace: protocol::response_trace(value),
        })
    }

    /// k-nearest-neighbors query over a raw (hummed) pitch series.
    ///
    /// # Errors
    /// Typed [`ClientError`]; see the variants.
    pub fn knn(
        &mut self,
        pitch: &[f64],
        k: usize,
        options: &QueryOptions,
    ) -> Result<QueryReply, ClientError> {
        let value = self.call(&Request::Knn {
            pitch: pitch.to_vec(),
            k,
            band: options.band,
            deadline_ms: options.deadline_ms,
            trace: options.trace,
        })?;
        Self::query_reply(&value)
    }

    /// ε-range query over a raw (hummed) pitch series.
    ///
    /// # Errors
    /// Typed [`ClientError`]; see the variants.
    pub fn range(
        &mut self,
        pitch: &[f64],
        radius: f64,
        options: &QueryOptions,
    ) -> Result<QueryReply, ClientError> {
        let value = self.call(&Request::Range {
            pitch: pitch.to_vec(),
            radius,
            band: options.band,
            deadline_ms: options.deadline_ms,
            trace: options.trace,
        })?;
        Self::query_reply(&value)
    }

    /// Inserts a melody; returns the new store size.
    ///
    /// # Errors
    /// [`ClientError::BadRequest`] for duplicate ids or bad samples.
    pub fn insert(
        &mut self,
        id: u64,
        song: usize,
        phrase: usize,
        pitch: &[f64],
    ) -> Result<u64, ClientError> {
        let value = self.call(&Request::Insert { id, song, phrase, pitch: pitch.to_vec() })?;
        protocol::response_u64(&value, "len").map_err(ClientError::Protocol)
    }

    /// Removes a melody; `(removed, new store size)`.
    ///
    /// # Errors
    /// Typed [`ClientError`]; see the variants.
    pub fn remove(&mut self, id: u64) -> Result<(bool, u64), ClientError> {
        let value = self.call(&Request::Remove { id })?;
        let removed = match value {
            Value::Object(ref fields) => fields
                .iter()
                .find(|(k, _)| k == "removed")
                .and_then(|(_, v)| match v {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                })
                .ok_or_else(|| {
                    ClientError::Protocol("missing boolean field 'removed'".to_string())
                })?,
            _ => return Err(ClientError::Protocol("response is not an object".to_string())),
        };
        let len = protocol::response_u64(&value, "len").map_err(ClientError::Protocol)?;
        Ok((removed, len))
    }

    /// Liveness check; returns the store size.
    ///
    /// # Errors
    /// Typed [`ClientError`]; see the variants.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        let value = self.call(&Request::Ping)?;
        protocol::response_u64(&value, "len").map_err(ClientError::Protocol)
    }

    /// The server's metrics snapshot as raw JSON ([`Value::Null`] when the
    /// server runs without a registry).
    ///
    /// # Errors
    /// Typed [`ClientError`]; see the variants.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        let value = self.call(&Request::Stats)?;
        match value {
            Value::Object(fields) => fields
                .into_iter()
                .find(|(k, _)| k == "metrics")
                .map(|(_, v)| v)
                .ok_or_else(|| ClientError::Protocol("missing field 'metrics'".to_string())),
            _ => Err(ClientError::Protocol("response is not an object".to_string())),
        }
    }

    /// Asks the server to begin graceful shutdown.
    ///
    /// # Errors
    /// Typed [`ClientError`]; see the variants.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Shutdown).map(|_| ())
    }

    /// Sends raw bytes as one frame and reads back one response — the
    /// fuzzing hook: malformed payloads must come back as typed protocol
    /// errors, never hang or kill the connection unannounced.
    ///
    /// # Errors
    /// Typed [`ClientError`]; see the variants.
    pub fn send_raw_frame(&mut self, payload: &[u8]) -> Result<Value, ClientError> {
        protocol::write_frame(&mut self.stream, payload, MAX_FRAME_BYTES)?;
        self.read_response()
    }

    /// Writes raw bytes verbatim — no framing, no length fixup — then
    /// reads one response. For wire-level fuzzing (bit flips in the
    /// prefix, truncated frames, garbage headers).
    ///
    /// # Errors
    /// Typed [`ClientError`]; see the variants.
    pub fn send_raw_bytes(&mut self, bytes: &[u8]) -> Result<Value, ClientError> {
        use std::io::Write;
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Half-closes the write side (the server sees EOF), then drains and
    /// discards whatever the server still sends. For truncation tests.
    ///
    /// # Errors
    /// Any socket error from the half-close.
    pub fn finish_writes(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)?;
        let mut sink = [0u8; 1024];
        loop {
            match self.stream.read(&mut sink) {
                Ok(0) => return Ok(()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Ok(()),
            }
        }
    }
}
