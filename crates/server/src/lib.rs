//! `hum-server`: the query-serving subsystem.
//!
//! A std-only threaded TCP server exposing the query-by-humming system's
//! range/k-NN API (plus live insert/remove) over a length-prefixed JSON
//! protocol, built from four pieces:
//!
//! - [`protocol`] — the wire format: 4-byte big-endian length prefix +
//!   compact JSON, with allocation-safe reads, typed error codes, seven
//!   ops and one protocol version ([`PROTOCOL_VERSION`]).
//! - [`queue`] — the bounded admission queue: overload is an immediate
//!   typed `overloaded` rejection, never a silent drop or unbounded wait.
//! - [`server`] — listener, per-connection threads, and a fixed worker
//!   pool with per-worker scratch; request deadlines propagate into the
//!   engine as a cooperative [`hum_core::engine::QueryBudget`]; graceful
//!   shutdown drains every admitted request before handing the served
//!   system back. A maintenance thread flushes and compacts a durable
//!   service in three phases, holding the service lock only to plan and to
//!   commit.
//! - [`client`] — a small blocking client, also used by the CLI, the
//!   integration tests, and the `serve` benchmark's load generator.
//!
//! The transport is generic over [`QbhService`] rather than depending on
//! `hum-qbh` (which links this crate into the `qbh serve` subcommand), so
//! the dependency arrow points from the application to the server.
//!
//! Served queries are **bit-identical** to in-process calls at any worker
//! count: workers share the system behind a read lock without mutating it,
//! and the JSON layer round-trips every finite `f64` exactly (shortest
//! round-trip printing, correctly rounded parsing).

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;

pub use client::{Client, ClientError, QueryOptions, QueryReply};
pub use protocol::{
    ErrorKind, ParseError, Request, Response, MAX_FRAME_BYTES, MAX_WIRE_K, PROTOCOL_VERSION,
};
pub use queue::{BoundedQueue, PushError};
pub use server::{Server, ServerConfig};
pub use service::{QbhService, ServiceError, ServiceMatch, ServiceOutcome};
