//! The threaded TCP server: listener, connection handlers, worker pool.
//!
//! # Threading model
//!
//! ```text
//! listener thread ──accept (blocking)──► connection thread (one per client)
//!                                  │  read frame, parse, admit
//!                                  ▼
//!                         BoundedQueue<Job>  ── try_push, reject when full
//!                                  │
//!                                  ▼
//!                     worker pool (fixed, owns QueryScratch each)
//!                                  │  execute against RwLock<service>
//!                                  ▼
//!                         mpsc reply ──► connection thread writes frame
//!
//! maintenance thread ──plan (read lock)──► build (no lock)──► commit (write lock)
//! ```
//!
//! The listener blocks in `accept`, so a new connection is picked up when
//! it arrives, not at the next poll. Each connection handles one request at
//! a time (the protocol is strictly request/response), so per-request state
//! never outlives its frame.
//!
//! # Who holds the service lock, and for how long
//!
//! * A **query** holds the read lock while the engine runs it (a few
//!   milliseconds); queries run concurrently across workers.
//! * An **insert or removal** holds the write lock for one in-memory index
//!   update (a removal of a stored melody also rewrites the small manifest).
//!   A mutation never flushes: one that leaves
//!   [`QbhService::needs_maintenance`] true wakes the maintenance thread.
//! * The **maintenance thread** runs one job at a time in three phases
//!   (see [`QbhService`]): `plan` copies the job's input out under the read
//!   lock, `build` writes and fsyncs the new segment with *no* lock held,
//!   and `commit` takes the write lock only to commit the manifest and its
//!   bookkeeping — time proportional to what changed since the plan. A query
//!   racing a commit therefore waits for at most that swap, and sees either
//!   the view before the job or the view after it, both holding exactly the
//!   melodies inserted and not removed so far. An idle service is only ever
//!   read-locked.
//!
//! # Deadlines
//!
//! A request's `deadline_ms` (or the server default) becomes a
//! [`QueryBudget`] stamped at *admission* — queue wait counts against the
//! deadline, which is the honest accounting under overload. Workers check
//! the budget before starting; the engine checks it between candidates.
//! Either way the client gets a typed `deadline_exceeded` response carrying
//! the partial work counters.
//!
//! # Graceful shutdown
//!
//! Triggered by [`Server::shutdown`] or — when
//! [`ServerConfig::allow_remote_shutdown`] is enabled — a wire `shutdown`
//! request (disabled by default: the protocol is unauthenticated). The
//! sequence:
//! stop admitting (new work answered `shutting_down`), let the maintenance
//! job in flight finish (a parked one keeps shutdown waiting; a sleeping
//! thread exits at once), wake the listener out of `accept` with one
//! loopback connection and close it, close the queue (workers drain every
//! admitted job — each one still gets its reply), join workers, join
//! connection threads, hand the service back. No accepted request is ever
//! dropped without a response.

use std::io::{self, Write};
use std::net::{
    Ipv4Addr, Ipv6Addr, Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream,
    ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hum_core::engine::{EngineError, EngineStats, QueryBudget, QueryScratch, RequestKind};
use hum_core::obs::{Metric, MetricsSink, Timer};
use serde::Serialize;
use serde_json::Value;

use crate::protocol::{
    self, error_response, ok_response, ErrorKind, FrameRead, Request, MAX_FRAME_BYTES,
};
use crate::queue::{BoundedQueue, PushError};
use crate::service::{QbhService, ServiceError};

/// How often an idle connection's read wakes to check the shutdown flag
/// (so it bounds how long shutdown waits for a kept connection), and the
/// back-off after a failed `accept`. It does not delay new connections: the
/// listener blocks in `accept` and is woken for shutdown by a loopback
/// connection.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How many consecutive read timeouts a connection tolerates *mid-frame*
/// before declaring the frame truncated (a stalled sender cannot pin its
/// connection thread past `POLL_INTERVAL * MID_FRAME_POLL_BUDGET`).
const MID_FRAME_POLL_BUDGET: usize = 200;

/// How long [`Shared::request_shutdown`] waits for its loopback connection
/// to the listener; only a full accept backlog makes a loopback connect wait
/// at all.
const LISTENER_WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// Admission queue capacity; pushes beyond it are rejected with a
    /// typed `overloaded` response.
    pub queue_depth: usize,
    /// Deadline applied to queries that do not carry their own
    /// `deadline_ms` (`None` = unlimited).
    pub default_deadline: Option<Duration>,
    /// Where server and engine counters go. Share one enabled sink between
    /// this config and the served system to get a unified registry.
    pub metrics: MetricsSink,
    /// Whether the wire `shutdown` op is honored. Off by default: the
    /// protocol is unauthenticated, so any client that can connect could
    /// otherwise kill the server with one frame. When disabled, `shutdown`
    /// requests are answered with a typed `bad_request`; in-process
    /// shutdown ([`Server::shutdown`]) always works.
    pub allow_remote_shutdown: bool,
    /// The maintenance thread's idle re-check period. The thread always
    /// runs: a mutation that leaves [`QbhService::needs_maintenance`] true
    /// wakes it at once, so flush latency is not bounded by this timer —
    /// the timer only picks up work nothing announced (a store opened with
    /// a compaction already due). `None` (the default) wakes on
    /// notification and shutdown only. In-memory services plan nothing, so
    /// for them the thread sleeps either way.
    pub maintenance_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            default_deadline: None,
            metrics: MetricsSink::Disabled,
            allow_remote_shutdown: false,
            maintenance_interval: None,
        }
    }
}

/// Work admitted to the queue.
enum JobOp {
    Query { kind: RequestKind, pitch: Vec<f64>, band: Option<usize>, trace: bool },
    Insert { id: u64, song: usize, phrase: usize, pitch: Vec<f64> },
    Remove { id: u64 },
}

struct Job {
    op: JobOp,
    budget: QueryBudget,
    /// Queue-wait timer start ([`None`] when metrics are disabled).
    enqueued: Option<Instant>,
    reply: mpsc::Sender<Value>,
}

/// What the threads sleeping on [`Shared::wake_signal`] wait for.
#[derive(Default)]
struct Wake {
    /// Shutdown was requested (never cleared).
    shutdown: bool,
    /// A mutation left the service wanting maintenance; cleared by the
    /// maintenance thread when it starts a cycle. Held under the mutex so a
    /// notification between that thread's last plan and its next wait is
    /// not lost.
    maintenance_due: bool,
}

struct Shared<S> {
    service: RwLock<S>,
    queue: BoundedQueue<Job>,
    shutting_down: AtomicBool,
    wake: Mutex<Wake>,
    wake_signal: Condvar,
    /// Where a loopback connection reaches the listener (see
    /// [`Shared::request_shutdown`]).
    wake_addr: SocketAddr,
    metrics: MetricsSink,
    default_deadline: Option<Duration>,
    allow_remote_shutdown: bool,
}

impl<S> Shared<S> {
    fn request_shutdown(&self) {
        let first = !self.shutting_down.swap(true, Ordering::SeqCst);
        self.wake().shutdown = true;
        self.wake_signal.notify_all();
        if first {
            // The listener blocks in `accept`; one connection makes it
            // return and re-check the flag. A failed connect means no
            // listener is accepting any more, which is the goal.
            let _ = TcpStream::connect_timeout(&self.wake_addr, LISTENER_WAKE_TIMEOUT);
        }
    }

    /// Tells the maintenance thread a job is due.
    fn request_maintenance(&self) {
        self.wake().maintenance_due = true;
        self.wake_signal.notify_all();
    }

    fn wake(&self) -> std::sync::MutexGuard<'_, Wake> {
        match self.wake.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn read_service(&self) -> std::sync::RwLockReadGuard<'_, S> {
        match self.service.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_service(&self) -> std::sync::RwLockWriteGuard<'_, S> {
        match self.service.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A running server; dropping it without calling [`Server::shutdown`]
/// leaves the background threads detached (the process can still exit).
pub struct Server<S: QbhService> {
    shared: Arc<Shared<S>>,
    local_addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    maintenance: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<S: QbhService> Server<S> {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// listener and worker pool.
    ///
    /// # Errors
    /// Any socket error from bind/configure.
    pub fn start<A: ToSocketAddrs>(
        service: S,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Server<S>> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // An unspecified bind address (0.0.0.0, ::) is reached over loopback.
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }

        let shared = Arc::new(Shared {
            service: RwLock::new(service),
            queue: BoundedQueue::new(config.queue_depth),
            shutting_down: AtomicBool::new(false),
            wake: Mutex::new(Wake::default()),
            wake_signal: Condvar::new(),
            wake_addr,
            metrics: config.metrics,
            default_deadline: config.default_deadline,
            allow_remote_shutdown: config.allow_remote_shutdown,
        });

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let maintenance = {
            let shared = Arc::clone(&shared);
            let interval = config.maintenance_interval;
            std::thread::spawn(move || maintenance_loop(&shared, interval))
        };

        let conns = Arc::new(Mutex::new(Vec::new()));
        let listener_handle = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || listener_loop(&listener, &shared, &conns))
        };

        Ok(Server {
            shared,
            local_addr,
            listener: Some(listener_handle),
            workers,
            maintenance: Some(maintenance),
            conns,
        })
    }

    /// The bound address (reports the real port after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's metrics sink.
    pub fn metrics(&self) -> &MetricsSink {
        &self.shared.metrics
    }

    /// Blocks until shutdown is requested — by [`Server::shutdown`] or by
    /// a client's `shutdown` request. The CLI parks its main thread here.
    pub fn wait_shutdown_requested(&self) {
        let mut wake = self.shared.wake();
        while !wake.shutdown {
            wake = match self.shared.wake_signal.wait(wake) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Connection threads the server is tracking: every live connection,
    /// plus finished ones the listener has not reaped yet (it reaps each
    /// time it accepts).
    pub fn tracked_connections(&self) -> usize {
        lock_conns(&self.conns).len()
    }

    /// Graceful shutdown: stop admitting, drain every admitted job (each
    /// still gets its reply), join all threads, and hand the service back.
    ///
    /// Returns `None` only if a background thread leaked its `Shared`
    /// reference, which would be a server bug.
    pub fn shutdown(mut self) -> Option<S> {
        self.shared.request_shutdown();
        if let Some(maintenance) = self.maintenance.take() {
            // A sleeping thread wakes via the condvar and exits; a cycle in
            // flight runs to its end first, so no build is abandoned half
            // written and no flush is left uncompacted.
            let _ = maintenance.join();
        }
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        // Listener is gone: no new connections, and existing connections
        // answer `shutting_down` to new work. Close the queue so workers
        // drain what was admitted and exit.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let handles: Vec<JoinHandle<()>> = lock_conns(&self.conns).drain(..).collect();
        for conn in handles {
            let _ = conn.join();
        }
        let shared = Arc::try_unwrap(self.shared).ok()?;
        Some(match shared.service.into_inner() {
            Ok(service) => service,
            Err(poisoned) => poisoned.into_inner(),
        })
    }
}

fn lock_conns(
    conns: &Mutex<Vec<JoinHandle<()>>>,
) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
    match conns.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn listener_loop<S: QbhService>(
    listener: &TcpListener,
    shared: &Arc<Shared<S>>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        // Checked after every accept: the connection that woke a blocked
        // `accept` for shutdown (or raced it) is dropped unanswered.
        if shared.is_shutting_down() {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                shared.metrics.add(Metric::ServerConnections, 1);
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || connection_loop(stream, &shared));
                let mut conns = lock_conns(conns);
                // Reap what has finished, so a server that sees a
                // connection per request tracks the live ones only.
                let mut at = 0;
                while at < conns.len() {
                    if conns[at].is_finished() {
                        let _ = conns.swap_remove(at).join();
                    } else {
                        at += 1;
                    }
                }
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Accept failures are transient (e.g. fd pressure); back off
                // rather than spin, and keep serving existing connections.
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

fn connection_loop<S: QbhService>(mut stream: TcpStream, shared: &Arc<Shared<S>>) {
    // Blocking reads with a timeout double as the shutdown poll point.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // Replies are whole frames written at once; holding one back for the
    // peer's ACK (Nagle) only adds a delayed-ACK timer to every round trip
    // on a kept connection. A socket that refuses the option still serves,
    // just slower.
    let _ = stream.set_nodelay(true);
    loop {
        match protocol::read_frame(&mut stream, MAX_FRAME_BYTES, MID_FRAME_POLL_BUDGET) {
            Ok(FrameRead::Frame(payload)) => {
                shared.metrics.add(Metric::ServerBytesIn, payload.len() as u64 + 4);
                let response = handle_frame(shared, &payload);
                if write_response(&mut stream, shared, &response).is_err() {
                    return;
                }
            }
            Ok(FrameRead::Idle) => {
                if shared.is_shutting_down() {
                    let _ = stream.shutdown(SocketShutdown::Both);
                    return;
                }
            }
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Truncated) => {
                shared.metrics.add(Metric::ServerProtocolErrors, 1);
                let response =
                    error_response(ErrorKind::Protocol, "truncated frame", None);
                let _ = write_response(&mut stream, shared, &response);
                return;
            }
            Ok(FrameRead::Oversized(len)) => {
                shared.metrics.add(Metric::ServerProtocolErrors, 1);
                let message = format!("frame length {len} exceeds maximum {MAX_FRAME_BYTES}");
                let response = error_response(ErrorKind::Protocol, &message, None);
                let _ = write_response(&mut stream, shared, &response);
                return;
            }
            Err(_) => return,
        }
    }
}

fn write_response<S: QbhService>(
    stream: &mut TcpStream,
    shared: &Shared<S>,
    response: &Value,
) -> io::Result<()> {
    let payload = serde_json::to_string(response).map_err(io::Error::other)?;
    let written = protocol::write_frame(stream, payload.as_bytes(), MAX_FRAME_BYTES)?;
    stream.flush()?;
    shared.metrics.add(Metric::ServerBytesOut, written);
    Ok(())
}

/// Decodes and answers one frame. Never panics: every failure mode maps to
/// a typed error response.
fn handle_frame<S: QbhService>(shared: &Arc<Shared<S>>, payload: &[u8]) -> Value {
    let text = match std::str::from_utf8(payload) {
        Ok(text) => text,
        Err(_) => {
            shared.metrics.add(Metric::ServerProtocolErrors, 1);
            return error_response(ErrorKind::Protocol, "payload is not UTF-8", None);
        }
    };
    let value = match serde_json::from_str(text) {
        Ok(value) => value,
        Err(e) => {
            shared.metrics.add(Metric::ServerProtocolErrors, 1);
            return error_response(ErrorKind::Protocol, &format!("invalid JSON: {e}"), None);
        }
    };
    let request = match protocol::parse_request(&value) {
        Ok(request) => request,
        Err(e) => {
            shared.metrics.add(Metric::ServerProtocolErrors, 1);
            return error_response(e.kind, &e.message, None);
        }
    };

    let (op, deadline_ms) = match request {
        Request::Ping => {
            let len = shared.read_service().len();
            return ok_response(vec![("len", Value::Number(len as f64))]);
        }
        Request::Stats => {
            let metrics = match shared.metrics.registry() {
                Some(registry) => registry.snapshot().to_value(),
                None => Value::Null,
            };
            return ok_response(vec![("metrics", metrics)]);
        }
        Request::Shutdown => {
            // Gated: the protocol is unauthenticated, so remote shutdown is
            // opt-in (`ServerConfig::allow_remote_shutdown`); otherwise any
            // client that can connect could kill the server with one frame.
            if !shared.allow_remote_shutdown {
                shared.metrics.add(Metric::ServerProtocolErrors, 1);
                return error_response(
                    ErrorKind::BadRequest,
                    "remote shutdown is disabled on this server",
                    None,
                );
            }
            shared.request_shutdown();
            return ok_response(vec![]);
        }
        Request::Knn { pitch, k, band, deadline_ms, trace } => (
            JobOp::Query { kind: RequestKind::Knn { k }, pitch, band, trace },
            deadline_ms,
        ),
        Request::Range { pitch, radius, band, deadline_ms, trace } => (
            JobOp::Query { kind: RequestKind::Range { radius }, pitch, band, trace },
            deadline_ms,
        ),
        Request::Insert { id, song, phrase, pitch } => {
            (JobOp::Insert { id, song, phrase, pitch }, None)
        }
        Request::Remove { id } => (JobOp::Remove { id }, None),
    };

    if shared.is_shutting_down() {
        return error_response(
            ErrorKind::ShuttingDown,
            "server is shutting down; no new work accepted",
            None,
        );
    }

    // The deadline clock starts at admission: queue wait spends budget.
    let timeout = match op {
        JobOp::Query { .. } => {
            deadline_ms.map(Duration::from_millis).or(shared.default_deadline)
        }
        // Mutations are never abandoned half-applied.
        _ => None,
    };
    let budget = timeout.map_or(QueryBudget::unlimited(), QueryBudget::within);

    let started = shared.metrics.start_timer();
    let (reply, inbox) = mpsc::channel();
    let job = Job { op, budget, enqueued: started, reply };
    match shared.queue.try_push(job) {
        Ok(depth) => {
            shared.metrics.add(Metric::ServerRequestsAccepted, 1);
            shared.metrics.record_max(Metric::ServerQueueHighWater, depth as u64);
            match inbox.recv() {
                Ok(response) => {
                    shared.metrics.observe_since(Timer::ServerRequest, started);
                    response
                }
                // Unreachable by construction (workers always reply), but a
                // dead worker must not strand the client without an answer.
                Err(_) => error_response(
                    ErrorKind::Internal,
                    "worker dropped the request without replying",
                    None,
                ),
            }
        }
        Err(PushError::Full(_)) => {
            shared.metrics.add(Metric::ServerRequestsRejectedOverload, 1);
            error_response(
                ErrorKind::Overloaded,
                "admission queue is full; retry later",
                None,
            )
        }
        Err(PushError::Closed(_)) => error_response(
            ErrorKind::ShuttingDown,
            "server is shutting down; no new work accepted",
            None,
        ),
    }
}

/// The maintenance thread: sleeps on the wake condvar until a mutation
/// announces a due job, the idle re-check period passes, or shutdown is
/// requested (which ends it), then runs one maintenance cycle.
fn maintenance_loop<S: QbhService>(shared: &Arc<Shared<S>>, interval: Option<Duration>) {
    let mut wake = shared.wake();
    loop {
        if wake.shutdown {
            return;
        }
        if !wake.maintenance_due {
            wake = match interval {
                Some(interval) => match shared.wake_signal.wait_timeout(wake, interval) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                },
                None => match shared.wake_signal.wait(wake) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                },
            };
            if wake.shutdown {
                return;
            }
        }
        wake.maintenance_due = false;
        // Never hold the wake lock across a cycle: request_shutdown and
        // every notifying mutation take it.
        drop(wake);
        shared.metrics.add(Metric::ServerMaintenanceTicks, 1);
        if run_maintenance(shared).is_err() {
            shared.metrics.add(Metric::ServerMaintenanceErrors, 1);
        }
        wake = shared.wake();
    }
}

/// One maintenance cycle: plan → build → commit, one job after another,
/// until the service plans nothing more (a flush is typically followed by
/// the compaction it made due). The service lock is held to plan (read) and
/// to commit (write), never while a job builds. A failed job ends the cycle
/// with the pre-job view live — a broken disk must not take queries down
/// with it — and the next wake-up plans afresh.
fn run_maintenance<S: QbhService>(shared: &Shared<S>) -> Result<(), ServiceError> {
    loop {
        let plan = shared.read_service().plan()?;
        let Some(plan) = plan else {
            return Ok(());
        };
        let started = shared.metrics.start_timer();
        let built = S::build(plan);
        shared.metrics.observe_since(Timer::MaintenanceBuild, started);
        let built = built?;
        let retired = {
            let mut service = shared.write_service();
            let started = shared.metrics.start_timer();
            let retired = service.commit(built);
            shared.metrics.observe_since(Timer::MaintenanceCommit, started);
            retired
        };
        // Lock released: dropping what the commit replaced (old indexes,
        // superseded files) costs no request anything.
        drop(retired?);
    }
}

fn worker_loop<S: QbhService>(shared: &Arc<Shared<S>>) {
    let mut scratch = QueryScratch::new();
    while let Some(job) = shared.queue.pop() {
        shared.metrics.observe_since(Timer::ServerQueueWait, job.enqueued);
        let response = execute(shared, job.op, job.budget, &mut scratch);
        // A client that hung up mid-request is the only way this send
        // fails; the work is already done either way.
        let _ = job.reply.send(response);
    }
}

fn execute<S: QbhService>(
    shared: &Shared<S>,
    op: JobOp,
    budget: QueryBudget,
    scratch: &mut QueryScratch,
) -> Value {
    match op {
        JobOp::Query { kind, pitch, band, trace } => {
            run_query(shared, kind, &pitch, band, trace, budget, scratch)
        }
        JobOp::Insert { id, song, phrase, pitch } => {
            let (result, len) =
                mutate(shared, |service| service.insert(id, song, phrase, &pitch));
            match result {
                Ok(()) => ok_response(vec![("len", Value::Number(len as f64))]),
                Err(e) => service_error_response(&e),
            }
        }
        JobOp::Remove { id } => {
            let (result, len) = mutate(shared, |service| service.remove(id));
            match result {
                Ok(removed) => ok_response(vec![
                    ("removed", Value::Bool(removed)),
                    ("len", Value::Number(len as f64)),
                ]),
                Err(e) => service_error_response(&e),
            }
        }
    }
}

/// Applies one mutation under a single write-lock acquisition and reads
/// the resulting `len` under the same one (so it counts this mutation and
/// nobody else's later one); wakes the maintenance thread if the mutation
/// left a job due.
fn mutate<S: QbhService, T>(
    shared: &Shared<S>,
    apply: impl FnOnce(&mut S) -> Result<T, ServiceError>,
) -> (Result<T, ServiceError>, usize) {
    let waited = shared.metrics.start_timer();
    let mut service = shared.write_service();
    shared.metrics.observe_since(Timer::ServiceLockWait, waited);
    let result = apply(&mut service);
    let len = service.len();
    let due = service.needs_maintenance();
    drop(service);
    if due {
        shared.request_maintenance();
    }
    (result, len)
}

/// Maps a mutation failure to its wire response: an engine rejection is the
/// client's fault (`bad_request`), a storage failure is the server's
/// (`internal`) — the client sent a perfectly good melody.
fn service_error_response(e: &ServiceError) -> Value {
    match e {
        ServiceError::Engine(engine) => {
            error_response(ErrorKind::BadRequest, &engine.to_string(), None)
        }
        ServiceError::Storage(_) => error_response(ErrorKind::Internal, &e.to_string(), None),
    }
}

/// Runs one budgeted query against the service and shapes the response.
fn run_query<S: QbhService>(
    shared: &Shared<S>,
    kind: RequestKind,
    pitch: &[f64],
    band: Option<usize>,
    trace: bool,
    budget: QueryBudget,
    scratch: &mut QueryScratch,
) -> Value {
    if budget.expired() {
        // Spent its whole deadline in the queue: same typed answer
        // as a mid-run abort, with all-zero work counters.
        shared.metrics.add(Metric::ServerDeadlineExceeded, 1);
        return error_response(
            ErrorKind::DeadlineExceeded,
            "deadline expired before execution began",
            Some(&EngineStats::default()),
        );
    }
    let outcome = {
        let waited = shared.metrics.start_timer();
        let service = shared.read_service();
        shared.metrics.observe_since(Timer::ServiceLockWait, waited);
        service.query(kind, pitch, band, budget, trace, scratch)
    };
    match outcome {
        Ok(outcome) => {
            let matches = Value::Array(
                outcome.matches.iter().map(protocol::match_to_value).collect(),
            );
            let mut fields = vec![
                ("matches", matches),
                ("stats", protocol::stats_to_value(&outcome.stats)),
            ];
            if let Some(trace) = &outcome.trace {
                fields.push(("trace", trace.to_value()));
            }
            ok_response(fields)
        }
        Err(EngineError::DeadlineExceeded { stats }) => {
            shared.metrics.add(Metric::ServerDeadlineExceeded, 1);
            let message = EngineError::DeadlineExceeded { stats }.to_string();
            error_response(ErrorKind::DeadlineExceeded, &message, Some(&stats))
        }
        Err(e) => error_response(ErrorKind::BadRequest, &e.to_string(), None),
    }
}
