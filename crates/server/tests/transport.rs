//! Transport-level tests against a mock service whose queries — and, when
//! asked, maintenance builds — block on a gate channel, making overload,
//! drain, queue-wait deadlines and "what runs while a build is in flight"
//! deterministic instead of timing-dependent.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hum_core::engine::{EngineError, EngineStats, QueryBudget, QueryScratch, RequestKind};
use hum_core::obs::{Metric, MetricsSink};
use hum_server::{
    Client, ClientError, QbhService, QueryOptions, Server, ServerConfig, ServiceError,
    ServiceOutcome,
};

/// Every query announces itself on `started`, then blocks until the test
/// sends one `()` down the gate; insert and remove are bookkeeping-only.
struct GateService {
    gate: Mutex<mpsc::Receiver<()>>,
    started: mpsc::Sender<()>,
    len: usize,
    /// When set, every insert leaves a maintenance job due whose build
    /// parks on this gate.
    build_gate: Option<BuildGate>,
    job_due: bool,
    commits: usize,
}

/// The maintenance plan of a [`GateService`]: `build` announces itself on
/// `started`, then parks until the test sends its outcome down `release`
/// (`true` to succeed, `false` to fail as a broken disk would).
#[derive(Clone)]
struct BuildGate {
    started: mpsc::Sender<()>,
    release: Arc<Mutex<mpsc::Receiver<bool>>>,
}

/// How much a [`GateService`] commit adds to `len`, so a ping observes it.
const COMMIT_MARK: usize = 100;

impl GateService {
    fn new() -> (GateService, mpsc::Sender<()>, mpsc::Receiver<()>) {
        let (gate_tx, gate_rx) = mpsc::channel();
        let (started_tx, started_rx) = mpsc::channel();
        let service = GateService {
            gate: Mutex::new(gate_rx),
            started: started_tx,
            len: 3,
            build_gate: None,
            job_due: false,
            commits: 0,
        };
        (service, gate_tx, started_rx)
    }
}

/// A server over a [`GateService`] with gated maintenance builds, woken by
/// notification only. Returns the query gate, then the build's `started`
/// receiver and `release` sender.
fn start_with_gated_builds(
) -> (Server<GateService>, mpsc::Sender<()>, mpsc::Receiver<()>, mpsc::Sender<bool>) {
    let (mut service, gate, _query_started) = GateService::new();
    let (started_tx, build_started) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    service.build_gate =
        Some(BuildGate { started: started_tx, release: Arc::new(Mutex::new(release_rx)) });
    let config = ServerConfig {
        workers: 2,
        maintenance_interval: None,
        metrics: MetricsSink::enabled(),
        ..ServerConfig::default()
    };
    let server = Server::start(service, "127.0.0.1:0", config).expect("bind ephemeral port");
    (server, gate, build_started, release)
}

impl QbhService for GateService {
    type Plan = BuildGate;
    type Built = ();

    fn query(
        &self,
        _kind: RequestKind,
        pitch_series: &[f64],
        _band: Option<usize>,
        _budget: QueryBudget,
        _trace: bool,
        _scratch: &mut QueryScratch,
    ) -> Result<ServiceOutcome, EngineError> {
        if pitch_series.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        let _ = self.started.send(());
        let gate = self.gate.lock().unwrap();
        gate.recv_timeout(Duration::from_secs(10))
            .expect("test gate closed without releasing a blocked query");
        let stats = EngineStats { exact_computations: 1, ..EngineStats::default() };
        Ok(ServiceOutcome { matches: Vec::new(), stats, trace: None })
    }

    fn insert(
        &mut self,
        _id: u64,
        _song: usize,
        _phrase: usize,
        _pitch_series: &[f64],
    ) -> Result<(), ServiceError> {
        self.len += 1;
        self.job_due = self.build_gate.is_some();
        Ok(())
    }

    fn remove(&mut self, _id: u64) -> Result<bool, ServiceError> {
        self.len -= 1;
        Ok(true)
    }

    fn needs_maintenance(&self) -> bool {
        self.job_due
    }

    fn plan(&self) -> Result<Option<BuildGate>, ServiceError> {
        Ok(self.build_gate.clone().filter(|_| self.job_due))
    }

    fn build(plan: BuildGate) -> Result<(), ServiceError> {
        let _ = plan.started.send(());
        let release = plan.release.lock().unwrap();
        let succeed = release
            .recv_timeout(Duration::from_secs(10))
            .expect("test closed the build gate without releasing a parked build");
        succeed.then_some(()).ok_or_else(|| ServiceError::Storage("injected build fault".into()))
    }

    fn commit(&mut self, _built: ()) -> Result<Box<dyn Send>, ServiceError> {
        self.job_due = false;
        self.commits += 1;
        self.len += COMMIT_MARK;
        Ok(Box::new(()))
    }

    fn len(&self) -> usize {
        self.len
    }
}

fn start_gated(
    workers: usize,
    queue_depth: usize,
) -> (Server<GateService>, mpsc::Sender<()>, mpsc::Receiver<()>) {
    let (service, gate, started) = GateService::new();
    let config = ServerConfig {
        workers,
        queue_depth,
        metrics: MetricsSink::enabled(),
        ..ServerConfig::default()
    };
    let server = Server::start(service, "127.0.0.1:0", config).expect("bind ephemeral port");
    (server, gate, started)
}

fn accepted(server: &Server<GateService>) -> u64 {
    server
        .metrics()
        .registry()
        .expect("metrics enabled")
        .get(Metric::ServerRequestsAccepted)
}

/// Polls `done` every 5 ms for up to 2 s.
fn eventually(mut done: impl FnMut() -> bool) -> bool {
    (0..400).any(|_| {
        let now = done();
        if !now {
            std::thread::sleep(Duration::from_millis(5));
        }
        now
    })
}

fn wait_for_accepted(server: &Server<GateService>, n: u64) {
    assert!(
        eventually(|| accepted(server) >= n),
        "server never accepted {n} requests (got {})",
        accepted(server)
    );
}

fn spawn_query(
    addr: std::net::SocketAddr,
) -> std::thread::JoinHandle<Result<hum_server::QueryReply, ClientError>> {
    std::thread::spawn(move || {
        let mut client = Client::connect(addr)?;
        client.knn(&[60.0, 62.0, 64.0], 3, &QueryOptions::default())
    })
}

#[test]
fn queue_overflow_is_a_typed_overloaded_rejection() {
    let (server, gate, started) = start_gated(1, 1);
    let addr = server.local_addr();

    // First query: wait until the single worker has popped it (it blocks
    // on the gate), so the queue is empty when the second arrives. The
    // second then sits in the depth-1 queue, and the third submission
    // deterministically finds the queue full.
    let first = spawn_query(addr);
    started.recv_timeout(Duration::from_secs(10)).expect("first query running");
    let second = spawn_query(addr);
    wait_for_accepted(&server, 2);

    let mut client = Client::connect(addr).unwrap();
    match client.knn(&[60.0], 1, &QueryOptions::default()) {
        Err(ClientError::Overloaded(message)) => {
            assert!(message.contains("queue"), "unhelpful message: {message}")
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    gate.send(()).unwrap();
    gate.send(()).unwrap();
    assert!(first.join().unwrap().is_ok());
    assert!(second.join().unwrap().is_ok());

    let registry = server.metrics().registry().unwrap();
    assert_eq!(registry.get(Metric::ServerRequestsAccepted), 2);
    assert_eq!(registry.get(Metric::ServerRequestsRejectedOverload), 1);
    assert_eq!(registry.get(Metric::ServerQueueHighWater), 1);
    server.shutdown().expect("service handed back");
}

#[test]
fn graceful_shutdown_drains_every_admitted_request() {
    let (server, gate, _started) = start_gated(1, 8);
    let addr = server.local_addr();

    let clients: Vec<_> = (0..3).map(|_| spawn_query(addr)).collect();
    wait_for_accepted(&server, 3);

    // Release the gate only after shutdown has begun: if shutdown did not
    // drain, the blocked and queued queries would never be answered.
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        for _ in 0..3 {
            gate.send(()).unwrap();
        }
    });
    let service = server.shutdown().expect("service handed back after drain");
    releaser.join().unwrap();
    assert_eq!(service.len(), 3);

    for client in clients {
        let reply = client.join().unwrap().expect("admitted request answered during drain");
        assert_eq!(reply.stats.exact_computations, 1);
    }
    assert!(Client::connect(addr).is_err(), "listener must be gone after shutdown");
}

#[test]
fn deadline_spent_in_queue_is_a_typed_deadline_error() {
    let (server, gate, started) = start_gated(1, 4);
    let addr = server.local_addr();

    // Occupy the only worker, then submit a query whose 1ms deadline
    // expires while it waits in the queue: the worker must answer it with
    // a typed deadline error and all-zero counters, without running it.
    let blocker = spawn_query(addr);
    started.recv_timeout(Duration::from_secs(10)).expect("blocker running");

    let late = std::thread::spawn(move || {
        let mut client = Client::connect(addr)?;
        let options = QueryOptions { deadline_ms: Some(1), ..QueryOptions::default() };
        client.knn(&[60.0, 62.0], 2, &options)
    });
    wait_for_accepted(&server, 2);
    std::thread::sleep(Duration::from_millis(30));

    gate.send(()).unwrap();
    assert!(blocker.join().unwrap().is_ok());
    match late.join().unwrap() {
        Err(ClientError::DeadlineExceeded { stats, .. }) => {
            assert_eq!(stats, Some(EngineStats::default()), "no work was done");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    let registry = server.metrics().registry().unwrap();
    assert_eq!(registry.get(Metric::ServerDeadlineExceeded), 1);
    server.shutdown().expect("service handed back");
}

#[test]
fn shutdown_request_over_the_wire_wakes_the_waiter() {
    let (service, _gate, _started) = GateService::new();
    let config = ServerConfig { allow_remote_shutdown: true, ..ServerConfig::default() };
    let server = Server::start(service, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.ping().unwrap(), 3);
    client.shutdown().unwrap();
    // Returns promptly only if the wire request flipped the signal.
    server.wait_shutdown_requested();
    server.shutdown().expect("service handed back");
}

/// A zero maintenance period would re-check without ever sleeping, so it
/// is refused before anything binds or spawns.
#[test]
fn a_zero_maintenance_interval_is_refused() {
    let (service, _gate, _started) = GateService::new();
    let config =
        ServerConfig { maintenance_interval: Some(Duration::ZERO), ..ServerConfig::default() };
    match Server::start(service, "127.0.0.1:0", config) {
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
            assert!(e.to_string().contains("maintenance_interval"), "{e}");
        }
        Ok(_) => panic!("a zero maintenance interval was accepted"),
    }
}

/// Zero workers would admit requests nobody answers, and a zero-depth
/// queue would reject every one: both are refused, not raised to 1.
#[test]
fn zero_workers_or_queue_depth_is_refused() {
    for (workers, queue_depth, field) in [(0, 64, "workers"), (4, 0, "queue_depth")] {
        let (service, _gate, _started) = GateService::new();
        let config = ServerConfig { workers, queue_depth, ..ServerConfig::default() };
        let e = Server::start(service, "127.0.0.1:0", config).err().expect("refused");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
        assert!(e.to_string().contains(field), "{e}");
    }
}

#[test]
fn wire_shutdown_is_rejected_unless_enabled() {
    let (service, _gate, _started) = GateService::new();
    let server =
        Server::start(service, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let err = client.shutdown().unwrap_err();
    match err {
        ClientError::BadRequest(message) => {
            assert!(message.contains("disabled"), "unexpected message: {message}");
        }
        other => panic!("expected typed bad_request, got {other:?}"),
    }
    // The server must keep serving after the rejected shutdown attempt.
    assert_eq!(client.ping().unwrap(), 3);
    server.shutdown().expect("service handed back");
}

#[test]
fn mutations_and_bad_requests_round_trip() {
    let (service, _gate, _started) = GateService::new();
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let server = Server::start(service, "127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert_eq!(client.insert(9, 1, 0, &[60.0, 61.0]).unwrap(), 4);
    assert_eq!(client.remove(9).unwrap(), (true, 3));

    // An engine-level rejection (empty query) is a bad_request, and the
    // connection survives it.
    match client.knn(&[], 2, &QueryOptions::default()) {
        Err(ClientError::BadRequest(message)) => {
            assert!(message.contains("at least one sample"), "{message}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert_eq!(client.ping().unwrap(), 3);
    server.shutdown().expect("service handed back");
}

#[test]
fn pings_on_a_kept_connection_do_not_wait_out_a_delayed_ack() {
    // A reply written as header-then-payload on a socket with Nagle's
    // algorithm on leaves its second segment waiting for the client's
    // delayed ACK: every round trip after the first then costs the timer
    // (≈ 40 ms on Linux) instead of the work.
    let (server, _gate, _started) = start_gated(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let sent = std::time::Instant::now();
            assert_eq!(client.ping().unwrap(), 3);
            sent.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(10), "median ping round trip {median:?}");
    server.shutdown();
}

/// The deterministic form of "no segment write, index build or segment
/// fsync under the service lock": while a maintenance build is parked, a
/// ping, an insert and a query on fresh connections are all answered.
#[test]
fn requests_are_answered_while_a_maintenance_build_is_parked() {
    let (server, gate, build_started, release) = start_with_gated_builds();
    let addr = server.local_addr();

    // The insert leaves a job due and wakes the maintenance thread, which
    // plans it and parks in `build` — no timer is configured.
    assert_eq!(Client::connect(addr).unwrap().insert(1, 0, 0, &[60.0]).unwrap(), 4);
    build_started.recv_timeout(Duration::from_secs(10)).expect("the woken thread reached build");

    assert_eq!(Client::connect(addr).unwrap().ping().unwrap(), 4);
    assert_eq!(Client::connect(addr).unwrap().insert(2, 0, 0, &[61.0]).unwrap(), 5);
    gate.send(()).unwrap();
    let reply = spawn_query(addr).join().unwrap().expect("query answered during the build");
    assert_eq!(reply.stats.exact_computations, 1);
    assert_eq!(Client::connect(addr).unwrap().ping().unwrap(), 5, "nothing committed yet");

    release.send(true).unwrap();
    let mut client = Client::connect(addr).unwrap();
    assert!(
        eventually(|| client.ping().unwrap() == 5 + COMMIT_MARK as u64),
        "the released build was never committed"
    );
    let service = server.shutdown().expect("service handed back");
    assert_eq!(service.commits, 1);
}

#[test]
fn a_failed_build_is_counted_and_the_pre_job_view_keeps_serving() {
    let (server, _gate, build_started, release) = start_with_gated_builds();
    let addr = server.local_addr();
    let errors = || server.metrics().registry().unwrap().get(Metric::ServerMaintenanceErrors);
    let mut client = Client::connect(addr).unwrap();

    assert_eq!(client.insert(1, 0, 0, &[60.0]).unwrap(), 4);
    build_started.recv_timeout(Duration::from_secs(10)).expect("build parked");
    release.send(false).unwrap();
    assert!(eventually(|| errors() == 1), "the failed build was never counted");
    assert_eq!(client.ping().unwrap(), 4, "nothing was committed");

    // The job is still due; the next mutation's wake-up plans it afresh.
    assert_eq!(client.insert(2, 0, 0, &[61.0]).unwrap(), 5);
    build_started.recv_timeout(Duration::from_secs(10)).expect("the job was planned again");
    release.send(true).unwrap();
    let service = server.shutdown().expect("service handed back");
    assert_eq!((service.commits, service.len()), (1, 5 + COMMIT_MARK));
}

#[test]
fn shutdown_waits_for_a_parked_build_and_hands_the_service_back() {
    let (server, _gate, build_started, release) = start_with_gated_builds();
    let addr = server.local_addr();
    assert_eq!(Client::connect(addr).unwrap().insert(1, 0, 0, &[60.0]).unwrap(), 4);
    build_started.recv_timeout(Duration::from_secs(10)).expect("build parked");

    let (done_tx, done) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let _ = done_tx.send(server.shutdown());
    });
    assert!(
        done.recv_timeout(Duration::from_millis(100)).is_err(),
        "shutdown returned while a build was still parked"
    );
    release.send(true).unwrap();
    let service = done
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown finished once the build was released")
        .expect("service handed back");
    stopper.join().unwrap();
    assert_eq!(service.commits, 1, "the in-flight job was committed, not abandoned");
    assert_eq!(service.len(), 4 + COMMIT_MARK);
}

#[test]
fn finished_connections_are_reaped_and_live_ones_joined_at_shutdown() {
    let (server, _gate, _started) = start_gated(1, 4);
    let addr = server.local_addr();
    let mut kept = Client::connect(addr).unwrap();
    assert_eq!(kept.ping().unwrap(), 3);

    for _ in 0..300 {
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.ping().unwrap(), 3);
    }
    // Each accept reaps the handles of connections that have ended; only
    // the kept connection and the last few closers can still be tracked.
    let tracked = server.tracked_connections();
    assert!(tracked <= 32, "{tracked} connection handles tracked after 300 closed connections");

    // The service comes back only once every connection thread has dropped
    // its reference, so `Some` means the kept connection was joined.
    assert!(server.shutdown().is_some(), "a live connection was not joined");
    assert!(kept.ping().is_err(), "the kept connection outlived the server");
}
