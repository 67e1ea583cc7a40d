//! Transport-level tests against a mock service whose queries block on a
//! gate channel, making overload, drain, and queue-wait deadlines
//! deterministic instead of timing-dependent.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use hum_core::engine::{EngineError, EngineStats, QueryBudget, QueryScratch};
use hum_core::obs::{Metric, MetricsSink};
use hum_server::{
    Client, ClientError, QbhService, QueryOptions, Server, ServerConfig, ServiceError,
    ServiceOutcome, ServiceQuery,
};

/// Every query announces itself on `started`, then blocks until the test
/// sends one `()` down the gate; insert and remove are bookkeeping-only.
struct GateService {
    gate: Mutex<mpsc::Receiver<()>>,
    started: mpsc::Sender<()>,
    len: usize,
}

impl GateService {
    fn new() -> (GateService, mpsc::Sender<()>, mpsc::Receiver<()>) {
        let (gate_tx, gate_rx) = mpsc::channel();
        let (started_tx, started_rx) = mpsc::channel();
        let service =
            GateService { gate: Mutex::new(gate_rx), started: started_tx, len: 3 };
        (service, gate_tx, started_rx)
    }
}

impl QbhService for GateService {
    fn query(
        &self,
        _query: &ServiceQuery,
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
        Ok(())
    }

    fn remove(&mut self, _id: u64) -> Result<bool, ServiceError> {
        self.len -= 1;
        Ok(true)
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

fn wait_for_accepted(server: &Server<GateService>, n: u64) {
    for _ in 0..400 {
        if accepted(server) >= n {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("server never accepted {n} requests (got {})", accepted(server));
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
