//! End-to-end serving tests: a real [`QbhSystem`] behind a TCP server on an
//! ephemeral port.
//!
//! The contract under test, per the serving design:
//! (a) served knn/range results are **bit-identical** to in-process
//!     queries at every worker count,
//! (b) a burst beyond the admission queue yields typed `Overloaded`
//!     rejections — every request gets a typed answer, none vanish,
//! (c) graceful shutdown drains in-flight requests, and the shared obs
//!     registry's totals equal the per-request stats summed client-side,
//! plus live mutation over the wire, deadline behavior, and typed
//! `unsupported` answers for ops and versions the server does not speak.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use hum_core::engine::QueryRequest;
use hum_core::obs::{Metric, MetricsSink};
use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::system::{QbhConfig, QbhMatch, QbhSystem};
use hum_server::{Client, ClientError, QueryOptions, Server, ServerConfig, ServiceMatch};

fn database() -> MelodyDatabase {
    MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 20,
        phrases_per_song: 8,
        ..SongbookConfig::default()
    })
}

fn hums(db: &MelodyDatabase, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let target = (i * 13) as u64 % db.len() as u64;
            let mut singer = HummingSimulator::new(SingerProfile::good(), 900 + i as u64);
            singer.sing_series(db.entry(target).unwrap().melody(), 0.01)
        })
        .collect()
}

fn assert_matches_bit_identical(wire: &[ServiceMatch], local: &[QbhMatch], context: &str) {
    assert_eq!(wire.len(), local.len(), "{context}: match counts differ");
    for (w, l) in wire.iter().zip(local) {
        assert_eq!((w.id, w.song, w.phrase), (l.id, l.song, l.phrase), "{context}");
        assert_eq!(
            w.distance.to_bits(),
            l.distance.to_bits(),
            "{context}: distance {} vs {} not bit-identical",
            w.distance,
            l.distance
        );
    }
}

#[test]
fn served_queries_are_bit_identical_to_in_process_at_1_and_8_workers() {
    let db = database();
    let system = QbhSystem::build(&db, &QbhConfig::default());
    // Query-as-you-hum is a client loop over growing prefixes, so an eighth
    // and a half of a hum are inputs like the whole one.
    let mut queries = hums(&db, 6);
    let prefixes: Vec<Vec<f64>> = queries[..2]
        .iter()
        .flat_map(|q| [q[..(q.len() / 8).max(1)].to_vec(), q[..q.len() / 2].to_vec()])
        .collect();
    queries.extend(prefixes);

    // In-process expectations, computed before the server takes ownership.
    // The server defaults omitted bands to the system's configured width,
    // so the local requests pin the same band.
    let band = system.band();
    let expected_knn: Vec<_> = queries
        .iter()
        .map(|q| {
            system.try_query_request(q, QueryRequest::knn(10).with_band(band)).unwrap().0
        })
        .collect();
    let radius = 6.0;
    let expected_range: Vec<_> = queries
        .iter()
        .map(|q| {
            system.try_query_request(q, QueryRequest::range(radius).with_band(band)).unwrap().0
        })
        .collect();

    let mut system = Some(system);
    for workers in [1usize, 8] {
        let config = ServerConfig { workers, ..ServerConfig::default() };
        let server = Server::start(system.take().unwrap(), "127.0.0.1:0", config)
            .expect("bind ephemeral port");
        let mut client = Client::connect(server.local_addr()).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let knn = client.knn(q, 10, &QueryOptions::default()).unwrap();
            assert_matches_bit_identical(
                &knn.matches,
                &expected_knn[i].matches,
                &format!("knn #{i} at {workers} workers"),
            );
            assert_eq!(knn.stats, expected_knn[i].stats, "knn #{i} stats");

            let range = client.range(q, radius, &QueryOptions::default()).unwrap();
            assert_matches_bit_identical(
                &range.matches,
                &expected_range[i].matches,
                &format!("range #{i} at {workers} workers"),
            );
            assert_eq!(range.stats, expected_range[i].stats, "range #{i} stats");
        }
        system = Some(server.shutdown().expect("system handed back"));
    }
}

#[test]
fn burst_beyond_queue_capacity_yields_typed_overload_never_silence() {
    let db = database();
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let query = Arc::new(hums(&db, 1).remove(0));

    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        metrics: MetricsSink::enabled(),
        ..ServerConfig::default()
    };
    let server = Server::start(system, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // Fire synchronized bursts until the depth-1 queue overflows at least
    // once (with 24 simultaneous clients against one worker this is
    // near-certain on the first round). Every request must come back as a
    // typed response either way — a hang here fails the test by timeout.
    let mut overloaded = 0usize;
    let mut succeeded = 0usize;
    for _round in 0..10 {
        let clients = 24;
        let barrier = Arc::new(Barrier::new(clients));
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let query = Arc::clone(&query);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr)?;
                    barrier.wait();
                    client.knn(&query, 5, &QueryOptions::default()).map(|_| ())
                })
            })
            .collect();
        for thread in threads {
            match thread.join().unwrap() {
                Ok(()) => succeeded += 1,
                Err(ClientError::Overloaded(_)) => overloaded += 1,
                Err(other) => panic!("only Ok or Overloaded is acceptable, got {other:?}"),
            }
        }
        if overloaded > 0 {
            break;
        }
    }
    assert!(overloaded > 0, "burst never overflowed the depth-1 queue");
    assert!(succeeded > 0, "some requests must still be served under overload");

    let registry = server.metrics().registry().unwrap().snapshot();
    assert_eq!(
        registry.counter(Metric::ServerRequestsAccepted),
        succeeded as u64,
        "accepted counter must match successful responses"
    );
    assert_eq!(
        registry.counter(Metric::ServerRequestsRejectedOverload),
        overloaded as u64,
        "every rejection must be counted, none dropped silently"
    );
    server.shutdown().expect("system handed back");
}

#[test]
fn shared_registry_totals_equal_summed_per_request_stats_after_shutdown() {
    let db = database();
    let mut system = QbhSystem::build(&db, &QbhConfig::default());
    let metrics = MetricsSink::enabled();
    // One registry sees both sides: the engine records each query's
    // counters, the server records transport counters.
    system.set_metrics(metrics.clone());
    let queries = hums(&db, 5);

    let config =
        ServerConfig { workers: 4, metrics: metrics.clone(), ..ServerConfig::default() };
    let server = Server::start(system, "127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut dp_cells = 0u64;
    let mut exact = 0u64;
    let mut candidates = 0u64;
    for q in &queries {
        let reply = client.knn(q, 7, &QueryOptions { trace: true, ..Default::default() }).unwrap();
        assert!(reply.trace.is_some(), "trace requested over the wire");
        dp_cells += reply.stats.dp_cells;
        exact += reply.stats.exact_computations;
        candidates += reply.stats.index.candidates;
    }
    server.shutdown().expect("drained");

    let snapshot = metrics.registry().unwrap().snapshot();
    assert_eq!(snapshot.counter(Metric::KnnQueries), queries.len() as u64);
    assert_eq!(snapshot.counter(Metric::ServerRequestsAccepted), queries.len() as u64);
    assert_eq!(snapshot.counter(Metric::DpCells), dp_cells);
    assert_eq!(snapshot.counter(Metric::ExactStarted), exact);
    assert_eq!(snapshot.counter(Metric::IndexCandidates), candidates);
}

#[test]
fn live_mutation_over_the_wire_including_duplicates_and_bad_samples() {
    let db = database();
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let baseline = db.len() as u64;

    let server =
        Server::start(system, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.ping().unwrap(), baseline);

    // Insert a distinctive melody far above the songbook register and find
    // it immediately, provenance intact.
    let series: Vec<f64> = (0..64).map(|i| 95.0 + 4.0 * (i as f64 * 0.8).sin()).collect();
    assert_eq!(client.insert(50_000, 77, 2, &series).unwrap(), baseline + 1);
    let reply = client.knn(&series, 1, &QueryOptions::default()).unwrap();
    assert_eq!(reply.matches[0].id, 50_000);
    assert_eq!((reply.matches[0].song, reply.matches[0].phrase), (77, 2));

    // Duplicate id: typed bad_request naming the id, nothing changed.
    match client.insert(50_000, 0, 0, &series) {
        Err(ClientError::BadRequest(message)) => {
            assert!(message.contains("duplicate id 50000"), "{message}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert_eq!(client.ping().unwrap(), baseline + 1);

    // Non-finite samples cannot transit JSON (NaN serializes as null), so
    // the wire layer reports the bad element as a typed error.
    let mut poisoned = series.clone();
    poisoned[3] = f64::NAN;
    match client.insert(50_001, 0, 0, &poisoned) {
        Err(ClientError::BadRequest(message)) => {
            assert!(message.contains("pitch[3]"), "{message}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    assert_eq!(client.remove(50_000).unwrap(), (true, baseline));
    assert_eq!(client.remove(50_000).unwrap(), (false, baseline));
    let after = client.knn(&series, 1, &QueryOptions::default()).unwrap();
    assert!(after.matches[0].id != 50_000, "removed melody must be unfindable");
    server.shutdown().expect("system handed back");
}

#[test]
fn expired_deadline_over_the_wire_is_typed_with_stats_and_no_matches() {
    let db = database();
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let query = hums(&db, 1).remove(0);

    let metrics = MetricsSink::enabled();
    let config = ServerConfig { metrics: metrics.clone(), ..ServerConfig::default() };
    let server = Server::start(system, "127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The whole hum and a prefix of it (a refinement mid-hum) alike.
    let options = QueryOptions { deadline_ms: Some(0), ..QueryOptions::default() };
    for (aborted, frames) in [&query[..], &query[..query.len() / 2]].into_iter().enumerate() {
        match client.knn(frames, 5, &options) {
            Err(ClientError::DeadlineExceeded { stats, message }) => {
                let stats = stats.expect("deadline errors carry their partial stats");
                assert_eq!(stats.matches, 0, "partial match sets are never returned");
                assert!(!message.is_empty());
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(
            metrics.registry().unwrap().get(Metric::ServerDeadlineExceeded),
            aborted as u64 + 1,
            "the abort must be counted"
        );
    }

    // The same query with a generous deadline succeeds and is not aborted.
    let generous = QueryOptions { deadline_ms: Some(60_000), ..QueryOptions::default() };
    let reply = client.knn(&query, 5, &generous).unwrap();
    assert_eq!(reply.matches.len(), 5);
    assert_eq!(metrics.registry().unwrap().get(Metric::ServerDeadlineExceeded), 2);
    server.shutdown().expect("system handed back");
}

#[test]
fn server_default_deadline_applies_when_the_request_has_none() {
    let db = database();
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let query = hums(&db, 1).remove(0);

    let config = ServerConfig {
        default_deadline: Some(Duration::from_millis(0)),
        ..ServerConfig::default()
    };
    let server = Server::start(system, "127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.knn(&query, 5, &QueryOptions::default()) {
        Err(ClientError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded from the default, got {other:?}"),
    }
    // A per-request deadline overrides the server default.
    let generous = QueryOptions { deadline_ms: Some(60_000), ..QueryOptions::default() };
    assert_eq!(client.knn(&query, 5, &generous).unwrap().matches.len(), 5);
    server.shutdown().expect("system handed back");
}

/// An op or a protocol version the server does not speak comes back as a
/// typed `Unsupported` — a distinct kind from `BadRequest`, so clients can
/// fall back instead of "fixing" a request that was never wrong. That
/// includes the retired session surface (protocol version 2): each of its
/// ops fails loudly, never hangs, and the connection keeps serving.
#[test]
fn unknown_ops_and_foreign_versions_are_unsupported_over_the_wire() {
    let db = database();
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let server =
        Server::start(system, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).unwrap();
    // A hang must fail the test, not stall it.
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let frames: [(&[u8], &str); 9] = [
        (br#"{"op":"transcribe"}"#, "transcribe"),
        (br#"{"op":"ping","v":99}"#, "99"),
        (br#"{"op":"ping","v":2}"#, "version 2"),
        (br#"{"op":"hello","version":2}"#, "hello"),
        (br#"{"op":"open_session","v":2,"mode":"knn","k":5}"#, "version 2"),
        (br#"{"op":"open_session","mode":"knn","k":5}"#, "open_session"),
        (br#"{"op":"append_frames","session":1,"frames":[60.0]}"#, "append_frames"),
        (br#"{"op":"refine","session":1}"#, "refine"),
        (br#"{"op":"close_session","session":1}"#, "close_session"),
    ];
    for (frame, needle) in frames {
        let sent = String::from_utf8_lossy(frame);
        match client.send_raw_frame(frame) {
            Err(ClientError::Unsupported(message)) => {
                assert!(message.contains(needle), "{sent}: {message}")
            }
            other => panic!("{sent}: want Unsupported, got {other:?}"),
        }
        // The connection survives every rejection.
        assert_eq!(client.ping().expect("still serving"), db.len() as u64, "after {sent}");
    }
    server.shutdown().expect("system handed back");
}
