//! Shard-count invariance, end to end: the same corpus partitioned into
//! 1, 2, 4, or 8 shards must return **bit-identical** matches — in
//! process, through the batch API at any thread count, over the wire at
//! any worker count, and after a round trip through a store created at
//! each shard count.
//!
//! Stats are a function of (query, corpus, shard count) — invariant under
//! fanout, threads, and workers, but *not* under shard count: a sharded
//! scatter does its own per-shard work, so only the matches themselves
//! carry the cross-shard-count guarantee.

use hum_core::batch::BatchOptions;
use hum_core::engine::QueryRequest;
use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::fault::TempPath;
use hum_qbh::system::{QbhConfig, QbhMatch, QbhSystem, StoreOptions};
use hum_server::{Client, QueryOptions, Server, ServerConfig, ServiceMatch};

fn database() -> MelodyDatabase {
    MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 12,
        phrases_per_song: 6,
        ..SongbookConfig::default()
    })
}

fn hums(db: &MelodyDatabase, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let target = (i * 17) as u64 % db.len() as u64;
            let mut singer = HummingSimulator::new(SingerProfile::good(), 4400 + i as u64);
            singer.sing_series(db.entry(target).unwrap().melody(), 0.01)
        })
        .collect()
}

fn system_with_shards(db: &MelodyDatabase, shards: usize) -> QbhSystem {
    QbhSystem::build(db, &QbhConfig { shards, ..QbhConfig::default() })
}

fn assert_bit_identical(got: &[QbhMatch], want: &[QbhMatch], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: match counts differ");
    for (g, w) in got.iter().zip(want) {
        assert_eq!((g.id, g.song, g.phrase), (w.id, w.song, w.phrase), "{context}");
        assert_eq!(
            g.distance.to_bits(),
            w.distance.to_bits(),
            "{context}: distance {} vs {} not bit-identical",
            g.distance,
            w.distance
        );
    }
}

#[test]
fn every_shard_count_returns_bit_identical_matches_in_process() {
    let db = database();
    let queries = hums(&db, 5);
    let monolithic = system_with_shards(&db, 1);
    let band = monolithic.band();

    for shards in [2usize, 4, 8] {
        let sharded = system_with_shards(&db, shards);
        assert_eq!(sharded.shard_count(), shards);
        for (i, q) in queries.iter().enumerate() {
            let want = monolithic.query_series(q, 10);
            let got = sharded.query_series(q, 10);
            assert_bit_identical(&got.matches, &want.matches, &format!("knn #{i} x{shards}"));

            let want = monolithic
                .try_query_request(q, QueryRequest::range(6.0).with_band(band))
                .unwrap()
                .0;
            let got = sharded
                .try_query_request(q, QueryRequest::range(6.0).with_band(band))
                .unwrap()
                .0;
            assert_bit_identical(&got.matches, &want.matches, &format!("range #{i} x{shards}"));
        }
    }
}

#[test]
fn batch_queries_are_thread_and_shard_invariant() {
    let db = database();
    let queries = hums(&db, 6);
    let monolithic = system_with_shards(&db, 1);
    let sequential: Vec<_> = queries.iter().map(|q| monolithic.query_series(q, 8)).collect();

    for shards in [1usize, 2, 8] {
        let system = system_with_shards(&db, shards);
        // Stats must be thread-invariant too, so compare whole results
        // across thread counts within one shard count.
        let mut at_one_thread = None;
        for threads in [1usize, 8] {
            let batch =
                system.query_series_batch(&queries, 8, &BatchOptions::new(threads, 1));
            assert_eq!(batch.len(), queries.len());
            for (i, result) in batch.iter().enumerate() {
                assert_bit_identical(
                    &result.matches,
                    &sequential[i].matches,
                    &format!("batch #{i} x{shards} @{threads}t"),
                );
            }
            match &at_one_thread {
                None => at_one_thread = Some(batch),
                Some(reference) => {
                    for (i, (a, b)) in reference.iter().zip(&batch).enumerate() {
                        assert_eq!(
                            a.stats, b.stats,
                            "stats for query #{i} must not depend on threads (x{shards})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn served_sharded_queries_match_in_process_at_any_worker_count() {
    let db = database();
    let queries = hums(&db, 4);
    let monolithic = system_with_shards(&db, 1);
    let band = monolithic.band();
    let expected_matches: Vec<_> = queries
        .iter()
        .map(|q| monolithic.query_series_banded(q, band, 10).matches)
        .collect();

    // In-process sharded expectations pin the full reply — stats included —
    // that the served sharded system must reproduce exactly.
    let sharded = system_with_shards(&db, 4);
    let expected_replies: Vec<_> = queries
        .iter()
        .map(|q| {
            sharded.try_query_request(q, QueryRequest::knn(10).with_band(band)).unwrap().0
        })
        .collect();

    let mut system = Some(sharded);
    for workers in [1usize, 8] {
        let config = ServerConfig { workers, ..ServerConfig::default() };
        let server = Server::start(system.take().unwrap(), "127.0.0.1:0", config)
            .expect("bind ephemeral port");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (i, q) in queries.iter().enumerate() {
            let reply = client.knn(q, 10, &QueryOptions::default()).expect("knn");
            assert_wire_matches(
                &reply.matches,
                &expected_replies[i].matches,
                &format!("wire knn #{i} at {workers} workers"),
            );
            assert_eq!(
                reply.stats, expected_replies[i].stats,
                "served stats must equal in-process sharded stats (#{i})"
            );
            assert_wire_matches(
                &reply.matches,
                &expected_matches[i],
                &format!("wire knn #{i} vs monolithic"),
            );
        }
        system = Some(server.shutdown().expect("system handed back"));
    }
}

fn assert_wire_matches(wire: &[ServiceMatch], local: &[QbhMatch], context: &str) {
    assert_eq!(wire.len(), local.len(), "{context}: match counts differ");
    for (w, l) in wire.iter().zip(local) {
        assert_eq!((w.id, w.song, w.phrase), (l.id, l.song, l.phrase), "{context}");
        assert_eq!(w.distance.to_bits(), l.distance.to_bits(), "{context}");
    }
}

#[test]
fn store_round_trip_preserves_results_at_every_shard_count() {
    let db = database();
    let queries = hums(&db, 3);
    let monolithic = system_with_shards(&db, 1);
    let band = monolithic.band();
    let range = |system: &QbhSystem, q: &[f64]| {
        system.try_query_request(q, QueryRequest::range(6.0).with_band(band)).unwrap().0
    };

    // The manifest pins the partition: a store created at `shards` reopens
    // at `shards`, and answers like the in-memory build at any count.
    for shards in [1usize, 2, 4, 8] {
        let dir = TempPath::unique("sharding-store");
        let config = QbhConfig { shards, ..QbhConfig::default() };
        let options = StoreOptions { memtable_capacity: 25, ..StoreOptions::default() };
        let mut store = QbhSystem::try_create_store(dir.path(), &config, options).unwrap();
        store.try_ingest(&db).unwrap();
        drop(store);

        let reopened = QbhSystem::try_open_store(dir.path()).expect("reopen");
        assert_eq!(reopened.shard_count(), shards);
        assert_eq!(reopened.len(), db.len());
        for (i, q) in queries.iter().enumerate() {
            let context = format!("reopened #{i} x{shards}");
            let got = reopened.query_series(q, 10);
            let want = monolithic.query_series(q, 10);
            assert_bit_identical(&got.matches, &want.matches, &format!("knn {context}"));
            let (got, want) = (range(&reopened, q), range(&monolithic, q));
            assert_bit_identical(&got.matches, &want.matches, &format!("range {context}"));
        }
    }
}
