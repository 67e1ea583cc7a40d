//! The segmented storage engine, end to end: a memtable over immutable
//! segments must answer **bit-identically** to the monolithic build at
//! every segment layout and shard count, survive reloads unchanged, and
//! make removals durable — a crash-and-reload can never resurrect a
//! removed melody, whether it died in the memtable or in a segment.

use std::path::{Path, PathBuf};
use std::time::Duration;

use hum_core::batch::BatchOptions;
use hum_core::engine::{EngineError, QueryRequest};
use hum_core::obs::{Metric, MetricsSink};
use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::fault::flip_bit;
use hum_qbh::storage::StorageError;
use hum_qbh::store::{self, Manifest, SegmentEntry, SegmentRef};
use hum_qbh::system::{QbhConfig, QbhMatch, QbhSystem, StoreOptions};
use hum_server::{Server, ServerConfig};

fn database() -> MelodyDatabase {
    MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 10,
        phrases_per_song: 5,
        ..SongbookConfig::default()
    })
}

fn hums(db: &MelodyDatabase, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let target = (i * 13) as u64 % db.len() as u64;
            let mut singer = HummingSimulator::new(SingerProfile::good(), 700 + i as u64);
            singer.sing_series(db.entry(target).unwrap().melody(), 0.01)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qbh-store-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config_with_shards(shards: usize) -> QbhConfig {
    QbhConfig { shards, ..QbhConfig::default() }
}

fn series_of(db: &MelodyDatabase, id: u64) -> Vec<f64> {
    db.entry(id).unwrap().melody().to_time_series(QbhConfig::default().samples_per_beat)
}

/// Ingests the whole database into a fresh store at `dir`, flushing a
/// segment every `per_segment` melodies. With `flush_tail` false the
/// trailing partial batch stays in the memtable, so queries cover the
/// mixed memtable-plus-segments case.
fn build_store(
    db: &MelodyDatabase,
    dir: &Path,
    shards: usize,
    per_segment: usize,
    flush_tail: bool,
) -> QbhSystem {
    let config = config_with_shards(shards);
    let options = StoreOptions { memtable_capacity: per_segment, ..StoreOptions::default() };
    let mut system = QbhSystem::try_create_store(dir, &config, options).unwrap();
    for entry in db.entries() {
        let series = entry.melody().to_time_series(config.samples_per_beat);
        system.try_insert_melody(entry.id(), entry.song(), entry.phrase(), &series).unwrap();
        if system.needs_flush() {
            system.flush().unwrap();
        }
    }
    if flush_tail {
        system.flush().unwrap();
    }
    system
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
fn every_segment_layout_answers_bit_identically_to_the_monolithic_build() {
    let db = database();
    let queries = hums(&db, 4);
    for shards in [1usize, 3] {
        let monolithic = QbhSystem::build(&db, &config_with_shards(shards));
        let band = monolithic.band();
        // One flushed segment; two segments plus a 16-melody memtable;
        // seven segments plus a 1-melody memtable.
        for per_segment in [db.len(), 17, 7] {
            let dir = temp_dir(&format!("layout-{shards}-{per_segment}"));
            let system = build_store(&db, &dir, shards, per_segment, per_segment == db.len());
            assert!(system.is_store_backed());
            assert_eq!(system.len(), db.len());
            for (i, q) in queries.iter().enumerate() {
                let context = format!("#{i} x{shards}sh /{per_segment}");
                let want = monolithic.query_series(q, 10);
                let got = system.query_series(q, 10);
                assert_bit_identical(&got.matches, &want.matches, &format!("knn {context}"));

                let request = QueryRequest::range(6.0).with_band(band);
                let want = monolithic.try_query_request(q, request.clone()).unwrap().0;
                let got = system.try_query_request(q, request).unwrap().0;
                assert_bit_identical(&got.matches, &want.matches, &format!("range {context}"));
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn batch_and_session_queries_are_segment_invariant() {
    let db = database();
    let queries = hums(&db, 5);
    let monolithic = QbhSystem::build(&db, &config_with_shards(2));
    let dir = temp_dir("batch-session");
    let system = build_store(&db, &dir, 2, 11, false);

    let sequential: Vec<_> = queries.iter().map(|q| monolithic.query_series(q, 8)).collect();
    for threads in [1usize, 8] {
        let batch = system.query_series_batch(&queries, 8, &BatchOptions::new(threads, 1));
        for (i, result) in batch.iter().enumerate() {
            assert_bit_identical(
                &result.matches,
                &sequential[i].matches,
                &format!("batch #{i} @{threads}t"),
            );
        }
    }

    // Streaming refinement: both systems see the same growing prefix and
    // must agree after every chunk.
    let hum = &queries[0];
    let template = QueryRequest::knn(6).with_band(monolithic.band());
    let mut mono_session = monolithic.open_session(template.clone());
    let mut store_session = system.open_session(template);
    for (round, chunk) in hum.chunks(hum.len().div_ceil(4).max(1)).enumerate() {
        mono_session.append(chunk).unwrap();
        store_session.append(chunk).unwrap();
        let (want, _) = monolithic.try_refine_session(&mono_session).unwrap();
        let (got, _) = system.try_refine_session(&store_session).unwrap();
        assert_bit_identical(&got.matches, &want.matches, &format!("refine round {round}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reloaded_store_answers_identically() {
    let db = database();
    let queries = hums(&db, 3);
    let dir = temp_dir("reload");
    let system = build_store(&db, &dir, 2, 11, true);
    let segments = system.segment_count();
    let before: Vec<_> = queries.iter().map(|q| system.query_series(q, 10)).collect();
    drop(system);

    let metrics = MetricsSink::enabled();
    let reloaded =
        QbhSystem::try_open_store_with(&dir, StoreOptions::default(), &metrics).unwrap();
    assert_eq!(reloaded.len(), db.len());
    assert_eq!(reloaded.segment_count(), segments);
    assert_eq!(reloaded.memtable_len(), 0, "a reload starts with an empty memtable");
    // The open is recorded: one load, reading exactly the manifest and the
    // segments it names.
    let on_disk: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().metadata().unwrap().len())
        .sum();
    let registry = metrics.registry().unwrap();
    assert_eq!(registry.get(Metric::StorageLoads), 1);
    assert_eq!(registry.get(Metric::StorageBytesRead), on_disk);
    assert_eq!(registry.get(Metric::StorageLoadErrors), 0);
    for (i, q) in queries.iter().enumerate() {
        let got = reloaded.query_series(q, 10);
        assert_bit_identical(&got.matches, &before[i].matches, &format!("reload knn #{i}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_segment_resident_removal_survives_reload_and_compaction() {
    let db = database();
    let dir = temp_dir("remove-durable");
    let mut system = build_store(&db, &dir, 1, 10, true);
    let victim = db.entries()[23].id();

    assert!(system.try_remove(victim).unwrap());
    assert!(!system.try_remove(victim).unwrap(), "second removal finds nothing");
    assert_eq!(system.len(), db.len() - 1);
    drop(system); // no flush after the removal: the tombstone alone must persist

    let mut reloaded = QbhSystem::try_open_store(&dir).unwrap();
    assert_eq!(reloaded.len(), db.len() - 1, "removal resurrected across reload");
    assert_eq!(reloaded.store_stats().unwrap().tombstones, 1);
    let hits = reloaded.query_series(&series_of(&db, victim), db.len());
    assert!(hits.matches.iter().all(|m| m.id != victim), "tombstoned id still queryable");

    // Compaction rewrites the segments without the tombstoned melody and
    // clears the tombstone; the removal stays durable afterwards too.
    assert!(reloaded.compact().unwrap());
    assert_eq!(reloaded.store_stats().unwrap().tombstones, 0);
    drop(reloaded);
    let compacted = QbhSystem::try_open_store(&dir).unwrap();
    assert_eq!(compacted.len(), db.len() - 1);
    let hits = compacted.query_series(&series_of(&db, victim), db.len());
    assert!(hits.matches.iter().all(|m| m.id != victim), "removal resurrected by compaction");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_memtable_resident_removal_never_resurrects() {
    let db = database();
    let dir = temp_dir("remove-memtable");
    // Capacity above the corpus size: everything stays in the memtable.
    let mut system = build_store(&db, &dir, 1, db.len() + 10, false);
    let victim = db.entries()[7].id();

    assert!(system.try_remove(victim).unwrap());
    system.flush().unwrap();
    drop(system);

    let reloaded = QbhSystem::try_open_store(&dir).unwrap();
    assert_eq!(reloaded.len(), db.len() - 1);
    let hits = reloaded.query_series(&series_of(&db, victim), db.len());
    assert!(hits.matches.iter().all(|m| m.id != victim), "pre-flush removal resurrected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tombstoned_id_stays_reserved_until_compaction() {
    let db = database();
    let dir = temp_dir("tombstone-reserved");
    let mut system = build_store(&db, &dir, 1, 10, true);
    let victim = db.entries()[31].id();
    let series = series_of(&db, victim);

    assert!(system.try_remove(victim).unwrap());
    // Re-using the id now would make the on-disk segments overlap with the
    // tombstoned entry still physically present in its segment file.
    match system.try_insert_melody(victim, 0, 0, &series) {
        Err(EngineError::DuplicateId(id)) => assert_eq!(id, victim),
        other => panic!("expected DuplicateId for a tombstoned id, got {other:?}"),
    }

    assert!(system.compact().unwrap());
    system.try_insert_melody(victim, 0, 0, &series).expect("id free after compaction");
    let hits = system.query_series(&series, 3);
    assert!(hits.matches.iter().any(|m| m.id == victim));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose manifest or segments lie must fail with a typed
/// [`StorageError`] — never a panic, and never a silently wrong load.
#[test]
fn corrupt_stores_fail_typed_never_panic() {
    let db = database();
    let config = config_with_shards(1);

    // Missing segment file.
    let dir = temp_dir("corrupt-missing");
    build_store(&db, &dir, 1, 17, true);
    let seg = store::segment_path(&dir, 0);
    std::fs::remove_file(&seg).unwrap();
    let metrics = MetricsSink::enabled();
    assert!(
        QbhSystem::try_open_store_with(&dir, StoreOptions::default(), &metrics).is_err(),
        "missing segment file must fail"
    );
    let registry = metrics.registry().unwrap();
    assert_eq!(registry.get(Metric::StorageLoadErrors), 1, "a failed open is recorded");
    assert_eq!(registry.get(Metric::StorageLoads), 0);
    let _ = std::fs::remove_dir_all(&dir);

    // A flipped bit anywhere in a segment or the manifest.
    let dir = temp_dir("corrupt-flip");
    build_store(&db, &dir, 1, 17, true);
    for target in [store::segment_path(&dir, 1), store::manifest_path(&dir)] {
        let clean = std::fs::read(&target).unwrap();
        for index in [8usize, clean.len() / 2, clean.len() - 1] {
            let mut bytes = clean.clone();
            flip_bit(&mut bytes, index, 3);
            std::fs::write(&target, &bytes).unwrap();
            assert!(
                QbhSystem::try_open_store(&dir).is_err(),
                "flipped bit at {index} in {} must fail the load",
                target.display()
            );
        }
        std::fs::write(&target, &clean).unwrap();
        QbhSystem::try_open_store(&dir).expect("restored store loads again");
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Manifest-level lies: each starts from a tiny healthy store.
    let normal_len = config.normal_length;
    let entry = |id: u64| SegmentEntry {
        id,
        song: 0,
        phrase: id as usize,
        series: vec![60.0 + id as f64; normal_len],
    };
    let fresh = |tag: &str| {
        let dir = temp_dir(tag);
        store::save_segment(&dir, 0, &config, &[entry(1), entry(2)]).unwrap();
        store::save_segment(&dir, 1, &config, &[entry(3)]).unwrap();
        dir
    };
    let refs =
        |counts: &[(u64, u64)]| counts.iter().map(|&(id, count)| SegmentRef { id, count }).collect();

    // Duplicate segment id: the writer refuses to produce such a manifest
    // (and `read_manifest` independently rejects one written by anything
    // else), so a duplicated id can never reach the load path intact.
    let dir = fresh("corrupt-dup-seg");
    let manifest =
        Manifest { config, segments: refs(&[(0, 2), (0, 2)]), tombstones: Vec::new(), plan: None };
    match store::save_manifest(&dir, &manifest) {
        Err(StorageError::Unrepresentable(_)) => {}
        other => panic!("duplicate segment id: expected Unrepresentable, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Overlapping melody ids across segments.
    let dir = fresh("corrupt-overlap");
    store::save_segment(&dir, 1, &config, &[entry(2)]).unwrap(); // id 2 also lives in segment 0
    let manifest =
        Manifest { config, segments: refs(&[(0, 2), (1, 1)]), tombstones: Vec::new(), plan: None };
    store::save_manifest(&dir, &manifest).unwrap();
    match QbhSystem::try_open_store(&dir).err() {
        Some(StorageError::Corrupt(_)) => {}
        other => panic!("overlapping ids: expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A tombstone naming an id no segment holds.
    let dir = fresh("corrupt-dangling");
    let manifest = Manifest { config, segments: refs(&[(0, 2), (1, 1)]), tombstones: vec![99], plan: None };
    store::save_manifest(&dir, &manifest).unwrap();
    match QbhSystem::try_open_store(&dir).err() {
        Some(StorageError::Corrupt(_)) => {}
        other => panic!("dangling tombstone: expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A segment count that disagrees with the segment file.
    let dir = fresh("corrupt-count");
    let manifest =
        Manifest { config, segments: refs(&[(0, 5), (1, 1)]), tombstones: Vec::new(), plan: None };
    store::save_manifest(&dir, &manifest).unwrap();
    match QbhSystem::try_open_store(&dir).err() {
        Some(StorageError::Corrupt(_)) => {}
        other => panic!("count mismatch: expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_maintenance_thread_compacts_a_store_backed_server() {
    let db = database();
    let dir = temp_dir("server-maintenance");
    let config = config_with_shards(1);
    let options = StoreOptions { memtable_capacity: 10, compact_at: 2 };
    let mut system = QbhSystem::try_create_store(&dir, &config, options).unwrap();
    for entry in db.entries().iter().take(20) {
        let series = entry.melody().to_time_series(config.samples_per_beat);
        system.try_insert_melody(entry.id(), entry.song(), entry.phrase(), &series).unwrap();
        if system.needs_flush() {
            system.flush().unwrap();
        }
    }
    assert_eq!(system.segment_count(), 2, "two segments ready for compaction");

    let metrics = MetricsSink::enabled();
    system.set_metrics(metrics.clone());
    let server_config = ServerConfig {
        maintenance_interval: Some(Duration::from_millis(10)),
        metrics: metrics.clone(),
        ..ServerConfig::default()
    };
    let server = Server::start(system, "127.0.0.1:0", server_config).expect("bind");
    let registry = metrics.registry().expect("metrics enabled");
    for _ in 0..400 {
        if registry.get(Metric::ServerMaintenanceTicks) >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(registry.get(Metric::ServerMaintenanceTicks) >= 2, "maintenance thread never ran");
    let system = server.shutdown().expect("service handed back");

    assert_eq!(registry.get(Metric::ServerMaintenanceErrors), 0);
    assert_eq!(system.segment_count(), 1, "background maintenance should have compacted");
    assert!(system.store_stats().unwrap().compactions >= 1);
    assert_eq!(system.len(), 20);
    let _ = std::fs::remove_dir_all(&dir);
}
