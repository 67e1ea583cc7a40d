//! The segmented storage engine, end to end: a memtable over immutable
//! segments must answer **bit-identically** to the monolithic build at
//! every segment layout, survive reloads unchanged, and make removals
//! durable — a crash-and-reload can never resurrect a removed melody,
//! whether it died in the memtable or in a segment. The
//! second half specifies behaviour under overlap: inserts, removals and
//! queries between the plan, build and commit of a flush or compaction,
//! checked against a brute-force [`Model`].

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

use hum_core::batch::BatchOptions;
use hum_core::dtw::{band_for_warping_width, ldtw_distance};
use hum_core::engine::{EngineError, QueryRequest};
use hum_core::normal::NormalForm;
use hum_core::obs::{Metric, MetricsSink, Timer};
use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::fault::flip_bit;
use hum_qbh::storage::StorageError;
use hum_qbh::store::{self, Manifest, SegmentEntry, SegmentRef};
use hum_qbh::system::{
    BuiltMaintenance, MaintenancePlan, QbhConfig, QbhMatch, QbhSystem, StoreOptions,
};
use hum_server::{Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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
    per_segment: usize,
    flush_tail: bool,
) -> QbhSystem {
    let config = QbhConfig::default();
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
    let monolithic = QbhSystem::build(&db, &QbhConfig::default());
    let band = monolithic.band();
    // One flushed segment; two segments plus a 16-melody memtable; seven
    // segments plus a 1-melody memtable.
    for per_segment in [db.len(), 17, 7] {
        let dir = temp_dir(&format!("layout-{per_segment}"));
        let system = build_store(&db, &dir, per_segment, per_segment == db.len());
        assert!(system.is_store_backed());
        assert_eq!(system.len(), db.len());
        for (i, q) in queries.iter().enumerate() {
            let context = format!("#{i} /{per_segment}");
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

#[test]
fn batch_and_prefix_queries_are_segment_invariant() {
    let db = database();
    let queries = hums(&db, 5);
    let monolithic = QbhSystem::build(&db, &QbhConfig::default());
    let dir = temp_dir("batch-prefix");
    let system = build_store(&db, &dir, 11, false);

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

    // Query-as-you-hum: both systems see the same growing prefix and must
    // agree at every length.
    let hum = &queries[0];
    let template = QueryRequest::knn(6).with_band(monolithic.band());
    let chunk = hum.len().div_ceil(4).max(1);
    for (round, end) in (chunk..hum.len()).step_by(chunk).chain([hum.len()]).enumerate() {
        let (want, _) = monolithic.try_query_request(&hum[..end], template.clone()).unwrap();
        let (got, _) = system.try_query_request(&hum[..end], template.clone()).unwrap();
        assert_bit_identical(&got.matches, &want.matches, &format!("prefix round {round}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reloaded_store_answers_identically() {
    let db = database();
    let queries = hums(&db, 3);
    let dir = temp_dir("reload");
    let system = build_store(&db, &dir, 11, true);
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
    let mut system = build_store(&db, &dir, 10, true);
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
    let mut system = build_store(&db, &dir, db.len() + 10, false);
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
    let mut system = build_store(&db, &dir, 10, true);
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
    let config = QbhConfig::default();

    // Missing segment file.
    let dir = temp_dir("corrupt-missing");
    build_store(&db, &dir, 17, true);
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
    build_store(&db, &dir, 17, true);
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
        Manifest { config, segments: refs(&[(0, 2), (0, 2)]), tombstones: Vec::new() };
    match store::save_manifest(&dir, &manifest) {
        Err(StorageError::Unrepresentable(_)) => {}
        other => panic!("duplicate segment id: expected Unrepresentable, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Overlapping melody ids across segments.
    let dir = fresh("corrupt-overlap");
    store::save_segment(&dir, 1, &config, &[entry(2)]).unwrap(); // id 2 also lives in segment 0
    let manifest =
        Manifest { config, segments: refs(&[(0, 2), (1, 1)]), tombstones: Vec::new() };
    store::save_manifest(&dir, &manifest).unwrap();
    match QbhSystem::try_open_store(&dir).err() {
        Some(StorageError::Corrupt(_)) => {}
        other => panic!("overlapping ids: expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A tombstone naming an id no segment holds.
    let dir = fresh("corrupt-dangling");
    let manifest = Manifest { config, segments: refs(&[(0, 2), (1, 1)]), tombstones: vec![99] };
    store::save_manifest(&dir, &manifest).unwrap();
    match QbhSystem::try_open_store(&dir).err() {
        Some(StorageError::Corrupt(_)) => {}
        other => panic!("dangling tombstone: expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A segment count that disagrees with the segment file.
    let dir = fresh("corrupt-count");
    let manifest =
        Manifest { config, segments: refs(&[(0, 5), (1, 1)]), tombstones: Vec::new() };
    store::save_manifest(&dir, &manifest).unwrap();
    match QbhSystem::try_open_store(&dir).err() {
        Some(StorageError::Corrupt(_)) => {}
        other => panic!("count mismatch: expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls `done` every 5 ms for up to 4 s.
fn eventually(done: impl Fn() -> bool) -> bool {
    (0..800).any(|_| {
        let now = done();
        if !now {
            std::thread::sleep(Duration::from_millis(5));
        }
        now
    })
}

#[test]
fn the_maintenance_thread_compacts_a_store_backed_server() {
    // Large enough that building a segment costs visibly more than the
    // manifest write that commits it.
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 60,
        phrases_per_song: 5,
        ..SongbookConfig::default()
    });
    let dir = temp_dir("server-maintenance");
    let config = QbhConfig::default();
    let options = StoreOptions { memtable_capacity: 100, compact_at: 2 };
    let mut system = QbhSystem::try_create_store(&dir, &config, options).unwrap();
    for entry in db.entries().iter().take(200) {
        let series = entry.melody().to_time_series(config.samples_per_beat);
        system.try_insert_melody(entry.id(), entry.song(), entry.phrase(), &series).unwrap();
        if system.needs_flush() {
            system.flush().unwrap();
        }
    }
    assert_eq!(system.segment_count(), 2, "two segments ready for compaction");

    // Nothing announces the compaction that is already due: the idle
    // re-check finds it.
    let metrics = MetricsSink::enabled();
    system.set_metrics(metrics.clone());
    let server_config = |maintenance_interval| ServerConfig {
        maintenance_interval,
        metrics: metrics.clone(),
        ..ServerConfig::default()
    };
    let interval = Some(Duration::from_millis(10));
    let server = Server::start(system, "127.0.0.1:0", server_config(interval)).expect("bind");
    let registry = metrics.registry().expect("metrics enabled");
    let commits = || registry.timer(Timer::MaintenanceCommit).snapshot().count;
    assert!(eventually(|| commits() >= 1), "maintenance thread never compacted");
    let system = server.shutdown().expect("service handed back");

    assert_eq!(registry.get(Metric::ServerMaintenanceErrors), 0);
    assert_eq!(system.segment_count(), 1, "background maintenance should have compacted");
    assert_eq!(system.store_stats().unwrap().compactions, 1);
    assert_eq!(system.len(), 200);

    // A wire insert that fills the memtable wakes the thread: the flush and
    // the compaction it makes due are committed long before the (hour-long)
    // idle re-check could have found them, and no insert flushed inline.
    let interval = Some(Duration::from_secs(3600));
    let server = Server::start(system, "127.0.0.1:0", server_config(interval)).expect("bind");
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (i, entry) in db.entries().iter().skip(200).enumerate() {
        let series = entry.melody().to_time_series(config.samples_per_beat);
        let len = client.insert(entry.id(), entry.song(), entry.phrase(), &series).unwrap();
        assert_eq!(len, 201 + i as u64);
    }
    assert!(eventually(|| commits() >= 3), "the woken thread never flushed and compacted");
    let system = server.shutdown().expect("service handed back");

    assert_eq!(registry.get(Metric::ServerMaintenanceErrors), 0);
    let stats = system.store_stats().unwrap();
    assert_eq!((stats.flushes, stats.compactions, stats.memtable_len), (3, 2, 0));
    assert_eq!((system.segment_count(), system.len()), (1, 300));

    // The lock-wait and maintenance timers saw all of it; a commit (a
    // manifest write and a swap) costs far less than the build it installs
    // (a segment write, its fsyncs and, for a compaction, an index build).
    let lock_wait = registry.timer(Timer::ServiceLockWait).snapshot();
    let build = registry.timer(Timer::MaintenanceBuild).snapshot();
    let commit = registry.timer(Timer::MaintenanceCommit).snapshot();
    assert_eq!(lock_wait.count, 100, "one write-lock acquisition per wire insert");
    assert_eq!((build.count, commit.count), (3, 3));
    assert!(
        commit.mean_nanos() * 4.0 < build.mean_nanos(),
        "commit mean {} ns is not far below build mean {} ns",
        commit.mean_nanos(),
        build.mean_nanos()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Behaviour under overlap: mutations and queries between the phases of a
// flush or compaction.

/// What a store should hold, answered by brute force: the normal form of
/// every visible melody, ranked by `ldtw_distance` — no index, no cascade.
struct Model {
    normal: NormalForm,
    band: usize,
    live: BTreeMap<u64, Vec<f64>>,
}

impl Model {
    fn new() -> Self {
        let config = QbhConfig::default();
        Model {
            normal: NormalForm::with_length(config.normal_length),
            band: band_for_warping_width(config.warping_width, config.normal_length),
            live: BTreeMap::new(),
        }
    }

    fn of(db: &MelodyDatabase) -> Self {
        let mut model = Model::new();
        for entry in db.entries() {
            model.insert(entry.id(), &series_of(db, entry.id()));
        }
        model
    }

    fn insert(&mut self, id: u64, series: &[f64]) {
        self.live.insert(id, self.normal.apply(series));
    }

    /// Every visible melody as `(id, distance bits)`, nearest first.
    fn ranked(&self, hum: &[f64]) -> Vec<(u64, f64)> {
        let query = self.normal.apply(hum);
        let mut ranked: Vec<(u64, f64)> =
            self.live.iter().map(|(&id, nf)| (id, ldtw_distance(&query, nf, self.band))).collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// `system` answers `hum` exactly as the model does: a k-NN at the
    /// usual k, a k-NN over everything (so every visible melody appears
    /// exactly once and nothing else does) and an ε-range.
    fn check(&self, system: &QbhSystem, hum: &[f64], context: &str) {
        const RADIUS: f64 = 6.0;
        assert_eq!(system.len(), self.live.len(), "{context}: melody count");
        let bits = |matches: &[QbhMatch]| -> Vec<(u64, u64)> {
            matches.iter().map(|m| (m.id, m.distance.to_bits())).collect()
        };
        let want: Vec<(u64, u64)> =
            self.ranked(hum).into_iter().map(|(id, d)| (id, d.to_bits())).collect();
        let in_range =
            want.iter().take_while(|(_, d)| f64::from_bits(*d) <= RADIUS).count();
        for k in [10, self.live.len()] {
            let got = system.query_series(hum, k);
            assert_eq!(bits(&got.matches), want[..k.min(want.len())], "{context}: {k}-NN");
        }
        let request = QueryRequest::range(RADIUS).with_band(self.band);
        let got = system.try_query_request(hum, request).unwrap().0;
        assert_eq!(bits(&got.matches), want[..in_range], "{context}: range");
    }

    fn check_all(&self, system: &QbhSystem, hums: &[Vec<f64>], context: &str) {
        for (i, hum) in hums.iter().enumerate() {
            self.check(system, hum, &format!("{context}, hum {i}"));
        }
    }
}

/// A melody no songbook holds, distinct per `salt`.
fn extra_series(salt: u64) -> Vec<f64> {
    let (rate, phase) = (0.11 + 0.013 * (salt % 17) as f64, salt as f64 * 0.7);
    (0..96).map(|i| 62.0 + 6.0 * (i as f64 * rate + phase).sin() + (i % 5) as f64).collect()
}

fn segment_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".humseg"))
        .count()
}

#[test]
fn mutations_racing_a_compaction_are_visible_exactly_once_at_every_step() {
    let db = database();
    let queries = hums(&db, 3);
    let dir = temp_dir("race-compaction");
    let mut system = build_store(&db, &dir, 10, true);
    let mut model = Model::of(&db);
    assert_eq!(system.segment_count(), 5);

    let plan = system.plan_compaction().unwrap().expect("five segments to merge");
    let victim = db.entries()[23].id();
    assert!(system.try_remove(victim).unwrap());
    model.live.remove(&victim);
    system.try_insert_melody(9_000, 7, 7, &extra_series(1)).unwrap();
    model.insert(9_000, &extra_series(1));
    model.check_all(&system, &queries, "planned");

    let built = plan.build().unwrap();
    model.check_all(&system, &queries, "built, not committed");

    drop(system.commit_maintenance(built).unwrap());
    model.check_all(&system, &queries, "committed");
    let stats = system.store_stats().unwrap();
    assert_eq!((stats.segments, stats.tombstones, stats.memtable_len), (1, 1, 1));
    assert_eq!(segment_files(&dir), 1, "replaced segment files are deleted");
    drop(system);

    // Reopened: the memtable-only insert was never durable (no flush ran);
    // the removal that raced the build stays removed.
    model.live.remove(&9_000);
    let mut reopened = QbhSystem::try_open_store(&dir).unwrap();
    model.check_all(&reopened, &queries, "reopened");
    assert!(!reopened.try_remove(victim).unwrap(), "the racing removal was resurrected");
    assert!(reopened.compact().unwrap(), "the kept tombstone is purged by the next compaction");
    model.check_all(&reopened, &queries, "compacted again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutations_racing_a_flush_are_visible_exactly_once_at_every_step() {
    let db = database();
    let queries = hums(&db, 3);
    let dir = temp_dir("race-flush");
    // Two segments of 17 plus a 16-melody memtable.
    let mut system = build_store(&db, &dir, 17, false);
    let mut model = Model::of(&db);
    assert_eq!((system.segment_count(), system.memtable_len()), (2, 16));

    let plan = system.plan_flush().unwrap().expect("a memtable to flush");
    let victim = db.entries()[40].id();
    assert!(system.try_remove(victim).unwrap(), "a melody that is being flushed");
    model.live.remove(&victim);
    system.try_insert_melody(9_000, 7, 7, &extra_series(2)).unwrap();
    model.insert(9_000, &extra_series(2));
    model.check_all(&system, &queries, "planned");

    let built = plan.build().unwrap();
    model.check_all(&system, &queries, "built, not committed");

    drop(system.commit_maintenance(built).unwrap());
    model.check_all(&system, &queries, "committed");
    // The newcomer stays in the memtable; the victim is in the segment file
    // and therefore committed tombstoned.
    let stats = system.store_stats().unwrap();
    assert_eq!((stats.segments, stats.tombstones, stats.memtable_len), (3, 1, 1));
    drop(system);

    model.live.remove(&9_000);
    let reopened = QbhSystem::try_open_store(&dir).unwrap();
    model.check_all(&reopened, &queries, "reopened");
    assert_eq!(reopened.store_stats().unwrap().tombstones, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_plan_is_refused_typed_and_the_store_stays_intact() {
    let db = database();
    let queries = hums(&db, 2);
    let dir = temp_dir("stale-plan");
    let mut system = build_store(&db, &dir, 17, false);
    let mut model = Model::of(&db);
    let refused = |system: &mut QbhSystem, built: BuiltMaintenance, what: &str| {
        match system.commit_maintenance(built) {
            Err(StorageError::StalePlan(_)) => {}
            Err(other) => panic!("{what}: expected StalePlan, got {other}"),
            Ok(_) => panic!("{what}: a stale plan was committed"),
        }
        assert_eq!(segment_files(&dir), system.segment_count(), "{what}: orphan left behind");
    };

    // A synchronous flush lands between the plan and the commit of another.
    let plan = system.plan_flush().unwrap().unwrap();
    assert!(system.flush().unwrap());
    refused(&mut system, plan.build().unwrap(), "flush overtaken by a flush");

    // The same for compaction.
    let plan = system.plan_compaction().unwrap().unwrap();
    assert!(system.compact().unwrap());
    refused(&mut system, plan.build().unwrap(), "compaction overtaken by a compaction");

    // An id that was removed and inserted again since the plan names a
    // different melody than the one the build wrote.
    system.try_insert_melody(9_000, 1, 1, &extra_series(3)).unwrap();
    let plan = system.plan_flush().unwrap().unwrap();
    assert!(system.try_remove(9_000).unwrap());
    system.try_insert_melody(9_000, 1, 1, &extra_series(4)).unwrap();
    model.insert(9_000, &extra_series(4));
    refused(&mut system, plan.build().unwrap(), "flush of a replaced melody");

    // Every refusal left the live view and the directory as they were, and
    // planning again succeeds.
    model.check_all(&system, &queries, "after three refusals");
    assert!(system.flush().unwrap());
    drop(system);
    let reopened = QbhSystem::try_open_store(&dir).unwrap();
    model.check_all(&reopened, &queries, "reopened");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A maintenance job somewhere between its phases, with the ids it covers
/// when it is a flush.
enum Job {
    Planned(MaintenancePlan, Option<BTreeSet<u64>>),
    Built(BuiltMaintenance, Option<BTreeSet<u64>>),
}

/// The first slice of an operation-sequence harness: a seeded interleaving
/// of inserts, removals, the three maintenance phases, queries and reopens,
/// every answer checked against the [`Model`].
#[test]
fn a_seeded_interleaving_of_mutations_maintenance_and_reopens_matches_the_model() {
    let db = database();
    let queries = hums(&db, 4);
    let dir = temp_dir("interleaving");
    let options = StoreOptions { memtable_capacity: 8, compact_at: 3 };
    let mut system = QbhSystem::try_create_store(&dir, &QbhConfig::default(), options).unwrap();
    let mut model = Model::new();
    // Ids in the memtable only: a reopen loses exactly these.
    let mut volatile: BTreeSet<u64> = BTreeSet::new();
    let mut job: Option<Job> = None;
    let mut next_id = 0u64;
    let mut rng = StdRng::seed_from_u64(20);
    let (mut commits, mut reopens) = (0, 0);

    for step in 0..400 {
        let context = format!("step {step}");
        match rng.random_range(0..100u32) {
            0..=34 => {
                let series = extra_series(next_id);
                system.try_insert_melody(next_id, step, 0, &series).unwrap();
                model.insert(next_id, &series);
                volatile.insert(next_id);
                next_id += 1;
            }
            35..=49 if !model.live.is_empty() => {
                let nth = rng.random_range(0..model.live.len());
                let id = *model.live.keys().nth(nth).unwrap();
                assert!(system.try_remove(id).unwrap(), "{context}: remove {id}");
                model.live.remove(&id);
                volatile.remove(&id);
            }
            50..=74 => {
                job = match job.take() {
                    None if rng.random_bool(0.6) => system
                        .plan_flush()
                        .unwrap()
                        .map(|plan| Job::Planned(plan, Some(volatile.clone()))),
                    None => system.plan_compaction().unwrap().map(|plan| Job::Planned(plan, None)),
                    Some(Job::Planned(plan, ids)) => Some(Job::Built(plan.build().unwrap(), ids)),
                    Some(Job::Built(built, ids)) => {
                        drop(system.commit_maintenance(built).unwrap());
                        // A committed flush made what it covered durable.
                        volatile.retain(|id| !ids.as_ref().is_some_and(|ids| ids.contains(id)));
                        commits += 1;
                        None
                    }
                };
            }
            75..=96 => {
                let hum = &queries[rng.random_range(0..queries.len())];
                model.check(&system, hum, &context);
            }
            97..=99 => {
                // A crash: the memtable and any job in flight are gone (a
                // built one leaves its segment file behind as an orphan).
                job = None;
                drop(system);
                system = QbhSystem::try_open_store_with(&dir, options, &MetricsSink::Disabled)
                    .unwrap_or_else(|e| panic!("{context}: reopen failed: {e}"));
                for id in std::mem::take(&mut volatile) {
                    model.live.remove(&id);
                }
                reopens += 1;
                model.check_all(&system, &queries, &format!("{context}, reopened"));
            }
            _ => {}
        }
    }
    model.check_all(&system, &queries, "at the end");
    assert!(commits >= 10 && reopens >= 3, "{commits} commits, {reopens} reopens: seed too tame");
    let _ = std::fs::remove_dir_all(&dir);
}
