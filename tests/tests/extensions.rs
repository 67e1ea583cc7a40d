//! Integration tests for the extensions beyond the paper's headline
//! experiments: store persistence, retrieval metrics, and key finding — each
//! exercised across crate boundaries.

use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::{generate_hums, retrieval_metrics, target_ranks};
use hum_qbh::fault::TempPath;
use hum_qbh::system::{QbhConfig, QbhSystem, StoreOptions};

fn songbook_config() -> SongbookConfig {
    SongbookConfig { songs: 10, phrases_per_song: 5, ..SongbookConfig::default() }
}

#[test]
fn persisted_database_serves_the_same_hums() {
    let db = MelodyDatabase::from_songbook(&songbook_config());
    let config = QbhConfig::default();
    // TempPath paths are unique per test *and* per process, and the store is
    // removed on drop even when an assertion below panics — a pid-only name
    // collides when the test harness runs files in one process.
    let dir = TempPath::unique("ext-test");
    let options = StoreOptions { memtable_capacity: 20, ..StoreOptions::default() };
    let mut store = QbhSystem::try_create_store(dir.path(), &config, options).expect("create");
    store.try_ingest(&db).expect("ingest");
    drop(store);

    let original = QbhSystem::build(&db, &config);
    let restored = QbhSystem::try_open_store(dir.path()).expect("reopen");
    let hums = generate_hums(&db, SingerProfile::good(), 6, 77);
    for hum in &hums {
        let a: Vec<u64> =
            original.query_series(&hum.series, 5).matches.iter().map(|m| m.id).collect();
        let b: Vec<u64> =
            restored.query_series(&hum.series, 5).matches.iter().map(|m| m.id).collect();
        assert_eq!(a, b, "persisted database must answer identically");
    }
}

#[test]
fn metrics_summarize_what_the_rank_bins_say() {
    let db = MelodyDatabase::from_songbook(&songbook_config());
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let hums = generate_hums(&db, SingerProfile::good(), 10, 21);
    let ranks = target_ranks(&system, &hums, 10);
    let metrics = retrieval_metrics(&ranks);
    // Good singers on a small corpus: strong MRR and near-total top-10.
    assert!(metrics.mrr > 0.5, "MRR {}", metrics.mrr);
    assert!(metrics.precision_at_10 >= 0.8, "P@10 {}", metrics.precision_at_10);
    assert!(metrics.precision_at_1 <= metrics.precision_at_10);
}

#[test]
fn key_estimates_are_stable_across_midi_roundtrip() {
    let direct = MelodyDatabase::from_songbook(&songbook_config());
    let round = MelodyDatabase::from_midi_roundtrip(&songbook_config());
    for (a, b) in direct.entries().iter().zip(round.entries()).take(20) {
        let ka = hum_music::key::estimate_key(a.melody());
        let kb = hum_music::key::estimate_key(b.melody());
        assert_eq!(ka, kb, "id {}", a.id());
    }
}
