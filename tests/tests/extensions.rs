//! Integration test for the store, an extension beyond the paper's headline
//! experiments, exercised across crate boundaries.

use hum_core::engine::QueryRequest;
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::generate_hums;
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
    let top5 = |system: &QbhSystem, series: &[f64]| -> Vec<u64> {
        let request = QueryRequest::knn(5).with_band(system.band());
        let results = system.try_query_request(series, request).unwrap().0;
        results.matches.iter().map(|m| m.id).collect()
    };
    for hum in &hums {
        let (a, b) = (top5(&original, &hum.series), top5(&restored, &hum.series));
        assert_eq!(a, b, "persisted database must answer identically");
    }
}
