//! Integration tests for the extensions beyond the paper's headline
//! experiments: subsequence song search, store persistence, retrieval
//! metrics, the L1 variant, key finding, and the HPS tracker — each
//! exercised across crate boundaries.

use hum_core::dtw::band_for_warping_width;
use hum_music::{HummingSimulator, SingerProfile, Songbook, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::{generate_hums, retrieval_metrics, target_ranks};
use hum_qbh::fault::TempPath;
use hum_qbh::songsearch::{SongSearch, SongSearchConfig};
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
fn phrase_system_and_song_search_agree_on_the_source_song() {
    let book = Songbook::generate(&songbook_config());
    let db = MelodyDatabase::from_songbook(&songbook_config());
    let phrase_system = QbhSystem::build(&db, &QbhConfig::default());
    let song_search = SongSearch::build(&book, &SongSearchConfig::default());

    // Targets span four different songs, restricted to phrases whose length
    // is reasonably covered by the song-search window: whole-song subsequence
    // matching cannot rank a phrase first when the fixed window covers far
    // more (or less) material than the hum, so very short/long phrases are
    // out of scope for this agreement check.
    let mut agreements = 0;
    for (i, target) in [3u64, 22, 33, 41].iter().enumerate() {
        let entry = db.entry(*target).unwrap();
        let mut singer = HummingSimulator::new(SingerProfile::good(), 300 + i as u64);
        let hum = singer.sing_series(entry.melody(), 0.01);
        let phrase_hit = phrase_system.query_series(&hum, 1).matches[0].song;
        let song_hit = song_search.query(&hum, 1).matches[0].song;
        if phrase_hit == song_hit && song_hit == entry.song() {
            agreements += 1;
        }
    }
    assert!(agreements >= 3, "only {agreements}/4 hums agreed across both systems");
}

#[test]
fn l1_lower_bound_chain_holds_on_real_hums() {
    // The L1 extension's no-false-negative chain, exercised end-to-end on
    // simulated hums against the melody corpus:
    //   L1Paa feature bound  <=  L1 envelope bound  <=  L1 banded DTW.
    let db = MelodyDatabase::from_songbook(&songbook_config());
    let normal = hum_core::normal::NormalForm::with_length(128);
    let paa = hum_core::l1::L1Paa::new(128, 8);
    let band = band_for_warping_width(0.1, 128);

    for (i, target) in [3u64, 19, 36].iter().enumerate() {
        let mut singer = HummingSimulator::new(SingerProfile::poor(), 900 + i as u64);
        let hum = singer.sing_series(db.entry(*target).unwrap().melody(), 0.01);
        let query = normal.apply(&hum);
        let env = hum_core::envelope::Envelope::compute(&query, band);
        let image = paa.project_envelope(&env);
        for entry in db.entries().iter().take(25) {
            let series = normal.apply(&entry.melody().to_time_series(4));
            let dtw = hum_core::l1::l1_ldtw(&query, &series, band);
            let lb_env = hum_core::l1::l1_envelope_distance(&env, &series);
            let lb_feat = paa.lower_bound(&image, &paa.project(&series));
            assert!(lb_env <= dtw + 1e-9, "envelope bound violated for id {}", entry.id());
            assert!(lb_feat <= lb_env + 1e-9, "feature bound violated for id {}", entry.id());
        }
    }
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

#[test]
fn both_pitch_trackers_feed_the_same_search_answer() {
    let db = MelodyDatabase::from_songbook(&songbook_config());
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let target = 18u64;
    let mut singer = HummingSimulator::new(SingerProfile::good(), 13);
    let sung = singer.sing_notes(db.entry(target).unwrap().melody());
    let notes: Vec<hum_audio::HumNote> =
        sung.iter().map(|n| hum_audio::HumNote { midi: n.midi, seconds: n.seconds }).collect();
    let audio = hum_audio::HumSynthesizer::new(hum_audio::SynthConfig::default()).render(&notes);

    let cfg = hum_audio::PitchTrackerConfig::default();
    let acf_series = hum_audio::track_pitch(&audio, &cfg).voiced_series();
    let hps_series = hum_audio::track_pitch_hps(&audio, &cfg).voiced_series();
    assert!(!acf_series.is_empty() && !hps_series.is_empty());
    let acf_top = system.query_series(&acf_series, 3);
    let hps_top = system.query_series(&hps_series, 3);
    assert!(acf_top.matches.iter().any(|m| m.id == target), "ACF route missed");
    assert!(hps_top.matches.iter().any(|m| m.id == target), "HPS route missed");
}
