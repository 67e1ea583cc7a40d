//! End-to-end integration: every substrate chained together.
//!
//! melody (hum-music) → SMF bytes (hum-midi) → melody → time series →
//! warping index (hum-core + hum-index) ← pitch series ← pitch tracker
//! (hum-audio) ← synthesized hum audio ← perturbed notes (hum-music).

use hum_core::engine::QueryRequest;
use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::system::{QbhConfig, QbhResults, QbhSystem};

fn small_db() -> MelodyDatabase {
    MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 12,
        phrases_per_song: 6,
        ..SongbookConfig::default()
    })
}

/// Top-`k` at the system's configured band.
fn knn(system: &QbhSystem, series: &[f64], k: usize) -> QbhResults {
    system.try_query_request(series, QueryRequest::knn(k).with_band(system.band())).unwrap().0
}

#[test]
fn midi_roundtrip_database_equals_direct_database() {
    let config =
        SongbookConfig { songs: 8, phrases_per_song: 4, ..SongbookConfig::default() };
    let direct = MelodyDatabase::from_songbook(&config);
    let roundtrip = MelodyDatabase::from_midi_roundtrip(&config);
    assert_eq!(direct.len(), roundtrip.len());
    for (a, b) in direct.entries().iter().zip(roundtrip.entries()) {
        assert_eq!(a.melody(), b.melody(), "id {}", a.id());
    }
}

#[test]
fn audio_route_and_symbolic_route_agree_on_the_target() {
    let db = small_db();
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let target = 40u64;
    let melody = db.entry(target).unwrap().melody();

    // Symbolic route.
    let mut singer = HummingSimulator::new(SingerProfile::good(), 11);
    let series = singer.sing_series(melody, 0.01);
    let symbolic = knn(&system, &series, 10);

    // Audio route: same sung notes, rendered and re-tracked.
    let mut singer = HummingSimulator::new(SingerProfile::good(), 11);
    let sung = singer.sing_notes(melody);
    let notes: Vec<hum_audio::HumNote> =
        sung.iter().map(|n| hum_audio::HumNote { midi: n.midi, seconds: n.seconds }).collect();
    let audio = hum_audio::HumSynthesizer::new(hum_audio::SynthConfig::default()).render(&notes);
    let acoustic = system.try_query_audio(&audio, 8_000, 10).unwrap().expect("voiced");

    assert!(symbolic.matches.iter().any(|m| m.id == target), "symbolic route missed");
    assert!(acoustic.matches.iter().any(|m| m.id == target), "acoustic route missed");
}

#[test]
fn every_configuration_retrieves_its_own_phrases_exactly() {
    let db = small_db();
    for feature_dims in [8, 16, 32] {
        let config = QbhConfig { feature_dims, ..QbhConfig::default() };
        let system = QbhSystem::build(&db, &config);
        for id in [0u64, 17, 51, 71] {
            let series = db.entry(id).unwrap().melody().to_time_series(4);
            let top = &knn(&system, &series, 1).matches[0];
            assert_eq!(top.id, id, "d={feature_dims}");
            assert!(top.distance < 1e-9);
        }
    }
}

#[test]
fn wav_persistence_roundtrips_through_search() {
    let db = small_db();
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let target = 23u64;
    let mut singer = HummingSimulator::new(SingerProfile::good(), 3);
    let sung = singer.sing_notes(db.entry(target).unwrap().melody());
    let notes: Vec<hum_audio::HumNote> =
        sung.iter().map(|n| hum_audio::HumNote { midi: n.midi, seconds: n.seconds }).collect();
    let audio = hum_audio::HumSynthesizer::new(hum_audio::SynthConfig::default()).render(&notes);

    // Save to WAV bytes and back — the recording-session path.
    let wav = hum_audio::write_wav_mono(&audio, 8_000);
    let (restored, rate) = hum_audio::read_wav_mono(&wav).expect("own WAV parses");
    let results = system.try_query_audio(&restored, rate, 10).unwrap().expect("voiced");
    assert!(results.matches.iter().any(|m| m.id == target));
}

#[test]
fn tempo_and_transposition_invariance_through_the_full_system() {
    let db = small_db();
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let target = 30u64;
    let melody = db.entry(target).unwrap().melody();

    // A "perfect" hum at half tempo, transposed down a fourth.
    let slow_low: Vec<f64> = melody
        .transposed(-5)
        .to_time_series(8) // double the samples per beat = half tempo
        .to_vec();
    let results = knn(&system, &slow_low, 3);
    assert_eq!(results.matches[0].id, target);
    assert!(results.matches[0].distance < 1e-9, "normal form should cancel both distortions");
}
