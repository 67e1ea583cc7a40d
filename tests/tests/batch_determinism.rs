//! Cross-crate determinism contract of the batched query layer.
//!
//! The batch entry point of the phrase-segmented QBH system must reproduce
//! a plain sequential loop of single queries bit for bit (matches *and*
//! counters) for every thread count and chunk size.
//!
//! CI runs this file twice, with `HUM_THREADS=1` and `HUM_THREADS=8`; the
//! override feeds `BatchOptions::default()`, which the default-options
//! check below exercises, while the explicit sweep pins threads 1/2/8
//! directly.

use hum_core::batch::BatchOptions;
use hum_music::{HummingSimulator, SingerProfile, Songbook, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::system::{QbhConfig, QbhResults, QbhSystem};

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn songbook() -> Songbook {
    Songbook::generate(&SongbookConfig {
        songs: 10,
        phrases_per_song: 5,
        ..SongbookConfig::default()
    })
}

/// Hums of real phrases plus seeded noise.
fn hums(book: &Songbook, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let song = &book.songs[i % book.songs.len()];
            let phrase = &song.phrases[i % song.phrases.len()];
            HummingSimulator::new(SingerProfile::good(), 400 + i as u64)
                .sing_series(phrase, 0.01)
        })
        .collect()
}

#[test]
fn qbh_system_batch_is_bit_identical_across_thread_counts() {
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 10,
        phrases_per_song: 5,
        ..SongbookConfig::default()
    });
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let queries = hums(&songbook(), 7);
    let expected: Vec<QbhResults> = queries.iter().map(|h| system.query_series(h, 5)).collect();
    for threads in THREAD_SWEEP {
        for chunk in [1, 3] {
            let got = system.query_series_batch(&queries, 5, &BatchOptions::new(threads, chunk));
            assert_eq!(got, expected, "threads={threads} chunk={chunk}");
        }
    }
    // Whatever HUM_THREADS CI sets, defaults must not change answers.
    let via_default = system.query_series_batch(&queries, 5, &BatchOptions::default());
    assert_eq!(via_default, expected, "default options");
}
