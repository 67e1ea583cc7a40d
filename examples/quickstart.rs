//! Quickstart: build a melody database, hum a phrase, find the song.
//!
//! ```text
//! cargo run --release -p hum-qbh --example quickstart
//! ```

use hum_core::engine::QueryRequest;
use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::system::{QbhConfig, QbhSystem};

fn main() {
    // 1. A music database: 50 generated songs segmented into 1000 phrase
    //    melodies, the corpus shape of the paper's experiments.
    let db = MelodyDatabase::from_songbook(&SongbookConfig::default());
    println!("Indexed {} phrase melodies from 50 songs.", db.len());

    // 2. Build the warping index: normal forms of length 128, reduced to 8
    //    dimensions with the paper's New_PAA envelope transform, stored in
    //    an R*-tree.
    let system = QbhSystem::build(&db, &QbhConfig::default());

    // 3. Hum a phrase. The simulator reproduces typical humming errors:
    //    wrong absolute pitch, a different tempo, per-note timing jitter.
    let target = 437u64;
    let entry = db.entry(target).expect("in range");
    println!(
        "\nHumming phrase {} of \"{}\" ({} notes)...",
        entry.phrase(),
        format_args!("song {:02}", entry.song()),
        entry.melody().len()
    );
    let mut singer = HummingSimulator::new(SingerProfile::good(), 42);
    let hum = singer.sing_series(entry.melody(), 0.01);

    // 4. Search: envelope transform of the query -> R*-tree range/k-NN ->
    //    exact DTW refinement. No false negatives, few candidates.
    let request = QueryRequest::knn(5).with_band(system.band());
    let (results, _trace) = system.try_query_request(&hum, request).expect("a valid query");
    println!("\nTop 5 matches (band-constrained DTW distance):");
    for (rank, m) in results.matches.iter().enumerate() {
        let marker = if m.id == target { "  <-- the hummed phrase" } else { "" };
        println!(
            "  {}. song {:02} phrase {:02}  distance {:8.3}{}",
            rank + 1,
            m.song,
            m.phrase,
            m.distance,
            marker
        );
    }
    println!(
        "\nWork done: {} index candidates, {} exact DTW computations, {} page accesses.",
        results.stats.index.candidates,
        results.stats.exact_computations,
        results.stats.index.node_accesses,
    );
}
