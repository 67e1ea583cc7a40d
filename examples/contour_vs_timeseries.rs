//! Head-to-head: the time-series (warping index) approach vs the
//! traditional contour-string approach, on identical hum queries that went
//! through the acoustic front end — a miniature of the paper's Table 2.
//!
//! ```text
//! cargo run --release -p hum-qbh --example contour_vs_timeseries
//! ```

use hum_music::contour::{
    segment_notes, series_contour, ContourAlphabet, SegmenterConfig,
};
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::{evaluate_contour, evaluate_timeseries, generate_hums_audio, target_ranks};
use hum_qbh::system::{QbhConfig, QbhSystem};

fn main() {
    let db = MelodyDatabase::from_songbook(&SongbookConfig::default());
    let system = QbhSystem::build(&db, &QbhConfig::default());

    // Hums from both singer populations, through synthesis + pitch tracking.
    for (label, profile, seed) in [
        ("good singers", SingerProfile::good(), 2003u64),
        ("poor singers", SingerProfile::poor(), 77u64),
    ] {
        let hums = generate_hums_audio(&db, profile, 20, seed);
        let ts = evaluate_timeseries(&system, &hums, system.band()).expect("valid hum queries");
        let contour = evaluate_contour(&db, &hums, ContourAlphabet::Five);
        println!("=== {} of {} melodies, 20 hums ===", label, db.len());
        println!("  time series : {ts}");
        println!("  contour     : {contour}");
        println!();
    }

    // Show *why* contour struggles: note segmentation of one hummed series.
    let hum = &generate_hums_audio(&db, SingerProfile::good(), 1, 5)[0];
    let melody = db.entry(hum.target).expect("in range").melody();
    let segments = segment_notes(&hum.series, &SegmenterConfig::default());
    println!(
        "Anatomy of one hum: the melody has {} notes; the segmenter recovered {} segments.",
        melody.len(),
        segments.len()
    );
    let recovered = series_contour(&hum.series, &SegmenterConfig::default(), ContourAlphabet::Five);
    let truth = hum_music::contour::melody_contour(melody, ContourAlphabet::Five);
    println!("  true contour      : {}", String::from_utf8_lossy(&truth));
    println!("  recovered contour : {}", String::from_utf8_lossy(&recovered));
    println!(
        "  edit distance     : {} (over {} letters)",
        hum_music::contour::edit_distance(&recovered, &truth),
        truth.len()
    );
    let rank = target_ranks(&system, std::slice::from_ref(hum), system.band(), 10)
        .expect("a tracked hum is a valid query")[0];
    println!(
        "\nThe DTW index needs no segmentation at all: it matched this hum at rank {}.",
        rank.map_or_else(|| "10+".to_string(), |r| r.to_string())
    );
}
