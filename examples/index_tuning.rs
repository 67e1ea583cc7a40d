//! Index tuning: one index serves every warping width, because the band is
//! a query-time parameter — candidates and matches per range query as the
//! width grows. (`repro -- extras` compares the envelope transforms'
//! pruning, and `repro -- scale` the New_PAA feature dimension.)
//!
//! ```text
//! cargo run --release -p hum-qbh --example index_tuning
//! ```

use hum_core::engine::QueryRequest;
use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::system::{QbhConfig, QbhSystem};

fn main() {
    let db = MelodyDatabase::from_songbook(&SongbookConfig::default());

    // Twenty hum queries.
    let hums: Vec<Vec<f64>> = (0..20u64)
        .map(|i| {
            let target = (i * 97 + 13) % db.len() as u64;
            HummingSimulator::new(SingerProfile::good(), 100 + i)
                .sing_series(db.entry(target).expect("in range").melody(), 0.01)
        })
        .collect();

    println!("One index, every warping width ({} melodies, range radius 5.0):\n", db.len());
    let system = QbhSystem::build(&db, &QbhConfig::default());
    println!("{:<8} {:>12} {:>10}", "delta", "candidates", "matches");
    for delta in [0.02, 0.05, 0.1, 0.2] {
        let band = hum_core::band_for_warping_width(delta, 128);
        let (mut cand, mut matches) = (0u64, 0u64);
        for hum in &hums {
            let request = QueryRequest::range(5.0).with_band(band);
            let (r, _) = system.try_query_request(hum, request).expect("well-formed hum");
            cand += r.stats.index.candidates;
            matches += r.stats.matches;
        }
        let n = hums.len() as f64;
        println!("{:<8} {:>12.1} {:>10.1}", delta, cand as f64 / n, matches as f64 / n);
    }
}
