//! Index tuning: compare envelope transforms on the same workload —
//! candidates and exact-DTW counts per query. (The product's flat index
//! reads every page; `repro -- extras` compares page-counting backends.)
//!
//! Illustrates the paper's two engineering points: (1) the New_PAA envelope
//! transform prunes far better than Keogh_PAA at every warping width, and
//! (2) one index serves every warping width, because the band is a
//! query-time parameter.
//!
//! ```text
//! cargo run --release -p hum-qbh --example index_tuning
//! ```

use hum_core::engine::QueryRequest;
use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::system::{QbhConfig, QbhSystem, TransformKind};

fn main() {
    let db = MelodyDatabase::from_songbook(&SongbookConfig::default());

    // Twenty shared hum queries.
    let targets: Vec<u64> = (0..20).map(|i| (i * 97 + 13) % db.len() as u64).collect();
    let hums: Vec<Vec<f64>> = targets
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            HummingSimulator::new(SingerProfile::good(), 100 + i as u64)
                .sing_series(db.entry(t).expect("in range").melody(), 0.01)
        })
        .collect();

    println!("Transform comparison on {} melodies, k-NN(10):\n", db.len());
    println!("{:<12} {:>12} {:>14} {:>10}", "transform", "candidates", "exact DTWs", "hit@1");
    for transform in [
        TransformKind::NewPaa,
        TransformKind::KeoghPaa,
        TransformKind::Dft,
        TransformKind::Dwt,
        TransformKind::Svd,
    ] {
        let system = QbhSystem::build(
            &db,
            &QbhConfig { transform: transform.into(), ..QbhConfig::default() },
        );
        let (mut cand, mut exact, mut hits) = (0u64, 0u64, 0usize);
        for (hum, &target) in hums.iter().zip(&targets) {
            let r = system.query_series(hum, 10);
            cand += r.stats.index.candidates;
            exact += r.stats.exact_computations;
            if r.matches.first().is_some_and(|m| m.id == target) {
                hits += 1;
            }
        }
        let (n, name) = (hums.len() as f64, format!("{transform:?}"));
        println!("{name:<12} {:>12.1} {:>14.1} {hits:>7}/{n}", cand as f64 / n, exact as f64 / n);
    }

    println!("\nOne index, every warping width (New_PAA, range radius 5.0):\n");
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
