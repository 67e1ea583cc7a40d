//! End-to-end query latency — the paper's §5.3 timing claim ("from 1 second
//! for the smallest warping width to 10 seconds for the largest" on a
//! Pentium 4): range queries against a 10,000-melody database at increasing
//! warping widths, and k-NN at one width, through the indexed engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hum_core::dtw::band_for_warping_width;
use hum_core::engine::QueryRequest;
use hum_core::normal::NormalForm;
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::generate_hums;
use hum_qbh::system::{QbhConfig, QbhSystem};
use std::hint::black_box;

const LEN: usize = 128;

fn setup() -> (QbhSystem, Vec<Vec<f64>>) {
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 500,
        phrases_per_song: 20,
        ..SongbookConfig::default()
    });
    let indexed = QbhSystem::build(&db, &QbhConfig::default());
    let normal = NormalForm::with_length(LEN);
    let queries: Vec<Vec<f64>> = generate_hums(&db, SingerProfile::good(), 4, 5)
        .into_iter()
        .map(|h| normal.apply(&h.series))
        .collect();
    (indexed, queries)
}

fn bench_range_by_width(c: &mut Criterion) {
    let (new_paa, queries) = setup();
    let radius = (LEN as f64 * 0.2).sqrt();
    let mut group = c.benchmark_group("range_query_10k_melodies");
    group.sample_size(10);
    for delta in [0.02, 0.1, 0.2] {
        let band = band_for_warping_width(delta, LEN);
        group.bench_with_input(BenchmarkId::new("new_paa", delta), &delta, |b, _| {
            b.iter(|| {
                for q in &queries {
                    black_box(new_paa.engine().query(
                        &QueryRequest::range(radius).with_series(q.clone()).with_band(band),
                    ));
                }
            })
        });
    }
    group.finish();
}

fn bench_knn(c: &mut Criterion) {
    let (new_paa, queries) = setup();
    let mut group = c.benchmark_group("knn10_10k_melodies");
    group.sample_size(10);
    let band = band_for_warping_width(0.1, LEN);
    group.bench_function("indexed", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(
                    new_paa
                        .engine()
                        .query(&QueryRequest::knn(10).with_series(q.clone()).with_band(band)),
                );
            }
        })
    });
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("system_build");
    group.sample_size(10);
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: 100,
        phrases_per_song: 20,
        ..SongbookConfig::default()
    });
    group.bench_function("2k_melodies", |b| {
        b.iter(|| QbhSystem::build(&db, &QbhConfig::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_range_by_width, bench_knn, bench_build);
criterion_main!(benches);
