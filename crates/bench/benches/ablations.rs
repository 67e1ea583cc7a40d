//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * envelope second filter on/off in the query engine,
//! * monotonic-deque envelope vs a naive windowed scan,
//! * banded vs full edit distance in the contour baseline,
//! * pitch-tracking cost per second of audio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hum_audio::{track_pitch, HumNote, HumSynthesizer, PitchTrackerConfig, SynthConfig};
use hum_core::dtw::band_for_warping_width;
use hum_core::engine::{DtwIndexEngine, EngineConfig, QueryRequest};
use hum_core::envelope::Envelope;
use hum_core::transform::paa::NewPaa;
use hum_datasets::{generate, DatasetFamily};
use hum_index::RStarTree;
use hum_music::contour::{banded_edit_distance, edit_distance};
use std::hint::black_box;

fn bench_envelope_refinement(c: &mut Criterion) {
    const LEN: usize = 128;
    let database: Vec<Vec<f64>> = generate(DatasetFamily::RandomWalk, 5_000, LEN, 3)
        .into_iter()
        .map(|s| hum_core::normal::NormalForm::z_normalized(LEN).apply(&s))
        .collect();
    let query = hum_core::normal::NormalForm::z_normalized(LEN)
        .apply(&generate(DatasetFamily::RandomWalk, 1, LEN, 999).remove(0));
    let band = band_for_warping_width(0.1, LEN);
    let radius = (LEN as f64 * 0.8).sqrt();

    let mut group = c.benchmark_group("engine_refinement");
    group.sample_size(10);
    for (name, refine) in [("with_lb_filter", true), ("without_lb_filter", false)] {
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(LEN, 8),
            RStarTree::new(8),
            // Other cascade stages off: this ablation isolates the envelope
            // second filter.
            EngineConfig {
                envelope_refinement: refine,
                lb_improved_refinement: false,
                early_abandon: false,
                ..EngineConfig::default()
            },
        );
        for (i, s) in database.iter().enumerate() {
            engine.insert(i as u64, s.clone());
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                let request =
                    QueryRequest::range(radius).with_series(query.clone()).with_band(band);
                black_box(engine.query(&request))
            })
        });
    }
    group.finish();
}

fn bench_envelope_construction(c: &mut Criterion) {
    let x = generate(DatasetFamily::RandomWalk, 1, 4096, 5).remove(0);
    let k = 64;
    let mut group = c.benchmark_group("envelope_construction_4096");
    group.bench_function("monotonic_deque", |b| {
        b.iter(|| Envelope::compute(black_box(&x), k))
    });
    group.bench_function("naive_window", |b| {
        b.iter(|| {
            let n = x.len();
            let mut lower = Vec::with_capacity(n);
            let mut upper = Vec::with_capacity(n);
            for i in 0..n {
                let lo = i.saturating_sub(k);
                let hi = (i + k).min(n - 1);
                let w = &x[lo..=hi];
                lower.push(w.iter().cloned().fold(f64::INFINITY, f64::min));
                upper.push(w.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
            }
            black_box(Envelope::from_bounds(lower, upper))
        })
    });
    group.finish();
}

fn bench_edit_distance(c: &mut Criterion) {
    let a: Vec<u8> = (0..200).map(|i| b"UuSdD"[i % 5]).collect();
    let b_: Vec<u8> = (0..200).map(|i| b"UuSdD"[(i * 3 + 1) % 5]).collect();
    let mut group = c.benchmark_group("edit_distance_200");
    group.bench_function("full", |bch| {
        bch.iter(|| edit_distance(black_box(&a), black_box(&b_)))
    });
    for band in [8usize, 32] {
        group.bench_with_input(BenchmarkId::new("banded", band), &band, |bch, &band| {
            bch.iter(|| banded_edit_distance(black_box(&a), black_box(&b_), band))
        });
    }
    group.finish();
}

fn bench_pitch_tracking(c: &mut Criterion) {
    let synth = HumSynthesizer::new(SynthConfig::default());
    let audio = synth.render(&[
        HumNote { midi: 60.0, seconds: 0.5 },
        HumNote { midi: 64.0, seconds: 0.5 },
    ]);
    let mut group = c.benchmark_group("pitch_tracking");
    group.sample_size(20);
    group.bench_function("autocorrelation", |b| {
        b.iter(|| track_pitch(black_box(&audio), &PitchTrackerConfig::default()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_envelope_refinement,
    bench_envelope_construction,
    bench_edit_distance,
    bench_pitch_tracking
);
criterion_main!(benches);
