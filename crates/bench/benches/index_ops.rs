//! Micro-benchmarks for the spatial-index backends: build and range query
//! over 10,000 feature vectors in 8 dimensions (the configuration of the
//! paper's large-database experiments).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hum_index::{GridFile, LinearScan, Query, RStarTree, Rect, SpatialIndex};
use std::hint::black_box;

const DIMS: usize = 8;
const N: usize = 10_000;

fn points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
    };
    (0..n).map(|_| (0..DIMS).map(|_| next()).collect()).collect()
}

fn built<T: SpatialIndex>(mut index: T, pts: &[Vec<f64>]) -> T {
    for (i, p) in pts.iter().enumerate() {
        index.insert(i as u64, p.clone());
    }
    index
}

fn bench_build(c: &mut Criterion) {
    let pts = points(N, 1);
    let mut group = c.benchmark_group("index_build_10k");
    group.sample_size(10);
    group.bench_function("rstar", |b| {
        b.iter_batched(
            || pts.clone(),
            |pts| built(RStarTree::new(DIMS), &pts),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("gridfile", |b| {
        b.iter_batched(
            || pts.clone(),
            |pts| built(GridFile::new(DIMS), &pts),
            BatchSize::LargeInput,
        )
    });
    // Ablation: STR bulk loading vs one-at-a-time insertion.
    group.bench_function("rstar_bulk_load", |b| {
        b.iter_batched(
            || pts.iter().enumerate().map(|(i, p)| (i as u64, p.clone())).collect::<Vec<_>>(),
            |items| RStarTree::bulk_load(DIMS, 4096, items),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let pts = points(N, 1);
    let rstar = built(RStarTree::new(DIMS), &pts);
    let grid = built(GridFile::new(DIMS), &pts);
    let linear = built(LinearScan::new(DIMS), &pts);
    let point_q = Query::Point(points(1, 77).remove(0));
    let rect_q = {
        let center = points(1, 78).remove(0);
        let lo: Vec<f64> = center.iter().map(|v| v - 1.0).collect();
        let hi: Vec<f64> = center.iter().map(|v| v + 1.0).collect();
        Query::Rect(Rect::new(lo, hi))
    };

    let mut group = c.benchmark_group("index_query_10k");
    let backends: Vec<(&str, &dyn SpatialIndex)> =
        vec![("rstar", &rstar), ("gridfile", &grid), ("linear", &linear)];
    for (name, index) in backends {
        group.bench_function(BenchmarkId::new("range_point", name), |b| {
            b.iter(|| index.range_query(black_box(&point_q), 3.0))
        });
        group.bench_function(BenchmarkId::new("range_rect", name), |b| {
            b.iter(|| index.range_query(black_box(&rect_q), 2.0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_queries);
criterion_main!(benches);
