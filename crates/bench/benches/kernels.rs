//! Micro-benchmarks for the kernel layer (`hum_core::kernel`): each hot
//! kernel measured as a naive sequential reference vs `KernelMode::Scalar`
//! (blocked, cache-conscious) vs `KernelMode::Unrolled` (explicit 4/8-lane
//! unrolling). `KernelMode::default()` is the unrolled shape engine-wide
//! and scalar is its reference; here both modes are always measured
//! explicitly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hum_core::dtw::{
    band_for_warping_width, ldtw_distance_sq_bounded_with_mode, DtwWorkspace,
};
use hum_core::envelope::{lb_improved_tail_sq_mode, Envelope, LbScratch};
use hum_core::kernel::lb::env_lb_sq;
use hum_core::kernel::KernelMode;
use hum_datasets::{generate, DatasetFamily};
use std::hint::black_box;

fn series_pair(len: usize) -> (Vec<f64>, Vec<f64>) {
    let mut v = generate(DatasetFamily::RandomWalk, 2, len, 99);
    let b = v.pop().expect("two series");
    let a = v.pop().expect("two series");
    (a, b)
}

/// Naive one-pass envelope LB: branchy per-element excursion, single
/// running sum — the shape the kernel layer replaced.
fn env_lb_reference(lower: &[f64], upper: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..x.len() {
        let v = x[i];
        if v > upper[i] {
            let d = v - upper[i];
            acc += d * d;
        } else if v < lower[i] {
            let d = lower[i] - v;
            acc += d * d;
        }
    }
    acc
}

fn bench_envelope_lb(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_env_lb");
    for len in [128usize, 1024] {
        let (x, y) = series_pair(len);
        let k = band_for_warping_width(0.1, len);
        let env = Envelope::compute(&y, k);
        group.bench_with_input(BenchmarkId::new("reference", len), &len, |b, _| {
            b.iter(|| env_lb_reference(black_box(env.lower()), black_box(env.upper()), black_box(&x)))
        });
        for mode in [KernelMode::Scalar, KernelMode::Unrolled] {
            group.bench_with_input(
                BenchmarkId::new(format!("{mode:?}").to_lowercase(), len),
                &len,
                |b, _| {
                    b.iter(|| {
                        env_lb_sq(mode, black_box(env.lower()), black_box(env.upper()), black_box(&x))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_lb_improved(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_lb_improved");
    for len in [128usize, 1024] {
        let (x, y) = series_pair(len);
        let k = band_for_warping_width(0.1, len);
        let env = Envelope::compute(&x, k);
        for mode in [KernelMode::Scalar, KernelMode::Unrolled] {
            group.bench_with_input(
                BenchmarkId::new(format!("{mode:?}").to_lowercase(), len),
                &len,
                |b, _| {
                    let mut scratch = LbScratch::new();
                    b.iter(|| {
                        lb_improved_tail_sq_mode(
                            black_box(&x),
                            &env,
                            black_box(&y),
                            k,
                            f64::INFINITY,
                            &mut scratch,
                            mode,
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_dtw_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_dtw");
    for len in [128usize, 256] {
        let (x, y) = series_pair(len);
        let k = band_for_warping_width(0.1, len);
        for mode in [KernelMode::Scalar, KernelMode::Unrolled] {
            group.bench_with_input(
                BenchmarkId::new(format!("{mode:?}").to_lowercase(), len),
                &len,
                |b, _| {
                    let mut ws = DtwWorkspace::new();
                    b.iter(|| {
                        ldtw_distance_sq_bounded_with_mode(
                            &mut ws,
                            black_box(&x),
                            black_box(&y),
                            k,
                            f64::INFINITY,
                            mode,
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_envelope_lb, bench_lb_improved, bench_dtw_row);
criterion_main!(benches);
