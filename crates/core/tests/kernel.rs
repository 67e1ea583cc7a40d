//! Property tests for the kernel layer's load-bearing contract, **mode
//! invariance**: `KernelMode::Scalar` and `KernelMode::Unrolled` return
//! identical bits from every kernel — including the three the engine runs
//! per candidate (envelope bound, `LB_Improved` tail, banded DTW), on every
//! stored series of an engine whose answers equal a brute-force sweep —
//! and the kernel-layer DTW matches a reference transcription of the
//! classic branchy row loop bit for bit.

use hum_core::dtw::{ldtw_distance, ldtw_distance_sq_bounded_with_mode, DtwWorkspace};
use hum_core::engine::{DtwIndexEngine, QueryRequest, QueryScratch};
use hum_core::envelope::{lb_improved_tail_sq_mode, Envelope, LbScratch};
use hum_core::kernel::lb::env_lb_sq_bounded;
use hum_core::kernel::KernelMode;
use hum_core::transform::paa::NewPaa;
use hum_index::LinearScan;
use proptest::prelude::*;

const LEN: usize = 32;
const MODES: [KernelMode; 2] = [KernelMode::Scalar, KernelMode::Unrolled];

fn series() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-20.0f64..20.0, LEN..=LEN)
}

/// Reference transcription of the pre-kernel-layer banded DTW row loop
/// (branchy three-way min, full O(width) row reset), kept here as the
/// bit-identity oracle for the restructured kernel.
#[allow(clippy::needless_range_loop)] // explicit i/j indices mirror the DP recurrence
fn ldtw_reference(x: &[f64], y: &[f64], k: usize, threshold_sq: f64) -> f64 {
    let n = x.len();
    let k = k.min(n - 1);
    let width = 2 * k + 1;
    let inf = f64::INFINITY;
    let mut prev = vec![inf; width];
    let mut curr = vec![inf; width];
    let mut acc = 0.0;
    for j in 0..=k.min(n - 1) {
        let d = x[0] - y[j];
        acc += d * d;
        prev[j + k] = acc;
    }
    if prev[k] > threshold_sq {
        return inf;
    }
    for i in 1..n {
        curr.iter_mut().for_each(|v| *v = inf);
        let j_lo = i.saturating_sub(k);
        let j_hi = (i + k).min(n - 1);
        let mut row_min = inf;
        for j in j_lo..=j_hi {
            let slot = j + k - i;
            let d = x[i] - y[j];
            let cost = d * d;
            let mut best = inf;
            if slot + 1 < width {
                best = best.min(prev[slot + 1]);
            }
            best = best.min(prev[slot]);
            if slot > 0 {
                best = best.min(curr[slot - 1]);
            }
            let cell = cost + best;
            curr[slot] = cell;
            row_min = row_min.min(cell);
        }
        if row_min > threshold_sq {
            return inf;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[k]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Scalar and unrolled modes return identical bits from both kernels,
    /// bounded or not.
    #[test]
    fn modes_are_bit_identical(
        y in series(),
        x in series(),
        k in 0usize..10,
        thr in prop_oneof![0.0f64..400.0, Just(f64::INFINITY)],
    ) {
        let env = Envelope::compute(&y, k);
        let a = env_lb_sq_bounded(KernelMode::Scalar, env.lower(), env.upper(), &x, thr);
        let b = env_lb_sq_bounded(KernelMode::Unrolled, env.lower(), env.upper(), &x, thr);
        prop_assert_eq!(a.to_bits(), b.to_bits(), "env lb: {} vs {}", a, b);

        let mut ws = DtwWorkspace::new();
        let da = ldtw_distance_sq_bounded_with_mode(&mut ws, &x, &y, k, thr, KernelMode::Scalar);
        let db = ldtw_distance_sq_bounded_with_mode(&mut ws, &x, &y, k, thr, KernelMode::Unrolled);
        prop_assert_eq!(da.to_bits(), db.to_bits(), "dtw: {} vs {}", da, db);
    }

    /// The restructured DTW kernel is bit-identical to the classic branchy
    /// loop — distance and abandon behavior both.
    #[test]
    fn dtw_kernel_matches_classic_loop(
        x in series(),
        y in series(),
        k in 0usize..=LEN,
        thr in prop_oneof![0.0f64..400.0, Just(f64::INFINITY)],
    ) {
        let reference = ldtw_reference(&x, &y, k, thr);
        let mut ws = DtwWorkspace::new();
        for mode in MODES {
            let got = ldtw_distance_sq_bounded_with_mode(&mut ws, &x, &y, k, thr, mode);
            prop_assert_eq!(got.to_bits(), reference.to_bits(), "mode {:?}: {} vs {}", mode, got, reference);
        }
    }

    /// Engine-level: the range and k-NN answers are a brute-force sweep's,
    /// bit for bit, in fresh and in reused scratch; and the
    /// three kernels the engine runs per candidate return the same bits in
    /// both modes for every stored series, at the query's threshold and
    /// unbounded.
    #[test]
    fn engine_matches_sweep_and_its_candidate_kernels_are_mode_invariant(
        seed in any::<u64>(),
        band in 0usize..6,
        k in 1usize..6,
        radius in 0.5f64..6.0,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let database: Vec<Vec<f64>> = (0..60)
            .map(|_| {
                let mut acc = 0.0;
                (0..LEN).map(|_| { acc += next(); acc }).collect()
            })
            .collect();
        let query: Vec<f64> = {
            let mut acc = 0.0;
            (0..LEN).map(|_| { acc += next(); acc }).collect()
        };

        let mut all: Vec<(u64, f64)> = database
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, ldtw_distance(&query, s, band)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let swept: Vec<(u64, f64)> = all.iter().copied().filter(|&(_, d)| d <= radius).collect();

        let mut engine = DtwIndexEngine::new(NewPaa::new(LEN, 4), LinearScan::new(4));
        for (i, s) in database.iter().enumerate() {
            engine.try_insert(i as u64, s.clone()).unwrap();
        }
        let mut scratch = QueryScratch::new();
        let range = QueryRequest::range(radius).with_series(query.clone()).with_band(band);
        let knn = QueryRequest::knn(k).with_series(query.clone()).with_band(band);
        prop_assert_eq!(&engine.try_query_with(&range, &mut scratch).unwrap().result.matches, &swept);
        prop_assert_eq!(&engine.try_query(&range).unwrap().result.matches, &swept);
        let top = &all[..k];
        prop_assert_eq!(&engine.try_query_with(&knn, &mut scratch).unwrap().result.matches, top);
        prop_assert_eq!(&engine.try_query(&knn).unwrap().result.matches, top);

        let env = Envelope::compute(&query, band);
        let (mut ws, mut lb) = (DtwWorkspace::new(), LbScratch::new());
        for (i, s) in database.iter().enumerate() {
            for thr in [radius * radius, f64::INFINITY] {
                let [scalar, unrolled] = MODES.map(|mode| {
                    let env_lb = env.distance_sq_bounded_mode(s, thr, mode);
                    let tail =
                        lb_improved_tail_sq_mode(&query, &env, s, band, thr - env_lb, &mut lb, mode);
                    let dtw = ldtw_distance_sq_bounded_with_mode(&mut ws, &query, s, band, thr, mode);
                    [env_lb.to_bits(), tail.to_bits(), dtw.to_bits()]
                });
                prop_assert_eq!(
                    scalar, unrolled,
                    "series {} at threshold {}: [env lb, LB_Improved tail, dtw]", i, thr
                );
            }
        }
    }
}

#[test]
fn scratch_reuse_across_mixed_queries_is_invisible() {
    // One scratch reused across queries of different bands/lengths of
    // staging must not leak state between queries.
    let database: Vec<Vec<f64>> = (0..40)
        .map(|s| (0..LEN).map(|t| ((t * (s + 2)) as f64 * 0.13).sin() * 3.0).collect())
        .collect();
    let query: Vec<f64> = (0..LEN).map(|t| (t as f64 * 0.21).cos() * 2.0).collect();
    let mut engine = DtwIndexEngine::new(NewPaa::new(LEN, 4), LinearScan::new(4));
    for (i, s) in database.iter().enumerate() {
        engine.try_insert(i as u64, s.clone()).unwrap();
    }
    let mut scratch = QueryScratch::new();
    let mut first = Vec::new();
    for (band, radius) in [(0usize, 2.0), (5, 8.0), (2, 4.0), (7, 1.0)] {
        let request = QueryRequest::range(radius).with_series(query.clone()).with_band(band);
        first.push(engine.try_query_with(&request, &mut scratch).unwrap().result);
    }
    // Same queries, fresh scratch each: must agree exactly.
    for ((band, radius), want) in [(0usize, 2.0), (5, 8.0), (2, 4.0), (7, 1.0)].iter().zip(&first)
    {
        let request = QueryRequest::range(*radius).with_series(query.clone()).with_band(*band);
        let got = engine.try_query(&request).unwrap().result;
        assert_eq!(&got, want);
    }
}
