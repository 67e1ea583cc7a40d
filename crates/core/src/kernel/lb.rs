//! Blocked envelope-LB accumulation (the cascade's first- and second-pass
//! `f64` lower-bound kernels).
//!
//! Both [`KernelMode`] variants compute the *same* floating-point result,
//! bit for bit: the sum of squared excursions is defined as four
//! independent lane accumulators filled in a fixed block order and combined
//! pairwise at the end (`(a0+a1) + (a2+a3)`). The scalar variant walks that
//! recipe with plain loops; the unrolled variant expresses each 4-wide
//! block as independent lane statements so the optimizer can map the lanes
//! onto vector registers — and on x86-64 with AVX2 available it runs the
//! recipe directly on 256-bit vectors (one lane per vector slot). Because
//! the recipe — not the code shape — defines the rounding order, a shape
//! can only change speed, never bits.
//!
//! Early abandonment is hoisted to block granularity: the running total is
//! compared against the threshold once per [`CHECK_STRIDE`] elements
//! instead of once per element. Squared excursions are non-negative, so
//! prefix sums are monotone non-decreasing and a block-granular check
//! returns `INFINITY` exactly when the full sum exceeds the threshold —
//! the same observable contract as the historical per-element check.

use super::KernelMode;

/// Lane count of the blocked `f64` accumulation. Part of the numeric
/// contract: changing it changes result bits everywhere at once.
pub const F64_LANES: usize = 4;

/// Elements between early-abandon checks (a whole number of lane blocks).
const CHECK_STRIDE: usize = 4 * F64_LANES;

/// Branch-free excursion of `v` outside `[l, u]`: `max(l − v, v − u, 0)`.
///
/// For `l ≤ u` this equals the branchy three-way form: at most one of the
/// differences is positive, and `f64::max` is exact, so the selected value
/// is the identical subtraction result (or exactly `0.0`).
#[inline(always)]
fn excursion(l: f64, u: f64, v: f64) -> f64 {
    (l - v).max(v - u).max(0.0)
}

/// Pairwise combine of the four lane accumulators — the one canonical
/// reduction order.
#[inline(always)]
fn combine(acc: &[f64; F64_LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Folds the trailing `< F64_LANES`-element remainder into the lane
/// accumulators, lane `t` taking tail element `t`. Shared by both variants
/// so the tail order is canonical by construction.
#[inline(always)]
fn accumulate_tail(acc: &mut [f64; F64_LANES], lower: &[f64], upper: &[f64], x: &[f64]) {
    for t in 0..x.len() {
        let d = excursion(lower[t], upper[t], x[t]);
        acc[t] += d * d;
    }
}

/// Sum of squared excursions of `x` outside `[lower, upper]`, blocked
/// accumulation, no early abandon.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn env_lb_sq(mode: KernelMode, lower: &[f64], upper: &[f64], x: &[f64]) -> f64 {
    env_lb_sq_bounded(mode, lower, upper, x, f64::INFINITY)
}

/// Early-abandoning sum of squared excursions: returns `f64::INFINITY` iff
/// the full blocked sum exceeds `threshold_sq`, and the exact blocked sum
/// otherwise. Both modes return identical bits for identical inputs.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn env_lb_sq_bounded(
    mode: KernelMode,
    lower: &[f64],
    upper: &[f64],
    x: &[f64],
    threshold_sq: f64,
) -> f64 {
    assert_eq!(x.len(), lower.len(), "length mismatch");
    assert_eq!(x.len(), upper.len(), "length mismatch");
    match mode {
        KernelMode::Scalar => env_lb_scalar(lower, upper, x, threshold_sq),
        KernelMode::Unrolled => env_lb_unrolled(lower, upper, x, threshold_sq),
    }
}

fn env_lb_scalar(lower: &[f64], upper: &[f64], x: &[f64], threshold_sq: f64) -> f64 {
    let n = x.len();
    let mut acc = [0.0f64; F64_LANES];
    let blocks = n / F64_LANES;
    for b in 0..blocks {
        let base = b * F64_LANES;
        for (lane, a) in acc.iter_mut().enumerate() {
            let i = base + lane;
            let d = excursion(lower[i], upper[i], x[i]);
            *a += d * d;
        }
        if (base + F64_LANES).is_multiple_of(CHECK_STRIDE) && combine(&acc) > threshold_sq {
            return f64::INFINITY;
        }
    }
    let base = blocks * F64_LANES;
    accumulate_tail(&mut acc, &lower[base..], &upper[base..], &x[base..]);
    let total = combine(&acc);
    if total > threshold_sq {
        f64::INFINITY
    } else {
        total
    }
}

fn env_lb_unrolled(lower: &[f64], upper: &[f64], x: &[f64], threshold_sq: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { x86::env_lb_avx2(lower, upper, x, threshold_sq) };
    }
    env_lb_unrolled_portable(lower, upper, x, threshold_sq)
}

fn env_lb_unrolled_portable(lower: &[f64], upper: &[f64], x: &[f64], threshold_sq: f64) -> f64 {
    let mut acc = [0.0f64; F64_LANES];
    let mut lc = lower.chunks_exact(F64_LANES);
    let mut uc = upper.chunks_exact(F64_LANES);
    let mut xc = x.chunks_exact(F64_LANES);
    let mut done = 0usize;
    loop {
        // Up to one check stride of 4-wide blocks, each block written as
        // four independent lane statements (no cross-lane dependency).
        let mut in_stride = 0usize;
        while in_stride < CHECK_STRIDE {
            match (lc.next(), uc.next(), xc.next()) {
                (Some(l), Some(u), Some(v)) => {
                    let d0 = excursion(l[0], u[0], v[0]);
                    let d1 = excursion(l[1], u[1], v[1]);
                    let d2 = excursion(l[2], u[2], v[2]);
                    let d3 = excursion(l[3], u[3], v[3]);
                    acc[0] += d0 * d0;
                    acc[1] += d1 * d1;
                    acc[2] += d2 * d2;
                    acc[3] += d3 * d3;
                    in_stride += F64_LANES;
                }
                _ => break,
            }
        }
        done += in_stride;
        if in_stride < CHECK_STRIDE {
            break;
        }
        if done.is_multiple_of(CHECK_STRIDE) && combine(&acc) > threshold_sq {
            return f64::INFINITY;
        }
    }
    accumulate_tail(&mut acc, lc.remainder(), uc.remainder(), xc.remainder());
    let total = combine(&acc);
    if total > threshold_sq {
        f64::INFINITY
    } else {
        total
    }
}

/// AVX2 form of the unrolled shape: one `__m256d` holds the four lane
/// accumulators, so each vector `add` performs exactly the four lane-wise
/// IEEE additions the scalar recipe performs, in the same order — the
/// result is bit-identical by construction, not by tolerance. The excursion
/// keeps `0.0` as the *second* `max` operand: for the finite inputs the
/// engine admits (it validates at insert and query), `_mm256_max_pd` and
/// `f64::max` then select identical values, and a `±0.0` tie squares to
/// `+0.0` either way.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{accumulate_tail, combine, CHECK_STRIDE, F64_LANES};
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_max_pd, _mm256_mul_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn env_lb_avx2(lower: &[f64], upper: &[f64], x: &[f64], threshold_sq: f64) -> f64 {
        let blocks = x.len() / F64_LANES;
        let stride_blocks = CHECK_STRIDE / F64_LANES;
        let zero = _mm256_setzero_pd();
        let mut acc = zero;
        let mut lanes = [0.0f64; F64_LANES];
        let mut b = 0usize;
        while b < blocks {
            let stop = (b + stride_blocks).min(blocks);
            let stride_is_full = stop - b == stride_blocks;
            while b < stop {
                let i = b * F64_LANES;
                // SAFETY: i + F64_LANES <= blocks * F64_LANES <= len of all
                // three slices (asserted equal by the dispatching caller).
                let l = _mm256_loadu_pd(lower.as_ptr().add(i));
                let u = _mm256_loadu_pd(upper.as_ptr().add(i));
                let v = _mm256_loadu_pd(x.as_ptr().add(i));
                let d = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(l, v), _mm256_sub_pd(v, u)),
                    zero,
                );
                acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
                b += 1;
            }
            if stride_is_full {
                _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
                if combine(&lanes) > threshold_sq {
                    return f64::INFINITY;
                }
            }
        }
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let base = blocks * F64_LANES;
        accumulate_tail(&mut lanes, &lower[base..], &upper[base..], &x[base..]);
        let total = combine(&lanes);
        if total > threshold_sq {
            f64::INFINITY
        } else {
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
            })
            .collect()
    }

    fn bounds(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let a = lcg(seed, n);
        let b = lcg(seed ^ 0x5eed, n);
        let lower: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
        let upper: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
        (lower, upper)
    }

    #[test]
    fn scalar_and_unrolled_are_bit_identical() {
        for n in [0, 1, 3, 4, 7, 15, 16, 17, 63, 64, 65, 200] {
            let (lower, upper) = bounds(n, 42);
            let x = lcg(99, n);
            for thr in [f64::INFINITY, 1e6, 10.0, 1.0, 0.01, 0.0] {
                let s = env_lb_sq_bounded(KernelMode::Scalar, &lower, &upper, &x, thr);
                let u = env_lb_sq_bounded(KernelMode::Unrolled, &lower, &upper, &x, thr);
                assert_eq!(s.to_bits(), u.to_bits(), "n={n} thr={thr}");
            }
        }
    }

    #[test]
    fn portable_unrolled_matches_scalar() {
        // `Unrolled` dispatches to the AVX2 shape wherever the CPU supports
        // it, so the portable lane statements run only when called
        // directly; this pins them to the bits of both other shapes.
        for n in [0, 1, 5, 16, 17, 64, 128, 200] {
            let (lower, upper) = bounds(n, 13);
            let x = lcg(31, n);
            let full = env_lb_sq(KernelMode::Scalar, &lower, &upper, &x);
            for thr in [f64::INFINITY, full, full * 0.99, full * 0.5, 5.0, 0.0] {
                let s = env_lb_sq_bounded(KernelMode::Scalar, &lower, &upper, &x, thr);
                let u = env_lb_sq_bounded(KernelMode::Unrolled, &lower, &upper, &x, thr);
                let p = env_lb_unrolled_portable(&lower, &upper, &x, thr);
                assert_eq!(s.to_bits(), p.to_bits(), "n={n} thr={thr}");
                assert_eq!(u.to_bits(), p.to_bits(), "n={n} thr={thr}");
            }
        }
    }

    #[test]
    fn bounded_agrees_with_unbounded_below_threshold() {
        let n = 100;
        let (lower, upper) = bounds(n, 7);
        let x = lcg(3, n);
        for mode in [KernelMode::Scalar, KernelMode::Unrolled] {
            let full = env_lb_sq(mode, &lower, &upper, &x);
            assert!(full.is_finite());
            let same = env_lb_sq_bounded(mode, &lower, &upper, &x, full);
            assert_eq!(full.to_bits(), same.to_bits());
            assert_eq!(
                env_lb_sq_bounded(mode, &lower, &upper, &x, full * 0.5),
                f64::INFINITY
            );
        }
    }

    #[test]
    fn matches_sequential_reference_closely() {
        let n = 257;
        let (lower, upper) = bounds(n, 21);
        let x = lcg(77, n);
        let mut reference = 0.0;
        for i in 0..n {
            let d = if x[i] < lower[i] {
                lower[i] - x[i]
            } else if x[i] > upper[i] {
                x[i] - upper[i]
            } else {
                0.0
            };
            reference += d * d;
        }
        let blocked = env_lb_sq(KernelMode::Unrolled, &lower, &upper, &x);
        assert!((blocked - reference).abs() <= 1e-9 * reference.max(1.0));
    }

    #[test]
    fn zero_inside_envelope() {
        let x = lcg(5, 40);
        assert_eq!(env_lb_sq(KernelMode::Unrolled, &x, &x, &x), 0.0);
        assert_eq!(env_lb_sq(KernelMode::Scalar, &x, &x, &x), 0.0);
    }
}
