//! A provably conservative `f32` prefilter for the envelope-LB stage.
//!
//! The cascade's first `f64` pass charges each candidate the squared
//! excursion of its samples outside the query envelope. This module runs a
//! cheap `f32` version of that pass first, built so its result is **always
//! an underestimate** of the `f64` bound — so pruning on it can never drop
//! a candidate the exact chain would keep (zero false negatives, the
//! paper's Theorem-1 contract), while letting the expensive `f64` work run
//! only on survivors.
//!
//! ## The conservative-rounding argument
//!
//! Three error sources separate the `f32` sum from the `f64` bound, and
//! each is bounded in the safe direction:
//!
//! 1. **Input rounding** is *directed*. Candidate samples `v` are stored
//!    as a mirror `cd ≤ v ≤ cu` ([`f32_down`]/[`f32_up`]); the staged
//!    query envelope keeps `ld ≤ lower` and `uu ≥ upper`. The per-element
//!    real value `e = max(ld − cu, cd − uu, 0)` then satisfies
//!    `e ≤ max(lower − v, v − upper, 0)`, the true excursion, because each
//!    argument only moved down.
//! 2. **Arithmetic rounding** in the `f32` pass (subtract, square, the
//!    blocked adds, the horizontal combine) rounds to nearest, so it can
//!    inflate. Every op inflates by at most `(1 + u)` relatively, with
//!    `u = 2⁻²⁴`; for a padded length `P` there are `P/8` adds per lane
//!    plus a dozen combining ops, so the computed sum is at most
//!    `(1 + u)^(P/8 + 12)` times the real sum of the `e²`.
//! 3. The **final deflation** multiplies the widened sum by
//!    `1 − (P/8 + 16)·2⁻²³` in `f64`. Since `(P/8 + 16)·2⁻²³ =
//!    (P/4 + 32)·u` strictly exceeds the worst-case inflation exponent
//!    bound `(P/8 + 12)·u` (and the `f64` chain's own deficit, at `2⁻⁵³`
//!    scale, is orders of magnitude below the slack), the deflated value
//!    is `≤` the real excursion sum, hence `≤` the `f64` kernel's result.
//!
//! Non-finite corner cases cannot produce a false negative either:
//! directed conversion never yields `+∞` on the down side or `−∞` on the
//! up side, so no subtraction is `∞ − ∞` (no NaN), and an overflowed `+∞`
//! sum fails [`prefilter_exceeds`]'s `is_finite` gate — the candidate just
//! falls through to the exact pass.
//!
//! ## The early exit
//!
//! [`prefilter_exceeds`] stops at the first check boundary (every four lane
//! blocks) where the deflated sum *so far* already exceeds the threshold.
//! Partial sums only grow (non-negative terms, monotone rounding), so
//! whenever the full sum is finite the decision is the full sum's; and a
//! partial sum is itself a conservative bound, so in the one remaining
//! case — a finite partial sum above the threshold ahead of a later `f32`
//! overflow, where the full-sum gate would abstain — the prune is still
//! one the exact pass makes.
//!
//! Counters stay bit-identical with the prefilter on or off: a prefilter
//! prune implies the `f64` envelope pass would have pruned too, so the
//! engine books it under the same `lb_pruned` statistic.

use super::soa::AlignedF32;
use super::KernelMode;
use crate::envelope::Envelope;

/// Lane count of the blocked `f32` accumulation (part of the numeric
/// contract, like [`super::lb::F64_LANES`]).
pub const F32_LANES: usize = 8;

/// Largest finite `f32` strictly below `x` (`x` finite and not already the
/// minimum); identity on NaN and `−∞`. Bit-twiddled because the std
/// equivalent is newer than the workspace MSRV.
fn next_down_f32(x: f32) -> f32 {
    if x.is_nan() || x == f32::NEG_INFINITY {
        return x;
    }
    if x == 0.0 {
        // Covers both zeros: the next value down is the smallest negative
        // subnormal.
        return -f32::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f32::from_bits(bits - 1)
    } else {
        f32::from_bits(bits + 1)
    }
}

/// Smallest finite `f32` strictly above `x`; identity on NaN and `+∞`.
fn next_up_f32(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f32::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f32::from_bits(bits + 1)
    } else {
        f32::from_bits(bits - 1)
    }
}

/// Rounds `v` **down** to an `f32`: the result, widened back to `f64`, is
/// `≤ v`. Never returns `+∞` for finite `v`.
pub fn f32_down(v: f64) -> f32 {
    let c = v as f32; // round-to-nearest; saturates to ±∞
    if (c as f64) > v {
        next_down_f32(c)
    } else {
        c
    }
}

/// Rounds `v` **up** to an `f32`: the result, widened back to `f64`, is
/// `≥ v`. Never returns `−∞` for finite `v`.
pub fn f32_up(v: f64) -> f32 {
    let c = v as f32;
    if (c as f64) < v {
        next_up_f32(c)
    } else {
        c
    }
}

/// Writes the directed-rounded mirror of `series` into the heads of two
/// planes at least as long: `down[i] ≤ series[i] ≤ up[i]`. Cells past the
/// series are left as they are (zero, for a plane to be used as padding).
pub(crate) fn mirror_into(series: &[f64], down: &mut [f32], up: &mut [f32]) {
    for ((&v, d), u) in series.iter().zip(down).zip(up) {
        *d = f32_down(v);
        *u = f32_up(v);
    }
}

/// Directed-rounded `f32` mirror of a stored series: `down[i] ≤ v[i] ≤
/// up[i]` pointwise. Built once at insert time, padded with zeros (which
/// contribute exactly `0` excursion against the zero-padded envelope).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesMirror {
    down: AlignedF32,
    up: AlignedF32,
}

impl SeriesMirror {
    /// Builds the mirror of `series`.
    pub fn build(series: &[f64]) -> Self {
        let mut down = AlignedF32::new();
        let mut up = AlignedF32::new();
        down.reset(series.len(), 0.0);
        up.reset(series.len(), 0.0);
        mirror_into(series, down.as_mut_slice(), up.as_mut_slice());
        SeriesMirror { down, up }
    }

    /// Logical series length.
    pub fn len(&self) -> usize {
        self.down.len()
    }

    /// `true` for the mirror of an empty series.
    pub fn is_empty(&self) -> bool {
        self.down.is_empty()
    }

    /// The round-down samples (padded slice).
    pub fn down(&self) -> &[f32] {
        self.down.as_slice()
    }

    /// The round-up samples (padded slice).
    pub fn up(&self) -> &[f32] {
        self.up.as_slice()
    }
}

/// The query envelope staged for the prefilter: lower bounds rounded down,
/// upper bounds rounded up, zero-padded, plus the deflation factor for the
/// staged length. Owned by `QueryScratch` and restaged once per query.
#[derive(Debug, Clone, Default)]
pub struct PrefilterEnvelope {
    lower_down: AlignedF32,
    upper_up: AlignedF32,
    deflate: f64,
}

impl PrefilterEnvelope {
    /// Empty staging area; buffers grow on first use.
    pub fn new() -> Self {
        PrefilterEnvelope::default()
    }

    /// Restages `env` for prefiltering.
    pub fn stage(&mut self, env: &Envelope) {
        let n = env.len();
        self.lower_down.reset(n, 0.0);
        self.upper_up.reset(n, 0.0);
        for (i, (&l, &u)) in env.lower().iter().zip(env.upper()).enumerate() {
            self.lower_down.as_mut_slice()[i] = f32_down(l);
            self.upper_up.as_mut_slice()[i] = f32_up(u);
        }
        let adds_per_lane = self.lower_down.padded_len() / F32_LANES;
        self.deflate = (1.0 - (adds_per_lane + 16) as f64 * (f32::EPSILON as f64)).max(0.0);
    }

    /// Staged logical length (0 until first staged).
    pub fn len(&self) -> usize {
        self.lower_down.len()
    }

    /// `true` until the first [`PrefilterEnvelope::stage`].
    pub fn is_empty(&self) -> bool {
        self.lower_down.is_empty()
    }
}

/// The conservative `f32` lower bound on the `f64` envelope-LB of the
/// mirrored candidate against the staged envelope. Guaranteed `≤` the
/// value `env_lb_sq` computes in `f64` (or non-finite, which callers must
/// treat as "no information"). Both modes return identical bits.
///
/// # Panics
/// Panics if the staged envelope length differs from the mirror length.
pub fn conservative_lb_sq(mode: KernelMode, env: &PrefilterEnvelope, mirror: &SeriesMirror) -> f64 {
    assert_eq!(env.len(), mirror.len(), "length mismatch");
    bounded_lb_sq(mode, env, mirror.down(), mirror.up(), f64::INFINITY)
}

/// Elements between early-exit checks (a whole number of lane blocks).
const CHECK_STRIDE: usize = 4 * F32_LANES;

/// The deflated lane sum over the first blocks of the padded planes: all of
/// them, or — the early exit — up to the first [`CHECK_STRIDE`] boundary at
/// which the deflated sum so far already exceeds `threshold_sq`.
///
/// Squared excursions are non-negative and rounding is monotone, so every
/// lane accumulator, their [`horizontal`] combine and its deflated widening
/// only grow from block to block: a partial sum above the threshold means
/// the full sum is above it too, and a partial sum is itself a conservative
/// bound (fewer rounded additions than the deflation allows for, fewer
/// non-negative terms). Every shape checks at the same boundaries with the
/// same arithmetic, so they stop at the same block and return the same
/// bits.
fn bounded_lb_sq(
    mode: KernelMode,
    env: &PrefilterEnvelope,
    down: &[f32],
    up: &[f32],
    threshold_sq: f64,
) -> f64 {
    let ld = env.lower_down.as_slice();
    let uu = env.upper_up.as_slice();
    assert_eq!(ld.len(), down.len(), "padded length mismatch");
    assert_eq!(ld.len(), up.len(), "padded length mismatch");
    let acc = match mode {
        KernelMode::Scalar => accumulate_scalar(ld, uu, down, up, env.deflate, threshold_sq),
        KernelMode::Unrolled => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime; the
                // four slices have equal lengths (asserted above).
                let acc =
                    unsafe { x86::accumulate_avx2(ld, uu, down, up, env.deflate, threshold_sq) };
                return deflated(env.deflate, &acc);
            }
            accumulate_portable(ld, uu, down, up, env.deflate, threshold_sq)
        }
    };
    // Padded length is a multiple of F32_LANES, so there is no tail.
    deflated(env.deflate, &acc)
}

/// The deflated, widened combine of the lane accumulators: the value every
/// early-exit check and the final result are computed as.
#[inline(always)]
fn deflated(deflate: f64, acc: &[f32; F32_LANES]) -> f64 {
    deflate * (horizontal(acc) as f64)
}

/// `true` at a [`CHECK_STRIDE`] boundary short of the end where the sum so
/// far already exceeds the threshold.
#[inline(always)]
fn exits_at(
    done: usize,
    len: usize,
    deflate: f64,
    acc: &[f32; F32_LANES],
    threshold_sq: f64,
) -> bool {
    done < len && done.is_multiple_of(CHECK_STRIDE) && deflated(deflate, acc) > threshold_sq
}

/// The reference shape: one lane at a time.
fn accumulate_scalar(
    ld: &[f32],
    uu: &[f32],
    cd: &[f32],
    cu: &[f32],
    deflate: f64,
    threshold_sq: f64,
) -> [f32; F32_LANES] {
    let p = ld.len();
    let mut acc = [0.0f32; F32_LANES];
    let mut i = 0;
    while i + F32_LANES <= p {
        for (lane, a) in acc.iter_mut().enumerate() {
            let t = i + lane;
            let e = (ld[t] - cu[t]).max(cd[t] - uu[t]).max(0.0);
            *a += e * e;
        }
        i += F32_LANES;
        if exits_at(i, p, deflate, &acc, threshold_sq) {
            break;
        }
    }
    acc
}

/// The unrolled shape for targets without AVX2: eight independent lane
/// statements per block the optimizer can map onto whatever vectors the
/// target has.
fn accumulate_portable(
    ld: &[f32],
    uu: &[f32],
    cd: &[f32],
    cu: &[f32],
    deflate: f64,
    threshold_sq: f64,
) -> [f32; F32_LANES] {
    let p = ld.len();
    let mut acc = [0.0f32; F32_LANES];
    let mut i = 0;
    while i + F32_LANES <= p {
        let e0 = (ld[i] - cu[i]).max(cd[i] - uu[i]).max(0.0);
        let e1 = (ld[i + 1] - cu[i + 1]).max(cd[i + 1] - uu[i + 1]).max(0.0);
        let e2 = (ld[i + 2] - cu[i + 2]).max(cd[i + 2] - uu[i + 2]).max(0.0);
        let e3 = (ld[i + 3] - cu[i + 3]).max(cd[i + 3] - uu[i + 3]).max(0.0);
        let e4 = (ld[i + 4] - cu[i + 4]).max(cd[i + 4] - uu[i + 4]).max(0.0);
        let e5 = (ld[i + 5] - cu[i + 5]).max(cd[i + 5] - uu[i + 5]).max(0.0);
        let e6 = (ld[i + 6] - cu[i + 6]).max(cd[i + 6] - uu[i + 6]).max(0.0);
        let e7 = (ld[i + 7] - cu[i + 7]).max(cd[i + 7] - uu[i + 7]).max(0.0);
        acc[0] += e0 * e0;
        acc[1] += e1 * e1;
        acc[2] += e2 * e2;
        acc[3] += e3 * e3;
        acc[4] += e4 * e4;
        acc[5] += e5 * e5;
        acc[6] += e6 * e6;
        acc[7] += e7 * e7;
        i += F32_LANES;
        if exits_at(i, p, deflate, &acc, threshold_sq) {
            break;
        }
    }
    acc
}

/// Pairwise combine of the eight lane accumulators — the one canonical
/// reduction order, shared by every shape.
#[inline(always)]
fn horizontal(acc: &[f32; F32_LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// AVX2 form of the unrolled shape: one `__m256` holds the eight `f32`
/// lane accumulators, so each vector `add` performs exactly the lane-wise
/// additions the scalar recipe performs, in the same order — bit-identical
/// by construction. `0.0` stays the *second* `max` operand; the directed
/// mirrors and the staged envelope can saturate to `±∞` (in the direction
/// that keeps every subtraction NaN-free), where both `max` semantics
/// agree, and an overflowed `+∞` lane flows into the same non-finite sum
/// the portable shape produces.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{exits_at, CHECK_STRIDE, F32_LANES};
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_mul_ps, _mm256_setzero_ps,
        _mm256_storeu_ps, _mm256_sub_ps,
    };

    /// # Safety
    /// Caller must have verified AVX2 support at runtime and that the four
    /// slices have equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_avx2(
        ld: &[f32],
        uu: &[f32],
        cd: &[f32],
        cu: &[f32],
        deflate: f64,
        threshold_sq: f64,
    ) -> [f32; F32_LANES] {
        let p = ld.len();
        let zero = _mm256_setzero_ps();
        let mut acc = zero;
        let mut lanes = [0.0f32; F32_LANES];
        let mut i = 0;
        while i + F32_LANES <= p {
            // SAFETY: i + F32_LANES <= len of all four padded slices (equal
            // lengths guaranteed by the caller).
            let l = _mm256_loadu_ps(ld.as_ptr().add(i));
            let u = _mm256_loadu_ps(uu.as_ptr().add(i));
            let d = _mm256_loadu_ps(cd.as_ptr().add(i));
            let c = _mm256_loadu_ps(cu.as_ptr().add(i));
            let e = _mm256_max_ps(_mm256_max_ps(_mm256_sub_ps(l, c), _mm256_sub_ps(d, u)), zero);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(e, e));
            i += F32_LANES;
            if i % CHECK_STRIDE == 0 {
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                if exits_at(i, p, deflate, &lanes, threshold_sq) {
                    return lanes;
                }
            }
        }
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        lanes
    }
}

/// `true` iff the conservative bound already exceeds `threshold_sq` — in
/// which case the exact `f64` chain is guaranteed to prune this candidate
/// too. Non-finite bounds (overflow) never prune. Stops reading the
/// mirror at the first check boundary where the partial sum decides it.
///
/// # Panics
/// Panics if the staged envelope length differs from the mirror length.
pub fn prefilter_exceeds(
    mode: KernelMode,
    env: &PrefilterEnvelope,
    mirror: &SeriesMirror,
    threshold_sq: f64,
) -> bool {
    assert_eq!(env.len(), mirror.len(), "length mismatch");
    prefilter_exceeds_planes(mode, env, mirror.down(), mirror.up(), threshold_sq)
}

/// [`prefilter_exceeds`] over bare mirror planes — zero-padded to the
/// staged envelope's padded length, `down[i] ≤ v[i] ≤ up[i]` — as the
/// engine's series arena stores them.
///
/// # Panics
/// Panics if a plane's length differs from the staged padded length.
pub(crate) fn prefilter_exceeds_planes(
    mode: KernelMode,
    env: &PrefilterEnvelope,
    down: &[f32],
    up: &[f32],
    threshold_sq: f64,
) -> bool {
    let lb = bounded_lb_sq(mode, env, down, up, threshold_sq);
    lb.is_finite() && lb > threshold_sq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::lb::env_lb_sq;

    #[test]
    fn directed_rounding_brackets() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -0.1,
            1.0 + 1e-9,
            -(1.0 + 1e-9),
            1e30,
            -1e30,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            3.4028236e38, // just above f32::MAX
        ] {
            let d = f32_down(v) as f64;
            let u = f32_up(v) as f64;
            assert!(d <= v, "down({v}) = {d}");
            assert!(u >= v, "up({v}) = {u}");
            assert!(f32_down(v) != f32::INFINITY);
            assert!(f32_up(v) != f32::NEG_INFINITY);
        }
    }

    #[test]
    fn conservative_bound_never_exceeds_f64_lb() {
        let mut s = 1u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 * 6.0 - 3.0
        };
        for n in [1usize, 7, 16, 33, 128] {
            let series: Vec<f64> = (0..n).map(|_| next()).collect();
            let query: Vec<f64> = (0..n).map(|_| next()).collect();
            for k in [0usize, 1, 3] {
                let env = Envelope::compute(&query, k);
                let mut staged = PrefilterEnvelope::new();
                staged.stage(&env);
                let mirror = SeriesMirror::build(&series);
                for mode in [KernelMode::Scalar, KernelMode::Unrolled] {
                    let lo = conservative_lb_sq(mode, &staged, &mirror);
                    let exact = env_lb_sq(mode, env.lower(), env.upper(), &series);
                    assert!(lo <= exact, "n={n} k={k}: {lo} > {exact}");
                }
            }
        }
    }

    #[test]
    fn modes_are_bit_identical() {
        let series: Vec<f64> = (0..97).map(|i| ((i * 37) % 19) as f64 * 0.37 - 3.0).collect();
        let query: Vec<f64> = (0..97).map(|i| ((i * 53) % 23) as f64 * 0.29 - 3.0).collect();
        let env = Envelope::compute(&query, 2);
        let mut staged = PrefilterEnvelope::new();
        staged.stage(&env);
        let mirror = SeriesMirror::build(&series);
        let a = conservative_lb_sq(KernelMode::Scalar, &staged, &mirror);
        let b = conservative_lb_sq(KernelMode::Unrolled, &staged, &mirror);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    /// A staged random envelope and a random candidate's mirror.
    fn staged_pair(n: usize, k: usize, seed: u64) -> (PrefilterEnvelope, SeriesMirror) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 * 6.0 - 3.0
        };
        let series: Vec<f64> = (0..n).map(|_| next()).collect();
        let query: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut staged = PrefilterEnvelope::new();
        staged.stage(&Envelope::compute(&query, k));
        (staged, SeriesMirror::build(&series))
    }

    /// Thresholds at the full sum, one ulp and a few percent either side
    /// of it, and at the extremes.
    fn thresholds_around(full: f64) -> [f64; 9] {
        [
            full,
            f64::from_bits(full.to_bits() + 1),
            f64::from_bits(full.to_bits().saturating_sub(1)),
            full * 0.97,
            full * 1.03,
            full * 0.5,
            full * 0.1,
            0.0,
            f64::INFINITY,
        ]
    }

    #[test]
    fn portable_shape_matches_scalar_and_dispatched_bits() {
        // On an AVX2 machine `Unrolled` dispatches to the vector shape, so
        // the portable lane statements run only when called directly.
        for n in [1usize, 7, 16, 33, 97, 128, 300] {
            let (staged, mirror) = staged_pair(n, 3, n as u64);
            let (ld, uu) = (staged.lower_down.as_slice(), staged.upper_up.as_slice());
            let full = conservative_lb_sq(KernelMode::Scalar, &staged, &mirror);
            for thr in thresholds_around(full) {
                let portable =
                    accumulate_portable(ld, uu, mirror.down(), mirror.up(), staged.deflate, thr);
                let scalar =
                    accumulate_scalar(ld, uu, mirror.down(), mirror.up(), staged.deflate, thr);
                assert_eq!(portable.map(f32::to_bits), scalar.map(f32::to_bits), "n={n} thr={thr}");
                let dispatched =
                    bounded_lb_sq(KernelMode::Unrolled, &staged, mirror.down(), mirror.up(), thr);
                assert_eq!(
                    deflated(staged.deflate, &portable).to_bits(),
                    dispatched.to_bits(),
                    "n={n} thr={thr}"
                );
            }
        }
    }

    #[test]
    fn early_exit_decides_as_the_full_sum() {
        let mut exited_early = false;
        for seed in 0..40u64 {
            for (n, k) in [(128usize, 6usize), (32, 2), (100, 0), (16, 1)] {
                let (staged, mirror) = staged_pair(n, k, seed * 7 + n as u64);
                for mode in [KernelMode::Scalar, KernelMode::Unrolled] {
                    let full = conservative_lb_sq(mode, &staged, &mirror);
                    assert!(full.is_finite() && full > 0.0);
                    for thr in thresholds_around(full) {
                        assert_eq!(
                            prefilter_exceeds(mode, &staged, &mirror, thr),
                            full > thr,
                            "n={n} k={k} seed={seed} thr={thr} full={full}"
                        );
                        let partial = bounded_lb_sq(mode, &staged, mirror.down(), mirror.up(), thr);
                        assert!(partial <= full);
                        exited_early |= partial < full;
                    }
                }
            }
        }
        assert!(exited_early, "no case stopped before the last block");
    }

    #[test]
    fn overflowing_inputs_never_prune() {
        let series = vec![-1e300; 32];
        let query = vec![1e300; 32];
        let env = Envelope::compute(&query, 1);
        let mut staged = PrefilterEnvelope::new();
        staged.stage(&env);
        let mirror = SeriesMirror::build(&series);
        assert!(!prefilter_exceeds(KernelMode::Unrolled, &staged, &mirror, 1.0));
    }

    #[test]
    fn prefilter_is_tight_enough_to_fire() {
        // A far-away candidate must actually be pruned by the prefilter.
        let series = vec![10.0; 64];
        let query = vec![0.0; 64];
        let env = Envelope::compute(&query, 2);
        let mut staged = PrefilterEnvelope::new();
        staged.stage(&env);
        let mirror = SeriesMirror::build(&series);
        for mode in [KernelMode::Scalar, KernelMode::Unrolled] {
            assert!(prefilter_exceeds(mode, &staged, &mirror, 1.0));
        }
    }
}
