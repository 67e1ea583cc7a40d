//! Time-series envelopes (paper Definitions 6 and 7).
//!
//! The `k`-envelope of a series brackets every point by the minimum and
//! maximum over a `±k` window. Keogh's lemma (Lemma 2 in the paper) states
//! that the distance from a series `x` to the envelope of `y` lower-bounds
//! the band-`k` DTW distance between `x` and `y` — the foundation of every
//! index transform in [`crate::transform`].

use crate::kernel::window::{window_min_max, WindowScratch};
use crate::kernel::KernelMode;

/// The `k`-envelope of a time series: pointwise window minima and maxima.
///
/// ```
/// use hum_core::Envelope;
/// let y = [1.0, 5.0, 2.0, 8.0];
/// let env = Envelope::compute(&y, 1);
/// assert_eq!(env.upper(), &[5.0, 5.0, 8.0, 8.0]);
/// assert_eq!(env.lower(), &[1.0, 1.0, 2.0, 2.0]);
/// assert!(env.contains(&y));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl Envelope {
    /// Computes `Env_k(x)` with the sliding-window minima/maxima of
    /// [`crate::kernel::window`].
    ///
    /// # Panics
    /// Panics if `x` is empty.
    pub fn compute(x: &[f64], k: usize) -> Self {
        let mut env = Envelope { lower: vec![0.0; x.len()], upper: vec![0.0; x.len()] };
        window_min_max(x, k, &mut WindowScratch::default(), &mut env.lower, &mut env.upper);
        env
    }

    /// Builds an envelope from explicit bounds.
    ///
    /// # Panics
    /// Panics if lengths differ, bounds are empty, or any `lower > upper`.
    pub fn from_bounds(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "bound lengths must agree");
        assert!(!lower.is_empty(), "empty envelope");
        for (l, u) in lower.iter().zip(&upper) {
            assert!(l <= u, "lower bound exceeds upper bound");
        }
        Envelope { lower, upper }
    }

    /// The degenerate envelope equal to the series itself (`k = 0`).
    pub fn degenerate(x: &[f64]) -> Self {
        Envelope { lower: x.to_vec(), upper: x.to_vec() }
    }

    /// Series length.
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// `true` if the envelope is empty (never constructible via the public
    /// API; kept for completeness).
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }

    /// Lower bound series.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper bound series.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// `true` if `z` lies within the envelope pointwise (`z ∈ e`).
    pub fn contains(&self, z: &[f64]) -> bool {
        z.len() == self.len()
            && z.iter()
                .zip(self.lower.iter().zip(&self.upper))
                .all(|(v, (l, u))| l <= v && v <= u)
    }

    /// Squared distance from a series to this envelope (Definition 7):
    /// `min_{z ∈ e} D²(x, z)`, which accumulates only the excursions of `x`
    /// outside the band. This is the LB lower bound of Lemma 2.
    ///
    /// Computed by the blocked accumulation kernel ([`crate::kernel::lb`]):
    /// four lane partial sums combined pairwise, the same bits in every
    /// [`KernelMode`].
    ///
    /// # Panics
    /// Panics if `x.len() != self.len()`.
    pub fn distance_sq(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.len(), "length mismatch");
        crate::kernel::lb::env_lb_sq(KernelMode::default(), &self.lower, &self.upper, x)
    }

    /// Root of [`Envelope::distance_sq`].
    pub fn distance(&self, x: &[f64]) -> f64 {
        self.distance_sq(x).sqrt()
    }

    /// Early-abandoning variant of [`Envelope::distance_sq`] under an
    /// explicit [`KernelMode`]: identical accumulation, but returns
    /// `f64::INFINITY` once the running sum exceeds `threshold_sq` (checked
    /// at lane-block granularity — squared excursions are non-negative, so
    /// the block check abandons exactly when the full sum exceeds the
    /// threshold). The result is `> threshold_sq` exactly when the full
    /// distance is, and equals it whenever it is `≤ threshold_sq`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.len()`.
    pub fn distance_sq_bounded_mode(&self, x: &[f64], threshold_sq: f64, mode: KernelMode) -> f64 {
        assert_eq!(x.len(), self.len(), "length mismatch");
        crate::kernel::lb::env_lb_sq_bounded(mode, &self.lower, &self.upper, x, threshold_sq)
    }

    /// Writes the pointwise projection (clamp) of `x` onto this envelope into
    /// `out`: the member of the envelope closest to `x` in any `L_p` norm.
    ///
    /// # Panics
    /// Panics if `x.len() != self.len()`.
    pub fn clamp_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.len(), "length mismatch");
        out.clear();
        out.extend(
            x.iter()
                .zip(self.lower.iter().zip(&self.upper))
                .map(|(v, (l, u))| v.clamp(*l, *u)),
        );
    }
}

/// Reusable buffers for [`lb_improved_sq`] / [`lb_improved_tail_sq`]: the
/// projection of a candidate onto the query envelope, that projection's
/// own envelope, and the padded buffers its window pass works in. Once
/// grown to the series length, a call allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LbScratch {
    projection: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    window: WindowScratch,
}

impl LbScratch {
    /// Fresh scratch space; buffers grow on first use.
    pub fn new() -> Self {
        LbScratch::default()
    }
}

/// The second pass of Lemire's two-pass `LB_Improved` (squared): the distance
/// from `query` to the `k`-envelope of the projection of `candidate` onto
/// `query_env = Env_k(query)`.
///
/// Adding this to `query_env.distance_sq(candidate)` (the classic Keogh
/// bound, Lemma 2) still lower-bounds the squared band-`k` DTW distance
/// between `query` and `candidate`: the projection `h` absorbs exactly the
/// excursions the first pass already charged for, and any warping path must
/// additionally pay for the query's excursions outside `Env_k(h)`.
///
/// Early-abandons against `budget_sq` (what is left of the caller's
/// threshold after the first pass), returning `f64::INFINITY` once exceeded.
///
/// # Panics
/// Panics on length mismatches between `query`, `query_env` and `candidate`.
pub fn lb_improved_tail_sq(
    query: &[f64],
    query_env: &Envelope,
    candidate: &[f64],
    k: usize,
    budget_sq: f64,
    scratch: &mut LbScratch,
) -> f64 {
    lb_improved_tail_sq_mode(query, query_env, candidate, k, budget_sq, scratch, KernelMode::default())
}

/// [`lb_improved_tail_sq`] with an explicit [`KernelMode`] for the
/// second-pass accumulation.
///
/// # Panics
/// Panics on length mismatches between `query`, `query_env` and `candidate`.
#[allow(clippy::too_many_arguments)]
pub fn lb_improved_tail_sq_mode(
    query: &[f64],
    query_env: &Envelope,
    candidate: &[f64],
    k: usize,
    budget_sq: f64,
    scratch: &mut LbScratch,
    mode: KernelMode,
) -> f64 {
    let LbScratch { projection, lower, upper, window } = scratch;
    query_env.clamp_into(candidate, projection);
    lower.resize(projection.len(), 0.0);
    upper.resize(projection.len(), 0.0);
    window_min_max(projection, k, window, lower, upper);
    crate::kernel::lb::env_lb_sq_bounded(mode, lower, upper, query, budget_sq)
}

/// Lemire's two-pass `LB_Improved` (squared): `LB_Keogh²(candidate, query)`
/// plus the [`lb_improved_tail_sq`] second pass. Sandwiched between the
/// classic envelope bound and the true distance:
///
/// ```text
/// Env_k(q).distance_sq(s)  ≤  lb_improved_sq(q, s, k)  ≤  ldtw_distance_sq(q, s, k)
/// ```
///
/// # Panics
/// Panics if the series lengths differ or are zero.
pub fn lb_improved_sq(query: &[f64], candidate: &[f64], k: usize) -> f64 {
    let env = Envelope::compute(query, k);
    let lb1 = env.distance_sq(candidate);
    lb1 + lb_improved_tail_sq(query, &env, candidate, k, f64::INFINITY, &mut LbScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::ldtw_distance_sq;
    use crate::kernel::window::deque_extreme;
    use proptest::prelude::*;

    /// The second pass as it was before the window kernel: the projection's
    /// envelope from two monotonic-deque passes.
    fn lb_improved_tail_sq_deque(
        query: &[f64],
        query_env: &Envelope,
        candidate: &[f64],
        k: usize,
        budget_sq: f64,
        mode: KernelMode,
    ) -> f64 {
        let mut projection = Vec::new();
        query_env.clamp_into(candidate, &mut projection);
        let env = Envelope {
            lower: deque_extreme(&projection, k, false),
            upper: deque_extreme(&projection, k, true),
        };
        env.distance_sq_bounded_mode(query, budget_sq, mode)
    }

    /// Samples on a coarse grid around zero, so runs of equal values, exact
    /// ties with the envelope and zeros of both signs are common.
    fn gridded_series(len: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            prop_oneof![(-6i32..=6).prop_map(|v| v as f64 * 0.5), Just(-0.0f64), -3.0f64..3.0],
            len..=len,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The allocation-free second pass returns the deque
        /// implementation's bits, abandoned or not, in both kernel modes,
        /// from one scratch reused across every case.
        #[test]
        fn lb_improved_tail_matches_the_deque_implementation(
            query in gridded_series(48),
            candidate in gridded_series(48),
            k in prop_oneof![0usize..10, Just(47usize), Just(200usize)],
            budget in prop_oneof![0.0f64..60.0, Just(f64::INFINITY)],
        ) {
            let env = Envelope::compute(&query, k);
            let mut scratch = LbScratch::new();
            for mode in [KernelMode::Scalar, KernelMode::Unrolled] {
                for budget_sq in [budget, f64::INFINITY] {
                    let want =
                        lb_improved_tail_sq_deque(&query, &env, &candidate, k, budget_sq, mode);
                    let got = lb_improved_tail_sq_mode(
                        &query, &env, &candidate, k, budget_sq, &mut scratch, mode,
                    );
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
                }
            }
        }
    }

    /// Reference O(nk) envelope for cross-checking the windowed version.
    fn naive_envelope(x: &[f64], k: usize) -> Envelope {
        let n = x.len();
        let mut lower = Vec::with_capacity(n);
        let mut upper = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(k);
            let hi = (i + k).min(n - 1);
            let window = &x[lo..=hi];
            lower.push(window.iter().cloned().fold(f64::INFINITY, f64::min));
            upper.push(window.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
        }
        Envelope::from_bounds(lower, upper)
    }

    fn wiggly(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.9).sin() * ((i % 5) as f64 + 1.0)).collect()
    }

    #[test]
    fn envelope_matches_naive() {
        let x = wiggly(200);
        for k in [0, 1, 2, 5, 17, 199, 500] {
            assert_eq!(Envelope::compute(&x, k), naive_envelope(&x, k), "k={k}");
        }
    }

    #[test]
    fn zero_k_envelope_is_the_series() {
        let x = wiggly(30);
        let e = Envelope::compute(&x, 0);
        assert_eq!(e.lower(), &x[..]);
        assert_eq!(e.upper(), &x[..]);
        assert_eq!(e, Envelope::degenerate(&x));
    }

    #[test]
    fn envelope_contains_the_series() {
        let x = wiggly(64);
        for k in [0, 1, 4, 9] {
            assert!(Envelope::compute(&x, k).contains(&x));
        }
    }

    #[test]
    fn envelope_contains_all_banded_warps() {
        // Any y[i±j] with |j| ≤ k lies inside Env_k(y) at position i; check
        // via shifted copies.
        let y = wiggly(50);
        let k = 3;
        let e = Envelope::compute(&y, k);
        for shift in 1..=k {
            let shifted: Vec<f64> =
                (0..y.len()).map(|i| y[(i + shift).min(y.len() - 1)]).collect();
            assert!(e.contains(&shifted), "shift {shift}");
        }
    }

    #[test]
    fn distance_is_zero_inside_positive_outside() {
        let x = wiggly(40);
        let e = Envelope::compute(&x, 2);
        assert_eq!(e.distance_sq(&x), 0.0);
        let mut far = x.clone();
        far[10] += 100.0;
        assert!(e.distance_sq(&far) > 0.0);
    }

    #[test]
    fn lemma2_envelope_distance_lower_bounds_ldtw() {
        let x = wiggly(128);
        let y: Vec<f64> = (0..128).map(|i| (i as f64 * 0.7).cos() * 2.0).collect();
        for k in [0, 1, 3, 8, 20] {
            let lb = Envelope::compute(&y, k).distance_sq(&x);
            let d = ldtw_distance_sq(&x, &y, k);
            assert!(lb <= d + 1e-9, "k={k}: {lb} > {d}");
        }
    }

    #[test]
    fn envelope_widens_with_k() {
        let x = wiggly(60);
        let mut prev = Envelope::compute(&x, 0);
        for k in 1..10 {
            let e = Envelope::compute(&x, k);
            for i in 0..x.len() {
                assert!(e.lower()[i] <= prev.lower()[i]);
                assert!(e.upper()[i] >= prev.upper()[i]);
            }
            prev = e;
        }
    }

    #[test]
    fn distance_decreases_as_envelope_widens() {
        let x = wiggly(80);
        let q: Vec<f64> = (0..80).map(|i| (i as f64 * 0.3).cos() * 3.0).collect();
        let mut last = f64::INFINITY;
        for k in 0..10 {
            let d = Envelope::compute(&x, k).distance_sq(&q);
            assert!(d <= last + 1e-12);
            last = d;
        }
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds")]
    fn inverted_bounds_rejected() {
        let _ = Envelope::from_bounds(vec![2.0], vec![1.0]);
    }
}
