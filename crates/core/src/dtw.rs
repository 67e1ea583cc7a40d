//! Dynamic Time Warping (paper §4).
//!
//! [`dtw_distance`] implements the unconstrained Definition 1 for arbitrary
//! lengths; [`ldtw_distance`] implements the `k`-local variant of
//! Definition 4 (a Sakoe-Chiba band of half-width `k`) on equal-length
//! series, computed in O(nk) time and O(k) space. Definition 5 — LDTW after
//! both series are brought to a common length by Uniform Time Warping — is
//! what the rest of the workspace calls "the DTW distance"; the common
//! length is established by [`crate::normal`].

use crate::kernel::soa::AlignedF64;
use crate::kernel::KernelMode;

/// Converts the paper's *warping width* `δ = (2k+1)/n` into the band
/// half-width `k` for series of length `n` (§4.2).
///
/// ```
/// use hum_core::band_for_warping_width;
/// assert_eq!(band_for_warping_width(0.1, 256), 12);
/// assert_eq!(band_for_warping_width(0.0, 256), 0); // Euclidean
/// ```
///
/// `δ = 0` (or any value giving `k = 0`) degenerates to Euclidean distance.
/// `δ = 1` gives `k ≈ n/2`, which the paper calls the degeneration of local
/// DTW to global DTW; pass `k = n − 1` to [`ldtw_distance`] directly for the
/// fully unconstrained band.
pub fn band_for_warping_width(delta: f64, n: usize) -> usize {
    assert!((0.0..=1.0).contains(&delta), "warping width must lie in [0,1]");
    let k = ((delta * n as f64 - 1.0) / 2.0).round();
    (k.max(0.0) as usize).min(n.saturating_sub(1))
}

/// Reusable scratch space for the banded DTW kernel.
///
/// The kernel needs two DP rows of width `2k + 1`; allocating them per call
/// dominates the cost of verifying short series. A workspace amortizes the
/// allocation across an entire query (the engine keeps one per query) and
/// doubles as the profiler for the cascade: [`DtwWorkspace::cells`] counts
/// every DP cell evaluated through it, which is the "verification work" the
/// cascade exists to reduce.
///
/// Rows live in cache-line-aligned, sentinel-padded buffers (slot `s` at
/// raw index `s + 1`, permanent `+∞` at both ends) in the layout
/// [`crate::kernel::dtw_row`] expects, alongside the two elementwise
/// scratch rows of its vectorizable phase.
#[derive(Debug, Clone, Default)]
pub struct DtwWorkspace {
    prev: AlignedF64,
    curr: AlignedF64,
    dd: AlignedF64,
    pm: AlignedF64,
    cells: u64,
}

impl DtwWorkspace {
    /// An empty workspace; rows grow on first use.
    pub fn new() -> Self {
        DtwWorkspace::default()
    }

    /// Total DP cells evaluated through this workspace since construction.
    pub fn cells(&self) -> u64 {
        self.cells
    }
}

/// Squared `k`-Local DTW distance between equal-length series
/// (Definition 4).
///
/// ```
/// use hum_core::dtw::ldtw_distance_sq;
/// // A one-step shift costs nothing once the band admits it.
/// let x = [0.0, 0.0, 1.0, 0.0, 0.0];
/// let y = [0.0, 0.0, 0.0, 1.0, 0.0];
/// assert!(ldtw_distance_sq(&x, &y, 0) > 0.0);
/// assert_eq!(ldtw_distance_sq(&x, &y, 1), 0.0);
/// ```
///
/// Cell `(i, j)` is admissible only when `|i − j| ≤ k`. With `k ≥ n − 1` this
/// equals unconstrained DTW on equal lengths; with `k = 0` it equals the
/// squared Euclidean distance.
///
/// # Panics
/// Panics if the series lengths differ or are zero.
pub fn ldtw_distance_sq(x: &[f64], y: &[f64], k: usize) -> f64 {
    ldtw_distance_sq_bounded_with(&mut DtwWorkspace::new(), x, y, k, f64::INFINITY)
}

/// Early-abandoning variant of [`ldtw_distance_sq`].
///
/// Returns exactly `ldtw_distance_sq(x, y, k)` — same floating-point
/// operations in the same order — whenever that value is `≤ threshold_sq`.
/// When every admissible cell of some DP row exceeds `threshold_sq`, no
/// warping path can finish below it (path costs are sums of non-negative
/// terms and every path crosses every row), so the kernel abandons the
/// remaining rows and returns `f64::INFINITY`. The result is therefore
/// `> threshold_sq` exactly when the true distance is, which is all a
/// threshold-aware caller inspects.
///
/// # Panics
/// Panics if the series lengths differ or are zero.
pub fn ldtw_distance_sq_bounded(x: &[f64], y: &[f64], k: usize, threshold_sq: f64) -> f64 {
    ldtw_distance_sq_bounded_with(&mut DtwWorkspace::new(), x, y, k, threshold_sq)
}

/// [`ldtw_distance_sq_bounded`] computing in a caller-provided
/// [`DtwWorkspace`], avoiding the two per-call row allocations.
///
/// # Panics
/// Panics if the series lengths differ or are zero.
pub fn ldtw_distance_sq_bounded_with(
    ws: &mut DtwWorkspace,
    x: &[f64],
    y: &[f64],
    k: usize,
    threshold_sq: f64,
) -> f64 {
    ldtw_distance_sq_bounded_with_mode(ws, x, y, k, threshold_sq, KernelMode::default())
}

/// [`ldtw_distance_sq_bounded_with`] with an explicit [`KernelMode`] for
/// the row kernel. Every mode computes identical bits (see
/// [`crate::kernel::dtw_row`]).
///
/// # Panics
/// Panics if the series lengths differ or are zero.
#[allow(clippy::needless_range_loop)] // explicit i index drives the band geometry
pub fn ldtw_distance_sq_bounded_with_mode(
    ws: &mut DtwWorkspace,
    x: &[f64],
    y: &[f64],
    k: usize,
    threshold_sq: f64,
    mode: KernelMode,
) -> f64 {
    let n = x.len();
    assert_eq!(n, y.len(), "LDTW requires equal lengths (apply the UTW normal form first)");
    assert!(n > 0, "LDTW of empty series");
    let k = k.min(n - 1);

    // Banded DP over rows; each row stores the window [i-k, i+k] in the
    // sentinel-padded layout of `kernel::dtw_row` (slot s at raw s + 1).
    let width = 2 * k + 1;
    let inf = f64::INFINITY;
    ws.prev.reset(width + 2, inf);
    ws.curr.reset(width + 2, inf);
    ws.dd.reset(width, inf);
    ws.pm.reset(width, inf);

    // Row 0: j in [0, k]. Prefix sums are non-decreasing, so the row minimum
    // is the first cell, (0, 0).
    {
        let prev = ws.prev.as_mut_slice();
        let mut acc = 0.0;
        for j in 0..=k.min(n - 1) {
            let d = x[0] - y[j];
            acc += d * d;
            prev[j + k + 1] = acc; // column j maps to slot j - i + k, raw slot + 1
        }
        ws.cells += (k.min(n - 1) + 1) as u64;
        if prev[k + 1] > threshold_sq {
            return inf;
        }
    }

    for i in 1..n {
        let j_lo = i.saturating_sub(k);
        let j_hi = (i + k).min(n - 1);
        let slot_lo = j_lo + k - i;
        let slot_hi = j_hi + k - i;
        let curr = ws.curr.as_mut_slice();
        // Clear the one stale cell on each side of this row's span (band
        // spans move at most one slot per row, so this replaces the full
        // O(width) row reset; see kernel::dtw_row's layout notes).
        curr[slot_lo] = inf;
        curr[slot_hi + 2] = inf;
        let row_min = crate::kernel::dtw_row::band_row(
            mode,
            ws.prev.as_slice(),
            curr,
            ws.dd.as_mut_slice(),
            ws.pm.as_mut_slice(),
            x[i],
            &y[j_lo..=j_hi],
            slot_lo,
        );
        ws.cells += (j_hi - j_lo + 1) as u64;
        if row_min > threshold_sq {
            return inf;
        }
        std::mem::swap(&mut ws.prev, &mut ws.curr);
    }
    // Cell (n-1, n-1) sits at slot k.
    ws.prev.as_slice()[k + 1]
}

/// Root of [`ldtw_distance_sq`].
pub fn ldtw_distance(x: &[f64], y: &[f64], k: usize) -> f64 {
    ldtw_distance_sq(x, y, k).sqrt()
}

/// Squared unconstrained DTW distance (Definition 1) between series of
/// arbitrary positive lengths. O(nm) time, O(m) space.
///
/// # Panics
/// Panics if either series is empty.
#[allow(clippy::needless_range_loop)] // explicit i/j indices mirror the DP recurrence
pub fn dtw_distance_sq(x: &[f64], y: &[f64]) -> f64 {
    let (n, m) = (x.len(), y.len());
    assert!(n > 0 && m > 0, "DTW of empty series");
    let inf = f64::INFINITY;
    let mut prev = vec![inf; m];
    let mut curr = vec![inf; m];

    for j in 0..m {
        let d = x[0] - y[j];
        prev[j] = d * d + if j == 0 { 0.0 } else { prev[j - 1] };
    }
    for i in 1..n {
        for j in 0..m {
            let d = x[i] - y[j];
            let best = if j == 0 {
                prev[0]
            } else {
                prev[j].min(prev[j - 1]).min(curr[j - 1])
            };
            curr[j] = d * d + best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m - 1]
}

/// Root of [`dtw_distance_sq`].
pub fn dtw_distance(x: &[f64], y: &[f64]) -> f64 {
    dtw_distance_sq(x, y).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hum_linalg::vec_ops::sq_euclidean;

    #[test]
    fn band_conversion_matches_paper_formula() {
        // δ = (2k+1)/n: for n = 100, δ = 0.05 → k = 2, δ = 0.1 → k ≈ 4.5 → 5.
        assert_eq!(band_for_warping_width(0.05, 100), 2);
        assert_eq!(band_for_warping_width(0.1, 100), 5);
        assert_eq!(band_for_warping_width(0.0, 100), 0);
        assert_eq!(band_for_warping_width(1.0, 100), 50);
        // n = 256, δ = 0.1 → k = floor/round((25.6-1)/2) = 12.
        assert_eq!(band_for_warping_width(0.1, 256), 12);
    }

    #[test]
    fn zero_band_equals_euclidean() {
        let x = vec![1.0, 3.0, 2.0, 5.0];
        let y = vec![0.0, 3.5, 1.0, 4.0];
        assert!((ldtw_distance_sq(&x, &y, 0) - sq_euclidean(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn full_band_equals_unconstrained_dtw() {
        let x = vec![0.0, 1.0, 2.0, 3.0, 2.0, 1.0];
        let y = vec![0.0, 0.0, 1.0, 2.0, 3.0, 1.0];
        assert!((ldtw_distance_sq(&x, &y, 5) - dtw_distance_sq(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn dtw_absorbs_time_shifts_that_euclidean_cannot() {
        // A bump shifted by one step: DTW realigns it, Euclidean pays.
        let x = vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let y = vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0];
        assert!(dtw_distance_sq(&x, &y) < 1e-12);
        assert!(sq_euclidean(&x, &y) > 1.0);
        // And a band of 1 suffices for a 1-step shift.
        assert!(ldtw_distance_sq(&x, &y, 1) < 1e-12);
    }

    #[test]
    fn ldtw_is_monotone_decreasing_in_band() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.5).sin()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.5 + 0.8).sin()).collect();
        let mut last = f64::INFINITY;
        for k in 0..8 {
            let d = ldtw_distance_sq(&x, &y, k);
            assert!(d <= last + 1e-12, "k={k}");
            last = d;
        }
    }

    #[test]
    fn ldtw_lower_bounds_euclidean() {
        let x: Vec<f64> = (0..50).map(|i| ((i * i) % 17) as f64).collect();
        let y: Vec<f64> = (0..50).map(|i| ((i * 3) % 13) as f64).collect();
        for k in [0, 1, 3, 10] {
            assert!(ldtw_distance_sq(&x, &y, k) <= sq_euclidean(&x, &y) + 1e-9);
        }
    }

    #[test]
    fn identical_series_have_zero_distance() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64).cos()).collect();
        assert_eq!(dtw_distance(&x, &x), 0.0);
        assert_eq!(ldtw_distance(&x, &x, 3), 0.0);
    }

    #[test]
    fn dtw_is_symmetric() {
        let x = vec![1.0, 5.0, 2.0, 0.0];
        let y = vec![0.5, 4.0, 4.0, 1.0, 0.0];
        assert!((dtw_distance_sq(&x, &y) - dtw_distance_sq(&y, &x)).abs() < 1e-12);
    }

    #[test]
    fn dtw_known_small_example() {
        // x = [0,1], y = [0,0,1]: path aligns the two zeros, cost 0.
        assert_eq!(dtw_distance_sq(&[0.0, 1.0], &[0.0, 0.0, 1.0]), 0.0);
        // x = [0,2], y = [1]: every element pairs with 1 → 1 + 1 = 2.
        assert_eq!(dtw_distance_sq(&[0.0, 2.0], &[1.0]), 2.0);
    }

    #[test]
    fn band_larger_than_series_is_clamped() {
        let x = vec![1.0, 2.0];
        let y = vec![2.0, 1.0];
        assert_eq!(ldtw_distance_sq(&x, &y, 100), dtw_distance_sq(&x, &y));
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn ldtw_rejects_unequal_lengths() {
        let _ = ldtw_distance_sq(&[1.0], &[1.0, 2.0], 1);
    }
}
