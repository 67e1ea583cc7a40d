//! Tightness of lower bound (paper §5.2).
//!
//! `T = (lower bound based on reduced dimension) / (true DTW distance)`,
//! with `T ∈ [0, 1]`; larger is tighter, and a tighter bound means fewer
//! candidates for the exact-DTW refinement step. Figures 6 and 7 of the
//! paper report the mean tightness of competing methods.

use crate::dtw::ldtw_distance;
use crate::envelope::Envelope;
use crate::transform::{feature_lower_bound, EnvelopeTransform};

/// Tightness of one lower bound against one true distance. Defined as 1 when
/// both are (near) zero, and clamped into `[0, 1]` against roundoff.
pub fn tightness(lower_bound: f64, true_distance: f64) -> f64 {
    debug_assert!(lower_bound.is_finite() && true_distance.is_finite());
    if true_distance <= 1e-12 {
        return 1.0;
    }
    (lower_bound / true_distance).clamp(0.0, 1.0)
}

/// Tightness of a transform's feature-space lower bound for the pair
/// `(x, y)` at band `k`: envelope on `y`, features of `x`.
pub fn transform_tightness<T: EnvelopeTransform + ?Sized>(t: &T, x: &[f64], y: &[f64], k: usize) -> f64 {
    let lb = feature_lower_bound(&t.project_envelope(&Envelope::compute(y, k)), &t.project(x));
    tightness(lb, ldtw_distance(x, y, k))
}

/// Tightness of the full-dimension envelope bound (the paper's "LB" method:
/// no reduction, hence no indexing — a sanity ceiling for the reduced
/// methods).
pub fn envelope_tightness(x: &[f64], y: &[f64], k: usize) -> f64 {
    let lb = Envelope::compute(y, k).distance(x);
    tightness(lb, ldtw_distance(x, y, k))
}

/// Mean tightness of a transform over all ordered pairs of distinct series.
pub fn mean_transform_tightness<T: EnvelopeTransform + ?Sized>(t: &T, series: &[Vec<f64>], k: usize) -> f64 {
    mean_over_pairs(series, |x, y| transform_tightness(t, x, y, k))
}

/// Mean full-envelope tightness over all ordered pairs of distinct series.
pub fn mean_envelope_tightness(series: &[Vec<f64>], k: usize) -> f64 {
    mean_over_pairs(series, |x, y| envelope_tightness(x, y, k))
}

fn mean_over_pairs(series: &[Vec<f64>], mut f: impl FnMut(&[f64], &[f64]) -> f64) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for (i, x) in series.iter().enumerate() {
        for (j, y) in series.iter().enumerate() {
            if i == j {
                continue;
            }
            sum += f(x, y);
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::paa::{KeoghPaa, NewPaa};

    fn series_set(n: usize, len: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|s| {
                (0..len)
                    .map(|t| (t as f64 * (0.1 + 0.03 * s as f64)).sin() * (1.0 + s as f64 * 0.2))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tightness_bounds_and_degenerate_case() {
        assert_eq!(tightness(0.5, 1.0), 0.5);
        assert_eq!(tightness(0.0, 0.0), 1.0);
        assert_eq!(tightness(2.0, 1.0), 1.0); // clamped
        assert_eq!(tightness(-0.1, 1.0), 0.0); // clamped
    }

    #[test]
    fn envelope_tightness_dominates_reduced_tightness() {
        // LB (no reduction) uses strictly more information than any reduced
        // bound derived from the same envelope.
        let s = series_set(6, 64);
        let t = NewPaa::new(64, 4);
        for k in [1usize, 4] {
            let full = mean_envelope_tightness(&s, k);
            let reduced = mean_transform_tightness(&t, &s, k);
            assert!(full + 1e-9 >= reduced, "k={k}: {full} < {reduced}");
        }
    }

    #[test]
    fn new_paa_mean_tightness_beats_keogh_paa() {
        let s = series_set(8, 64);
        let new = NewPaa::new(64, 4);
        let keogh = KeoghPaa::new(64, 4);
        for k in [1usize, 3, 6] {
            let tn = mean_transform_tightness(&new, &s, k);
            let tk = mean_transform_tightness(&keogh, &s, k);
            assert!(tn + 1e-12 >= tk, "k={k}: New_PAA {tn} < Keogh_PAA {tk}");
        }
    }

    #[test]
    fn tightness_values_are_valid_probabilities() {
        let s = series_set(5, 32);
        let t = NewPaa::new(32, 4);
        for k in 0..5 {
            let m = mean_transform_tightness(&t, &s, k);
            assert!((0.0..=1.0).contains(&m), "k={k}: {m}");
        }
    }

    #[test]
    fn identical_pair_counts_as_perfectly_tight() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.5).sin()).collect();
        let t = NewPaa::new(32, 4);
        assert_eq!(transform_tightness(&t, &x, &x, 2), 1.0);
    }

    #[test]
    fn empty_or_single_collection_gives_zero_mean() {
        let t = NewPaa::new(32, 4);
        assert_eq!(mean_transform_tightness(&t, &[], 1), 0.0);
        let one = series_set(1, 32);
        assert_eq!(mean_transform_tightness(&t, &one, 1), 0.0);
    }
}
