//! Normal forms (paper §3.3).
//!
//! Before any comparison, series are transformed to a *normal form* that
//! factors out the distortions a hummer is allowed:
//!
//! 1. **Shift invariance** — subtract the mean pitch (absolute pitch does not
//!    matter).
//! 2. **Tempo invariance** — Uniform Time Warping: resample every series to a
//!    canonical length so that global tempo cancels.
//!
//! There is no amplitude normalization: intervals carry meaning in
//! semitones, and the paper's protocol only "subtracted the mean from each
//! time series". [`NormalForm::apply`] resamples, then centers.

use hum_linalg::vec_ops::center;

use crate::upsample::resample;

/// Configuration of the normal-form pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalForm {
    /// Canonical length every series is resampled to.
    pub length: usize,
}

impl Default for NormalForm {
    fn default() -> Self {
        NormalForm { length: 128 }
    }
}

impl NormalForm {
    /// A normal form with the given canonical length.
    pub fn with_length(length: usize) -> Self {
        NormalForm { length }
    }

    /// Applies the pipeline to an arbitrary-length series.
    ///
    /// # Panics
    /// Panics if the input is empty or `self.length == 0`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert!(!x.is_empty(), "normal form of empty series");
        assert!(self.length > 0, "canonical length must be positive");
        let mut out = resample(x, self.length);
        center(&mut out);
        out
    }
}

/// Convenience: centered, canonical-length normal form of `x`.
pub fn normal_form(x: &[f64], length: usize) -> Vec<f64> {
    NormalForm::with_length(length).apply(x)
}

/// `true` if two raw series have identical normal forms up to tolerance —
/// i.e. they differ only by shift and global tempo.
pub fn equivalent_up_to_shift_and_tempo(x: &[f64], y: &[f64], length: usize, tol: f64) -> bool {
    let nx = normal_form(x, length);
    let ny = normal_form(y, length);
    nx.iter().zip(&ny).all(|(a, b)| (a - b).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upsample::upsample;
    use hum_linalg::vec_ops::mean;

    #[test]
    fn output_has_canonical_length_and_zero_mean() {
        let x: Vec<f64> = (0..37).map(|i| (i as f64 * 0.4).sin() + 60.0).collect();
        let nf = NormalForm::with_length(128).apply(&x);
        assert_eq!(nf.len(), 128);
        assert!(mean(&nf).abs() < 1e-9);
    }

    #[test]
    fn shift_invariance() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).cos()).collect();
        let shifted: Vec<f64> = x.iter().map(|v| v + 12.0).collect();
        assert!(equivalent_up_to_shift_and_tempo(&x, &shifted, 128, 1e-9));
    }

    #[test]
    fn tempo_invariance_for_exact_upsampling() {
        // Doubling every sample is the same melody at half tempo.
        let x: Vec<f64> = (0..32).map(|i| ((i / 4) % 5) as f64).collect();
        let slow = upsample(&x, 2);
        assert!(equivalent_up_to_shift_and_tempo(&x, &slow, 64, 1e-9));
    }

    #[test]
    fn distinct_melodies_stay_distinct() {
        let x: Vec<f64> = (0..64).map(|i| ((i / 8) % 4) as f64).collect();
        let y: Vec<f64> = (0..64).map(|i| ((i / 8) % 3) as f64 * 2.0).collect();
        assert!(!equivalent_up_to_shift_and_tempo(&x, &y, 64, 1e-3));
    }

    #[test]
    fn default_is_centering_only() {
        let d = NormalForm::default();
        assert_eq!(d.length, 128);
    }
}
