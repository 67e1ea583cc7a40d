//! Dimensionality-reduction transforms on time series *and their envelopes*.
//!
//! The GEMINI framework indexes feature vectors `T(x)` of the database
//! series. To support DTW, the paper extends `T` to query envelopes: a
//! transform is **container-invariant** (Definition 8) when
//! `x ∈ e ⇒ T(x) ∈ T(e)`, and Theorem 1 shows that a container-invariant,
//! lower-bounding `T` gives `D(T(x), T(Env_k(y))) ≤ D_DTW(k)(x, y)` — an
//! index with *no false negatives*.
//!
//! Lemma 3 provides the construction for any linear `T` with coefficients
//! `a_ij`: the transformed envelope splits each coefficient by sign,
//!
//! ```text
//! E^U_j = Σ_i a_ij·e^U_i   if a_ij ≥ 0,   a_ij·e^L_i otherwise
//! E^L_j = Σ_i a_ij·e^L_i   if a_ij ≥ 0,   a_ij·e^U_i otherwise
//! ```
//!
//! [`LinearEnvelopeTransform`] implements exactly this, for any row set. The
//! concrete transforms are:
//!
//! * [`paa::NewPaa`] — the paper's improved PAA envelope reduction (frame
//!   *averages* of the envelope bounds), provably tighter than Keogh's.
//! * [`paa::KeoghPaa`] — Keogh's original reduction (frame min/max), kept as
//!   the comparison baseline of Figs 6–10.
//! * [`dft::Dft`] — truncated Fourier features (real orthonormal basis).
//! * [`dwt::Dwt`] — truncated Haar wavelet features.
//! * [`svd::SvdTransform`] — data-adaptive features from a fitted SVD basis.
//!
//! Every transform here uses **orthonormal rows** (PAA rows are the
//! normalized box functions), so the plain Euclidean distance between
//! feature vectors lower-bounds the original distance and no extra scaling
//! appears at query time.

pub mod dft;
pub mod dwt;
pub mod paa;
pub mod svd;

use hum_index::Rect;

use crate::envelope::Envelope;

/// A dimensionality-reduction transform extended to envelopes.
///
/// Implementations must be **lower-bounding** — Euclidean distances between
/// [`EnvelopeTransform::project`] outputs never exceed the original
/// distances — and **container-invariant** — any series inside an envelope
/// projects into the box returned by [`EnvelopeTransform::project_envelope`].
/// Together (Theorem 1) these guarantee the index phase never drops a true
/// match.
///
/// Transforms are immutable once built and shared by every thread a query
/// fans out across, hence the `Send + Sync` supertraits.
pub trait EnvelopeTransform: Send + Sync {
    /// Expected input series length.
    fn input_len(&self) -> usize;

    /// Number of feature dimensions produced.
    fn output_dims(&self) -> usize;

    /// Short human-readable name for reports ("New_PAA", "DFT", ...).
    fn name(&self) -> &str;

    /// Feature vector of a series.
    ///
    /// # Panics
    /// Panics if `x.len() != self.input_len()`.
    fn project(&self, x: &[f64]) -> Vec<f64>;

    /// Feature-space image of an envelope: an axis-aligned box guaranteed to
    /// contain `project(z)` for every `z` inside the envelope.
    ///
    /// # Panics
    /// Panics if `env.len() != self.input_len()`.
    fn project_envelope(&self, env: &Envelope) -> Rect;
}

/// The feature-space lower bound of Theorem 1: distance from the projected
/// query envelope (a box) to a stored feature vector.
pub fn feature_lower_bound(feature_box: &Rect, features: &[f64]) -> f64 {
    feature_box.min_dist_point(features)
}

/// A linear transform `X_j = Σ_i a_ij·x_i` together with its Lemma 3
/// container-invariant extension to envelopes.
#[derive(Debug, Clone)]
pub struct LinearEnvelopeTransform {
    name: String,
    /// `rows[j]` holds the coefficients of output dimension `j`.
    rows: Vec<Vec<f64>>,
    input_len: usize,
}

impl LinearEnvelopeTransform {
    /// Builds a transform from explicit coefficient rows.
    ///
    /// # Panics
    /// Panics if `rows` is empty or ragged.
    pub fn from_rows(name: impl Into<String>, rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "transform needs at least one row");
        let input_len = rows[0].len();
        assert!(input_len > 0, "rows must be nonempty");
        assert!(rows.iter().all(|r| r.len() == input_len), "ragged coefficient rows");
        LinearEnvelopeTransform { name: name.into(), rows, input_len }
    }

    /// The coefficient rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }
}

impl EnvelopeTransform for LinearEnvelopeTransform {
    fn input_len(&self) -> usize {
        self.input_len
    }

    fn output_dims(&self) -> usize {
        self.rows.len()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn project(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_len, "series length mismatch");
        self.rows.iter().map(|row| hum_linalg::vec_ops::dot(row, x)).collect()
    }

    fn project_envelope(&self, env: &Envelope) -> Rect {
        assert_eq!(env.len(), self.input_len, "envelope length mismatch");
        let (el, eu) = (env.lower(), env.upper());
        let mut lo = Vec::with_capacity(self.rows.len());
        let mut hi = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut low = 0.0;
            let mut high = 0.0;
            for (i, &a) in row.iter().enumerate() {
                if a >= 0.0 {
                    low += a * el[i];
                    high += a * eu[i];
                } else {
                    low += a * eu[i];
                    high += a * el[i];
                }
            }
            lo.push(low);
            hi.push(high);
        }
        Rect::new(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::ldtw_distance;
    use hum_linalg::vec_ops::euclidean;

    fn mixed_sign_transform(n: usize) -> LinearEnvelopeTransform {
        // Two orthonormal rows with mixed signs.
        let scale = 1.0 / (n as f64).sqrt();
        let row0: Vec<f64> = (0..n).map(|_| scale).collect();
        let row1: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { scale } else { -scale }).collect();
        LinearEnvelopeTransform::from_rows("test", vec![row0, row1])
    }

    fn wiggly(n: usize, phase: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.6 + phase).sin() * 2.0).collect()
    }

    #[test]
    fn projection_of_degenerate_envelope_is_projection_of_series() {
        let t = mixed_sign_transform(16);
        let x = wiggly(16, 0.0);
        let feats = t.project(&x);
        let bx = t.project_envelope(&Envelope::degenerate(&x));
        for (j, f) in feats.iter().enumerate() {
            assert!((bx.lo()[j] - f).abs() < 1e-12);
            assert!((bx.hi()[j] - f).abs() < 1e-12);
        }
    }

    #[test]
    fn container_invariance_lemma3() {
        let t = mixed_sign_transform(32);
        let y = wiggly(32, 0.4);
        let env = Envelope::compute(&y, 3);
        let feature_box = t.project_envelope(&env);
        // Any series inside the envelope must project inside the box; test
        // with several members including the bounds themselves.
        let members: Vec<Vec<f64>> = vec![
            y.clone(),
            env.lower().to_vec(),
            env.upper().to_vec(),
            env.lower()
                .iter()
                .zip(env.upper())
                .enumerate()
                .map(|(i, (l, u))| l + (u - l) * ((i % 6) as f64 / 7.0))
                .collect(),
        ];
        for z in &members {
            assert!(env.contains(z));
            assert!(feature_box.contains_point(&t.project(z)));
        }
    }

    #[test]
    fn theorem1_feature_lower_bound_holds() {
        let t = mixed_sign_transform(64);
        let x = wiggly(64, 0.0);
        let y = wiggly(64, 1.1);
        for k in [0usize, 2, 5, 10] {
            let feature_box = t.project_envelope(&Envelope::compute(&y, k));
            let lb = feature_lower_bound(&feature_box, &t.project(&x));
            let d = ldtw_distance(&x, &y, k);
            assert!(lb <= d + 1e-9, "k={k}: {lb} > {d}");
        }
    }

    #[test]
    fn orthonormal_rows_are_lower_bounding() {
        let t = mixed_sign_transform(16);
        let x = wiggly(16, 0.0);
        let y = wiggly(16, 2.0);
        assert!(euclidean(&t.project(&x), &t.project(&y)) <= euclidean(&x, &y) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = LinearEnvelopeTransform::from_rows("bad", vec![vec![1.0, 2.0], vec![1.0]]);
    }
}
