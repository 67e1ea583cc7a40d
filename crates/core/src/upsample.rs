//! `w`-upsampling and the Uniform Time Warping normal form (paper §4.1).
//!
//! Uniform Time Warping compares two series of different lengths by
//! stretching both to a common length — the generalization of *time scaling*
//! that makes the similarity measure tempo-invariant. The engine stores every
//! series already stretched to one canonical length ([`resample`]), so UTW
//! reduces to comparing equal-length series.

/// The `w`-upsampling of a series (Definition 3): each value repeated `w`
/// times.
pub fn upsample(x: &[f64], w: usize) -> Vec<f64> {
    assert!(w > 0, "upsampling factor must be positive");
    let mut out = Vec::with_capacity(x.len() * w);
    for &v in x {
        out.extend(std::iter::repeat_n(v, w));
    }
    out
}

/// Resamples a series to `target` points.
///
/// This is the UTW normal form (§4.1) in resampled rather than fully
/// upsampled storage: sample `t` of the output reads the input value whose
/// stretched interval covers it (`x[⌊t·n/target⌋]`). When `target` is a
/// multiple of `n` this is exactly the `(target/n)`-upsampling `U_w(x)`;
/// otherwise it is the nearest-previous-value resampling of the upsampled
/// series, introducing no new values.
pub fn resample(x: &[f64], target: usize) -> Vec<f64> {
    assert!(!x.is_empty(), "cannot resample an empty series");
    assert!(target > 0, "target length must be positive");
    let n = x.len();
    (0..target).map(|t| x[(t * n) / target]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsample_repeats_values() {
        assert_eq!(upsample(&[1.0, 2.0], 3), vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        assert_eq!(upsample(&[5.0], 1), vec![5.0]);
    }

    #[test]
    fn resample_is_upsample_for_integer_factor() {
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(resample(&x, 6), upsample(&x, 2));
        assert_eq!(resample(&x, 3), x);
    }

    #[test]
    fn resample_downsamples_without_new_values() {
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let r = resample(&x, 4);
        assert_eq!(r.len(), 4);
        for v in &r {
            assert!(x.contains(v));
        }
        // Order preserved.
        for w in r.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn resample_handles_non_divisible_lengths() {
        let x = vec![1.0, 2.0, 3.0];
        let r = resample(&x, 7);
        assert_eq!(r.len(), 7);
        assert_eq!(r[0], 1.0);
        assert_eq!(r[6], 3.0);
    }
}
