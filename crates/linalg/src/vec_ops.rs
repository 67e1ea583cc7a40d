//! Vector operations and summary statistics shared across the workspace.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance requires equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// `y += alpha * x`.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Arithmetic mean; zero for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance; zero for slices shorter than two elements.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Population standard deviation.
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Subtracts the mean in place, making the series shift-invariant
/// ("normal form" step of §3.3, item 1).
pub fn center(a: &mut [f64]) {
    let m = mean(a);
    for x in a.iter_mut() {
        *x -= m;
    }
}

/// Minimum and maximum of a nonempty slice.
///
/// # Panics
/// Panics if the slice is empty.
pub fn min_max(a: &[f64]) -> (f64, f64) {
    assert!(!a.is_empty(), "min_max of empty slice");
    let mut lo = a[0];
    let mut hi = a[0];
    for &x in &a[1..] {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn euclidean_distance_known_value() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(sq_euclidean(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn mean_variance_of_known_data() {
        let a = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&a), 5.0);
        assert_eq!(variance(&a), 4.0);
        assert_eq!(std_dev(&a), 2.0);
    }

    #[test]
    fn center_makes_zero_mean() {
        let mut a = vec![1.0, 2.0, 3.0, 10.0];
        center(&mut a);
        assert!(mean(&a).abs() < 1e-12);
    }

    #[test]
    fn min_max_of_mixed_slice() {
        assert_eq!(min_max(&[3.0, -1.0, 7.0, 2.0]), (-1.0, 7.0));
    }

    #[test]
    fn empty_slices_are_handled() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[7.0]), 0.0);
    }
}
