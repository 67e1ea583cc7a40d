//! Axis-aligned rectangles (minimum bounding rectangles).

/// An axis-aligned hyperrectangle `[lo, hi]` in `d` dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// Creates a rectangle from its lower and upper corners.
    ///
    /// # Panics
    /// Panics if the corners disagree in dimension or if any `lo > hi`.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensions must agree");
        for (l, h) in lo.iter().zip(&hi) {
            assert!(l <= h, "lower corner must not exceed upper corner ({l} > {h})");
        }
        Rect { lo, hi }
    }

    /// The degenerate rectangle covering a single point.
    pub fn from_point(p: &[f64]) -> Self {
        Rect { lo: p.to_vec(), hi: p.to_vec() }
    }

    /// An "empty" rectangle that acts as the identity for [`Rect::union`]:
    /// every coordinate is `[+∞, -∞]`. Not a valid rectangle on its own.
    pub fn empty(dims: usize) -> Self {
        Rect { lo: vec![f64::INFINITY; dims], hi: vec![f64::NEG_INFINITY; dims] }
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Grows this rectangle (in place) to cover `other`.
    pub fn union_in_place(&mut self, other: &Rect) {
        debug_assert_eq!(self.dims(), other.dims());
        for i in 0..self.lo.len() {
            if other.lo[i] < self.lo[i] {
                self.lo[i] = other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                self.hi[i] = other.hi[i];
            }
        }
    }

    /// The smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// Hypervolume (product of side lengths).
    pub fn area(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| (h - l).max(0.0)).product()
    }

    /// Sum of side lengths — the "margin" minimized by the R\* split.
    pub fn margin(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| (h - l).max(0.0)).sum()
    }

    /// Hypervolume of the intersection with `other` (zero if disjoint).
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        debug_assert_eq!(self.dims(), other.dims());
        let mut area = 1.0;
        for i in 0..self.lo.len() {
            let lo = self.lo[i].max(other.lo[i]);
            let hi = self.hi[i].min(other.hi[i]);
            if hi <= lo {
                return 0.0;
            }
            area *= hi - lo;
        }
        area
    }

    /// `true` if the point lies inside (boundary inclusive).
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(self.dims(), p.len());
        p.iter().zip(self.lo.iter().zip(&self.hi)).all(|(x, (l, h))| l <= x && x <= h)
    }

    /// Center point.
    pub fn center(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| 0.5 * (l + h)).collect()
    }

    /// Minimum Euclidean distance from a point to this rectangle (zero if the
    /// point is inside).
    pub fn min_dist_point(&self, p: &[f64]) -> f64 {
        self.min_dist_point_sq(p).sqrt()
    }

    /// Squared version of [`Rect::min_dist_point`].
    pub fn min_dist_point_sq(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(self.dims(), p.len());
        let mut acc = 0.0;
        for (i, &v) in p.iter().enumerate() {
            let d = if v < self.lo[i] {
                self.lo[i] - v
            } else if v > self.hi[i] {
                v - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Minimum Euclidean distance between two rectangles (zero if they
    /// intersect).
    pub fn min_dist_rect(&self, other: &Rect) -> f64 {
        self.min_dist_rect_sq(other).sqrt()
    }

    /// Squared version of [`Rect::min_dist_rect`].
    pub fn min_dist_rect_sq(&self, other: &Rect) -> f64 {
        debug_assert_eq!(self.dims(), other.dims());
        let mut acc = 0.0;
        for i in 0..self.lo.len() {
            let d = if other.hi[i] < self.lo[i] {
                self.lo[i] - other.hi[i]
            } else if other.lo[i] > self.hi[i] {
                other.lo[i] - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn area_and_margin() {
        let a = r(&[0.0, 0.0], &[2.0, 3.0]);
        assert_eq!(a.area(), 6.0);
        assert_eq!(a.margin(), 5.0);
        assert_eq!(Rect::from_point(&[1.0, 1.0]).area(), 0.0);
    }

    #[test]
    fn union_covers_both() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[2.0, -1.0], &[3.0, 0.5]);
        let u = a.union(&b);
        assert_eq!(u, r(&[0.0, -1.0], &[3.0, 1.0]));
    }

    #[test]
    fn empty_is_union_identity() {
        let mut e = Rect::empty(2);
        let a = r(&[1.0, 2.0], &[3.0, 4.0]);
        e.union_in_place(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn overlap_area_cases() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        let b = r(&[1.0, 1.0], &[3.0, 3.0]);
        let c = r(&[5.0, 5.0], &[6.0, 6.0]);
        assert_eq!(a.overlap_area(&b), 1.0);
        assert_eq!(a.overlap_area(&c), 0.0);
        assert_eq!(a.overlap_area(&a), 4.0);
    }

    #[test]
    fn point_containment() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(a.contains_point(&[0.5, 0.5]));
        assert!(a.contains_point(&[1.0, 0.0]));
        assert!(!a.contains_point(&[1.1, 0.5]));
    }

    #[test]
    fn min_dist_point_inside_edge_and_corner() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        assert_eq!(a.min_dist_point(&[1.0, 1.0]), 0.0);
        assert_eq!(a.min_dist_point(&[3.0, 1.0]), 1.0);
        assert!((a.min_dist_point(&[5.0, 6.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_dist_rect_cases() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[4.0, 5.0], &[6.0, 7.0]);
        assert!((a.min_dist_rect(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.min_dist_rect(&a), 0.0);
        let touching = r(&[1.0, 0.0], &[2.0, 1.0]);
        assert_eq!(a.min_dist_rect(&touching), 0.0);
    }

    #[test]
    #[should_panic(expected = "lower corner")]
    fn inverted_corners_panic() {
        let _ = r(&[1.0], &[0.0]);
    }
}
