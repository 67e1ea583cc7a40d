//! Query shapes.

use crate::rect::Rect;

/// The geometric shape a search is issued against.
///
/// A plain feature vector is a [`Query::Point`]. A query-*envelope* image
/// under a container-invariant transform is a feature-space box
/// ([`Query::Rect`]); the distance from an indexed point to that box is the
/// paper's lower bound on the true DTW distance (Theorem 1), so a range query
/// or a bound sweep against a `Rect` query is exactly the index phase of the
/// DTW-indexing scheme.
#[derive(Debug, Clone)]
pub enum Query {
    /// Search around a point.
    Point(Vec<f64>),
    /// Search around an axis-aligned box.
    Rect(Rect),
}

impl Query {
    /// Dimensionality of the query shape.
    pub fn dims(&self) -> usize {
        match self {
            Query::Point(p) => p.len(),
            Query::Rect(r) => r.dims(),
        }
    }

    /// Minimum distance from the query shape to a point.
    pub fn dist_to_point(&self, p: &[f64]) -> f64 {
        self.dist_sq_to_point(p).sqrt()
    }

    /// Squared version of [`Query::dist_to_point`].
    pub fn dist_sq_to_point(&self, p: &[f64]) -> f64 {
        match self {
            Query::Point(q) => {
                debug_assert_eq!(q.len(), p.len());
                q.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum()
            }
            Query::Rect(r) => r.min_dist_point_sq(p),
        }
    }

    /// Minimum distance from the query shape to a rectangle (MINDIST used to
    /// order/prune tree descent).
    pub fn dist_to_rect(&self, r: &Rect) -> f64 {
        match self {
            Query::Point(q) => r.min_dist_point(q),
            Query::Rect(q) => q.min_dist_rect(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_query_distances() {
        let q = Query::Point(vec![0.0, 0.0]);
        assert_eq!(q.dist_to_point(&[3.0, 4.0]), 5.0);
        let r = Rect::new(vec![1.0, 0.0], vec![2.0, 1.0]);
        assert_eq!(q.dist_to_rect(&r), 1.0);
    }

    #[test]
    fn rect_query_distances() {
        let q = Query::Rect(Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]));
        assert_eq!(q.dist_to_point(&[0.5, 0.5]), 0.0);
        assert_eq!(q.dist_to_point(&[1.0, 2.0]), 1.0);
        let far = Rect::new(vec![4.0, 1.0], vec![5.0, 2.0]);
        assert_eq!(q.dist_to_rect(&far), 3.0);
    }

    #[test]
    fn dims_reporting() {
        assert_eq!(Query::Point(vec![0.0; 8]).dims(), 8);
        assert_eq!(Query::Rect(Rect::empty(4)).dims(), 4);
    }
}
