//! Multidimensional index substrate.
//!
//! GEMINI-style time-series indexing (paper §3.3) reduces each series to a
//! low-dimensional feature vector and stores the vectors in a spatial index.
//! This crate provides two backends behind the [`SpatialIndex`] trait:
//!
//! * [`linear::LinearScan`] — one branch-free sweep over a flat point array,
//!   the index the product runs: a hum's envelope box is so wide that a tree
//!   reads nearly every page anyway, and a sweep builds in O(n).
//! * [`rstar::RStarTree`] — an R\*-tree (Beckmann et al., SIGMOD 1990) with
//!   ChooseSubtree, R\* topological split and forced reinsertion: the index
//!   the paper uses (via LibGist), kept for its page-access figures.
//!
//! An index answers the two questions the DTW engine asks: every point within
//! ε of the query ([`SpatialIndex::range_query`]) and every point's squared
//! distance to it ([`SpatialIndex::all_dist_sq`], the bound sweep the
//! engine's k-NN schedule ranks). Nearest-neighbour search is the engine's
//! job, not the index's. Queries are geometric: a [`Query::Point`] (a reduced
//! feature vector) or a [`Query::Rect`] (the feature-space image of a
//! time-series *envelope*, which is a box). Every search reports
//! [`QueryStats`] — candidates touched and node/page accesses — because the
//! paper evaluates indexing methods with exactly these implementation-bias-free
//! counters (Figs 9 and 10).

pub mod linear;
pub mod query;
pub mod rect;
pub mod rstar;
pub mod stats;

pub use linear::LinearScan;
pub use query::Query;
pub use rect::Rect;
pub use rstar::RStarTree;
pub use stats::QueryStats;

/// Identifier of an indexed item (assigned by the caller).
pub type ItemId = u64;

/// A point-set spatial index over fixed-dimension `f64` vectors. Queries
/// take `&self` and may run from several threads at once, hence the
/// `Send + Sync` supertraits.
pub trait SpatialIndex: Send + Sync {
    /// Dimensionality of indexed points.
    fn dims(&self) -> usize;

    /// Number of indexed points.
    fn len(&self) -> usize;

    /// `true` if no points are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts one point.
    ///
    /// # Panics
    /// Panics if `point.len() != self.dims()`.
    fn insert(&mut self, id: ItemId, point: Vec<f64>);

    /// All ids whose point lies within distance `epsilon` of the query
    /// (Euclidean; for rectangle queries, distance to the box), plus access
    /// statistics.
    fn range_query(&self, query: &Query, epsilon: f64) -> (Vec<ItemId>, QueryStats);

    /// Every stored point's *squared* distance to the query, as `(id, d²)`
    /// in no particular order, plus access statistics (every point is a
    /// candidate).
    fn all_dist_sq(&self, query: &Query) -> (Vec<(ItemId, f64)>, QueryStats);

    /// Removes the point stored under `id`. Returns `true` if something was
    /// removed.
    fn remove(&mut self, id: ItemId) -> bool;
}

impl<T: SpatialIndex + ?Sized> SpatialIndex for Box<T> {
    fn dims(&self) -> usize {
        (**self).dims()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn insert(&mut self, id: ItemId, point: Vec<f64>) {
        (**self).insert(id, point)
    }

    fn range_query(&self, query: &Query, epsilon: f64) -> (Vec<ItemId>, QueryStats) {
        (**self).range_query(query, epsilon)
    }

    fn all_dist_sq(&self, query: &Query) -> (Vec<(ItemId, f64)>, QueryStats) {
        (**self).all_dist_sq(query)
    }

    fn remove(&mut self, id: ItemId) -> bool {
        (**self).remove(id)
    }
}
