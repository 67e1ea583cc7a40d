//! Multidimensional index substrate.
//!
//! GEMINI-style time-series indexing (paper §3.3) reduces each series to a
//! low-dimensional feature vector and stores the vectors in a spatial index.
//! Two indexes answer the [`SpatialIndex`] range query:
//!
//! * [`linear::LinearScan`] — one branch-free sweep over a flat point array,
//!   the feature index of the product engine: a hum's envelope box is so
//!   wide that a tree reads nearly every page anyway, and a sweep builds in
//!   O(n). Its [`LinearScan::all_dist_sq`] is the bound sweep the engine's
//!   k-NN schedule ranks.
//! * [`rstar::RStarTree`] — an R\*-tree (Beckmann et al., SIGMOD 1990) with
//!   ChooseSubtree, R\* topological split and forced reinsertion: the index
//!   the paper uses (via LibGist). The figures read their page accesses from
//!   its range query over each transform's features.
//!
//! Nearest-neighbour search is the engine's job, not the index's. Queries
//! are geometric: a [`Query::Point`] (a reduced feature vector) or a
//! [`Query::Rect`] (the feature-space image of a time-series *envelope*,
//! which is a box). Every search reports [`QueryStats`] — candidates touched
//! and node/page accesses — because the paper evaluates indexing methods
//! with exactly these implementation-bias-free counters (Figs 9 and 10).

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
}
