//! The product index: one contiguous, branch-free sweep over every point.
//!
//! The paper keeps d small because R\*-tree page accesses grow with it
//! (§3.3, §5.3). But a hum's envelope box is wide: a tree walk hands over
//! half the corpus and reads nearly every page anyway, and its one-by-one
//! build dominates start-up and compaction. A sweep is O(n·d) flops over one
//! row-major array — the sequential cheap-bound scan of Lemire's two-pass
//! DTW papers — and builds in O(n). Pages are still counted for the paper.
//!
//! Answers (ids, order, distance bits, [`QueryStats`]) equal a per-point
//! scan in insertion order, for finite coordinates: a point query is the box
//! `[q, q]` and each `d²` is summed left to right as
//! [`crate::Rect::min_dist_point_sq`] does. The sweep answers range queries
//! ([`SpatialIndex::range_query`]) and the bound sweep
//! ([`LinearScan::all_dist_sq`]), and keeps the engine's deletions
//! ([`LinearScan::remove`]); k-NN is the engine's (the hidden `knn`
//! stand-in is the old per-point scan stably sorted by
//! [`Query::dist_to_point`]).

use std::collections::BinaryHeap;

use crate::{ItemId, Query, QueryStats, SpatialIndex};

/// A flat array of points, scanned in full by every query.
#[derive(Debug, Clone)]
pub struct LinearScan {
    dims: usize,
    page_capacity: usize,
    /// Item ids in insertion order.
    ids: Vec<ItemId>,
    /// Row-major `ids.len() × dims` coordinates; row `i` belongs to `ids[i]`.
    coords: Vec<f64>,
}

impl LinearScan {
    /// Creates an empty scan container with the default 4 KiB page size.
    pub fn new(dims: usize) -> Self {
        Self::with_page_size(dims, 4096)
    }

    /// Creates an empty scan container; page capacity is derived from the
    /// entry size (point plus id), mirroring [`crate::rstar::RStarTree`].
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn with_page_size(dims: usize, page_bytes: usize) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        let page_capacity = (page_bytes / (dims * 8 + 8)).max(1);
        LinearScan { dims, page_capacity, ids: Vec::new(), coords: Vec::new() }
    }

    /// `out`, with the stats of a sweep: every page and every point read.
    fn answer<T>(&self, out: Vec<T>) -> (Vec<T>, QueryStats) {
        let pages = self.ids.len().div_ceil(self.page_capacity) as u64;
        let (points_examined, candidates) = (self.ids.len() as u64, out.len() as u64);
        (
            out,
            QueryStats { node_accesses: pages, leaf_accesses: pages, points_examined, candidates },
        )
    }

    /// The `k` nearest points, as `(id, distance)` sorted by ascending
    /// distance, plus the sweep's stats. A stand-in: the engine's k-NN runs
    /// on [`LinearScan::all_dist_sq`], and only the benchmark's stage
    /// replay calls this. ROADMAP item 1(b) deletes it with that replay.
    ///
    /// The sweep feeding a bounded max-heap of `(distance bits, position,
    /// d² bits)`, ordered as a stable sort by distance (a non-negative
    /// `f64`'s bits order as its value). A point whose `d²` is not below the
    /// worst kept one's cannot enter: no smaller distance, a later position.
    #[doc(hidden)]
    pub fn knn(&self, query: &Query, k: usize) -> (Vec<(ItemId, f64)>, QueryStats) {
        let entry = |pos: usize, dist_sq: f64| (dist_sq.sqrt().to_bits(), pos, dist_sq.to_bits());
        // `k` may arrive over the wire; at most `len` hits exist anyway.
        let mut heap = BinaryHeap::with_capacity(k.min(self.len()));
        let mut bound = f64::INFINITY;
        self.sweep(query, |pos, dist_sq| {
            if heap.len() < k {
                heap.push(entry(pos, dist_sq));
            } else if dist_sq < bound {
                if let Some(mut worst) = heap.peek_mut() {
                    *worst = entry(pos, dist_sq).min(*worst);
                }
            } else {
                return;
            }
            if heap.len() == k {
                bound = heap.peek().map_or(f64::INFINITY, |&(_, _, sq)| f64::from_bits(sq));
            }
        });
        let sorted = heap.into_sorted_vec().into_iter();
        self.answer(sorted.map(|(bits, pos, _)| (self.ids[pos], f64::from_bits(bits))).collect())
    }

    /// Every stored point's *squared* distance to the query, as `(id, d²)`
    /// in insertion order, plus the sweep's stats (every point is a
    /// candidate): the bound array the engine's k-NN schedule ranks.
    pub fn all_dist_sq(&self, query: &Query) -> (Vec<(ItemId, f64)>, QueryStats) {
        let mut out = Vec::with_capacity(self.len());
        self.sweep(query, |pos, dist_sq| out.push((self.ids[pos], dist_sq)));
        self.answer(out)
    }

    /// Removes the point stored under `id`, keeping every other point's
    /// insertion order so ties resolve as before. Returns `true` if
    /// something was removed.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let Some(pos) = self.ids.iter().position(|&found| found == id) else {
            return false;
        };
        self.ids.remove(pos);
        self.coords.drain(pos * self.dims..(pos + 1) * self.dims);
        true
    }

    /// Calls `visit(position, d²)` for every stored point in insertion
    /// order, `d²` being its squared distance to the query shape.
    fn sweep(&self, query: &Query, mut visit: impl FnMut(usize, f64)) {
        assert_eq!(query.dims(), self.dims, "query dimensionality mismatch");
        let (lo, hi) = match query {
            Query::Point(q) => (q.as_slice(), q.as_slice()),
            Query::Rect(r) => (r.lo(), r.hi()),
        };
        for (pos, row) in self.coords.chunks_exact(self.dims).enumerate() {
            let mut acc = 0.0;
            for ((&l, &h), &v) in lo.iter().zip(hi).zip(row) {
                let d = (l - v).max(v - h).max(0.0);
                acc += d * d;
            }
            visit(pos, acc);
        }
    }
}

impl SpatialIndex for LinearScan {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn insert(&mut self, id: ItemId, point: Vec<f64>) {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        self.ids.push(id);
        self.coords.extend_from_slice(&point);
    }

    fn range_query(&self, query: &Query, epsilon: f64) -> (Vec<ItemId>, QueryStats) {
        let mut out = Vec::new();
        self.sweep(query, |pos, dist_sq| {
            if dist_sq.sqrt() <= epsilon {
                out.push(self.ids[pos]);
            }
        });
        self.answer(out)
    }
}
