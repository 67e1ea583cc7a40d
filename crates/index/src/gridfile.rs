//! A grid file with quantile linear scales.
//!
//! The paper cites grid files (via StatStream \[35\]) as an alternative to the
//! R\*-tree for indexing reduced feature vectors. This implementation fixes
//! its linear scales when the first `sample_size` points have arrived (or on
//! the first query, whichever comes first), placing cut points at sample
//! quantiles so cells are roughly equally populated; afterwards points hash
//! directly into cells. Each cell is a bucket of pages; page accesses are
//! counted per bucket page touched, mirroring the disk model of the other
//! backends.

use std::collections::HashMap;

use crate::query::Query;
use crate::rect::Rect;
use crate::stats::QueryStats;
use crate::{ItemId, SpatialIndex};

/// Default number of points buffered before the scales are frozen.
const DEFAULT_SAMPLE: usize = 1024;
/// Default number of intervals per dimension.
const DEFAULT_RESOLUTION: usize = 8;

/// A grid file over `f64` points.
#[derive(Debug, Clone)]
pub struct GridFile {
    dims: usize,
    resolution: usize,
    sample_size: usize,
    page_capacity: usize,
    /// Cut points per dimension (len = resolution − 1), set once frozen.
    scales: Option<Vec<Vec<f64>>>,
    /// Buffered points prior to freezing.
    pending: Vec<(ItemId, Vec<f64>)>,
    /// Cell coordinates → bucket contents.
    cells: HashMap<Vec<u32>, Vec<(ItemId, Vec<f64>)>>,
    len: usize,
}

impl GridFile {
    /// Creates an empty grid file with default resolution, sample size, and
    /// 4 KiB pages.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        Self::with_params(dims, DEFAULT_RESOLUTION, DEFAULT_SAMPLE, 4096)
    }

    /// Creates an empty grid file with explicit parameters.
    ///
    /// # Panics
    /// Panics if `dims == 0` or `resolution < 2`.
    pub fn with_params(dims: usize, resolution: usize, sample_size: usize, page_bytes: usize) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        assert!(resolution >= 2, "need at least two intervals per dimension");
        let entry = dims * 8 + 8;
        GridFile {
            dims,
            resolution,
            sample_size: sample_size.max(1),
            page_capacity: (page_bytes / entry).max(1),
            scales: None,
            pending: Vec::new(),
            cells: HashMap::new(),
            len: 0,
        }
    }

    /// Number of populated cells.
    pub fn populated_cells(&self) -> usize {
        self.cells.len()
    }

    /// `true` once the linear scales are frozen.
    pub fn is_frozen(&self) -> bool {
        self.scales.is_some()
    }

    /// Freezes the linear scales from the points buffered so far and files
    /// them into cells. Called automatically by queries and once the sample
    /// is full.
    pub fn freeze(&mut self) {
        if self.scales.is_some() {
            return;
        }
        let mut scales = Vec::with_capacity(self.dims);
        for d in 0..self.dims {
            let mut coords: Vec<f64> = self.pending.iter().map(|(_, p)| p[d]).collect();
            coords.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
            let cuts = if coords.is_empty() {
                // No data: uniform unit scales as a harmless default.
                (1..self.resolution).map(|i| i as f64 / self.resolution as f64).collect()
            } else {
                (1..self.resolution)
                    .map(|i| {
                        let idx = i * coords.len() / self.resolution;
                        coords[idx.min(coords.len() - 1)]
                    })
                    .collect()
            };
            scales.push(cuts);
        }
        self.scales = Some(scales);
        for (id, p) in std::mem::take(&mut self.pending) {
            let cell = self.cell_of(&p);
            self.cells.entry(cell).or_default().push((id, p));
        }
    }

    fn cell_of(&self, p: &[f64]) -> Vec<u32> {
        let scales = self.scales.as_ref().expect("scales frozen");
        p.iter()
            .zip(scales)
            .map(|(x, cuts)| cuts.partition_point(|c| c < x) as u32)
            .collect()
    }

    /// The geometric region of a cell (unbounded edges clamped to ±∞).
    fn cell_rect(&self, cell: &[u32]) -> Rect {
        let scales = self.scales.as_ref().expect("scales frozen");
        let mut lo = Vec::with_capacity(self.dims);
        let mut hi = Vec::with_capacity(self.dims);
        for (d, &c) in cell.iter().enumerate() {
            let cuts = &scales[d];
            lo.push(if c == 0 { f64::NEG_INFINITY } else { cuts[(c - 1) as usize] });
            hi.push(if (c as usize) >= cuts.len() { f64::INFINITY } else { cuts[c as usize] });
        }
        Rect::new(lo, hi)
    }

    fn bucket_pages(&self, bucket_len: usize) -> u64 {
        bucket_len.div_ceil(self.page_capacity).max(1) as u64
    }

    /// Reads every bucket whose cell lies within `epsilon` of the query (the
    /// buffer, before the scales are frozen) and calls `visit(id, d²)` for
    /// each point in it. Returns the access counters, `candidates` left to
    /// the caller.
    fn walk(&self, query: &Query, epsilon: f64, mut visit: impl FnMut(ItemId, f64)) -> QueryStats {
        assert_eq!(query.dims(), self.dims, "query dimensionality mismatch");
        let mut stats = QueryStats::default();
        if self.scales.is_none() {
            // Not yet frozen: scan the buffer (small by construction).
            stats.node_accesses = self.bucket_pages(self.pending.len());
            for (id, p) in &self.pending {
                stats.points_examined += 1;
                visit(*id, query.dist_sq_to_point(p));
            }
            return stats;
        }
        for (cell, bucket) in &self.cells {
            if query.dist_to_rect(&self.cell_rect(cell)) > epsilon {
                continue;
            }
            stats.node_accesses += self.bucket_pages(bucket.len());
            stats.leaf_accesses += self.bucket_pages(bucket.len());
            for (id, p) in bucket {
                stats.points_examined += 1;
                visit(*id, query.dist_sq_to_point(p));
            }
        }
        stats
    }
}

impl SpatialIndex for GridFile {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, id: ItemId, point: Vec<f64>) {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        self.len += 1;
        match self.scales {
            None => {
                self.pending.push((id, point));
                if self.pending.len() >= self.sample_size {
                    self.freeze();
                }
            }
            Some(_) => {
                let cell = self.cell_of(&point);
                self.cells.entry(cell).or_default().push((id, point));
            }
        }
    }

    fn remove(&mut self, id: ItemId) -> bool {
        if let Some(pos) = self.pending.iter().position(|(found, _)| *found == id) {
            self.pending.remove(pos);
            self.len -= 1;
            return true;
        }
        for bucket in self.cells.values_mut() {
            if let Some(pos) = bucket.iter().position(|(found, _)| *found == id) {
                bucket.remove(pos);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    fn range_query(&self, query: &Query, epsilon: f64) -> (Vec<ItemId>, QueryStats) {
        let mut out = Vec::new();
        let mut stats = self.walk(query, epsilon, |id, dist_sq| {
            if dist_sq.sqrt() <= epsilon {
                out.push(id);
            }
        });
        stats.candidates = out.len() as u64;
        (out, stats)
    }

    /// A walk that skips no bucket.
    fn all_dist_sq(&self, query: &Query) -> (Vec<(ItemId, f64)>, QueryStats) {
        let mut out = Vec::with_capacity(self.len);
        let mut stats = self.walk(query, f64::INFINITY, |id, dist_sq| out.push((id, dist_sq)));
        stats.candidates = out.len() as u64;
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| (0..dims).map(|_| next() * 10.0).collect()).collect()
    }

    fn brute_range(points: &[Vec<f64>], q: &Query, eps: f64) -> Vec<ItemId> {
        let mut out: Vec<ItemId> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| q.dist_to_point(p) <= eps)
            .map(|(i, _)| i as ItemId)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn range_query_matches_brute_force_after_freeze() {
        let points = lcg_points(800, 3, 42);
        let mut g = GridFile::with_params(3, 4, 100, 512);
        for (i, p) in points.iter().enumerate() {
            g.insert(i as ItemId, p.clone());
        }
        assert!(g.is_frozen());
        for seed in 0..5u64 {
            let q = Query::Point(lcg_points(1, 3, 100 + seed)[0].clone());
            let (mut got, _) = g.range_query(&q, 2.0);
            got.sort_unstable();
            assert_eq!(got, brute_range(&points, &q, 2.0));
        }
    }

    #[test]
    fn range_query_works_before_freeze() {
        let points = lcg_points(50, 2, 7);
        let mut g = GridFile::new(2);
        for (i, p) in points.iter().enumerate() {
            g.insert(i as ItemId, p.clone());
        }
        assert!(!g.is_frozen());
        let q = Query::Point(vec![5.0, 5.0]);
        let (mut got, _) = g.range_query(&q, 3.0);
        got.sort_unstable();
        assert_eq!(got, brute_range(&points, &q, 3.0));
    }

    #[test]
    fn selective_queries_touch_few_pages() {
        let points = lcg_points(4000, 2, 99);
        let mut g = GridFile::with_params(2, 16, 256, 512);
        for (i, p) in points.iter().enumerate() {
            g.insert(i as ItemId, p.clone());
        }
        let (_, stats) = g.range_query(&Query::Point(vec![5.0, 5.0]), 0.3);
        let full_pages = 4000 / (512 / 24) + 1;
        assert!(stats.node_accesses < full_pages as u64 / 2, "accesses {}", stats.node_accesses);
    }

    #[test]
    fn rect_queries_are_supported() {
        let points = lcg_points(300, 2, 17);
        let mut g = GridFile::with_params(2, 4, 64, 512);
        for (i, p) in points.iter().enumerate() {
            g.insert(i as ItemId, p.clone());
        }
        let q = Query::Rect(Rect::new(vec![2.0, 2.0], vec![4.0, 4.0]));
        let (mut got, _) = g.range_query(&q, 1.0);
        got.sort_unstable();
        assert_eq!(got, brute_range(&points, &q, 1.0));
    }

    #[test]
    fn empty_gridfile() {
        let g = GridFile::new(2);
        let (hits, _) = g.range_query(&Query::Point(vec![0.0, 0.0]), 1.0);
        assert!(hits.is_empty());
        let mut g2 = GridFile::new(2);
        g2.freeze();
        assert!(g2.is_frozen());
        let (hits, _) = g2.range_query(&Query::Point(vec![0.0, 0.0]), 1.0);
        assert!(hits.is_empty());
    }
}
