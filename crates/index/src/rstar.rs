//! An R\*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD 1990).
//!
//! The backend used by the paper for its large-database experiments. This is
//! a main-memory implementation with page-size-derived fan-outs so that the
//! `node_accesses` counter corresponds to disk page reads, the metric
//! reported in Figs 9 and 10. All three R\* innovations are implemented:
//! overlap-minimizing `ChooseSubtree` at the leaf level, the topological
//! (margin-driven) split, and forced reinsertion on first overflow per level.

use crate::query::Query;
use crate::rect::Rect;
use crate::stats::QueryStats;
use crate::{ItemId, SpatialIndex};

/// Fraction of entries evicted by forced reinsertion (the paper's p = 30 %).
const REINSERT_FRACTION: f64 = 0.3;
/// Minimum node fill as a fraction of the maximum (the R\* paper's 40 %).
const MIN_FILL_FRACTION: f64 = 0.4;

/// A main-memory R\*-tree over `f64` points with page-access accounting.
#[derive(Debug, Clone)]
pub struct RStarTree {
    dims: usize,
    max_leaf: usize,
    min_leaf: usize,
    max_inner: usize,
    min_inner: usize,
    nodes: Vec<Node>,
    root: usize,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node {
    /// 0 for leaves; parents of leaves are level 1, and so on.
    level: u32,
    entries: Vec<Entry>,
}

#[derive(Debug, Clone)]
struct Entry {
    rect: Rect,
    data: EntryData,
}

#[derive(Debug, Clone)]
enum EntryData {
    /// Index of a child node in the arena.
    Child(usize),
    /// A stored point.
    Item { id: ItemId, point: Vec<f64> },
}

impl Entry {
    fn child(&self) -> usize {
        match self.data {
            EntryData::Child(c) => c,
            EntryData::Item { .. } => unreachable!("inner entry expected"),
        }
    }
}

impl RStarTree {
    /// Creates an empty tree with the default 4 KiB page size.
    pub fn new(dims: usize) -> Self {
        Self::with_page_size(dims, 4096)
    }

    /// Creates an empty tree whose node fan-outs are derived from a page
    /// size in bytes: a leaf entry stores a point plus an id, an inner entry
    /// stores a rectangle plus a child pointer.
    ///
    /// # Panics
    /// Panics if `dims == 0` or the page is too small to hold 4 entries.
    pub fn with_page_size(dims: usize, page_bytes: usize) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        let leaf_entry = dims * 8 + 8;
        let inner_entry = 2 * dims * 8 + 8;
        let max_leaf = (page_bytes / leaf_entry).max(4);
        let max_inner = (page_bytes / inner_entry).max(4);
        assert!(page_bytes / leaf_entry >= 4, "page too small for dims={dims}");
        let min_leaf = ((max_leaf as f64 * MIN_FILL_FRACTION) as usize).max(2);
        let min_inner = ((max_inner as f64 * MIN_FILL_FRACTION) as usize).max(2);
        RStarTree {
            dims,
            max_leaf,
            min_leaf,
            max_inner,
            min_inner,
            nodes: vec![Node { level: 0, entries: Vec::new() }],
            root: 0,
            len: 0,
        }
    }

    /// Maximum entries per leaf node.
    pub fn leaf_capacity(&self) -> usize {
        self.max_leaf
    }

    /// Height of the tree (1 for a tree that is a single leaf).
    pub fn height(&self) -> usize {
        self.nodes[self.root].level as usize + 1
    }

    /// Total number of nodes (= pages occupied).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn capacity(&self, level: u32) -> usize {
        if level == 0 {
            self.max_leaf
        } else {
            self.max_inner
        }
    }

    fn min_fill(&self, level: u32) -> usize {
        if level == 0 {
            self.min_leaf
        } else {
            self.min_inner
        }
    }

    fn node_rect(&self, node: usize) -> Rect {
        let mut r = Rect::empty(self.dims);
        for e in &self.nodes[node].entries {
            r.union_in_place(&e.rect);
        }
        r
    }

    /// Inserts `entry` at tree level `level`, with `reinserted` tracking
    /// which levels already ran forced reinsertion during the current
    /// top-level insert.
    fn insert_at_level(&mut self, entry: Entry, level: u32, reinserted: &mut Vec<bool>) {
        // Descend from the root to the target level, remembering the path.
        let mut path = Vec::new();
        let mut node = self.root;
        while self.nodes[node].level > level {
            let child_pos = self.choose_subtree(node, &entry.rect);
            path.push((node, child_pos));
            node = self.nodes[node].entries[child_pos].child();
        }
        debug_assert_eq!(self.nodes[node].level, level);
        self.nodes[node].entries.push(entry);

        // Walk back up, fixing MBRs and handling overflow.
        self.handle_overflow(node, &path, reinserted);
    }

    /// Resolves a possible overflow at `node`, then tightens ancestor MBRs.
    fn handle_overflow(&mut self, node: usize, path: &[(usize, usize)], reinserted: &mut Vec<bool>) {
        let level = self.nodes[node].level;
        if self.nodes[node].entries.len() > self.capacity(level) {
            let lvl = level as usize;
            if reinserted.len() <= lvl {
                reinserted.resize(lvl + 1, false);
            }
            if node != self.root && !reinserted[lvl] {
                reinserted[lvl] = true;
                let evicted = self.pick_reinsert_victims(node);
                self.refresh_path_rects(path);
                for e in evicted {
                    self.insert_at_level(e, level, reinserted);
                }
                return;
            }
            let new_node = self.split(node);
            let new_rect = self.node_rect(new_node);
            if node == self.root {
                let old_rect = self.node_rect(node);
                let root_level = self.nodes[node].level + 1;
                let new_root = self.alloc(Node {
                    level: root_level,
                    entries: vec![
                        Entry { rect: old_rect, data: EntryData::Child(node) },
                        Entry { rect: new_rect, data: EntryData::Child(new_node) },
                    ],
                });
                self.root = new_root;
            } else {
                let (parent, pos) = *path.last().expect("non-root node has a parent");
                self.nodes[parent].entries[pos].rect = self.node_rect(node);
                self.nodes[parent]
                    .entries
                    .push(Entry { rect: new_rect, data: EntryData::Child(new_node) });
                self.handle_overflow(parent, &path[..path.len() - 1], reinserted);
                return;
            }
        }
        self.refresh_path_rects(path);
    }

    /// Tightens the MBRs stored along a root-to-node path (bottom-up).
    fn refresh_path_rects(&mut self, path: &[(usize, usize)]) {
        for &(parent, pos) in path.iter().rev() {
            let child = self.nodes[parent].entries[pos].child();
            self.nodes[parent].entries[pos].rect = self.node_rect(child);
        }
    }

    /// R\* ChooseSubtree: overlap-minimizing for parents of leaves, area-
    /// enlargement-minimizing above.
    fn choose_subtree(&self, node: usize, rect: &Rect) -> usize {
        let n = &self.nodes[node];
        debug_assert!(n.level > 0);
        let leaf_parent = n.level == 1;
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in n.entries.iter().enumerate() {
            let enlarged = e.rect.union(rect);
            let area = e.rect.area();
            let enlargement = enlarged.area() - area;
            let key = if leaf_parent {
                // Overlap enlargement against sibling entries.
                let mut overlap_delta = 0.0;
                for (j, s) in n.entries.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    overlap_delta += enlarged.overlap_area(&s.rect) - e.rect.overlap_area(&s.rect);
                }
                (overlap_delta, enlargement, area)
            } else {
                (enlargement, area, 0.0)
            };
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Removes the p·M entries of `node` farthest from its center, returning
    /// them sorted closest-first (the R\* "close reinsert").
    fn pick_reinsert_victims(&mut self, node: usize) -> Vec<Entry> {
        let center = self.node_rect(node).center();
        let count =
            ((self.nodes[node].entries.len() as f64 * REINSERT_FRACTION) as usize).max(1);
        let n = &mut self.nodes[node];
        let mut order: Vec<usize> = (0..n.entries.len()).collect();
        let dist = |e: &Entry| -> f64 {
            let c = e.rect.center();
            c.iter().zip(&center).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        order.sort_by(|&a, &b| {
            dist(&n.entries[a]).partial_cmp(&dist(&n.entries[b])).expect("finite distances")
        });
        let victims: Vec<usize> = order[order.len() - count..].to_vec();
        let mut keep_mask = vec![true; n.entries.len()];
        for &v in &victims {
            keep_mask[v] = false;
        }
        let mut evicted = Vec::with_capacity(count);
        let mut kept = Vec::with_capacity(n.entries.len() - count);
        for (i, e) in n.entries.drain(..).enumerate() {
            if keep_mask[i] {
                kept.push(e);
            } else {
                evicted.push(e);
            }
        }
        n.entries = kept;
        // Close reinsert: nearest evicted entries go back in first.
        evicted.sort_by(|a, b| dist(a).partial_cmp(&dist(b)).expect("finite distances"));
        evicted
    }

    /// R\* topological split. Returns the index of the freshly allocated
    /// sibling node (same level), which receives the second group.
    fn split(&mut self, node: usize) -> usize {
        let level = self.nodes[node].level;
        let min = self.min_fill(level);
        let entries = std::mem::take(&mut self.nodes[node].entries);
        let total = entries.len();
        debug_assert!(total >= 2 * min);

        // ChooseSplitAxis: minimize the sum of margins over all distributions.
        let mut best_axis = 0;
        let mut best_margin = f64::INFINITY;
        for axis in 0..self.dims {
            let mut order: Vec<usize> = (0..total).collect();
            order.sort_by(|&a, &b| {
                let (ra, rb) = (&entries[a].rect, &entries[b].rect);
                (ra.lo()[axis], ra.hi()[axis])
                    .partial_cmp(&(rb.lo()[axis], rb.hi()[axis]))
                    .expect("finite coordinates")
            });
            let mut margin_sum = 0.0;
            for split_at in min..=(total - min) {
                let (r1, r2) = group_rects(&entries, &order, split_at, self.dims);
                margin_sum += r1.margin() + r2.margin();
            }
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best_axis = axis;
            }
        }

        // ChooseSplitIndex on the winning axis: minimize overlap, then area.
        let axis = best_axis;
        let mut order: Vec<usize> = (0..total).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (&entries[a].rect, &entries[b].rect);
            (ra.lo()[axis], ra.hi()[axis])
                .partial_cmp(&(rb.lo()[axis], rb.hi()[axis]))
                .expect("finite coordinates")
        });
        let mut best_split = min;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for split_at in min..=(total - min) {
            let (r1, r2) = group_rects(&entries, &order, split_at, self.dims);
            let key = (r1.overlap_area(&r2), r1.area() + r2.area());
            if key < best_key {
                best_key = key;
                best_split = split_at;
            }
        }

        let mut first = Vec::with_capacity(best_split);
        let mut second = Vec::with_capacity(total - best_split);
        let mut slots: Vec<Option<Entry>> = entries.into_iter().map(Some).collect();
        for (rank, &idx) in order.iter().enumerate() {
            let e = slots[idx].take().expect("each entry moved once");
            if rank < best_split {
                first.push(e);
            } else {
                second.push(e);
            }
        }
        self.nodes[node].entries = first;
        self.alloc(Node { level, entries: second })
    }

    fn alloc(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Bulk-loads a point set with the Sort-Tile-Recursive packing algorithm
    /// (Leutenegger et al., ICDE 1997): sort by the first coordinate, cut
    /// into vertical slabs, sort each slab by the next coordinate, recurse.
    /// Produces a fully packed tree — every node at maximum fill except the
    /// last of each level — which builds far faster than repeated insertion
    /// and usually queries at least as well.
    ///
    /// # Panics
    /// Panics if any point has the wrong dimensionality.
    pub fn bulk_load(dims: usize, page_bytes: usize, items: Vec<(ItemId, Vec<f64>)>) -> Self {
        let mut tree = RStarTree::with_page_size(dims, page_bytes);
        if items.is_empty() {
            return tree;
        }
        tree.len = items.len();
        let entries: Vec<Entry> = items
            .into_iter()
            .map(|(id, point)| {
                assert_eq!(point.len(), dims, "point dimensionality mismatch");
                Entry { rect: Rect::from_point(&point), data: EntryData::Item { id, point } }
            })
            .collect();

        // Pack the leaf level, then repeatedly pack parent levels until one
        // node remains.
        tree.nodes.clear();
        let mut level = 0u32;
        let mut current = entries;
        loop {
            let capacity = tree.capacity(level);
            let node_ids = tree.pack_level(current, level, capacity);
            if node_ids.len() == 1 {
                tree.root = node_ids[0];
                break;
            }
            current = node_ids
                .into_iter()
                .map(|child| Entry {
                    rect: tree.node_rect(child),
                    data: EntryData::Child(child),
                })
                .collect();
            level += 1;
        }
        tree
    }

    /// Tiles one level's entries into packed nodes, returning their arena
    /// indices.
    fn pack_level(&mut self, mut entries: Vec<Entry>, level: u32, capacity: usize) -> Vec<usize> {
        let count = entries.len();
        let node_count = count.div_ceil(capacity);
        if node_count <= 1 {
            return vec![self.alloc(Node { level, entries })];
        }
        // STR: number of vertical slabs = ceil(sqrt(node_count)); sort by
        // the first center coordinate, slice, then sort each slab by the
        // second coordinate (for dims > 2 this pairwise tiling is the
        // standard practical simplification).
        let slabs = (node_count as f64).sqrt().ceil() as usize;
        let slab_len = count.div_ceil(slabs);
        sort_by_center(&mut entries, 0);
        let mut nodes = Vec::with_capacity(node_count);
        let mut rest = entries;
        while !rest.is_empty() {
            let take = slab_len.min(rest.len());
            let mut slab: Vec<Entry> = rest.drain(..take).collect();
            if self.dims > 1 {
                sort_by_center(&mut slab, 1);
            }
            while !slab.is_empty() {
                let chunk: Vec<Entry> = slab.drain(..capacity.min(slab.len())).collect();
                nodes.push(self.alloc(Node { level, entries: chunk }));
            }
        }
        nodes
    }

    /// Checks every structural invariant of the tree and returns the
    /// violations (empty = healthy). Intended for tests and debugging
    /// assertions after bulk mutation:
    ///
    /// * stored entry MBRs equal the actual bounds of their subtrees,
    /// * child levels decrease by exactly one per tree level,
    /// * node occupancy respects capacity (and minimum fill below the root),
    /// * every leaf sits at level 0 and `len` equals the stored item count.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut item_count = 0usize;
        self.validate_node(self.root, None, true, &mut item_count, &mut problems);
        if item_count != self.len {
            problems.push(format!("len says {} items, found {item_count}", self.len));
        }
        problems
    }

    fn validate_node(
        &self,
        node: usize,
        expected_rect: Option<&Rect>,
        is_root: bool,
        item_count: &mut usize,
        problems: &mut Vec<String>,
    ) {
        let n = &self.nodes[node];
        let actual = self.node_rect(node);
        if let Some(expected) = expected_rect {
            if expected != &actual {
                problems.push(format!("node {node}: stored MBR differs from actual bounds"));
            }
        }
        if n.entries.len() > self.capacity(n.level) {
            problems.push(format!(
                "node {node}: {} entries exceed capacity {}",
                n.entries.len(),
                self.capacity(n.level)
            ));
        }
        if !is_root && self.len > 0 && n.entries.len() < self.min_fill(n.level) {
            problems.push(format!(
                "node {node}: {} entries below minimum fill {}",
                n.entries.len(),
                self.min_fill(n.level)
            ));
        }
        for e in &n.entries {
            match &e.data {
                EntryData::Item { point, .. } => {
                    if n.level != 0 {
                        problems.push(format!("node {node}: item stored above leaf level"));
                    }
                    if point.len() != self.dims {
                        problems.push(format!("node {node}: item of wrong dimensionality"));
                    }
                    *item_count += 1;
                }
                EntryData::Child(child) => {
                    if n.level == 0 {
                        problems.push(format!("node {node}: child pointer inside a leaf"));
                        continue;
                    }
                    if self.nodes[*child].level + 1 != n.level {
                        problems.push(format!(
                            "node {node}: child {child} at level {} under level {}",
                            self.nodes[*child].level, n.level
                        ));
                    }
                    self.validate_node(*child, Some(&e.rect), false, item_count, problems);
                }
            }
        }
    }

    /// Removes the point stored under `id` (the first one, if duplicates
    /// share the id). Returns `true` if something was removed.
    ///
    /// Follows the classic R-tree `CondenseTree` protocol: locate the leaf,
    /// drop the entry, and if any node along the path underflows, dissolve
    /// it and reinsert its surviving entries at their original level. The
    /// root collapses when it is an inner node with a single child.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let Some(path) = self.find_leaf(self.root, id, &mut Vec::new()) else {
            return false;
        };
        let leaf = *path.last().expect("path ends at the leaf");
        self.nodes[leaf]
            .entries
            .retain(|e| !matches!(&e.data, EntryData::Item { id: found, .. } if *found == id));
        self.len -= 1;

        // Walk back to the root, dissolving underfull nodes.
        let mut orphans: Vec<(u32, Vec<Entry>)> = Vec::new();
        for depth in (1..path.len()).rev() {
            let node = path[depth];
            let parent = path[depth - 1];
            let level = self.nodes[node].level;
            if self.nodes[node].entries.len() < self.min_fill(level) {
                let entries = std::mem::take(&mut self.nodes[node].entries);
                orphans.push((level, entries));
                self.nodes[parent].entries.retain(|e| e.child() != node);
            } else {
                let rect = self.node_rect(node);
                for e in &mut self.nodes[parent].entries {
                    if e.child() == node {
                        e.rect = rect.clone();
                    }
                }
            }
        }
        // Shrink a root that lost all but one child.
        while self.nodes[self.root].level > 0 && self.nodes[self.root].entries.len() == 1 {
            self.root = self.nodes[self.root].entries[0].child();
        }
        if self.nodes[self.root].level > 0 && self.nodes[self.root].entries.is_empty() {
            // All children dissolved: reset to an empty leaf root.
            self.nodes[self.root].level = 0;
        }
        for (level, entries) in orphans {
            let mut reinserted = Vec::new();
            for entry in entries {
                // Items reinsert at the leaf level; orphaned subtrees keep
                // their level.
                let target = if level == 0 { 0 } else { level };
                self.insert_at_level(entry, target, &mut reinserted);
            }
        }
        true
    }

    /// Depth-first search for the leaf containing `id`; returns the
    /// root-to-leaf node path.
    fn find_leaf(&self, node: usize, id: ItemId, path: &mut Vec<usize>) -> Option<Vec<usize>> {
        path.push(node);
        let n = &self.nodes[node];
        if n.level == 0 {
            let found = n
                .entries
                .iter()
                .any(|e| matches!(&e.data, EntryData::Item { id: found, .. } if *found == id));
            if found {
                return Some(path.clone());
            }
        } else {
            for e in &n.entries {
                if let Some(hit) = self.find_leaf(e.child(), id, path) {
                    return Some(hit);
                }
            }
        }
        path.pop();
        None
    }

    /// Reads every node within `epsilon` of the query and calls `visit(id,
    /// d²)` for each point of every leaf read. Returns the access counters,
    /// `candidates` left to the caller.
    fn walk(&self, query: &Query, epsilon: f64, mut visit: impl FnMut(ItemId, f64)) -> QueryStats {
        assert_eq!(query.dims(), self.dims, "query dimensionality mismatch");
        let mut stats = QueryStats::default();
        if self.len == 0 {
            return stats;
        }
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            stats.node_accesses += 1;
            let n = &self.nodes[node];
            if n.level == 0 {
                stats.leaf_accesses += 1;
                for e in &n.entries {
                    if let EntryData::Item { id, point } = &e.data {
                        stats.points_examined += 1;
                        visit(*id, query.dist_sq_to_point(point));
                    }
                }
            } else {
                for e in &n.entries {
                    if query.dist_to_rect(&e.rect) <= epsilon {
                        stack.push(e.child());
                    }
                }
            }
        }
        stats
    }
}

/// Sorts entries by the center of the given axis.
fn sort_by_center(entries: &mut [Entry], axis: usize) {
    entries.sort_by(|a, b| {
        let ca = 0.5 * (a.rect.lo()[axis] + a.rect.hi()[axis]);
        let cb = 0.5 * (b.rect.lo()[axis] + b.rect.hi()[axis]);
        ca.partial_cmp(&cb).expect("finite coordinates")
    });
}

/// Bounding rectangles of the two groups induced by `split_at` in `order`.
fn group_rects(entries: &[Entry], order: &[usize], split_at: usize, dims: usize) -> (Rect, Rect) {
    let mut r1 = Rect::empty(dims);
    let mut r2 = Rect::empty(dims);
    for (rank, &idx) in order.iter().enumerate() {
        if rank < split_at {
            r1.union_in_place(&entries[idx].rect);
        } else {
            r2.union_in_place(&entries[idx].rect);
        }
    }
    (r1, r2)
}

impl SpatialIndex for RStarTree {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, id: ItemId, point: Vec<f64>) {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        let entry = Entry { rect: Rect::from_point(&point), data: EntryData::Item { id, point } };
        let mut reinserted = Vec::new();
        self.insert_at_level(entry, 0, &mut reinserted);
        self.len += 1;
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

    /// A walk that prunes no node.
    fn all_dist_sq(&self, query: &Query) -> (Vec<(ItemId, f64)>, QueryStats) {
        let mut out = Vec::with_capacity(self.len);
        let mut stats = self.walk(query, f64::INFINITY, |id, dist_sq| out.push((id, dist_sq)));
        stats.candidates = out.len() as u64;
        (out, stats)
    }

    fn remove(&mut self, id: ItemId) -> bool {
        RStarTree::remove(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random points without external crates.
    fn lcg_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| (0..dims).map(|_| next() * 100.0).collect()).collect()
    }

    fn build(points: &[Vec<f64>]) -> RStarTree {
        let mut t = RStarTree::with_page_size(points[0].len(), 512);
        for (i, p) in points.iter().enumerate() {
            t.insert(i as ItemId, p.clone());
        }
        t
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
    fn range_query_matches_brute_force_point_query() {
        let points = lcg_points(500, 3, 7);
        let tree = build(&points);
        assert_eq!(tree.len(), 500);
        for seed in 0..10u64 {
            let q = Query::Point(lcg_points(1, 3, 1000 + seed)[0].clone());
            let (mut got, stats) = tree.range_query(&q, 25.0);
            got.sort_unstable();
            assert_eq!(got, brute_range(&points, &q, 25.0));
            assert!(stats.node_accesses >= 1);
        }
    }

    #[test]
    fn range_query_matches_brute_force_rect_query() {
        let points = lcg_points(400, 4, 11);
        let tree = build(&points);
        let q = Query::Rect(Rect::new(vec![20.0; 4], vec![40.0; 4]));
        let (mut got, _) = tree.range_query(&q, 10.0);
        got.sort_unstable();
        assert_eq!(got, brute_range(&points, &q, 10.0));
    }

    #[test]
    fn pruning_beats_full_scan_on_selective_queries() {
        let points = lcg_points(5000, 4, 23);
        let tree = build(&points);
        let q = Query::Point(vec![50.0; 4]);
        let (_, stats) = tree.range_query(&q, 5.0);
        assert!(
            (stats.points_examined as usize) < points.len() / 2,
            "expected pruning, examined {}",
            stats.points_examined
        );
    }

    #[test]
    fn empty_tree_queries() {
        let tree = RStarTree::new(2);
        let q = Query::Point(vec![0.0, 0.0]);
        let (hits, stats) = tree.range_query(&q, 1.0);
        assert!(hits.is_empty());
        assert_eq!(stats.node_accesses, 0);
    }

    #[test]
    fn duplicate_points_are_all_retrievable() {
        let mut tree = RStarTree::with_page_size(2, 512);
        for i in 0..50 {
            tree.insert(i, vec![1.0, 1.0]);
        }
        let (hits, _) = tree.range_query(&Query::Point(vec![1.0, 1.0]), 0.0);
        assert_eq!(hits.len(), 50);
    }

    #[test]
    fn height_grows_logarithmically() {
        let points = lcg_points(2000, 2, 9);
        let tree = build(&points);
        assert!(tree.height() >= 2);
        assert!(tree.height() <= 6, "height {} too tall", tree.height());
    }

    #[test]
    fn epsilon_zero_finds_exact_point() {
        let points = lcg_points(100, 3, 13);
        let tree = build(&points);
        let q = Query::Point(points[42].clone());
        let (hits, _) = tree.range_query(&q, 1e-9);
        assert!(hits.contains(&42));
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_panics() {
        let mut tree = RStarTree::new(3);
        tree.insert(0, vec![1.0, 2.0]);
    }

    #[test]
    fn bulk_load_answers_queries_identically_to_insertion() {
        let points = lcg_points(3000, 4, 17);
        let inserted = build(&points);
        let bulk = RStarTree::bulk_load(
            4,
            512,
            points.iter().enumerate().map(|(i, p)| (i as ItemId, p.clone())).collect(),
        );
        assert_eq!(bulk.len(), 3000);
        for seed in 0..6u64 {
            let q = Query::Point(lcg_points(1, 4, 400 + seed)[0].clone());
            let (mut a, _) = inserted.range_query(&q, 20.0);
            let (mut b, _) = bulk.range_query(&q, 20.0);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bulk_load_packs_tighter_than_insertion() {
        let points = lcg_points(5000, 3, 29);
        let inserted = build(&points);
        let bulk = RStarTree::bulk_load(
            3,
            512,
            points.iter().enumerate().map(|(i, p)| (i as ItemId, p.clone())).collect(),
        );
        assert!(
            bulk.node_count() <= inserted.node_count(),
            "bulk {} vs inserted {}",
            bulk.node_count(),
            inserted.node_count()
        );
        assert!(bulk.height() <= inserted.height());
    }

    #[test]
    fn bulk_load_small_and_empty_sets() {
        let empty = RStarTree::bulk_load(2, 512, Vec::new());
        assert!(empty.is_empty());
        let (hits, _) = empty.range_query(&Query::Point(vec![0.0, 0.0]), 10.0);
        assert!(hits.is_empty());

        let one = RStarTree::bulk_load(2, 512, vec![(7, vec![1.0, 2.0])]);
        assert_eq!(one.len(), 1);
        let (hits, _) = one.range_query(&Query::Point(vec![1.0, 2.0]), 0.1);
        assert_eq!(hits, vec![7]);
    }

    #[test]
    fn remove_then_query_matches_brute_force() {
        let points = lcg_points(800, 3, 41);
        let mut tree = build(&points);
        // Remove every third point.
        let removed: Vec<ItemId> = (0..800).step_by(3).map(|i| i as ItemId).collect();
        for &id in &removed {
            assert!(tree.remove(id), "id {id} present");
        }
        assert_eq!(tree.len(), 800 - removed.len());
        // Removed ids are gone, the rest answer exactly.
        let q = Query::Point(vec![50.0, 50.0, 50.0]);
        let (mut got, _) = tree.range_query(&q, 100.0);
        got.sort_unstable();
        let expected: Vec<ItemId> =
            (0..800u64).filter(|i| i % 3 != 0).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn invariants_hold_after_inserts_removals_and_bulk_load() {
        let points = lcg_points(1500, 3, 61);
        let mut tree = build(&points);
        assert_eq!(tree.validate(), Vec::<String>::new(), "after inserts");
        for id in (0..1500).step_by(2) {
            tree.remove(id as ItemId);
        }
        assert_eq!(tree.validate(), Vec::<String>::new(), "after removals");

        let bulk = RStarTree::bulk_load(
            3,
            512,
            points.iter().enumerate().map(|(i, p)| (i as ItemId, p.clone())).collect(),
        );
        // Bulk loading packs nodes full; only MBR/level/den affinity checks
        // apply (the last node per level may be under-filled, which validate
        // tolerates only at the root — accept "below minimum fill" notes).
        let hard_problems: Vec<String> = bulk
            .validate()
            .into_iter()
            .filter(|p| !p.contains("below minimum fill"))
            .collect();
        assert_eq!(hard_problems, Vec::<String>::new(), "after bulk load");
    }

    #[test]
    fn remove_missing_id_is_a_noop() {
        let points = lcg_points(50, 2, 43);
        let mut tree = build(&points);
        assert!(!tree.remove(9999));
        assert_eq!(tree.len(), 50);
    }

    #[test]
    fn remove_everything_then_reuse() {
        let points = lcg_points(300, 2, 47);
        let mut tree = build(&points);
        for i in 0..300 {
            assert!(tree.remove(i as ItemId));
        }
        assert!(tree.is_empty());
        let (hits, _) = tree.range_query(&Query::Point(vec![0.0, 0.0]), 1e9);
        assert!(hits.is_empty());
        // The emptied tree accepts new points.
        for (i, p) in lcg_points(100, 2, 48).into_iter().enumerate() {
            tree.insert(i as ItemId, p);
        }
        assert_eq!(tree.len(), 100);
        let (hits, _) = tree.range_query(&Query::Point(vec![50.0, 50.0]), 1e9);
        assert_eq!(hits.len(), 100);
    }

    #[test]
    fn interleaved_inserts_and_removes_stay_consistent() {
        let mut tree = RStarTree::with_page_size(2, 512);
        let points = lcg_points(400, 2, 51);
        for (i, p) in points.iter().enumerate() {
            tree.insert(i as ItemId, p.clone());
            if i % 5 == 4 {
                assert!(tree.remove((i - 2) as ItemId));
            }
        }
        let expected: Vec<ItemId> = (0..400u64)
            .filter(|i| !(*i >= 2 && (i + 2) % 5 == 4 && i + 2 < 400))
            .collect();
        assert_eq!(tree.len(), expected.len());
        let (mut got, _) = tree.range_query(&Query::Point(vec![50.0, 50.0]), 1e9);
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn bulk_loaded_tree_supports_further_inserts() {
        let points = lcg_points(200, 2, 31);
        let mut tree = RStarTree::bulk_load(
            2,
            512,
            points.iter().enumerate().map(|(i, p)| (i as ItemId, p.clone())).collect(),
        );
        for (i, p) in lcg_points(200, 2, 32).into_iter().enumerate() {
            tree.insert(1000 + i as ItemId, p);
        }
        assert_eq!(tree.len(), 400);
        let q = Query::Point(vec![50.0, 50.0]);
        let (hits, _) = tree.range_query(&q, 200.0);
        assert_eq!(hits.len(), 400);
    }
}
