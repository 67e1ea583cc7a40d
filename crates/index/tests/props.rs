//! Property-based tests: every backend must agree with brute force on every
//! query, for arbitrary point sets; and the flat sweep must equal the
//! per-point scan it replaced, bit for bit.

use hum_index::{GridFile, ItemId, LinearScan, Query, QueryStats, RStarTree, Rect, SpatialIndex};
use proptest::prelude::*;

/// `LinearScan` before the flat sweep (a `Vec` per point, `dist_to_point`, a
/// stable sort, a truncate): the sweep must equal it, distance bits included.
struct ReferenceScan {
    page_capacity: usize,
    items: Vec<(ItemId, Vec<f64>)>,
}

impl ReferenceScan {
    fn answer<T>(&self, out: Vec<T>) -> (Vec<T>, QueryStats) {
        let pages = self.items.len().div_ceil(self.page_capacity) as u64;
        let (points_examined, candidates) = (self.items.len() as u64, out.len() as u64);
        (
            out,
            QueryStats { node_accesses: pages, leaf_accesses: pages, points_examined, candidates },
        )
    }

    fn range_query(&self, query: &Query, epsilon: f64) -> (Vec<ItemId>, QueryStats) {
        let within =
            |(id, p): &(ItemId, Vec<f64>)| (query.dist_to_point(p) <= epsilon).then_some(*id);
        self.answer(self.items.iter().filter_map(within).collect())
    }

    fn knn(&self, query: &Query, k: usize) -> (Vec<(ItemId, f64)>, QueryStats) {
        let mut all: Vec<(ItemId, f64)> =
            self.items.iter().map(|(id, p)| (*id, query.dist_to_point(p))).collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
        all.truncate(k);
        self.answer(all)
    }
}

#[test]
fn sweep_ties_on_distance_not_on_squared_distance() {
    // d² = 2 + 2⁻⁵¹ and d² = 2 share one square root, so the per-point
    // scan's stable sort keeps the two points in insertion order.
    let mut sweep = LinearScan::new(2);
    sweep.insert(0, vec![1.0, 1.0f64.next_up()]);
    sweep.insert(1, vec![1.0, 1.0]);
    let (nearest, _) = sweep.knn(&Query::Point(vec![0.0, 0.0]), 1);
    assert_eq!(nearest, vec![(0, 2.0f64.sqrt())]);
}

/// Coordinates on a coarse grid (ties, points on box faces) or anywhere.
fn coordinate() -> impl Strategy<Value = f64> {
    prop_oneof![(-4i32..5).prop_map(|x| f64::from(x) * 0.5), -3.0f64..3.0]
}

fn points(dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec(-50.0f64..50.0, dims..=dims),
        1..200,
    )
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

fn build_all(points: &[Vec<f64>], dims: usize) -> Vec<Box<dyn SpatialIndex>> {
    let mut backends: Vec<Box<dyn SpatialIndex>> = vec![
        Box::new(RStarTree::with_page_size(dims, 512)),
        Box::new(GridFile::with_params(dims, 4, 32, 512)),
        Box::new(LinearScan::with_page_size(dims, 512)),
    ];
    for b in &mut backends {
        for (i, p) in points.iter().enumerate() {
            b.insert(i as ItemId, p.clone());
        }
    }
    backends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn range_queries_agree_with_brute_force(
        pts in points(3),
        qx in -60.0f64..60.0,
        qy in -60.0f64..60.0,
        qz in -60.0f64..60.0,
        eps in 0.0f64..80.0,
    ) {
        let q = Query::Point(vec![qx, qy, qz]);
        let expected = brute_range(&pts, &q, eps);
        for backend in build_all(&pts, 3) {
            let (mut got, stats) = backend.range_query(&q, eps);
            got.sort_unstable();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(stats.candidates as usize, expected.len());
        }
    }

    #[test]
    fn rect_queries_agree_with_brute_force(
        pts in points(2),
        lo in -40.0f64..0.0,
        side in 0.0f64..50.0,
        eps in 0.0f64..30.0,
    ) {
        let rect = Rect::new(vec![lo, lo], vec![lo + side, lo + side]);
        let q = Query::Rect(rect);
        let expected = brute_range(&pts, &q, eps);
        for backend in build_all(&pts, 2) {
            let (mut got, _) = backend.range_query(&q, eps);
            got.sort_unstable();
            prop_assert_eq!(&got, &expected);
        }
    }

    #[test]
    fn sweep_is_the_per_point_scan_bit_for_bit(
        wide in any::<bool>(),
        pool in proptest::collection::vec(proptest::collection::vec(coordinate(), 8), 1..6),
        ops in proptest::collection::vec((0u8..4, any::<prop::sample::Index>()), 0..80),
        boxed in any::<bool>(),
        center in proptest::collection::vec(coordinate(), 8),
        sides in proptest::collection::vec(prop_oneof![Just(0.0f64), 0.0f64..2.0], 8),
    ) {
        // Width 8 is the product's feature dimension; 3 is any other.
        let dims = if wide { 8 } else { 3 };
        let mut sweep = LinearScan::with_page_size(dims, 256);
        let mut reference = ReferenceScan { page_capacity: 256 / (dims * 8 + 8), items: vec![] };
        // Op `i` inserts id `i` (a pool point: duplicates are common) or
        // removes an id up to `i` (often gone already, `i` never inserted).
        for (i, (op, pick)) in ops.iter().enumerate() {
            if *op < 3 {
                let point = pool[pick.index(pool.len())][..dims].to_vec();
                sweep.insert(i as ItemId, point.clone());
                reference.items.push((i as ItemId, point));
            } else {
                let id = pick.index(i + 1) as ItemId;
                let pos = reference.items.iter().position(|(found, _)| *found == id);
                let removed = pos.map(|pos| reference.items.remove(pos)).is_some();
                prop_assert_eq!(sweep.remove(id), removed);
            }
        }
        let lo = center[..dims].to_vec();
        let hi: Vec<f64> = lo.iter().zip(&sides).map(|(c, s)| c + s).collect();
        let query = if boxed { Query::Rect(Rect::new(lo, hi)) } else { Query::Point(lo) };
        // Distances are never NaN or -0, so `==` on them is bit equality.
        let len = reference.items.len();
        for k in [0, 1, len, len + 5] {
            prop_assert_eq!(sweep.knn(&query, k), reference.knn(&query, k), "k = {}", k);
        }
        // Every returned distance as ε, and one ulp either side of it.
        let (all, _) = reference.knn(&query, len);
        let radii = all.iter().flat_map(|&(_, d)| [d.next_down(), d, d.next_up()]);
        for epsilon in radii.chain([0.0, -1.0]) {
            let got = sweep.range_query(&query, epsilon);
            prop_assert_eq!(got, reference.range_query(&query, epsilon), "epsilon = {}", epsilon);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn removal_keeps_all_backends_consistent(
        pts in points(2),
        removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..30),
        eps in 0.0f64..60.0,
    ) {
        // Apply the same removal sequence to every backend and a model.
        let mut model: Vec<Option<Vec<f64>>> = pts.iter().cloned().map(Some).collect();
        let mut backends = build_all(&pts, 2);
        for idx in &removals {
            let id = idx.index(pts.len()) as ItemId;
            let expect = model[id as usize].take().is_some();
            for b in &mut backends {
                prop_assert_eq!(b.remove(id), expect);
            }
        }
        let q = Query::Point(vec![0.0, 0.0]);
        let mut expected: Vec<ItemId> = model
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i, p)))
            .filter(|(_, p)| q.dist_to_point(p) <= eps)
            .map(|(i, _)| i as ItemId)
            .collect();
        expected.sort_unstable();
        for b in &backends {
            let (mut got, _) = b.range_query(&q, eps);
            got.sort_unstable();
            prop_assert_eq!(&got, &expected);
        }
        // Every remaining point's squared distance, bit for bit, in whatever
        // order a backend visits them.
        let rect = Query::Rect(Rect::new(vec![-5.0, 0.0], vec![5.0, 20.0]));
        for shape in [q, rect] {
            let every: Vec<(ItemId, f64)> = model
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.as_ref().map(|p| (i as ItemId, shape.dist_sq_to_point(p))))
                .collect();
            for b in &backends {
                let (mut got, stats) = b.all_dist_sq(&shape);
                got.sort_by_key(|&(id, _)| id);
                prop_assert_eq!(&got, &every);
                prop_assert_eq!(stats.candidates as usize, every.len());
                prop_assert_eq!(stats.points_examined as usize, every.len());
            }
        }
    }
}
