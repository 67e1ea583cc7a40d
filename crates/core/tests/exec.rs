//! One oracle for the one executor: every leaf layout × scatter width ×
//! request kind must return matches **bit-identical to a brute-force
//! `ldtw_distance` sweep**, with counters and traces that depend on the
//! layout but never on the width, and an expired budget must surface as one
//! `DeadlineExceeded` with no matches — plus the executor's own contract
//! that leaf pruning is ε-range only.

use std::time::Instant;

use hum_core::dtw::ldtw_distance;
use hum_core::engine::{
    DtwIndexEngine, EngineConfig, EngineError, QueryBudget, QueryOutcome, QueryRequest,
    QueryScratch, RequestKind,
};
use hum_core::exec::{execute, Leaf};
use hum_core::obs::{Metric, MetricsSink};
use hum_core::segment::SegmentMeta;
use hum_core::transform::paa::NewPaa;
use hum_core::EnvelopeTransform;
use hum_index::{ItemId, RStarTree};

const LEN: usize = 64;
const DIMS: usize = 8;
const BAND: usize = 4;

type Leaves<'a> = Vec<Leaf<'a, NewPaa, RStarTree>>;

/// Centered random walks; every fifth series rides a steep centered ramp,
/// far from the rest in feature space, so a small-radius range query cannot
/// reach a unit holding only those.
fn corpus(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    let mut next = move || {
        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n)
        .map(|i| {
            let mut acc = 0.0;
            let mut s: Vec<f64> = (0..LEN)
                .map(|_| {
                    acc += next();
                    acc
                })
                .collect();
            hum_linalg::vec_ops::center(&mut s);
            if i % 5 == 0 {
                let mid = (LEN - 1) as f64 / 2.0;
                s.iter_mut().enumerate().for_each(|(t, v)| *v += 3.0 * (t as f64 - mid));
            }
            s
        })
        .collect()
}

/// One leaf's storage: an engine over the series `pick` selects, plus (for
/// an immutable segment) its pruning metadata.
struct Unit {
    engine: DtwIndexEngine<NewPaa, RStarTree>,
    meta: Option<SegmentMeta>,
}

fn unit(series: &[Vec<f64>], segment: bool, pick: impl Fn(usize) -> bool) -> Unit {
    let mut engine = DtwIndexEngine::new(
        NewPaa::new(LEN, DIMS),
        RStarTree::with_page_size(DIMS, 1024),
        EngineConfig::default(),
    );
    let mut meta = SegmentMeta::new(series.len());
    for (i, s) in series.iter().enumerate().filter(|(i, _)| pick(*i)) {
        engine.insert(i as ItemId, s.clone());
        meta.add(i as ItemId, &engine.transform().project(s));
    }
    Unit { engine, meta: segment.then_some(meta) }
}

/// The layouts of the matrix, each as storage units in leaf order (segments
/// first, the memtable — no metadata — last).
fn layouts(series: &[Vec<f64>]) -> Vec<(&'static str, Vec<Unit>)> {
    vec![
        ("1 leaf", vec![unit(series, false, |_| true)]),
        ("4 leaves", (0..4).map(|j| unit(series, false, move |i| i % 4 == j)).collect()),
        (
            "3 units",
            vec![
                unit(series, true, |i| i % 5 == 0),
                unit(series, true, |i| i % 5 != 0 && i % 2 == 0),
                unit(series, false, |i| i % 5 != 0 && i % 2 == 1),
            ],
        ),
        (
            "6 units, one empty",
            vec![
                unit(series, true, |i| i % 5 == 0 && i % 2 == 0),
                unit(series, true, |i| i % 5 == 0 && i % 2 == 1),
                unit(series, true, |i| i % 5 != 0 && i % 3 == 0),
                unit(series, true, |i| i % 5 != 0 && i % 3 == 1),
                unit(series, true, |i| i % 5 != 0 && i % 3 == 2),
                unit(series, false, |_| false),
            ],
        ),
    ]
}

fn leaves(units: &[Unit]) -> Leaves<'_> {
    units.iter().map(|u| Leaf { engine: &u.engine, meta: u.meta.as_ref() }).collect()
}

fn run(
    leaves: &Leaves<'_>,
    request: &QueryRequest,
    width: usize,
) -> Result<QueryOutcome, EngineError> {
    execute(leaves, request, &mut QueryScratch::new(), width, &MetricsSink::Disabled)
}

/// The oracle: every series' exact banded-DTW distance, filtered by the
/// request's radius or cut to its `k`, in `(distance, id)` order.
fn brute_force(series: &[Vec<f64>], request: &QueryRequest) -> Vec<(ItemId, f64)> {
    let mut all: Vec<(ItemId, f64)> = series
        .iter()
        .enumerate()
        .map(|(i, s)| (i as ItemId, ldtw_distance(request.series(), s, request.band())))
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then_with(|| a.0.cmp(&b.0)));
    match request.kind() {
        RequestKind::Range { radius } => all.retain(|&(_, d)| d <= radius),
        RequestKind::Knn { k } => all.truncate(k),
    }
    all
}

/// ε-range and k-NN for two queries (one among the plain walks, one that
/// *is* a ramp series). The k-NN `k`s put the seed round's
/// cut `M = 32·k` inside and beyond every leaf, and include the edge cases
/// `k = 0`, `k` beyond the corpus and `k = usize::MAX`.
fn requests(series: &[Vec<f64>]) -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for (qi, radius) in [(3usize, 2.5), (10, 60.0)] {
        let shape = |r: QueryRequest| {
            r.with_series(series[qi].clone()).with_band(BAND).with_trace(true)
        };
        out.push(shape(QueryRequest::range(radius)));
        for k in [0, 1, 2, 7, series.len() + 9, usize::MAX] {
            out.push(shape(QueryRequest::knn(k)));
        }
    }
    out
}

/// The matrix's corpora, each queried at series 3 and 10:
/// * plain;
/// * "tie group": plain plus 80 copies of series 3 — 81 identical series,
///   distance and bound 0 from query 3, straddling both the k-th place and
///   the seed round's cut (`M` = 32 or 64 at k = 1 or 2), so only ids decide;
/// * "distance ties": query 3 is all zeros, so a series' squared distance
///   is its sum of squares. Series 4 (two flat halves at ±0.25) and 5
///   (alternating ±0.25) are both at exactly 2, but only 5 has feature
///   bound 0, like the 80 alternating ±1 series appended (distance 8). At
///   k = 2 the seed round takes 3, 5 and the ±1 series; series 4 — the
///   better neighbor by id — must come through the close round, admitted at
///   bound = radius and kept on an exact tie with the heap's worst entry.
fn corpora() -> Vec<(&'static str, Vec<Vec<f64>>)> {
    let plain = corpus(90, 7);
    let mut ties = plain.clone();
    ties.extend(std::iter::repeat_n(plain[3].clone(), 80));
    let alternating = |a: f64| (0..LEN).map(|t| if t % 2 == 0 { a } else { -a }).collect();
    let mut distance_ties = plain.clone();
    distance_ties[3] = vec![0.0; LEN];
    distance_ties[4] = (0..LEN).map(|t| if t < LEN / 2 { 0.25 } else { -0.25 }).collect();
    distance_ties[5] = alternating(0.25);
    distance_ties.extend(std::iter::repeat_with(|| alternating(1.0)).take(80));
    vec![("plain", plain), ("tie group", ties), ("distance ties", distance_ties)]
}

/// The layout matrix: every corpus × {1 leaf, 4 leaves, 3 units, 6 units
/// with one empty} × width {1, 8} × every request shape, each run once
/// unbudgeted (against the oracle) and once already expired. The layouts
/// hold leaves smaller than `M`, and leaves that contribute nothing to a
/// k-NN answer (checked, not assumed).
#[test]
fn every_layout_matches_brute_force_at_every_width_and_honours_the_deadline() {
    let expired = QueryBudget::with_deadline(Instant::now());
    assert!(expired.expired());
    let mut idle_leaves = 0;
    for (corpus_name, series) in corpora() {
        for (layout, units) in layouts(&series) {
            let name = format!("{corpus_name}, {layout}");
            check_layout(&name, &leaves(&units), &series, expired, &mut idle_leaves);
        }
    }
    assert!(idle_leaves > 0, "no k-NN answer left a non-empty leaf out");
}

/// One layout of the matrix; adds to `idle_leaves` the non-empty leaves
/// that hold none of a k-NN's answer.
fn check_layout(
    name: &str,
    leaves: &Leaves<'_>,
    series: &[Vec<f64>],
    expired: QueryBudget,
    idle_leaves: &mut usize,
) {
    for request in &requests(series) {
        let narrow = run(leaves, request, 1).expect("unbudgeted query completes");
        let expected = brute_force(series, request);
        assert_eq!(narrow.result.matches, expected, "{name}: {request:?}");
        assert_eq!(narrow.result.stats.matches, expected.len() as u64, "{name}");
        let trace = narrow.trace.as_ref().expect("trace requested");
        assert_eq!(trace.totals(), narrow.result.stats, "{name}: {request:?}");
        assert_eq!(
            trace.lb_pruned + trace.lb_improved_pruned + trace.exact_started,
            trace.candidates_in,
            "{name}: the funnel leaks for {request:?}"
        );
        if matches!(request.kind(), RequestKind::Knn { k } if k > 0) {
            *idle_leaves += leaves
                .iter()
                .filter(|leaf| !leaf.engine.is_empty())
                .filter(|leaf| expected.iter().all(|&(id, _)| leaf.engine.get(id).is_none()))
                .count();
        }
        // Matches, counters and trace are functions of the layout alone.
        let wide = run(leaves, request, 8).expect("unbudgeted query completes");
        assert_eq!(narrow, wide, "{name}: outcome varied with width for {request:?}");

        // A k = 0 does no per-candidate work, so it has no deadline to
        // miss; everything else aborts at its first poll.
        if matches!(request.kind(), RequestKind::Knn { k: 0 }) {
            continue;
        }
        let request = request.clone().with_budget(expired);
        let aborted = run(leaves, &request, 1);
        match &aborted {
            Err(EngineError::DeadlineExceeded { stats }) => {
                assert_eq!(stats.matches, 0, "{name}: partial runs never report matches");
                assert_eq!(stats.exact_computations, 0, "{name}: aborted before any DTW");
            }
            other => panic!("{name}: expected a deadline abort, got {other:?}"),
        }
        assert_eq!(aborted, run(leaves, &request, 8), "{name}: partial counters vary");
    }
}

/// A range query at a distance a k-NN answer reported returns that
/// neighbour, in every layout: a match is decided on the root it is
/// reported with, not on `radius²` (`fl(fl(√x)²)` can sit a few
/// ulps below `x`).
#[test]
fn a_range_query_at_a_returned_distance_returns_that_item() {
    let series = corpus(90, 7);
    for (name, units) in layouts(&series) {
        let leaves = leaves(&units);
        for qi in [3usize, 10, 41] {
            let shape = |r: QueryRequest| r.with_series(series[qi].clone()).with_band(BAND);
            let knn = run(&leaves, &shape(QueryRequest::knn(8)), 1).expect("completes");
            for &(id, distance) in &knn.result.matches {
                let request = shape(QueryRequest::range(distance));
                let range = run(&leaves, &request, 1).expect("completes").result.matches;
                assert!(
                    range.contains(&(id, distance)),
                    "{name}: range({distance}) around #{qi} lost item {id}"
                );
                assert_eq!(range, brute_force(&series, &request), "{name}");
            }
        }
    }
}

/// Leaf pruning skips a segment only for an ε-range query that cannot
/// reach its bounding box; k-NN always sees every leaf.
#[test]
fn only_indexed_range_queries_prune_leaves() {
    let series = corpus(90, 13);
    let (_, units) = layouts(&series).swap_remove(2);
    let pruning = leaves(&units);
    let unpruned: Leaves<'_> =
        units.iter().map(|u| Leaf { engine: &u.engine, meta: None }).collect();
    for request in requests(&series) {
        let with = run(&pruning, &request, 1).expect("completes");
        let without = run(&unpruned, &request, 1).expect("completes");
        assert_eq!(with.result.matches, without.result.matches);
        let range = matches!(request.kind(), RequestKind::Range { .. });
        let small_radius = matches!(request.kind(), RequestKind::Range { radius } if radius < 10.0);
        if small_radius {
            // The first unit holds only the ramp series: never touched.
            assert!(
                with.result.stats.index.node_accesses < without.result.stats.index.node_accesses,
                "the unreachable segment was walked anyway"
            );
        } else if !range {
            assert_eq!(with, without, "a non-range query must never be pruned: {request:?}");
        }
    }
}

/// A batch is now a sequence of single requests, each validated before any
/// work: the malformed one is reported up front and records nothing, at
/// every width, while the well-formed ones around it run and are recorded.
#[test]
fn a_batch_that_fails_validation_does_no_work_and_records_nothing() {
    let series = corpus(60, 17);
    let (_, units) = layouts(&series).swap_remove(3);
    let leaves = leaves(&units);
    let good = QueryRequest::knn(3).with_series(series[1].clone()).with_band(BAND);
    let mut poisoned = series[2].clone();
    poisoned[9] = f64::NAN;
    let bad = QueryRequest::knn(3).with_series(poisoned).with_band(BAND);
    for width in [1usize, 8] {
        let metrics = MetricsSink::enabled();
        let mut scratch = QueryScratch::new();
        match execute(&leaves, &bad, &mut scratch, width, &metrics) {
            Err(EngineError::NonFiniteSample { context: "query", index: 9, .. }) => {}
            other => panic!("expected the NaN to be reported up front, got {other:?}"),
        }
        let snapshot = metrics.registry().expect("enabled").snapshot();
        for metric in [Metric::KnnQueries, Metric::ExactStarted, Metric::DpCells] {
            assert_eq!(snapshot.counter(metric), 0, "width={width}: {metric:?} recorded");
        }
        // The well-formed requests of the same batch run and are recorded.
        for request in [&good, &good, &good] {
            let outcome = execute(&leaves, request, &mut scratch, width, &metrics);
            assert_eq!(outcome.expect("well-formed request").result.matches.len(), 3);
        }
        let snapshot = metrics.registry().expect("enabled").snapshot();
        assert_eq!(snapshot.counter(Metric::KnnQueries), 3, "width={width}");
        assert!(snapshot.counter(Metric::DpCells) > 0, "width={width}");
    }
}
