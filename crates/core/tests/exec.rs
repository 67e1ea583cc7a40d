//! One oracle for the one executor: every leaf layout × scatter width ×
//! request kind must return matches **bit-identical to a brute-force
//! `ldtw_distance` sweep**, with counters and traces that depend on the
//! layout but never on the width, and an expired budget must surface as one
//! `DeadlineExceeded` with no matches — plus the executor's own contracts
//! (leaf pruning is ε-range only; a batch validates everything first).

use std::time::Instant;

use hum_core::batch::BatchOptions;
use hum_core::dtw::ldtw_distance;
use hum_core::engine::{
    DtwIndexEngine, EngineConfig, EngineError, QueryBudget, QueryOutcome, QueryRequest,
    QueryScratch, RequestKind,
};
use hum_core::exec::{execute, execute_batch, Leaf};
use hum_core::obs::{Metric, MetricsSink};
use hum_core::segment::SegmentMeta;
use hum_core::shard::ShardedEngine;
use hum_core::transform::paa::NewPaa;
use hum_core::EnvelopeTransform;
use hum_index::{ItemId, RStarTree};

const LEN: usize = 64;
const DIMS: usize = 8;
const BAND: usize = 4;

type Engine = ShardedEngine<NewPaa, RStarTree>;
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

/// One storage unit: a sharded engine over the series `pick` selects, plus
/// (for an immutable segment) its pruning metadata.
struct Unit {
    engine: Engine,
    meta: Option<SegmentMeta>,
}

fn unit(series: &[Vec<f64>], shards: usize, segment: bool, pick: impl Fn(usize) -> bool) -> Unit {
    let mut engine = ShardedEngine::build(shards, |_| {
        DtwIndexEngine::new(
            NewPaa::new(LEN, DIMS),
            RStarTree::with_page_size(DIMS, 1024),
            EngineConfig::default(),
        )
    });
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
        ("1 leaf", vec![unit(series, 1, false, |_| true)]),
        ("4 shards", vec![unit(series, 4, false, |_| true)]),
        (
            "3 units x 1 shard",
            vec![
                unit(series, 1, true, |i| i % 5 == 0),
                unit(series, 1, true, |i| i % 5 != 0 && i % 2 == 0),
                unit(series, 1, false, |i| i % 5 != 0 && i % 2 == 1),
            ],
        ),
        (
            "3 units x 2 shards, one empty",
            vec![
                unit(series, 2, true, |i| i % 5 == 0),
                unit(series, 2, true, |i| i % 5 != 0),
                unit(series, 2, false, |_| false),
            ],
        ),
    ]
}

fn leaves(units: &[Unit]) -> Leaves<'_> {
    units.iter().flat_map(|u| u.engine.leaves(u.meta.as_ref())).collect()
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

/// ε-range and k-NN, indexed and scan, plus the k-NN edge cases `k = 0` and
/// `k` beyond the corpus, for two queries (one among the plain walks, one
/// that *is* a ramp series).
fn requests(series: &[Vec<f64>]) -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for (qi, radius, k) in [(3usize, 2.5, 7usize), (10, 60.0, 1)] {
        for scan in [false, true] {
            let shape = |r: QueryRequest| {
                r.with_series(series[qi].clone()).with_band(BAND).with_scan(scan).with_trace(true)
            };
            out.push(shape(QueryRequest::range(radius)));
            out.push(shape(QueryRequest::knn(k)));
            out.push(shape(QueryRequest::knn(0)));
            out.push(shape(QueryRequest::knn(series.len() + 9)));
        }
    }
    out
}

/// The layout matrix: {1 leaf, 4 shards, 3 units × 1 shard, 3 units × 2
/// shards with one unit empty} × width {1, 8} × every request shape, each
/// run once unbudgeted (against the oracle) and once already expired.
#[test]
fn every_layout_matches_brute_force_at_every_width_and_honours_the_deadline() {
    let series = corpus(90, 7);
    let expired = QueryBudget::with_deadline(Instant::now());
    assert!(expired.expired());
    for (name, units) in layouts(&series) {
        let leaves = leaves(&units);
        for request in requests(&series) {
            let narrow = run(&leaves, &request, 1).expect("unbudgeted query completes");
            let expected = brute_force(&series, &request);
            assert_eq!(narrow.result.matches, expected, "{name}: {request:?}");
            assert_eq!(narrow.result.stats.matches, expected.len() as u64, "{name}");
            let trace = narrow.trace.as_ref().expect("trace requested");
            assert_eq!(trace.totals(), narrow.result.stats, "{name}: {request:?}");
            if request.scan_enabled() {
                assert_eq!(trace.candidates_in, series.len() as u64, "{name}");
            }
            // Matches, counters and trace are functions of the layout alone.
            let wide = run(&leaves, &request, 8).expect("unbudgeted query completes");
            assert_eq!(narrow, wide, "{name}: outcome varied with width for {request:?}");

            // An indexed k = 0 does no per-candidate work, so it has no
            // deadline to miss; everything else aborts at its first poll.
            if matches!(request.kind(), RequestKind::Knn { k: 0 }) && !request.scan_enabled() {
                continue;
            }
            let request = request.with_budget(expired);
            let aborted = run(&leaves, &request, 1);
            match &aborted {
                Err(EngineError::DeadlineExceeded { stats }) => {
                    assert_eq!(stats.matches, 0, "{name}: partial runs never report matches");
                    assert_eq!(stats.exact_computations, 0, "{name}: aborted before any DTW");
                }
                other => panic!("{name}: expected a deadline abort, got {other:?}"),
            }
            assert_eq!(aborted, run(&leaves, &request, 8), "{name}: partial counters vary");
        }
    }
}

/// A range query at a distance a k-NN answer reported returns that
/// neighbour, in every layout, indexed or scanned: a match is decided on the
/// root it is reported with, not on `radius²` (`fl(fl(√x)²)` can sit a few
/// ulps below `x`).
#[test]
fn a_range_query_at_a_returned_distance_returns_that_item() {
    let series = corpus(90, 7);
    for (name, units) in layouts(&series) {
        let leaves = leaves(&units);
        for qi in [3usize, 10, 41] {
            for scan in [false, true] {
                let shape = |r: QueryRequest| {
                    r.with_series(series[qi].clone()).with_band(BAND).with_scan(scan)
                };
                let knn = run(&leaves, &shape(QueryRequest::knn(8)), 1).expect("completes");
                for &(id, distance) in &knn.result.matches {
                    let request = shape(QueryRequest::range(distance));
                    let range = run(&leaves, &request, 1).expect("completes").result.matches;
                    assert!(
                        range.contains(&(id, distance)),
                        "{name}, scan={scan}: range({distance}) around #{qi} lost item {id}"
                    );
                    assert_eq!(range, brute_force(&series, &request), "{name}, scan={scan}");
                }
            }
        }
    }
}

/// Leaf pruning skips a segment only for an indexed ε-range query that
/// cannot reach its bounding box; k-NN and the scans always see every leaf.
#[test]
fn only_indexed_range_queries_prune_leaves() {
    let series = corpus(90, 13);
    let (_, units) = layouts(&series).swap_remove(2);
    let pruning = leaves(&units);
    let unpruned: Leaves<'_> = units.iter().flat_map(|u| u.engine.leaves(None)).collect();
    for request in requests(&series) {
        let with = run(&pruning, &request, 1).expect("completes");
        let without = run(&unpruned, &request, 1).expect("completes");
        assert_eq!(with.result.matches, without.result.matches);
        let indexed_range =
            matches!(request.kind(), RequestKind::Range { .. }) && !request.scan_enabled();
        let small_radius = matches!(request.kind(), RequestKind::Range { radius } if radius < 10.0);
        if indexed_range && small_radius {
            // The first unit holds only the ramp series: never touched.
            assert!(
                with.result.stats.index.node_accesses < without.result.stats.index.node_accesses,
                "the unreachable segment was walked anyway"
            );
        } else if !indexed_range {
            assert_eq!(with, without, "a non-range query must never be pruned: {request:?}");
        }
    }
}

/// A batch validates every request before running any: one malformed
/// request fails the whole batch with its typed error, and the registry
/// shows no query, no batch, no work.
#[test]
fn a_batch_that_fails_validation_does_no_work_and_records_nothing() {
    let series = corpus(60, 17);
    let (_, units) = layouts(&series).swap_remove(3);
    let leaves = leaves(&units);
    let good = QueryRequest::knn(3).with_series(series[1].clone()).with_band(BAND);
    let mut poisoned = series[2].clone();
    poisoned[9] = f64::NAN;
    let bad = QueryRequest::knn(3).with_series(poisoned).with_band(BAND);
    for threads in [1usize, 8] {
        let metrics = MetricsSink::enabled();
        let batch = [good.clone(), good.clone(), good.clone(), bad.clone()];
        match execute_batch(&leaves, &batch, &BatchOptions::new(threads, 1), &metrics) {
            Err(EngineError::NonFiniteSample { context: "query", index: 9, .. }) => {}
            other => panic!("expected the NaN to be reported up front, got {other:?}"),
        }
        let snapshot = metrics.registry().expect("enabled").snapshot();
        for metric in [Metric::KnnQueries, Metric::Batches, Metric::DpCells] {
            assert_eq!(snapshot.counter(metric), 0, "threads={threads}: {metric:?} recorded");
        }
        // The same batch without the bad request runs and is recorded.
        let ok = execute_batch(&leaves, &batch[..3], &BatchOptions::new(threads, 1), &metrics);
        assert_eq!(ok.expect("well-formed batch").outcomes.len(), 3);
        let snapshot = metrics.registry().expect("enabled").snapshot();
        assert_eq!(snapshot.counter(Metric::KnnQueries), 3);
        assert_eq!(snapshot.counter(Metric::Batches), 1);
    }
}
