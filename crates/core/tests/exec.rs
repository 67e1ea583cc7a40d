//! One oracle for the one query path: every request kind over tie-heavy
//! corpora must return matches **bit-identical to a brute-force
//! `ldtw_distance` sweep**, with traces whose funnel closes — and an expired
//! budget must surface as one `DeadlineExceeded` with no matches.

use std::time::Instant;

use hum_core::dtw::ldtw_distance;
use hum_core::engine::{
    DtwIndexEngine, EngineError, QueryBudget, QueryRequest, QueryScratch, RequestKind,
};
use hum_core::obs::{Metric, MetricsSink};
use hum_core::transform::paa::NewPaa;
use hum_index::{ItemId, LinearScan};

const LEN: usize = 64;
const DIMS: usize = 8;
const BAND: usize = 4;

/// Centered random walks; every fifth series rides a steep centered ramp,
/// far from the rest in feature space.
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

/// An engine over `series` (ids are positions).
fn engine(series: &[Vec<f64>]) -> DtwIndexEngine {
    let mut engine = DtwIndexEngine::new(NewPaa::new(LEN, DIMS), LinearScan::new(DIMS));
    for (i, s) in series.iter().enumerate() {
        engine.try_insert(i as ItemId, s.clone()).unwrap();
    }
    engine
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
/// *is* a ramp series). The k-NN `k`s put the seed round's cut `M = 32·k`
/// inside and beyond the corpus, and include the edge cases `k = 0`, `k`
/// beyond the corpus and `k = usize::MAX`.
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

/// Every corpus × every request shape, each
/// run once unbudgeted (against the oracle, and again in reused scratch)
/// and once already expired.
#[test]
fn every_request_matches_brute_force_and_honours_the_deadline() {
    let expired = QueryBudget::with_deadline(Instant::now());
    assert!(expired.expired());
    for (corpus_name, series) in corpora() {
        check(corpus_name, &engine(&series), &series, expired);
    }
}

fn check(name: &str, engine: &DtwIndexEngine, series: &[Vec<f64>], expired: QueryBudget) {
    let mut scratch = QueryScratch::new();
    for request in &requests(series) {
        let outcome = engine.try_query(request).expect("unbudgeted query completes");
        let expected = brute_force(series, request);
        assert_eq!(outcome.result.matches, expected, "{name}: {request:?}");
        assert_eq!(outcome.result.stats.matches, expected.len() as u64, "{name}");
        let trace = outcome.trace.as_ref().expect("trace requested");
        assert_eq!(trace.stats, outcome.result.stats, "{name}: {request:?}");
        let s = &trace.stats;
        assert_eq!(
            s.lb_pruned + s.lb_improved_pruned + s.exact_computations,
            s.index.candidates,
            "{name}: the funnel leaks for {request:?}"
        );
        let reused = engine.try_query_with(request, &mut scratch).expect("completes");
        assert_eq!(outcome, reused, "{name}: outcome varied with scratch for {request:?}");

        // A k = 0 does no per-candidate work, so it has no deadline to
        // miss; everything else aborts at its first poll.
        if matches!(request.kind(), RequestKind::Knn { k: 0 }) {
            continue;
        }
        match engine.try_query(&request.clone().with_budget(expired)) {
            Err(EngineError::DeadlineExceeded { stats }) => {
                assert_eq!(stats.matches, 0, "{name}: partial runs never report matches");
                assert_eq!(stats.exact_computations, 0, "{name}: aborted before any DTW");
            }
            other => panic!("{name}: expected a deadline abort, got {other:?}"),
        }
    }
}

/// A range query at a distance a k-NN answer reported returns that
/// neighbour: a match is decided on the root it is reported with, not on
/// `radius²` (`fl(fl(√x)²)` can sit a few ulps below `x`).
#[test]
fn a_range_query_at_a_returned_distance_returns_that_item() {
    let series = corpus(90, 7);
    let engine = engine(&series);
    for qi in [3usize, 10, 41] {
        let shape = |r: QueryRequest| r.with_series(series[qi].clone()).with_band(BAND);
        let knn = engine.try_query(&shape(QueryRequest::knn(8))).expect("completes");
        for &(id, distance) in &knn.result.matches {
            let request = shape(QueryRequest::range(distance));
            let range = engine.try_query(&request).expect("completes").result.matches;
            assert!(
                range.contains(&(id, distance)),
                "range({distance}) around #{qi} lost item {id}"
            );
            assert_eq!(range, brute_force(&series, &request));
        }
    }
}

/// A batch is a sequence of single requests, each validated before any
/// work: the malformed one is reported up front and records nothing, while
/// the well-formed ones around it run and are recorded.
#[test]
fn a_batch_that_fails_validation_does_no_work_and_records_nothing() {
    let series = corpus(60, 17);
    let metrics = MetricsSink::enabled();
    let engine = engine(&series).with_metrics(metrics.clone());
    let good = QueryRequest::knn(3).with_series(series[1].clone()).with_band(BAND);
    let mut poisoned = series[2].clone();
    poisoned[9] = f64::NAN;
    let bad = QueryRequest::knn(3).with_series(poisoned).with_band(BAND);
    let mut scratch = QueryScratch::new();
    match engine.try_query_with(&bad, &mut scratch) {
        Err(EngineError::NonFiniteSample { context: "query", index: 9, .. }) => {}
        other => panic!("expected the NaN to be reported up front, got {other:?}"),
    }
    let snapshot = metrics.registry().expect("enabled").snapshot();
    for metric in [Metric::KnnQueries, Metric::ExactStarted, Metric::DpCells] {
        assert_eq!(snapshot.counter(metric), 0, "{metric:?} recorded");
    }
    // The well-formed requests of the same batch run and are recorded.
    for request in [&good, &good, &good] {
        let outcome = engine.try_query_with(request, &mut scratch);
        assert_eq!(outcome.expect("well-formed request").result.matches.len(), 3);
    }
    let snapshot = metrics.registry().expect("enabled").snapshot();
    assert_eq!(snapshot.counter(Metric::KnnQueries), 3);
    assert!(snapshot.counter(Metric::DpCells) > 0);
}
