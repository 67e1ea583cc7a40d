//! The observability layer's contract, end to end:
//!
//! * a disabled sink is a no-op — answers and counters are bit-identical
//!   with metrics on or off;
//! * a trace carries the query's `EngineStats` on every path, and its
//!   funnel closes;
//! * every `EngineError` variant round-trips through a `QueryRequest`, and
//!   a rejected query records nothing;
//! * the registry's counters equal the sum of the absorbed per-query stats.

use std::sync::Arc;

use hum_core::engine::{
    DtwIndexEngine, EngineConfig, EngineError, EngineStats, QueryRequest,
};
use hum_core::obs::{
    metrics_to_text, to_json_string, trace_to_text, Metric, MetricsRegistry, MetricsSink,
};
use hum_core::transform::paa::NewPaa;
use hum_index::RStarTree;
use proptest::prelude::*;

const LEN: usize = 32;

fn lcg_series(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    let mut next = move || {
        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n)
        .map(|_| {
            let mut acc = 0.0;
            let mut s: Vec<f64> = (0..LEN)
                .map(|_| {
                    acc += next();
                    acc
                })
                .collect();
            hum_linalg::vec_ops::center(&mut s);
            s
        })
        .collect()
}

fn build_engine(series: &[Vec<f64>]) -> DtwIndexEngine<NewPaa, RStarTree> {
    let mut engine = DtwIndexEngine::new(
        NewPaa::new(LEN, 4),
        RStarTree::with_page_size(4, 1024),
        EngineConfig::default(),
    );
    for (i, s) in series.iter().enumerate() {
        engine.insert(i as u64, s.clone());
    }
    engine
}

fn mixed_requests(queries: &[Vec<f64>], trace: bool) -> Vec<QueryRequest> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let r = match i % 4 {
                0 => QueryRequest::range(2.0),
                1 => QueryRequest::knn(5),
                2 => QueryRequest::range(1.0),
                _ => QueryRequest::knn(3),
            };
            r.with_series(q.clone()).with_band(i % 6).with_trace(trace)
        })
        .collect()
}

#[test]
fn disabled_sink_changes_nothing() {
    let series = lcg_series(70, 11);
    let queries = lcg_series(8, 2222);
    let plain = build_engine(&series);
    let recorded = build_engine(&series).with_metrics(MetricsSink::enabled());
    for request in mixed_requests(&queries, true) {
        assert_eq!(plain.query(&request), recorded.query(&request));
    }
    // The recording engine really did record on the side.
    let snapshot = recorded.metrics().registry().unwrap().snapshot();
    assert_eq!(snapshot.counter(Metric::RangeQueries), 4);
    assert_eq!(snapshot.counter(Metric::KnnQueries), 4);
}

#[test]
fn registry_counters_equal_summed_stats() {
    let series = lcg_series(60, 13);
    let queries = lcg_series(12, 3333);
    let engine = build_engine(&series).with_metrics(MetricsSink::enabled());
    let mut total = EngineStats::default();
    for request in mixed_requests(&queries, false) {
        total.absorb(&engine.query(&request).result.stats);
    }
    let snapshot = engine.metrics().registry().unwrap().snapshot();
    assert_eq!(snapshot.counter(Metric::IndexNodeAccesses), total.index.node_accesses);
    assert_eq!(snapshot.counter(Metric::IndexCandidates), total.index.candidates);
    assert_eq!(snapshot.counter(Metric::LbPruned), total.lb_pruned);
    assert_eq!(snapshot.counter(Metric::LbImprovedPruned), total.lb_improved_pruned);
    assert_eq!(snapshot.counter(Metric::ExactStarted), total.exact_computations);
    assert_eq!(snapshot.counter(Metric::EarlyAbandoned), total.early_abandoned);
    assert_eq!(snapshot.counter(Metric::DpCells), total.dp_cells);
    assert_eq!(snapshot.counter(Metric::Matches), total.matches);
    // Per-kind latency histograms saw one observation per query.
    let timers: u64 = snapshot.timers.iter().map(|t| t.histogram.count).sum();
    assert_eq!(timers, queries.len() as u64);
}

#[test]
fn insert_and_remove_are_counted() {
    let series = lcg_series(5, 17);
    let registry = Arc::new(MetricsRegistry::new());
    let mut engine = build_engine(&series); // inserts before the sink: uncounted
    engine.set_metrics(MetricsSink::Enabled(registry.clone()));
    engine.insert(100, series[0].clone());
    assert!(engine.remove(100));
    assert!(!engine.remove(100), "second removal is a no-op");
    assert_eq!(registry.get(Metric::Inserts), 1);
    assert_eq!(registry.get(Metric::Removals), 1);
}

#[test]
fn every_error_variant_round_trips_through_a_request() {
    let series = lcg_series(3, 23);
    // Every rejected request below runs against an enabled sink.
    let mut engine = build_engine(&series[..1]).with_metrics(MetricsSink::enabled());

    let cases: Vec<(QueryRequest, EngineError)> = vec![
        (QueryRequest::range(1.0), EngineError::EmptyQuery),
        (
            QueryRequest::knn(2).with_series(vec![0.5; LEN - 1]),
            EngineError::LengthMismatch { context: "query", expected: LEN, got: LEN - 1 },
        ),
        (
            QueryRequest::range(1.0).with_series(series[1].clone()).with_band(LEN),
            EngineError::BandTooWide { band: LEN, len: LEN },
        ),
    ];
    for (request, expected) in cases {
        assert_eq!(engine.try_query(&request), Err(expected));
    }

    let mut bad = series[1].clone();
    bad[4] = f64::INFINITY;
    match engine.try_query(&QueryRequest::knn(1).with_series(bad)) {
        Err(EngineError::NonFiniteSample { context, index, value }) => {
            assert_eq!((context, index, value), ("query", 4, f64::INFINITY));
        }
        other => panic!("expected NonFiniteSample, got {other:?}"),
    }
    assert_eq!(engine.try_insert(0, series[2].clone()), Err(EngineError::DuplicateId(0)));
    // A rejected query is reported before any work: nothing is recorded.
    let snapshot = engine.metrics().registry().expect("enabled").snapshot();
    for metric in [Metric::RangeQueries, Metric::KnnQueries, Metric::DpCells, Metric::Inserts] {
        assert_eq!(snapshot.counter(metric), 0, "{metric:?} recorded");
    }
    assert!(snapshot.timers.iter().all(|t| t.histogram.count == 0), "a query was timed");

    // Every variant's Display is stable enough to grep in a panic message.
    for error in [
        EngineError::EmptyQuery,
        EngineError::LengthMismatch { context: "query", expected: 2, got: 1 },
        EngineError::NonFiniteSample { context: "query", index: 0, value: f64::NAN },
        EngineError::BandTooWide { band: 9, len: 9 },
        EngineError::DuplicateId(1),
    ] {
        assert!(!error.to_string().is_empty());
    }
}

#[test]
fn exporters_render_live_traces_and_metrics() {
    let series = lcg_series(50, 29);
    let engine = build_engine(&series).with_metrics(MetricsSink::enabled());
    let request =
        QueryRequest::range(2.0).with_series(series[7].clone()).with_band(3).with_trace(true);
    let trace = engine.query(&request).trace.unwrap();
    let text = trace_to_text(&trace);
    assert!(text.contains("envelope_lb"));
    let json = to_json_string(&trace);
    assert!(json.contains("\"kind\": \"range\""));
    let snapshot = engine.metrics().registry().unwrap().snapshot();
    assert!(metrics_to_text(&snapshot).contains("engine.queries.range"));
    assert!(to_json_string(&snapshot).contains("\"latency.range_query\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any workload and both query kinds, range and k-NN: tracing and
    /// metrics recording never change the answer, a trace carries the
    /// result's stats, and the cascade funnel closes exactly
    /// (every candidate is pruned by exactly one stage or verified).
    #[test]
    fn tracing_is_free_and_consistent(
        seed in any::<u64>(),
        band in 0usize..6,
        radius in 0.5f64..3.0,
        k in 1usize..6,
    ) {
        let series = lcg_series(200, seed);
        let query = lcg_series(1, seed ^ 0xfeed).remove(0);
        let plain = build_engine(&series);
        let recorded = build_engine(&series).with_metrics(MetricsSink::enabled());
        for request in [QueryRequest::range(radius), QueryRequest::knn(k)] {
            let untraced = request.with_series(query.clone()).with_band(band);
            let traced = untraced.clone().with_trace(true);

            let baseline = plain.query(&untraced);
            prop_assert_eq!(&plain.query(&traced).result, &baseline.result);
            let outcome = recorded.query(&traced);
            prop_assert_eq!(&outcome.result, &baseline.result);

            let trace = outcome.trace.expect("trace requested");
            prop_assert_eq!(trace.stats, outcome.result.stats);
            let s = &trace.stats;
            prop_assert_eq!(
                s.lb_pruned + s.lb_improved_pruned + s.exact_computations,
                s.index.candidates
            );
            let [index, env, lbi, exact] = trace.stages();
            prop_assert_eq!(index.entered - index.pruned, env.entered);
            prop_assert_eq!(env.entered - env.pruned - lbi.pruned, exact.entered);
            prop_assert!(s.matches <= exact.entered - exact.pruned);
        }
    }
}
