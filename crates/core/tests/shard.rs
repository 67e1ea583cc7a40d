//! What [`ShardedEngine`] itself owns: id → shard routing, validation at
//! its boundary, and batches that equal sequential queries. (That every
//! shard layout answers bit-identically to brute force at every scatter
//! width is the executor's contract — see `tests/exec.rs`.)

use hum_core::batch::BatchOptions;
use hum_core::engine::{DtwIndexEngine, EngineConfig, EngineError, QueryRequest};
use hum_core::shard::{shard_for, ShardedEngine};
use hum_core::transform::paa::NewPaa;
use hum_index::{ItemId, RStarTree};

const LEN: usize = 64;
const DIMS: usize = 8;
const BAND: usize = 4;

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

fn sharded(series: &[Vec<f64>], shards: usize) -> ShardedEngine<NewPaa, RStarTree> {
    let mut engine = ShardedEngine::build(shards, |_| {
        DtwIndexEngine::new(
            NewPaa::new(LEN, DIMS),
            RStarTree::with_page_size(DIMS, 1024),
            EngineConfig::default(),
        )
    });
    for (i, s) in series.iter().enumerate() {
        engine.insert(i as ItemId, s.clone());
    }
    engine
}

fn requests(series: &[Vec<f64>]) -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for (qi, radius, k) in [(3usize, 2.0, 5usize), (17, 4.0, 1), (41, 3.0, 12), (59, 0.5, 120)] {
        let q = series[qi].clone();
        out.push(QueryRequest::range(radius).with_series(q.clone()).with_band(BAND));
        out.push(QueryRequest::knn(k).with_series(q.clone()).with_band(BAND));
        out.push(
            QueryRequest::range(radius).with_series(q.clone()).with_band(BAND).with_scan(true),
        );
        out.push(QueryRequest::knn(k).with_series(q).with_band(BAND).with_scan(true));
    }
    out
}

#[test]
fn sharded_batch_equals_sequential_queries_at_every_thread_count() {
    let series = lcg_series(80, 13);
    let engine = sharded(&series, 4);
    let requests = requests(&series);
    let expected: Vec<_> = requests.iter().map(|r| engine.try_query(r).unwrap()).collect();
    for threads in [1usize, 8] {
        let options = BatchOptions::new(threads, 2);
        let outcome = engine.try_query_batch(&requests, &options).expect("valid batch");
        assert_eq!(outcome.outcomes, expected, "batch diverged at threads={threads}");
    }
}

#[test]
fn inserts_route_by_hash_and_removals_round_trip() {
    let series = lcg_series(50, 19);
    let mut engine = sharded(&series, 4);
    assert_eq!(engine.len(), 50);
    for (i, s) in series.iter().enumerate() {
        let id = i as ItemId;
        assert_eq!(engine.shard_of(id), shard_for(id, 4));
        assert_eq!(engine.get(id), Some(s.as_slice()));
    }
    // Duplicate ids are rejected globally (same id → same shard).
    assert!(matches!(
        engine.try_insert(7, series[7].clone()),
        Err(EngineError::DuplicateId(7))
    ));
    assert!(engine.remove(7));
    assert!(!engine.remove(7));
    assert_eq!(engine.len(), 49);
    assert_eq!(engine.get(7), None);
    // Re-insert lands back on the same shard and is queryable again.
    engine.insert(7, series[7].clone());
    let request = QueryRequest::knn(1).with_series(series[7].clone()).with_band(BAND);
    let result = engine.query(&request).result;
    assert_eq!(result.matches[0].0, 7);
}

#[test]
fn sharded_validation_mirrors_monolithic() {
    let series = lcg_series(20, 23);
    let engine = sharded(&series, 2);
    let empty = QueryRequest::knn(3);
    assert!(matches!(engine.try_query(&empty), Err(EngineError::EmptyQuery)));
    let short = QueryRequest::knn(3).with_series(vec![1.0, 2.0]);
    assert!(matches!(
        engine.try_query(&short),
        Err(EngineError::LengthMismatch { .. })
    ));
    let wide = QueryRequest::knn(3).with_series(series[0].clone()).with_band(LEN);
    assert!(matches!(engine.try_query(&wide), Err(EngineError::BandTooWide { .. })));
}

#[test]
fn edge_shard_counts_behave() {
    let series = lcg_series(10, 31);
    // More shards than items: some shards stay empty and must contribute
    // nothing (not even to k-NN probe unions).
    let engine = sharded(&series, 8);
    let single = sharded(&series, 1);
    let q = &series[3];
    let knn20 = QueryRequest::knn(20).with_series(q.clone()).with_band(BAND);
    let range5 = QueryRequest::range(5.0).with_series(q.clone()).with_band(BAND);
    assert_eq!(engine.query(&knn20).result.matches, single.query(&knn20).result.matches);
    assert_eq!(engine.query(&range5).result.matches, single.query(&range5).result.matches);
    // An empty corpus answers every query with nothing.
    let empty = sharded(&[], 3);
    let knn5 = QueryRequest::knn(5).with_series(q.clone()).with_band(BAND);
    assert!(empty.query(&knn5).result.matches.is_empty());
    assert!(empty.query(&range5).result.matches.is_empty());
}
