//! The query executor: the one orchestration of every query.
//!
//! The GEMINI pipeline (index query on the envelope's feature box, then
//! exact refinement; multi-step k-NN on top) is one algorithm whose
//! exactness argument never mentions how the corpus is partitioned. So the
//! partitioning is data, not code: a query runs over a flat list of
//! [`Leaf`]s — each a [`DtwIndexEngine`] over a disjoint sub-corpus, tagged
//! with the pruning metadata of the storage unit it belongs to — and
//! [`execute`] / [`execute_batch`] are the only functions that validate,
//! prune, fan out, absorb counters, enforce the deadline contract, merge,
//! and build the trace. A single engine is one leaf, and a store-backed
//! system is one leaf per storage unit (segments oldest to newest, then the
//! memtable).
//!
//! # Leaf pruning
//!
//! For an indexed ε-range query a leaf engine admits a candidate only when
//! `feature_box.min_dist_point(features) <= radius` (the GEMINI lower-bound
//! filter), and for every feature inside a segment's bounding box
//! `min_dist_point >= min_dist_rect(box)` — so a leaf whose
//! [`SegmentMeta::may_intersect_range`] is `false` cannot contribute a
//! candidate, let alone a match, and is skipped without being touched.
//! k-NN and the scan paths are never pruned (their thresholds are not known
//! up front), keeping the no-false-negative guarantee trivial.
//!
//! # ε-range and scan queries
//!
//! Each surviving leaf answers exactly over its own sub-corpus; ids are
//! unique across leaves, so the k-way merge of the per-leaf lists by
//! `(distance, id, leaf)` — cut to `k` for a scan k-NN — is exactly the
//! answer of one engine holding the union corpus: same `f64` bits, same
//! order.
//!
//! # k-NN: one sweep, two rounds
//!
//! The indexed k-NN is a multi-step scheme (Seidl & Kriegel) over one
//! sequential pass of a cheap bound, the schedule Lemire's two-pass DTW
//! search assumes. Each leaf sweeps its index once; that one bound array
//! feeds both rounds, and no candidate reaches DTW but through the cascade.
//!
//! 1. **Seed round:** every leaf runs the `M = min(32·k, len)` smallest
//!    feature bounds by `(d², id)` through the cascade with an empty heap at
//!    threshold ∞, and keeps its exact top-k and the bounds it left out.
//! 2. **Radius barrier:** the closing radius is the k-th smallest
//!    `(d², id)` pair of the union of the leaves' top-k: `k` real items sit
//!    within it, so the true k-th neighbor does too. The best
//!    `min(k, total)` pairs seed every leaf's close-round heap.
//! 3. **Close round:** every leaf admits the bounds it left out with a range
//!    query's root-space test, `sqrt(d²) ≤ sqrt(radius²)`, and runs them
//!    through the same cascade. No melody is examined twice.
//! 4. **Assembly:** the leaves' top-k and close survivors merge through
//!    one `(d², id)`-ordered, id-deduplicated, top-`k` cut.
//!
//! The result is exact for any partition:
//! * A seed-round candidate of leaf L pruned or abandoned at threshold `t`
//!   has a bound, or a distance, above `t`; `t` is at least L's final k-th
//!   `(d², id)`, which is at least the global k-th. Pruning uses a strict
//!   `>`, so a tie with the k-th survives and is decided by id.
//! * A true top-k member L left out has bound ≤ distance ≤ radius, so L's
//!   close round admits it, and keeps it: that heap holds at most `k` *real*
//!   exact distances, so its threshold never drops below the global k-th.
//!
//! Every candidate, seed or admitted, is counted in `index.candidates` and
//! pruned by one stage or verified, so on every path a traced query has
//! `candidates_in == lb_pruned + lb_improved_pruned + exact_started`.
//!
//! # Determinism contract
//!
//! * **Matches are bit-identical to a brute-force DTW sweep** for every
//!   leaf layout and every scatter width.
//! * **Counters and traces are functions of `(query, corpus, layout)`**:
//!   per-leaf counters are absorbed in fixed leaf order, and the seed
//!   round selects by the total order `(d², id)`, so they never vary with
//!   the scatter width, the thread count, timing or an index's visiting
//!   order. They *do* vary with the layout — `N` leaves verify up to `N·M`
//!   seeds — which is inherent to partitioning, not an accounting bug.
//!
//! # Deadlines
//!
//! Every leaf polls the request's [`QueryBudget`](crate::engine::QueryBudget)
//! between candidates. An expiry in any leaf fails the whole query with one
//! [`EngineError::DeadlineExceeded`] carrying the absorbed partial counters
//! of every leaf (`matches` forced to 0 — partial match sets are never
//! reported); it is not recorded as a completed query.

use hum_index::{ItemId, SpatialIndex};

use crate::batch::{parallel_map_chunked, BatchOptions};
use crate::engine::{
    sort_by_distance, BatchOutcome, DtwIndexEngine, EngineError, EngineStats, LeafRun,
    PreparedQuery, QueryOutcome, QueryRequest, QueryResult, QueryScratch, RequestKind,
};
use crate::obs::{
    debug_assert_trace_consistent, Metric, MetricsSink, QueryKind, QueryTrace, Timer,
};
use crate::segment::SegmentMeta;
use crate::transform::EnvelopeTransform;

/// One engine in a query's leaf list, with the pruning metadata of the
/// storage unit it belongs to (`None` — never pruned — for a memtable or an
/// engine outside any store). Every leaf of one list is built from the same
/// configuration — one normal form, one transform — so the first speaks
/// for all: the query is validated against it and its envelope projected
/// through its transform, once per request.
pub struct Leaf<'a, T, I> {
    /// The engine over this leaf's sub-corpus.
    pub engine: &'a DtwIndexEngine<T, I>,
    /// Pruning metadata, when the leaf belongs to an immutable segment.
    pub meta: Option<&'a SegmentMeta>,
}

/// Executes one request over `leaves`, fanning them across up to `width`
/// threads (capped by the leaf count; width never changes matches, counters
/// or traces), and records the completed query once into `metrics`.
///
/// # Errors
/// [`EngineError::EmptyQuery`], [`EngineError::LengthMismatch`],
/// [`EngineError::NonFiniteSample`] or [`EngineError::BandTooWide`] before
/// any work or metric, and [`EngineError::DeadlineExceeded`] with the
/// partial counters when the request's budget expires in any leaf.
///
/// # Panics
/// Panics if `leaves` is empty.
pub fn execute<T: EnvelopeTransform, I: SpatialIndex>(
    leaves: &[Leaf<'_, T, I>],
    request: &QueryRequest,
    scratch: &mut QueryScratch,
    width: usize,
    metrics: &MetricsSink,
) -> Result<QueryOutcome, EngineError> {
    validate(leaves, request)?;
    run(leaves, request, scratch, width, metrics)
}

/// Executes a batch of requests over `leaves`, fanning fixed-size chunks of
/// *requests* across [`BatchOptions::threads`] workers; inside the batch
/// every request walks its leaves sequentially (one level of parallelism,
/// never nested). Every per-request outcome — matches, counters and trace —
/// is bit-identical to the corresponding [`execute`] call at every thread
/// count: each worker owns a private [`QueryScratch`] and outcomes merge in
/// submission order.
///
/// # Errors
/// Validates every request first and returns the first [`EngineError`]
/// before running anything: a batch that fails validation does no work and
/// records no metrics. A request whose budget expires mid-run fails the
/// whole batch with the [`EngineError::DeadlineExceeded`] of the earliest
/// such request in submission order (other requests may already have
/// completed and recorded their per-query metrics; the batch-level counters
/// are skipped).
///
/// # Panics
/// Panics if `leaves` is empty.
pub fn execute_batch<T: EnvelopeTransform, I: SpatialIndex>(
    leaves: &[Leaf<'_, T, I>],
    requests: &[QueryRequest],
    options: &BatchOptions,
    metrics: &MetricsSink,
) -> Result<BatchOutcome, EngineError> {
    for request in requests {
        validate(leaves, request)?;
    }
    let started = metrics.start_timer();
    let runs =
        parallel_map_chunked(requests, options, QueryScratch::new, |scratch, _i, request| {
            run(leaves, request, scratch, 1, metrics)
        });
    let outcomes = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut stats = EngineStats::default();
    for outcome in &outcomes {
        stats.absorb(&outcome.result.stats);
    }
    // Drift guard (debug builds): when every request carries a trace, the
    // merged stats must equal the sum of the per-query trace totals —
    // `EngineStats::absorb` and `QueryTrace::totals` can never disagree
    // silently.
    #[cfg(debug_assertions)]
    if !outcomes.is_empty() && outcomes.iter().all(|o| o.trace.is_some()) {
        let mut from_traces = EngineStats::default();
        for outcome in &outcomes {
            from_traces.absorb(&outcome.trace.as_ref().expect("all traced").totals());
        }
        debug_assert_eq!(from_traces, stats, "batch trace totals drifted from merged EngineStats");
    }
    metrics.add(Metric::Batches, 1);
    metrics.observe_since(Timer::Batch, started);
    Ok(BatchOutcome { outcomes, stats })
}

/// Every leaf shares one normal form, so the first speaks for all.
fn validate<T: EnvelopeTransform, I: SpatialIndex>(
    leaves: &[Leaf<'_, T, I>],
    request: &QueryRequest,
) -> Result<(), EngineError> {
    let first = leaves.first().expect("a query needs at least one leaf");
    first.engine.validate_query(request.series(), request.band())
}

/// Runs a *validated* request: prune, fan out, gather, merge, record, trace.
fn run<T: EnvelopeTransform, I: SpatialIndex>(
    leaves: &[Leaf<'_, T, I>],
    request: &QueryRequest,
    scratch: &mut QueryScratch,
    width: usize,
    metrics: &MetricsSink,
) -> Result<QueryOutcome, EngineError> {
    let started = metrics.start_timer();
    let (query, band, budget) = (request.series(), request.band(), request.budget());
    // The query's envelope and its feature box are the same for every leaf
    // and every phase: computed here, once.
    let prepared = PreparedQuery::new(leaves[0].engine.transform(), query, band);
    let mut stats = EngineStats::default();
    let (kind, matches) = match (request.kind(), request.scan_enabled()) {
        (RequestKind::Knn { k }, false) => {
            let seeds = map_leaves(leaves, width, scratch, |_, leaf, scratch| {
                leaf.engine.knn_seed_round(&prepared, k, budget, scratch)
            });
            let (mut pools, rests): (Vec<_>, Vec<_>) =
                gather(seeds, &mut stats)?.into_iter().unzip();
            // Radius barrier: the k-th smallest (d², id) pair of the leaves'
            // top-k bounds the true k-th neighbor, and the best min(k, total)
            // seed every leaf's close-round heap.
            let mut seed: Vec<(ItemId, f64)> = pools.iter().flatten().copied().collect();
            sort_by_distance(&mut seed);
            seed.truncate(k);
            let radius_sq = seed.last().map_or(0.0, |&(_, d_sq)| d_sq);
            let closes = map_leaves(leaves, width, scratch, |i, leaf, scratch| {
                leaf.engine
                    .knn_close_round(&prepared, k, radius_sq, &seed, &rests[i], budget, scratch)
            });
            pools.extend(gather(closes, &mut stats)?);
            (QueryKind::Knn, assemble_knn_matches(pools, k))
        }
        (RequestKind::Knn { k }, true) => {
            let runs = map_leaves(leaves, width, scratch, |_, leaf, scratch| {
                leaf.engine.run_scan_knn(&prepared, k, budget, scratch)
            });
            let mut matches = merge_sorted_matches(gather(runs, &mut stats)?);
            matches.truncate(k);
            (QueryKind::ScanKnn, matches)
        }
        (RequestKind::Range { radius }, true) => {
            let runs = map_leaves(leaves, width, scratch, |_, leaf, scratch| {
                leaf.engine.run_scan_range(&prepared, radius, budget, scratch)
            });
            (QueryKind::ScanRange, merge_sorted_matches(gather(runs, &mut stats)?))
        }
        (RequestKind::Range { radius }, false) => {
            let runs = map_leaves(leaves, width, scratch, |_, leaf, scratch| match leaf.meta {
                Some(meta) if !meta.may_intersect_range(prepared.feature_box(), radius) => {
                    Ok((Vec::new(), EngineStats::default()))
                }
                _ => leaf.engine.run_range(&prepared, radius, budget, scratch),
            });
            (QueryKind::Range, merge_sorted_matches(gather(runs, &mut stats)?))
        }
    };
    stats.matches = matches.len() as u64;
    metrics.record_query(kind, &stats, started);
    let trace = request.trace_enabled().then(|| {
        let candidates_in = match kind {
            // Indexed paths: the cascade sees the index's candidate sets.
            QueryKind::Range | QueryKind::Knn => stats.index.candidates,
            // Scan paths are never pruned: the cascade sees the whole corpus.
            QueryKind::ScanRange | QueryKind::ScanKnn => {
                leaves.iter().map(|leaf| leaf.engine.len() as u64).sum()
            }
        };
        let trace = QueryTrace::from_stats(kind, band, candidates_in, &stats);
        debug_assert_trace_consistent(&trace, &stats);
        trace
    });
    Ok(QueryOutcome { result: QueryResult { matches, stats }, trace })
}

/// Runs `f` once per leaf, returning results in fixed leaf order. With
/// `width > 1` the leaves run on scoped worker threads, each owning a
/// private scratch (chunk size 1: leaf `i` is item `i`, so work steals at
/// leaf granularity); otherwise they run in order on the calling thread
/// reusing the caller's scratch. The results are identical either way
/// (scratch reuse never changes a counter).
fn map_leaves<T: EnvelopeTransform, I: SpatialIndex, R: Send>(
    leaves: &[Leaf<'_, T, I>],
    width: usize,
    scratch: &mut QueryScratch,
    f: impl Fn(usize, &Leaf<'_, T, I>, &mut QueryScratch) -> R + Sync,
) -> Vec<R> {
    if width.min(leaves.len()) <= 1 {
        return leaves.iter().enumerate().map(|(i, leaf)| f(i, leaf, scratch)).collect();
    }
    let options = BatchOptions::new(width, 1);
    parallel_map_chunked(leaves, &options, QueryScratch::new, |scratch, i, leaf| {
        f(i, leaf, scratch)
    })
}

/// Absorbs every leaf's counters into `stats` in leaf order and returns the
/// per-leaf pools — or, if any leaf's budget expired, the one
/// [`EngineError::DeadlineExceeded`] carrying everything absorbed so far.
fn gather<P>(runs: Vec<LeafRun<P>>, stats: &mut EngineStats) -> Result<Vec<P>, EngineError> {
    let mut pools = Vec::with_capacity(runs.len());
    let mut expired = false;
    for run in runs {
        match run {
            Ok((pool, leaf_stats)) => {
                stats.absorb(&leaf_stats);
                pools.push(pool);
            }
            Err(partial) => {
                stats.absorb(&partial);
                expired = true;
            }
        }
    }
    if expired {
        stats.matches = 0;
        return Err(EngineError::DeadlineExceeded { stats: *stats });
    }
    Ok(pools)
}

/// Final k-NN assembly: pools of `(id, exact squared distance)` candidates
/// — seed-round top-k and close-round survivors — are merged, deduplicated
/// by id (duplicates always carry the same exact distance), ordered by
/// `(d², id)` (the same total order every heap and sort in the k-NN path
/// uses; `(d, id)` orders identically since `sqrt` is monotone), and cut to
/// the `k` best, with one square root per reported match.
fn assemble_knn_matches(pools: Vec<Vec<(ItemId, f64)>>, k: usize) -> Vec<(ItemId, f64)> {
    let mut pool: Vec<(ItemId, f64)> = pools.into_iter().flatten().collect();
    sort_by_distance(&mut pool);
    pool.dedup_by_key(|&mut (id, _)| id);
    pool.truncate(k);
    pool.into_iter().map(|(id, d_sq)| (id, d_sq.sqrt())).collect()
}

/// K-way merge of per-leaf match lists, each already sorted by
/// `(distance, id)`, into one list sorted the same way. Heads are compared
/// by `(distance, id, leaf)` — ids are unique across leaves, so the leaf
/// component never decides between *different* items; it only fixes a total
/// order for the heap.
fn merge_sorted_matches(pools: Vec<Vec<(ItemId, f64)>>) -> Vec<(ItemId, f64)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Head {
        distance: f64,
        id: ItemId,
        leaf: usize,
        pos: usize,
    }
    impl Eq for Head {}
    impl Ord for Head {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.distance
                .partial_cmp(&other.distance)
                .expect("finite distances")
                .then_with(|| self.id.cmp(&other.id))
                .then_with(|| self.leaf.cmp(&other.leaf))
        }
    }
    impl PartialOrd for Head {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let total: usize = pools.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Reverse<Head>> = pools
        .iter()
        .enumerate()
        .filter_map(|(leaf, pool)| {
            pool.first().map(|&(id, distance)| Reverse(Head { distance, id, leaf, pos: 0 }))
        })
        .collect();
    while let Some(Reverse(head)) = heap.pop() {
        merged.push((head.id, head.distance));
        let next = head.pos + 1;
        if let Some(&(id, distance)) = pools[head.leaf].get(next) {
            heap.push(Reverse(Head { distance, id, leaf: head.leaf, pos: next }));
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sorted_matches_interleaves_in_order() {
        let pools = vec![vec![(0, 0.5), (2, 1.5)], vec![], vec![(1, 1.0), (3, 1.5)]];
        // Tie at 1.5 resolves by id.
        assert_eq!(merge_sorted_matches(pools), vec![(0, 0.5), (1, 1.0), (2, 1.5), (3, 1.5)]);
    }
}
