//! Corpus sharding: scatter-gather query serving over independent engine
//! shards.
//!
//! A [`ShardedEngine`] partitions the corpus into `N` independent
//! [`DtwIndexEngine`]s — each with its own R\*-tree (or other
//! [`hum_index::SpatialIndex`] backend), series store, and per-worker
//! [`QueryScratch`] — and fans every query out across them, merging hits in
//! a deterministic order. Sharding exists for the serving layer: `N` shards
//! turn one big tree into `N` small ones that `N` workers can walk
//! concurrently for a *single* query, cutting tail latency without touching
//! the per-shard engine code.
//!
//! # Shard assignment
//!
//! An item's shard is a pure function of its id:
//! [`shard_for`]`(id, N)` = `splitmix64(id) % N`. The hash step keeps the
//! shards balanced under clustered id ranges (per-song contiguous blocks,
//! for instance) while staying reproducible across processes — a persisted
//! database reloads into exactly the shards it was built with, and two
//! builds of the same corpus at the same shard count are identical.
//!
//! # Determinism contract
//!
//! * **Matches are bit-identical to the monolithic engine** at every shard
//!   count and every fan-out width. Range queries merge per-shard sorted
//!   hits with a k-way heap in fixed shard order; k-NN propagates the
//!   best-so-far radius across shards in the deterministic two-phase
//!   schedule below. Both produce exactly the `(id, distance)` pairs — same
//!   `f64` bits, same order — as a single engine holding the whole corpus.
//! * **Stats and traces are functions of `(query, corpus, shard count)`**:
//!   per-shard counters are absorbed in fixed shard order, so they never
//!   vary with the fan-out thread count or timing. They *do* vary with the
//!   shard count for `N > 1` — `N` trees have different node structure than
//!   one tree, and the k-NN probe phase touches up to `N·k` probes — which
//!   is inherent to scatter-gather, not an accounting bug. At `N = 1` the
//!   sharded engine delegates to its only shard and everything (matches,
//!   stats, traces, metrics) is trivially identical to the monolithic
//!   engine.
//!
//! # Two-phase k-NN
//!
//! The monolithic k-NN is the optimal multi-step scheme: probe the index
//! for `k` candidates, take the worst exact probe distance as a provisional
//! radius, and close with a range query under a shrinking best-so-far
//! threshold. Sharding splits it at the natural barrier:
//!
//! 1. **Probe phase (scatter):** every shard runs
//!    `knn_probe_phase` — its own `k` index probes with exact distances.
//! 2. **Radius barrier (gather):** the global closing radius is the k-th
//!    smallest `(d², id)` pair of the probe union. At least `k` real items
//!    sit within it (the `k` best probes), so the true k-th neighbor does
//!    too — the closing range query keeps the no-false-negative guarantee.
//!    With one shard the union *is* the shard's probe set and the radius
//!    reduces to the monolithic provisional radius.
//! 3. **Close phase (scatter):** every shard runs `knn_close_phase` at the
//!    global radius, its best-so-far heap *seeded with the global best
//!    probes* — so every shard prunes against the globally tightest known
//!    threshold from the first candidate on — and its own probes as the
//!    skip set (their exact distances are already in hand).
//! 4. **Assembly (gather):** probe pools and close survivors merge through
//!    the same `(d², id)`-ordered, id-deduplicated, top-`k` assembly the
//!    monolithic path uses.
//!
//! The merged result is exact: any true k-th-or-better neighbor survives
//! its shard's close phase because the shard's shrinking threshold is
//! always at least the true global k-th `(d², id)` pair (the heap holds at
//! most `k` *real* exact distances, so its worst entry can never be
//! strictly better than the true k-th item).

use std::collections::HashSet;

use hum_index::{ItemId, SpatialIndex};

use crate::batch::{parallel_map_chunked, BatchOptions};
use crate::engine::{
    assemble_knn_matches, BatchOutcome, DtwIndexEngine, EngineError,
    EngineStats, QueryOutcome, QueryRequest, QueryResult, QueryScratch, RequestKind,
};
use crate::obs::{
    debug_assert_trace_consistent, Metric, MetricsSink, QueryKind, QueryTrace, Timer,
};
use crate::transform::EnvelopeTransform;

/// Maps an item id to its shard: `splitmix64(id) % shard_count`.
///
/// The splitmix64 finalizer decorrelates clustered id ranges so shards stay
/// balanced, while remaining a pure function — the same id lands on the
/// same shard in every process, so a reopened store rebuilds the same
/// partition it was serving before.
///
/// # Panics
/// Panics if `shard_count` is zero.
#[must_use]
pub fn shard_for(id: ItemId, shard_count: usize) -> usize {
    assert!(shard_count > 0, "shard_count must be positive");
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shard_count as u64) as usize
}

/// A corpus partitioned across independent [`DtwIndexEngine`] shards with
/// scatter-gather query execution. See the [module docs](self) for the
/// assignment function, the determinism contract, and the two-phase k-NN
/// schedule.
#[derive(Debug, Clone)]
pub struct ShardedEngine<T, I> {
    shards: Vec<DtwIndexEngine<T, I>>,
    metrics: MetricsSink,
    fanout: usize,
}

impl<T: EnvelopeTransform, I: SpatialIndex> ShardedEngine<T, I> {
    /// Wraps pre-built, *empty* engine shards. All shards must share the
    /// same normal-form length (they answer the same queries); per-shard
    /// metrics sinks are forced to [`MetricsSink::Disabled`] — the sharded
    /// engine records each merged query exactly once into its own sink.
    ///
    /// # Panics
    /// Panics if `shards` is empty, any shard is non-empty, or the shards
    /// disagree on the normal-form length.
    pub fn new(mut shards: Vec<DtwIndexEngine<T, I>>) -> Self {
        assert!(!shards.is_empty(), "at least one shard is required");
        let series_len = shards[0].series_len();
        for (i, shard) in shards.iter_mut().enumerate() {
            assert!(shard.is_empty(), "shard {i} must start empty");
            assert_eq!(
                shard.series_len(),
                series_len,
                "shard {i} disagrees on the normal-form length"
            );
            shard.set_metrics(MetricsSink::Disabled);
        }
        let fanout = BatchOptions::default().threads;
        ShardedEngine { shards, metrics: MetricsSink::Disabled, fanout }
    }

    /// Builds `shard_count` shards from a factory (index backends are not
    /// `Clone`-able in general, so each shard gets a freshly made engine).
    ///
    /// # Panics
    /// Panics if `shard_count` is zero or the factory's engines disagree on
    /// the normal-form length.
    pub fn build(shard_count: usize, mut make: impl FnMut(usize) -> DtwIndexEngine<T, I>) -> Self {
        assert!(shard_count > 0, "shard_count must be positive");
        ShardedEngine::new((0..shard_count).map(&mut make).collect())
    }

    /// Builder form of [`ShardedEngine::set_fanout`].
    #[must_use]
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.set_fanout(fanout);
        self
    }

    /// Sets how many threads a *single* query may fan out across (clamped
    /// to at least 1; capped by the shard count at execution time). Fan-out
    /// width never changes matches, stats, or traces — only wall-clock
    /// time. Defaults to [`BatchOptions::default`]'s thread count.
    pub fn set_fanout(&mut self, fanout: usize) {
        self.fanout = fanout.max(1);
    }

    /// The configured per-query fan-out width.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Builder form of [`ShardedEngine::set_metrics`].
    #[must_use]
    pub fn with_metrics(mut self, sink: MetricsSink) -> Self {
        self.metrics = sink;
        self
    }

    /// Points the sharded engine at a metrics sink. Each merged query is
    /// recorded exactly once (the per-shard sinks stay disabled), so the
    /// registry's totals match what a monolithic engine would record.
    pub fn set_metrics(&mut self, sink: MetricsSink) {
        self.metrics = sink;
    }

    /// The metrics sink in use (disabled by default).
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in fixed shard order (for persistence and inspection).
    pub fn shards(&self) -> &[DtwIndexEngine<T, I>] {
        &self.shards
    }

    /// The envelope transform the shards share (every shard is built from
    /// the same configuration, so shard 0's transform speaks for all).
    pub fn transform(&self) -> &T {
        self.shards[0].transform()
    }

    /// The shard that does / would store `id`.
    pub fn shard_of(&self, id: ItemId) -> usize {
        shard_for(id, self.shards.len())
    }

    /// Total indexed series across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(DtwIndexEngine::len).sum()
    }

    /// `true` if no series are indexed.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(DtwIndexEngine::is_empty)
    }

    /// Normal-form length every series must have.
    pub fn series_len(&self) -> usize {
        self.shards[0].series_len()
    }

    /// Looks up a stored series (in its home shard).
    pub fn get(&self, id: ItemId) -> Option<&[f64]> {
        self.shards[self.shard_of(id)].get(id)
    }

    /// Inserts a normal-form series into its home shard. Ids are unique
    /// across the whole corpus: an id always hashes to the same shard, so
    /// the per-shard duplicate check is a global one. On error nothing is
    /// changed.
    pub fn try_insert(&mut self, id: ItemId, series: Vec<f64>) -> Result<(), EngineError> {
        let shard = self.shard_of(id);
        self.shards[shard].try_insert(id, series)?;
        self.metrics.add(Metric::Inserts, 1);
        Ok(())
    }

    /// Panicking form of [`ShardedEngine::try_insert`].
    ///
    /// # Panics
    /// Panics if the length is wrong, the id is already present, or any
    /// sample is NaN/infinite.
    pub fn insert(&mut self, id: ItemId, series: Vec<f64>) {
        self.try_insert(id, series).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Removes `id` from its home shard. Returns `true` if it was present.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let shard = self.shard_of(id);
        if self.shards[shard].remove(id) {
            self.metrics.add(Metric::Removals, 1);
            true
        } else {
            false
        }
    }
}

impl<T: EnvelopeTransform + Sync, I: SpatialIndex + Sync> ShardedEngine<T, I> {
    /// Executes a request with scatter-gather across the shards. Semantics
    /// (matches, errors) are identical to [`DtwIndexEngine::try_query`] on
    /// a monolithic engine holding the same corpus; see the
    /// [module docs](self) for what the counters mean at `N > 1`.
    ///
    /// # Errors
    /// The validation errors of [`DtwIndexEngine::try_query`], plus
    /// [`EngineError::DeadlineExceeded`] carrying the partial counters of
    /// *every* shard (absorbed in shard order) when the request's budget
    /// expires mid-query.
    pub fn try_query(&self, request: &QueryRequest) -> Result<QueryOutcome, EngineError> {
        self.try_query_with(request, &mut QueryScratch::new())
    }

    /// [`ShardedEngine::try_query`] computing in caller-provided scratch.
    /// With more than one shard and fan-out above 1, worker threads use
    /// their own scratch; results and counters are identical either way.
    ///
    /// # Errors
    /// As [`ShardedEngine::try_query`].
    pub fn try_query_with(
        &self,
        request: &QueryRequest,
        scratch: &mut QueryScratch,
    ) -> Result<QueryOutcome, EngineError> {
        let started = self.metrics.start_timer();
        let outcome = self.run_sharded(request, scratch, self.fanout)?;
        self.metrics.record_query(query_kind(request), &outcome.result.stats, started);
        Ok(outcome)
    }

    /// Panicking form of [`ShardedEngine::try_query`].
    ///
    /// # Panics
    /// Panics on any [`EngineError`] the `try_` form would return.
    pub fn query(&self, request: &QueryRequest) -> QueryOutcome {
        self.try_query(request).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking form of [`ShardedEngine::try_query_with`].
    ///
    /// # Panics
    /// Panics on any [`EngineError`] the `try_` form would return.
    pub fn query_with(&self, request: &QueryRequest, scratch: &mut QueryScratch) -> QueryOutcome {
        self.try_query_with(request, scratch).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes a batch of requests: the batch fans out across
    /// [`BatchOptions::threads`] workers exactly like
    /// [`DtwIndexEngine::try_query_batch`], and each request walks its
    /// shards *sequentially* on its worker (one level of parallelism, never
    /// nested). Per-request outcomes are bit-identical to
    /// [`ShardedEngine::try_query`] for every thread count.
    ///
    /// # Errors
    /// Validates every request up front and returns the first
    /// [`EngineError`] before running anything. A deadline expiry fails the
    /// whole batch with the [`EngineError::DeadlineExceeded`] of the
    /// earliest such request in submission order.
    pub fn try_query_batch(
        &self,
        requests: &[QueryRequest],
        options: &BatchOptions,
    ) -> Result<BatchOutcome, EngineError> {
        for request in requests {
            self.shards[0].validate_query(request.series(), request.band())?;
        }
        let started = self.metrics.start_timer();
        let runs = parallel_map_chunked(
            requests,
            options,
            QueryScratch::new,
            |scratch, _i, request| {
                let per_query = self.metrics.start_timer();
                let outcome = self.run_sharded(request, scratch, 1)?;
                self.metrics.record_query(query_kind(request), &outcome.result.stats, per_query);
                Ok(outcome)
            },
        );
        let mut outcomes = Vec::with_capacity(runs.len());
        for run in runs {
            outcomes.push(run?);
        }
        let mut stats = EngineStats::default();
        for outcome in &outcomes {
            stats.absorb(&outcome.result.stats);
        }
        self.metrics.add(Metric::Batches, 1);
        self.metrics.observe_since(Timer::Batch, started);
        Ok(BatchOutcome { outcomes, stats })
    }

    /// Validates, scatters, and gathers one request. `fanout` bounds the
    /// threads this one query may use (the batch path passes 1 so the only
    /// parallelism is across requests). Crate-visible so the segmented
    /// store view ([`crate::segment`]) can run each storage unit through
    /// the exact same scatter-gather and merge unit results itself.
    pub(crate) fn run_sharded(
        &self,
        request: &QueryRequest,
        scratch: &mut QueryScratch,
        fanout: usize,
    ) -> Result<QueryOutcome, EngineError> {
        self.shards[0].validate_query(request.series(), request.band())?;
        // Single shard: the scatter-gather is the identity; delegate so
        // matches, stats, *and* trace are the monolithic engine's own.
        if self.shards.len() == 1 {
            return self.shards[0].run_request(request, scratch);
        }
        let result = match request.kind() {
            RequestKind::Knn { k } if !request.scan_enabled() => {
                self.run_sharded_knn(request, k, scratch, fanout)?
            }
            _ => self.run_sharded_merge(request, scratch, fanout)?,
        };
        let trace = request.trace_enabled().then(|| {
            let kind = query_kind(request);
            let candidates_in = match kind {
                // Indexed paths: the cascade saw the merged candidate sets.
                QueryKind::Range | QueryKind::Knn => result.stats.index.candidates,
                // Scan paths: the cascade saw the whole corpus.
                QueryKind::ScanRange | QueryKind::ScanKnn => self.len() as u64,
            };
            let trace =
                QueryTrace::from_stats(kind, request.band(), candidates_in, &result.stats);
            debug_assert_trace_consistent(&trace, &result.stats);
            trace
        });
        Ok(QueryOutcome { result, trace })
    }

    /// Scatter-gather for every path whose per-shard results merge
    /// directly: range queries (indexed and scan) and scan k-NN. Each
    /// shard's matches over its sub-corpus are exact, so the k-way merge of
    /// the sorted per-shard lists — truncated to `k` for k-NN — is exactly
    /// the monolithic result.
    fn run_sharded_merge(
        &self,
        request: &QueryRequest,
        scratch: &mut QueryScratch,
        fanout: usize,
    ) -> Result<QueryResult, EngineError> {
        // Same request, trace off: the merged trace is built once at the top.
        let sub = request.clone().with_trace(false);
        let runs = self.scatter(fanout, scratch, |shard, scratch| {
            shard.run_request(&sub, scratch)
        });
        let mut stats = EngineStats::default();
        let mut pools = Vec::with_capacity(runs.len());
        let mut expired = false;
        for run in runs {
            match run {
                Ok(outcome) => {
                    stats.absorb(&outcome.result.stats);
                    pools.push(outcome.result.matches);
                }
                Err(EngineError::DeadlineExceeded { stats: partial }) => {
                    stats.absorb(&partial);
                    expired = true;
                }
                // Validation already passed for every shard (same normal
                // form); run_request has no other error.
                Err(other) => return Err(other),
            }
        }
        if expired {
            stats.matches = 0;
            return Err(EngineError::DeadlineExceeded { stats });
        }
        let mut matches = merge_sorted_matches(pools);
        if let RequestKind::Knn { k } = request.kind() {
            matches.truncate(k);
        }
        stats.matches = matches.len() as u64;
        Ok(QueryResult { matches, stats })
    }

    /// The two-phase sharded k-NN (see the [module docs](self)): scatter
    /// the probe phase, gather the global radius and seed, scatter the
    /// close phase, and assemble.
    fn run_sharded_knn(
        &self,
        request: &QueryRequest,
        k: usize,
        scratch: &mut QueryScratch,
        fanout: usize,
    ) -> Result<QueryResult, EngineError> {
        let query = request.series();
        let band = request.band();
        let budget = request.budget();
        if k == 0 || self.is_empty() {
            return Ok(QueryResult::default());
        }

        // Phase 1: probe every shard.
        let probe_runs = self.scatter(fanout, scratch, |shard, scratch| {
            shard.knn_probe_phase(query, band, k, budget, scratch)
        });
        let mut stats = EngineStats::default();
        let mut probe_pools: Vec<Vec<(ItemId, f64)>> = Vec::with_capacity(self.shards.len());
        let mut expired = false;
        for run in probe_runs {
            match run {
                Ok((probes, probe_stats)) => {
                    stats.absorb(&probe_stats);
                    probe_pools.push(probes);
                }
                Err(partial) => {
                    stats.absorb(&partial);
                    expired = true;
                }
            }
        }
        if expired {
            stats.matches = 0;
            return Err(EngineError::DeadlineExceeded { stats });
        }

        // Radius barrier: the k-th smallest (d², id) probe pair bounds the
        // true k-th neighbor, and the best min(k, total) probes seed every
        // shard's close-phase heap.
        let mut seed: Vec<(ItemId, f64)> =
            probe_pools.iter().flatten().copied().collect();
        seed.sort_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("finite distances").then_with(|| a.0.cmp(&b.0))
        });
        seed.truncate(k);
        let radius_sq = seed.last().map_or(0.0, |&(_, d_sq)| d_sq);
        let known: Vec<HashSet<ItemId>> = probe_pools
            .iter()
            .map(|probes| probes.iter().map(|&(id, _)| id).collect())
            .collect();

        // Phase 2: close every shard at the global radius.
        let close_runs = self.scatter_indexed(fanout, scratch, |i, shard, scratch| {
            shard.knn_close_phase(query, band, k, radius_sq, &seed, &known[i], budget, scratch)
        });
        let mut pools = probe_pools;
        for run in close_runs {
            match run {
                Ok((survivors, close_stats)) => {
                    stats.absorb(&close_stats);
                    pools.push(survivors);
                }
                Err(partial) => {
                    stats.absorb(&partial);
                    expired = true;
                }
            }
        }
        if expired {
            stats.matches = 0;
            return Err(EngineError::DeadlineExceeded { stats });
        }

        let matches = assemble_knn_matches(pools, k);
        stats.matches = matches.len() as u64;
        Ok(QueryResult { matches, stats })
    }

    /// Runs `f` once per shard, returning results in fixed shard order.
    /// With `fanout > 1` the shards run on scoped worker threads, each
    /// owning a private scratch; with `fanout == 1` they run in-order on
    /// the calling thread reusing the caller's scratch. The results are
    /// identical either way (scratch reuse never changes a counter).
    fn scatter<R: Send>(
        &self,
        fanout: usize,
        scratch: &mut QueryScratch,
        f: impl Fn(&DtwIndexEngine<T, I>, &mut QueryScratch) -> R + Sync,
    ) -> Vec<R> {
        self.scatter_indexed(fanout, scratch, |_i, shard, scratch| f(shard, scratch))
    }

    /// [`ShardedEngine::scatter`] with the shard index passed through.
    fn scatter_indexed<R: Send>(
        &self,
        fanout: usize,
        scratch: &mut QueryScratch,
        f: impl Fn(usize, &DtwIndexEngine<T, I>, &mut QueryScratch) -> R + Sync,
    ) -> Vec<R> {
        let fanout = fanout.min(self.shards.len());
        if fanout <= 1 {
            return self
                .shards
                .iter()
                .enumerate()
                .map(|(i, shard)| f(i, shard, scratch))
                .collect();
        }
        // Chunk size 1: shard i is item i, so work steals at shard
        // granularity and the merge order is the shard order.
        let options = BatchOptions::new(fanout, 1);
        parallel_map_chunked(&self.shards, &options, QueryScratch::new, |scratch, i, shard| {
            f(i, shard, scratch)
        })
    }
}

/// The trace/metrics kind for a request (same mapping as the monolithic
/// dispatch).
pub(crate) fn query_kind(request: &QueryRequest) -> QueryKind {
    match (request.kind(), request.scan_enabled()) {
        (RequestKind::Range { .. }, false) => QueryKind::Range,
        (RequestKind::Knn { .. }, false) => QueryKind::Knn,
        (RequestKind::Range { .. }, true) => QueryKind::ScanRange,
        (RequestKind::Knn { .. }, true) => QueryKind::ScanKnn,
    }
}

/// K-way merge of per-shard match lists, each already sorted by
/// `(distance, id)`, into one list sorted the same way. Heads are compared
/// by `(distance, id, shard)` — ids are unique across shards, so the shard
/// component never decides between *different* items; it only fixes a total
/// order for the heap.
pub(crate) fn merge_sorted_matches(pools: Vec<Vec<(ItemId, f64)>>) -> Vec<(ItemId, f64)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Head {
        distance: f64,
        id: ItemId,
        shard: usize,
        pos: usize,
    }
    impl Eq for Head {}
    impl Ord for Head {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.distance
                .partial_cmp(&other.distance)
                .expect("finite distances")
                .then_with(|| self.id.cmp(&other.id))
                .then_with(|| self.shard.cmp(&other.shard))
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
        .filter_map(|(shard, pool)| {
            pool.first().map(|&(id, distance)| Reverse(Head { distance, id, shard, pos: 0 }))
        })
        .collect();
    while let Some(Reverse(head)) = heap.pop() {
        merged.push((head.id, head.distance));
        let next = head.pos + 1;
        if let Some(&(id, distance)) = pools[head.shard].get(next) {
            heap.push(Reverse(Head { distance, id, shard: head.shard, pos: next }));
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_for_is_stable_and_in_range() {
        // The assignment must be a pure function of (id, shard count): a
        // store reopened in another process routes every id the same way.
        assert_eq!(shard_for(0, 4), shard_for(0, 4));
        for id in 0..1000u64 {
            for n in 1..9usize {
                assert!(shard_for(id, n) < n);
            }
            assert_eq!(shard_for(id, 1), 0);
        }
    }

    #[test]
    fn shard_for_balances_clustered_ids() {
        // Contiguous id blocks (per-song numbering) must spread out.
        let n = 8;
        let mut counts = vec![0usize; n];
        for id in 0..8000u64 {
            counts[shard_for(id, n)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            *min * 10 >= *max * 7,
            "shard skew too high: min {min}, max {max} over {counts:?}"
        );
    }

    #[test]
    fn merge_sorted_matches_interleaves_in_order() {
        let pools = vec![
            vec![(0, 0.5), (2, 1.5)],
            vec![],
            vec![(1, 1.0), (3, 1.5)],
        ];
        // Tie at 1.5 resolves by id.
        assert_eq!(
            merge_sorted_matches(pools),
            vec![(0, 0.5), (1, 1.0), (2, 1.5), (3, 1.5)]
        );
    }
}
