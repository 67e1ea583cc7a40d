//! Corpus sharding: hash routing over independent engine shards.
//!
//! A [`ShardedEngine`] partitions the corpus into `N` independent
//! [`DtwIndexEngine`]s — each with its own R\*-tree (or other
//! [`hum_index::SpatialIndex`] backend) and series store. `N` shards turn
//! one big tree into `N` small ones that `N` workers can walk concurrently
//! for a *single* query. This module owns only the routing: which shard an
//! id lives in, and insert / remove / lookup through it. Queries hand the
//! shards to the executor in [`crate::exec`] as its leaf list; the
//! determinism contract and the two-phase k-NN schedule are documented
//! there.
//!
//! # Shard assignment
//!
//! An item's shard is a pure function of its id:
//! [`shard_for`]`(id, N)` = `splitmix64(id) % N`. The hash step keeps the
//! shards balanced under clustered id ranges (per-song contiguous blocks,
//! for instance) while staying reproducible across processes — a persisted
//! database reloads into exactly the shards it was built with, and two
//! builds of the same corpus at the same shard count are identical.

use hum_index::{ItemId, SpatialIndex};

use crate::batch::BatchOptions;
use crate::engine::{
    BatchOutcome, DtwIndexEngine, EngineError, QueryOutcome, QueryRequest, QueryScratch,
};
use crate::exec::{execute, execute_batch, Leaf};
use crate::obs::{Metric, MetricsSink};
use crate::segment::SegmentMeta;
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

/// A corpus partitioned across independent [`DtwIndexEngine`] shards. See
/// the [module docs](self) for the assignment function and
/// [`crate::exec`] for how queries run over the shards.
#[derive(Debug, Clone)]
pub struct ShardedEngine<T, I> {
    shards: Vec<DtwIndexEngine<T, I>>,
    metrics: MetricsSink,
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
        ShardedEngine { shards, metrics: MetricsSink::Disabled }
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

    /// The shards as executor leaves, in fixed shard order, each tagged
    /// with `meta` — the pruning metadata of the storage unit this engine
    /// backs (`None` outside a store, and for a memtable).
    pub fn leaves<'a>(
        &'a self,
        meta: Option<&'a SegmentMeta>,
    ) -> impl Iterator<Item = Leaf<'a, T, I>> {
        self.shards.iter().map(move |engine| Leaf { engine, meta })
    }

    /// Executes a request over the shards. Matches and errors are
    /// identical to [`DtwIndexEngine::try_query`] on one engine holding the
    /// same corpus; see [`crate::exec`] for what the counters mean at
    /// `N > 1`.
    ///
    /// # Errors
    /// As [`execute`].
    pub fn try_query(&self, request: &QueryRequest) -> Result<QueryOutcome, EngineError> {
        self.try_query_with(request, &mut QueryScratch::new())
    }

    /// [`ShardedEngine::try_query`] computing in caller-provided scratch.
    /// The shards fan out across up to [`BatchOptions::default`]'s thread
    /// count (worker threads use their own scratch; results and counters
    /// are identical at every width).
    ///
    /// # Errors
    /// As [`execute`].
    pub fn try_query_with(
        &self,
        request: &QueryRequest,
        scratch: &mut QueryScratch,
    ) -> Result<QueryOutcome, EngineError> {
        let leaves: Vec<_> = self.leaves(None).collect();
        execute(&leaves, request, scratch, BatchOptions::default().threads, &self.metrics)
    }

    /// Panicking form of [`ShardedEngine::try_query`].
    ///
    /// # Panics
    /// Panics on any [`EngineError`] the `try_` form would return.
    pub fn query(&self, request: &QueryRequest) -> QueryOutcome {
        self.try_query(request).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes a batch of requests across [`BatchOptions::threads`]
    /// workers, each request walking the shards sequentially on its worker.
    ///
    /// # Errors
    /// As [`execute_batch`].
    pub fn try_query_batch(
        &self,
        requests: &[QueryRequest],
        options: &BatchOptions,
    ) -> Result<BatchOutcome, EngineError> {
        let leaves: Vec<_> = self.leaves(None).collect();
        execute_batch(&leaves, requests, options, &self.metrics)
    }
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
}
