//! Subsequence matching (paper §3.2, method 1).
//!
//! The paper's system segments songs into phrases and runs *whole-sequence*
//! matching because "most people will hum melodic sections". The alternative
//! it cites — match the hum against every position of every full melody — is
//! implemented here on top of the same engine: each source series is sliced
//! into overlapping sliding windows, every window is brought to the engine's
//! normal form and indexed, and hits are mapped back to `(source, offset)`.
//! As the paper warns, "subsequence queries are generally slower than whole
//! sequence queries because the size of the potential candidate sequences is
//! much larger" — the window/hop trade-off below is exactly that cost.

use std::collections::HashMap;

use hum_index::{ItemId, SpatialIndex};

use crate::batch::{parallel_map_chunked, BatchOptions};
use crate::engine::{DtwIndexEngine, EngineConfig, EngineError, EngineStats, QueryRequest};
use crate::normal::NormalForm;
use crate::transform::EnvelopeTransform;

/// Subsequence indexing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsequenceConfig {
    /// Window length in source samples.
    pub window: usize,
    /// Hop between consecutive windows in source samples. Smaller hops find
    /// matches at finer offsets at the cost of more indexed windows.
    pub hop: usize,
    /// Normal form applied to every window and query (its `length` is the
    /// engine's series length; windows are resampled to it).
    pub normal: NormalForm,
}

impl Default for SubsequenceConfig {
    fn default() -> Self {
        SubsequenceConfig { window: 64, hop: 16, normal: NormalForm::with_length(128) }
    }
}

/// One subsequence hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsequenceMatch {
    /// Source series identifier.
    pub source: ItemId,
    /// Window start offset in source samples.
    pub offset: usize,
    /// Band-constrained DTW distance between the normal forms.
    pub distance: f64,
}

/// Result of a subsequence query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubsequenceResult {
    /// Hits sorted by ascending distance.
    pub matches: Vec<SubsequenceMatch>,
    /// Engine counters.
    pub stats: EngineStats,
}

/// A sliding-window subsequence index over long series.
pub struct SubsequenceIndex<T, I> {
    engine: DtwIndexEngine<T, I>,
    config: SubsequenceConfig,
    /// window id → (source, offset). Keyed (not a Vec indexed by window id)
    /// because removing a source leaves id holes.
    windows: HashMap<ItemId, (ItemId, usize)>,
    /// source → its window ids, so a source can be removed as a unit.
    source_windows: HashMap<ItemId, Vec<ItemId>>,
    /// Next window id; never reused after removal.
    next_wid: ItemId,
}

impl<T: EnvelopeTransform, I: SpatialIndex> SubsequenceIndex<T, I> {
    /// Creates an empty subsequence index.
    ///
    /// # Panics
    /// Panics on a zero window/hop, or if the transform's input length
    /// differs from the normal-form length.
    pub fn new(transform: T, index: I, config: SubsequenceConfig) -> Self {
        assert!(config.window > 0, "window must be positive");
        assert!(config.hop > 0, "hop must be positive");
        assert_eq!(
            transform.input_len(),
            config.normal.length,
            "transform input length must equal the normal-form length"
        );
        SubsequenceIndex {
            engine: DtwIndexEngine::new(transform, index, EngineConfig::default()),
            config,
            windows: HashMap::new(),
            source_windows: HashMap::new(),
            next_wid: 0,
        }
    }

    /// Number of indexed windows.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// The configuration in use.
    pub fn config(&self) -> &SubsequenceConfig {
        &self.config
    }

    /// Indexes every window of a source series. Sources shorter than one
    /// window contribute a single (whole-series) window.
    ///
    /// # Panics
    /// Panics on any [`EngineError`] the `try_` form would return.
    pub fn insert_source(&mut self, source: ItemId, series: &[f64]) {
        self.try_insert_source(source, series).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`SubsequenceIndex::insert_source`]: validates the whole
    /// series up front, so on error nothing was indexed.
    ///
    /// # Errors
    /// [`EngineError::EmptyQuery`] on an empty series,
    /// [`EngineError::NonFiniteSample`] on NaN/infinite samples, and
    /// [`EngineError::DuplicateId`] when `source` is already indexed
    /// (remove it first to replace it).
    pub fn try_insert_source(
        &mut self,
        source: ItemId,
        series: &[f64],
    ) -> Result<(), EngineError> {
        if series.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        crate::engine::check_finite(series, "source series")?;
        if self.source_windows.contains_key(&source) {
            return Err(EngineError::DuplicateId(source));
        }
        let window = self.config.window.min(series.len());
        let mut wids = Vec::new();
        let mut offset = 0;
        loop {
            let slice = &series[offset..(offset + window).min(series.len())];
            let wid = self.next_wid;
            self.next_wid += 1;
            self.windows.insert(wid, (source, offset));
            wids.push(wid);
            // Cannot fail: the slice is validated above and `wid` is fresh.
            self.engine.insert(wid, self.config.normal.apply(slice));
            if offset + window >= series.len() {
                break;
            }
            offset += self.config.hop;
            // Final partial window snaps to the series end so the tail is
            // always covered exactly once.
            if offset + window > series.len() {
                offset = series.len() - window;
            }
        }
        self.source_windows.insert(source, wids);
        Ok(())
    }

    /// Removes every window of `source` from the engine and the index.
    /// Returns `true` if the source was present.
    pub fn remove_source(&mut self, source: ItemId) -> bool {
        let Some(wids) = self.source_windows.remove(&source) else {
            return false;
        };
        for wid in wids {
            self.windows.remove(&wid);
            let removed = self.engine.remove(wid);
            debug_assert!(removed, "window table and engine must stay in lockstep");
        }
        true
    }

    /// All windows whose band-`k` DTW distance to the query's normal form is
    /// at most `radius`.
    pub fn range_query(&self, query: &[f64], band: usize, radius: f64) -> SubsequenceResult {
        let normal_query = self.config.normal.apply(query);
        let request = QueryRequest::range(radius).with_series(normal_query).with_band(band);
        self.annotate(self.engine.query(&request).result)
    }

    /// The `k` nearest windows. With `dedupe_sources`, only the best window
    /// per source is kept (so `k` distinct sources are returned when
    /// available).
    pub fn knn(
        &self,
        query: &[f64],
        band: usize,
        k: usize,
        dedupe_sources: bool,
    ) -> SubsequenceResult {
        // The query's normal form is the same on every iteration — compute
        // it once, outside the over-fetch loop.
        let normal_query = self.config.normal.apply(query);
        if !dedupe_sources {
            let request = QueryRequest::knn(k).with_series(normal_query).with_band(band);
            return self.annotate(self.engine.query(&request).result);
        }
        // Over-fetch, keep the best hit per source, refill until k sources
        // or the index is exhausted.
        let mut fetch = k.max(1) * 4;
        loop {
            let request =
                QueryRequest::knn(fetch).with_series(normal_query.clone()).with_band(band);
            let result = self.engine.query(&request).result;
            let fetched = result.matches.len();
            let mut annotated = self.annotate(result);
            let mut best: HashMap<ItemId, SubsequenceMatch> = HashMap::new();
            for m in annotated.matches.drain(..) {
                best.entry(m.source)
                    .and_modify(|cur| {
                        if m.distance < cur.distance {
                            *cur = m;
                        }
                    })
                    .or_insert(m);
            }
            let mut matches: Vec<SubsequenceMatch> = best.into_values().collect();
            matches.sort_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .expect("finite distances")
                    .then(a.source.cmp(&b.source))
            });
            // Terminate once k sources are covered, every window has been
            // fetched, or the engine returned fewer matches than requested —
            // in that last case the index is exhausted (no larger fetch can
            // return more), so growing `fetch` again would spin forever.
            if matches.len() >= k || fetched >= self.windows.len() || fetched < fetch {
                matches.truncate(k);
                annotated.matches = matches;
                return annotated;
            }
            fetch = (fetch * 2).min(self.windows.len());
        }
    }

    /// Batched [`SubsequenceIndex::knn`]: one result per query, in query
    /// order, computed across [`BatchOptions::threads`] workers with
    /// bit-identical, thread-count-invariant results.
    pub fn knn_batch(
        &self,
        queries: &[Vec<f64>],
        band: usize,
        k: usize,
        dedupe_sources: bool,
        options: &BatchOptions,
    ) -> Vec<SubsequenceResult> {
        parallel_map_chunked(queries, options, || (), |(), _i, q| {
            self.knn(q, band, k, dedupe_sources)
        })
    }

    /// Batched [`SubsequenceIndex::range_query`]: one result per query, in
    /// query order, with bit-identical, thread-count-invariant results.
    pub fn range_query_batch(
        &self,
        queries: &[Vec<f64>],
        band: usize,
        radius: f64,
        options: &BatchOptions,
    ) -> Vec<SubsequenceResult> {
        parallel_map_chunked(queries, options, || (), |(), _i, q| {
            self.range_query(q, band, radius)
        })
    }

    fn annotate(&self, result: crate::engine::QueryResult) -> SubsequenceResult {
        let matches = result
            .matches
            .into_iter()
            .map(|(wid, distance)| {
                let (source, offset) =
                    *self.windows.get(&wid).expect("hit maps to an indexed window");
                SubsequenceMatch { source, offset, distance }
            })
            .collect();
        SubsequenceResult { matches, stats: result.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::paa::NewPaa;
    use hum_index::RStarTree;

    fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(442695);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(442695);
                ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0
            })
            .collect()
    }

    fn motif(len: usize) -> Vec<f64> {
        (0..len).map(|i| 10.0 * (i as f64 * 0.3).sin() + (i / 8) as f64).collect()
    }

    fn build() -> (SubsequenceIndex<NewPaa, RStarTree>, usize) {
        let config = SubsequenceConfig {
            window: 64,
            hop: 8,
            normal: NormalForm::with_length(64),
        };
        let mut index =
            SubsequenceIndex::new(NewPaa::new(64, 8), RStarTree::new(8), config);
        // Source 0: noise with the motif planted at offset 96.
        let plant_at = 96;
        let mut source0 = noise(256, 1);
        source0.splice(plant_at..plant_at + 64, motif(64));
        index.insert_source(0, &source0);
        // Sources 1..4: pure noise.
        for s in 1..4u64 {
            index.insert_source(s, &noise(256, s * 11 + 5));
        }
        (index, plant_at)
    }

    #[test]
    fn planted_motif_is_found_at_the_right_offset() {
        let (index, plant_at) = build();
        let result = index.knn(&motif(64), 2, 1, false);
        let top = result.matches[0];
        assert_eq!(top.source, 0);
        assert_eq!(top.offset, plant_at);
        assert!(top.distance < 1e-9, "exact window should match exactly");
    }

    #[test]
    fn motif_found_despite_tempo_change() {
        // The same motif hummed at half tempo (twice the samples): UTW
        // normal form cancels the stretch.
        let (index, plant_at) = build();
        let slow: Vec<f64> = motif(64).iter().flat_map(|&v| [v, v]).collect();
        let result = index.knn(&slow, 2, 1, false);
        assert_eq!(result.matches[0].source, 0);
        assert_eq!(result.matches[0].offset, plant_at);
    }

    #[test]
    fn dedupe_returns_distinct_sources() {
        let (index, _) = build();
        let result = index.knn(&motif(64), 2, 3, true);
        assert_eq!(result.matches.len(), 3);
        let mut sources: Vec<u64> = result.matches.iter().map(|m| m.source).collect();
        sources.dedup();
        assert_eq!(sources.len(), 3, "sources must be distinct");
        assert_eq!(result.matches[0].source, 0);
    }

    #[test]
    fn window_count_and_tail_coverage() {
        let config = SubsequenceConfig {
            window: 64,
            hop: 32,
            normal: NormalForm::with_length(64),
        };
        let mut index =
            SubsequenceIndex::new(NewPaa::new(64, 8), RStarTree::new(8), config);
        index.insert_source(0, &noise(100, 3));
        // Offsets: 0, 32, then snapped tail 36.
        assert_eq!(index.window_count(), 3);
        let mut offsets: Vec<usize> = index.windows.values().map(|w| w.1).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, vec![0, 32, 36]);
    }

    #[test]
    fn short_sources_become_one_window() {
        let config = SubsequenceConfig {
            window: 64,
            hop: 16,
            normal: NormalForm::with_length(64),
        };
        let mut index =
            SubsequenceIndex::new(NewPaa::new(64, 8), RStarTree::new(8), config);
        index.insert_source(9, &noise(20, 4));
        assert_eq!(index.window_count(), 1);
        let result = index.knn(&noise(20, 4), 1, 1, false);
        assert_eq!(result.matches[0].source, 9);
        assert!(result.matches[0].distance < 1e-9);
    }

    #[test]
    fn range_query_maps_windows_back() {
        let (index, plant_at) = build();
        let result = index.range_query(&motif(64), 2, 1.0);
        assert!(!result.matches.is_empty());
        assert!(result
            .matches
            .iter()
            .any(|m| m.source == 0 && m.offset == plant_at));
    }

    #[test]
    fn dedupe_with_k_beyond_sources_terminates_with_all_sources() {
        // Only 4 distinct sources exist; asking for 10 must return the 4
        // and terminate (the over-fetch loop's exhaustion guard).
        let (index, _) = build();
        let result = index.knn(&motif(64), 2, 10, true);
        assert_eq!(result.matches.len(), 4);
        let mut sources: Vec<u64> = result.matches.iter().map(|m| m.source).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), 4);
    }

    #[test]
    fn batched_queries_match_single_queries_for_every_thread_count() {
        let (index, _) = build();
        let queries: Vec<Vec<f64>> =
            (0..5).map(|s| noise(80, 100 + s)).chain([motif(64)]).collect();
        let expected_knn: Vec<SubsequenceResult> =
            queries.iter().map(|q| index.knn(q, 2, 2, true)).collect();
        let expected_range: Vec<SubsequenceResult> =
            queries.iter().map(|q| index.range_query(q, 2, 4.0)).collect();
        for threads in [1, 2, 8] {
            let options = BatchOptions::new(threads, 2);
            assert_eq!(index.knn_batch(&queries, 2, 2, true, &options), expected_knn);
            assert_eq!(
                index.range_query_batch(&queries, 2, 4.0, &options),
                expected_range,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn removed_source_is_unfindable_and_reinsertable() {
        let (mut index, plant_at) = build();
        let before = index.window_count();
        assert!(index.remove_source(0));
        assert!(!index.remove_source(0), "second removal finds nothing");
        assert!(index.window_count() < before);

        let result = index.knn(&motif(64), 2, 4, true);
        assert!(
            result.matches.iter().all(|m| m.source != 0),
            "removed source must not appear in results"
        );

        // Re-inserting under the same source id works after removal, and
        // the motif is found at its offset again.
        let mut source0 = noise(256, 1);
        source0.splice(plant_at..plant_at + 64, motif(64));
        index.try_insert_source(0, &source0).unwrap();
        assert_eq!(index.window_count(), before);
        let top = index.knn(&motif(64), 2, 1, false).matches[0];
        assert_eq!((top.source, top.offset), (0, plant_at));
    }

    #[test]
    fn insert_source_rejects_duplicates_and_bad_input() {
        let (mut index, _) = build();
        assert_eq!(
            index.try_insert_source(0, &noise(64, 9)).unwrap_err(),
            EngineError::DuplicateId(0)
        );
        assert_eq!(index.try_insert_source(50, &[]).unwrap_err(), EngineError::EmptyQuery);
        let mut bad = noise(100, 9);
        bad[5] = f64::INFINITY;
        let before = index.window_count();
        match index.try_insert_source(50, &bad) {
            Err(EngineError::NonFiniteSample { index: i, .. }) => assert_eq!(i, 5),
            other => panic!("expected NonFiniteSample, got {other:?}"),
        }
        assert_eq!(index.window_count(), before, "failed insert indexes nothing");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let config = SubsequenceConfig {
            window: 0,
            hop: 1,
            normal: NormalForm::with_length(64),
        };
        let _ = SubsequenceIndex::new(NewPaa::new(64, 8), RStarTree::new(8), config);
    }
}
