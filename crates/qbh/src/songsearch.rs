//! Whole-song subsequence search.
//!
//! The phrase-segmented system ([`crate::system::QbhSystem`]) implements the
//! paper's chosen design ("we use whole sequence matching" over pre-segmented
//! phrases). This module implements the alternative the paper describes
//! first — match the hum against *every position of every full song* — by
//! concatenating each song's phrases into one long time series and indexing
//! its sliding windows with [`hum_core::subsequence::SubsequenceIndex`].
//!
//! Useful when the hummed fragment does not respect phrase boundaries
//! (users who start mid-verse), at the cost the paper predicts: many more
//! indexed windows than melodies.

use hum_core::batch::BatchOptions;
use hum_core::dtw::band_for_warping_width;
use hum_core::engine::{EngineError, EngineStats};
use hum_core::normal::NormalForm;
use hum_core::shard::shard_for;
use hum_core::subsequence::{SubsequenceConfig, SubsequenceIndex, SubsequenceResult};
use hum_core::transform::paa::NewPaa;
use hum_index::RStarTree;
use hum_music::{Song, Songbook};

/// Song-search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SongSearchConfig {
    /// Samples per beat when rendering songs to time series.
    pub samples_per_beat: usize,
    /// Window length in samples (≈ the length of a hummed fragment).
    pub window: usize,
    /// Hop between windows in samples.
    pub hop: usize,
    /// Normal-form length (and transform input length).
    pub normal_length: usize,
    /// Reduced feature dimensions.
    pub feature_dims: usize,
    /// Default warping width for queries.
    pub warping_width: f64,
    /// Number of song shards for scatter-gather serving (1 = monolithic).
    /// Songs route by [`shard_for`]`(song_idx, shards)`; each song's windows
    /// live wholly in its home shard, so the per-shard best-per-song
    /// distances are exact and the merged top-`k` is bit-identical to the
    /// monolithic index (stats vary with the shard count, as in
    /// [`hum_core::shard`]).
    pub shards: usize,
}

impl Default for SongSearchConfig {
    fn default() -> Self {
        SongSearchConfig {
            samples_per_beat: 4,
            window: 96,
            hop: 16,
            normal_length: 128,
            feature_dims: 8,
            warping_width: 0.1,
            shards: 1,
        }
    }
}

/// One song-level hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SongMatch {
    /// Index of the song in the songbook.
    pub song: usize,
    /// Window start offset within the song's time series, in samples.
    pub offset: usize,
    /// Offset expressed in beats.
    pub offset_beats: f64,
    /// Band-constrained DTW distance of the best window.
    pub distance: f64,
}

/// Results of a song search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SongSearchResults {
    /// Hits, best first, at most one per song.
    pub matches: Vec<SongMatch>,
    /// Engine counters.
    pub stats: EngineStats,
}

/// Subsequence search over whole songs, hash-partitioned across independent
/// [`SubsequenceIndex`] shards (one shard by default).
pub struct SongSearch {
    shards: Vec<SubsequenceIndex<NewPaa, RStarTree>>,
    config: SongSearchConfig,
    band: usize,
    songs: usize,
}

impl SongSearch {
    /// Builds the search structure over a songbook.
    ///
    /// # Panics
    /// Panics on an empty songbook or degenerate configuration.
    pub fn build(book: &Songbook, config: &SongSearchConfig) -> Self {
        assert!(!book.songs.is_empty(), "empty songbook");
        let shard_count = config.shards.max(1);
        let mut shards: Vec<SubsequenceIndex<NewPaa, RStarTree>> = (0..shard_count)
            .map(|_| {
                SubsequenceIndex::new(
                    NewPaa::new(config.normal_length, config.feature_dims),
                    RStarTree::new(config.feature_dims),
                    SubsequenceConfig {
                        window: config.window,
                        hop: config.hop,
                        normal: NormalForm::with_length(config.normal_length),
                    },
                )
            })
            .collect();
        for (song_idx, song) in book.songs.iter().enumerate() {
            let mut series = Vec::new();
            for phrase in &song.phrases {
                series.extend(phrase.to_time_series(config.samples_per_beat));
            }
            shards[shard_for(song_idx as u64, shard_count)]
                .insert_source(song_idx as u64, &series);
        }
        SongSearch {
            shards,
            config: *config,
            band: band_for_warping_width(config.warping_width, config.normal_length),
            songs: book.songs.len(),
        }
    }

    /// The shard that does / would hold `song_idx`'s windows.
    fn home(&self, song_idx: usize) -> usize {
        shard_for(song_idx as u64, self.shards.len())
    }

    /// Live insert: renders a song (its phrases concatenated in order) to
    /// one time series and indexes its sliding windows under `song_idx`.
    /// On error nothing changes.
    ///
    /// # Errors
    /// [`EngineError::DuplicateId`] when `song_idx` is already indexed,
    /// [`EngineError::EmptyQuery`] for a song with no renderable samples,
    /// and [`EngineError::NonFiniteSample`] for NaN/infinite samples.
    pub fn try_insert_song(&mut self, song_idx: usize, song: &Song) -> Result<(), EngineError> {
        let mut series = Vec::new();
        for phrase in &song.phrases {
            series.extend(phrase.to_time_series(self.config.samples_per_beat));
        }
        // A song index always hashes to the same shard, so the per-shard
        // duplicate check is a global one.
        let home = self.home(song_idx);
        self.shards[home].try_insert_source(song_idx as u64, &series)?;
        self.songs += 1;
        Ok(())
    }

    /// Live removal: drops every window of `song_idx` from its home shard.
    /// Returns `true` if the song was indexed.
    pub fn remove_song(&mut self, song_idx: usize) -> bool {
        let home = self.home(song_idx);
        let removed = self.shards[home].remove_source(song_idx as u64);
        if removed {
            self.songs -= 1;
        }
        removed
    }

    /// Number of indexed songs.
    pub fn song_count(&self) -> usize {
        self.songs
    }

    /// Number of song shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of indexed windows across all shards (the cost the paper
    /// warns about).
    pub fn window_count(&self) -> usize {
        self.shards.iter().map(SubsequenceIndex::window_count).sum()
    }

    /// Finds the `k` most likely songs for a hummed pitch series, with the
    /// best-matching position inside each. Every shard reports its own
    /// top-`k` songs (each song's windows live wholly in one shard, so the
    /// per-song best window and distance are exact); the `k` best of the
    /// union are exactly the monolithic top-`k`.
    pub fn query(&self, pitch_series: &[f64], k: usize) -> SongSearchResults {
        if self.shards.len() == 1 {
            return self.annotate(self.shards[0].knn(pitch_series, self.band, k, true));
        }
        let runs: Vec<SubsequenceResult> = self
            .shards
            .iter()
            .map(|shard| shard.knn(pitch_series, self.band, k, true))
            .collect();
        self.annotate(merge_song_results(runs, k))
    }

    /// Batched [`SongSearch::query`]: one result per hummed series, in
    /// submission order, fanned out across [`BatchOptions::threads`] worker
    /// threads. Bit-identical to sequential queries for every thread count
    /// (each shard's batch is deterministic, and the per-query merge across
    /// shards is order-fixed).
    pub fn query_batch(
        &self,
        pitch_series: &[Vec<f64>],
        k: usize,
        options: &BatchOptions,
    ) -> Vec<SongSearchResults> {
        if self.shards.len() == 1 {
            return self.shards[0]
                .knn_batch(pitch_series, self.band, k, true, options)
                .into_iter()
                .map(|r| self.annotate(r))
                .collect();
        }
        let mut per_shard: Vec<std::vec::IntoIter<SubsequenceResult>> = self
            .shards
            .iter()
            .map(|shard| shard.knn_batch(pitch_series, self.band, k, true, options).into_iter())
            .collect();
        // Transpose: `knn_batch` yields one result per query per shard, so
        // taking the next result from every shard's iterator reassembles
        // one query's per-shard runs.
        (0..pitch_series.len())
            .map(|_| {
                let runs: Vec<SubsequenceResult> =
                    per_shard.iter_mut().filter_map(Iterator::next).collect();
                self.annotate(merge_song_results(runs, k))
            })
            .collect()
    }

    fn annotate(&self, result: hum_core::subsequence::SubsequenceResult) -> SongSearchResults {
        let matches = result
            .matches
            .into_iter()
            .map(|m| SongMatch {
                song: m.source as usize,
                offset: m.offset,
                offset_beats: m.offset as f64 / self.config.samples_per_beat as f64,
                distance: m.distance,
            })
            .collect();
        SongSearchResults { matches, stats: result.stats }
    }
}

/// Gathers per-shard song k-NN results: counters absorb in fixed shard
/// order; matches sort by `(distance, source)` — the same total order the
/// per-shard lists use, and song indices are unique across shards — then
/// truncate to the global top-`k`.
fn merge_song_results(runs: Vec<SubsequenceResult>, k: usize) -> SubsequenceResult {
    let mut stats = EngineStats::default();
    let mut matches = Vec::new();
    for run in runs {
        stats.absorb(&run.stats);
        matches.extend(run.matches);
    }
    matches.sort_by(|a, b| {
        a.distance.total_cmp(&b.distance).then_with(|| a.source.cmp(&b.source))
    });
    matches.truncate(k);
    stats.matches = matches.len() as u64;
    SubsequenceResult { matches, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};

    fn book() -> Songbook {
        Songbook::generate(&SongbookConfig {
            songs: 8,
            phrases_per_song: 6,
            ..SongbookConfig::default()
        })
    }

    #[test]
    fn hum_of_a_mid_song_phrase_finds_the_song() {
        let book = book();
        let search = SongSearch::build(&book, &SongSearchConfig::default());
        assert_eq!(search.song_count(), 8);
        assert!(search.window_count() > 8 * 6, "windows should outnumber phrases");

        let mut hits = 0;
        for (i, (song_idx, phrase_idx)) in
            [(2usize, 3usize), (5, 1), (7, 4), (0, 0)].iter().enumerate()
        {
            let phrase = &book.songs[*song_idx].phrases[*phrase_idx];
            let mut singer = HummingSimulator::new(SingerProfile::good(), 50 + i as u64);
            let hum = singer.sing_series(phrase, 0.01);
            let results = search.query(&hum, 3);
            if results.matches.iter().any(|m| m.song == *song_idx) {
                hits += 1;
            }
        }
        assert!(hits >= 3, "only {hits}/4 mid-song hums located their song");
    }

    #[test]
    fn exact_window_reports_sensible_offset() {
        let book = book();
        let config = SongSearchConfig::default();
        let search = SongSearch::build(&book, &config);
        // Rebuild song 3's series and query with an exact interior window.
        let mut series = Vec::new();
        for phrase in &book.songs[3].phrases {
            series.extend(phrase.to_time_series(config.samples_per_beat));
        }
        let start = 160;
        let window = &series[start..start + config.window];
        let results = search.query(window, 1);
        let top = &results.matches[0];
        assert_eq!(top.song, 3);
        // The hop quantizes offsets; the best window starts within one hop.
        assert!(
            top.offset.abs_diff(start) <= config.hop,
            "offset {} vs planted {}",
            top.offset,
            start
        );
        assert_eq!(top.offset_beats, top.offset as f64 / 4.0);
    }

    #[test]
    fn batched_song_queries_match_sequential() {
        let book = book();
        let search = SongSearch::build(&book, &SongSearchConfig::default());
        let hums: Vec<Vec<f64>> = (0..4)
            .map(|i| {
                let phrase = &book.songs[i % book.songs.len()].phrases[1];
                HummingSimulator::new(SingerProfile::good(), 70 + i as u64)
                    .sing_series(phrase, 0.01)
            })
            .collect();
        let expected: Vec<SongSearchResults> =
            hums.iter().map(|h| search.query(h, 3)).collect();
        for threads in [1, 2, 8] {
            let got = search.query_batch(&hums, 3, &BatchOptions::new(threads, 2));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn live_song_insert_and_removal_round_trip() {
        let full = book();
        let config = SongSearchConfig::default();
        // Build over the first 7 songs, then live-insert the 8th.
        let partial = Songbook { songs: full.songs[..7].to_vec() };
        let mut search = SongSearch::build(&partial, &config);
        assert_eq!(search.song_count(), 7);

        search.try_insert_song(7, &full.songs[7]).unwrap();
        assert_eq!(search.song_count(), 8);
        assert_eq!(
            search.try_insert_song(7, &full.songs[7]).unwrap_err(),
            EngineError::DuplicateId(7)
        );

        // Query with an exact interior window of the inserted song: it must
        // match its own window at (near-)zero distance.
        let mut series = Vec::new();
        for phrase in &full.songs[7].phrases {
            series.extend(phrase.to_time_series(config.samples_per_beat));
        }
        let window = &series[64..64 + config.window];
        let top = &search.query(window, 1).matches[0];
        assert_eq!(top.song, 7, "live-inserted song must be findable");
        assert!(top.distance < 1e-9);

        assert!(search.remove_song(7));
        assert!(!search.remove_song(7));
        assert_eq!(search.song_count(), 7);
        assert!(
            search.query(window, 8).matches.iter().all(|m| m.song != 7),
            "removed song must not appear in results"
        );
    }

    #[test]
    fn sharded_song_search_matches_monolithic() {
        let book = book();
        let mono = SongSearch::build(&book, &SongSearchConfig::default());
        let hums: Vec<Vec<f64>> = (0..4)
            .map(|i| {
                let phrase = &book.songs[(i * 2) % book.songs.len()].phrases[i % 6];
                HummingSimulator::new(SingerProfile::good(), 300 + i as u64)
                    .sing_series(phrase, 0.01)
            })
            .collect();
        for shards in [2usize, 3, 8] {
            let config = SongSearchConfig { shards, ..SongSearchConfig::default() };
            let search = SongSearch::build(&book, &config);
            assert_eq!(search.shard_count(), shards);
            assert_eq!(search.window_count(), mono.window_count());
            for hum in &hums {
                assert_eq!(
                    search.query(hum, 3).matches,
                    mono.query(hum, 3).matches,
                    "shards={shards}"
                );
            }
            // The batched form merges per query, identically to sequential
            // queries, at every thread count.
            let expected: Vec<SongSearchResults> =
                hums.iter().map(|h| search.query(h, 3)).collect();
            for threads in [1, 4] {
                let got = search.query_batch(&hums, 3, &BatchOptions::new(threads, 2));
                assert_eq!(got, expected, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn results_are_deduped_per_song() {
        let book = book();
        let search = SongSearch::build(&book, &SongSearchConfig::default());
        let phrase = &book.songs[1].phrases[2];
        let hum =
            HummingSimulator::new(SingerProfile::good(), 9).sing_series(phrase, 0.01);
        let results = search.query(&hum, 5);
        let mut songs: Vec<usize> = results.matches.iter().map(|m| m.song).collect();
        let before = songs.len();
        songs.dedup();
        assert_eq!(songs.len(), before, "every hit must be a distinct song");
    }
}
