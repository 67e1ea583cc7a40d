//! The paper's retrieval-quality protocol (Tables 2 and 3).
//!
//! Quality is reported as *rank bins*: for each hum query, where did the
//! intended target melody land in the ranked results? The paper's bins are
//! 1, 2–3, 4–5, 6–10 and "10-" (below the top ten / not retrieved).
//!
//! [`generate_hums`] produces paired hum queries so that the time-series
//! approach and the contour approach are evaluated on *identical* input —
//! the comparison Table 2 makes.

use hum_core::engine::{EngineError, QueryRequest};
use hum_music::contour::{ContourAlphabet, ContourIndex, SegmenterConfig};
use hum_music::{HummingSimulator, SingerProfile};

use crate::corpus::MelodyDatabase;
use crate::system::QbhSystem;

/// Rank-bin histogram with the paper's bucket boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankBins {
    /// Rank 1.
    pub top1: usize,
    /// Ranks 2–3.
    pub r2_3: usize,
    /// Ranks 4–5.
    pub r4_5: usize,
    /// Ranks 6–10.
    pub r6_10: usize,
    /// Rank 11+ or not retrieved.
    pub beyond10: usize,
}

impl RankBins {
    /// Records one query's rank (`None` = not retrieved).
    pub fn record(&mut self, rank: Option<usize>) {
        match rank {
            Some(1) => self.top1 += 1,
            Some(2..=3) => self.r2_3 += 1,
            Some(4..=5) => self.r4_5 += 1,
            Some(6..=10) => self.r6_10 += 1,
            _ => self.beyond10 += 1,
        }
    }

    /// Total queries recorded.
    pub fn total(&self) -> usize {
        self.top1 + self.r2_3 + self.r4_5 + self.r6_10 + self.beyond10
    }

    /// Queries landing in the top ten.
    pub fn within_top10(&self) -> usize {
        self.total() - self.beyond10
    }

    /// The five counts in table order (1, 2–3, 4–5, 6–10, 10-).
    pub fn as_row(&self) -> [usize; 5] {
        [self.top1, self.r2_3, self.r4_5, self.r6_10, self.beyond10]
    }
}

impl std::fmt::Display for RankBins {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "1: {}  2-3: {}  4-5: {}  6-10: {}  10-: {}",
            self.top1, self.r2_3, self.r4_5, self.r6_10, self.beyond10
        )
    }
}

/// Runs hum queries through a system at DTW band `band` and returns
/// per-query target ranks (searching the top `depth` results; deeper
/// targets count as `None`).
///
/// # Errors
/// The first [`EngineError`] a hum's k-NN request is rejected with (an empty
/// or non-finite series, a band at least the normal length).
pub fn target_ranks(
    system: &QbhSystem,
    hums: &[HumQuery],
    band: usize,
    depth: usize,
) -> Result<Vec<Option<usize>>, EngineError> {
    hums.iter()
        .map(|hum| {
            let request = QueryRequest::knn(depth).with_band(band);
            let (results, _) = system.try_query_request(&hum.series, request)?;
            Ok(results.matches.iter().position(|m| m.id == hum.target).map(|p| p + 1))
        })
        .collect()
}

/// One hum query: the intended target and the hummed pitch series.
#[derive(Debug, Clone)]
pub struct HumQuery {
    /// Intended database melody.
    pub target: u64,
    /// The hummed pitch series (10 ms frames).
    pub series: Vec<f64>,
}

/// Generates `count` hum queries from a singer profile, with targets spread
/// deterministically across the database. The same `(profile, seed)` always
/// hums the same queries, so competing rankers can be compared pairwise.
pub fn generate_hums(
    db: &MelodyDatabase,
    profile: SingerProfile,
    count: usize,
    seed: u64,
) -> Vec<HumQuery> {
    assert!(!db.is_empty(), "cannot hum from an empty database");
    (0..count)
        .map(|i| {
            // Golden-ratio stride spreads targets across songs.
            let target = ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seed) % db.len() as u64;
            let mut singer = HummingSimulator::new(profile, seed.wrapping_add(i as u64 * 7919));
            let series = singer.sing_series(db.entry(target).expect("in range").melody(), 0.01);
            HumQuery { target, series }
        })
        .collect()
}

/// Generates hum queries through the *full audio path*: the perturbed notes
/// are synthesized into a waveform (harmonics, vibrato, glides, breath
/// noise) and the pitch series is recovered by the autocorrelation tracker
/// at 10 ms frames — the paper's actual front end (§3.1). Both competing
/// rankers then consume this identical, realistically imperfect series.
pub fn generate_hums_audio(
    db: &MelodyDatabase,
    profile: SingerProfile,
    count: usize,
    seed: u64,
) -> Vec<HumQuery> {
    use hum_audio::{track_pitch, HumNote, HumSynthesizer, PitchTrackerConfig, SynthConfig};
    assert!(!db.is_empty(), "cannot hum from an empty database");
    (0..count)
        .map(|i| {
            let target = ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seed) % db.len() as u64;
            let mut singer = HummingSimulator::new(profile, seed.wrapping_add(i as u64 * 7919));
            let sung = singer.sing_notes(db.entry(target).expect("in range").melody());
            let notes: Vec<HumNote> =
                sung.iter().map(|n| HumNote { midi: n.midi, seconds: n.seconds }).collect();
            let synth = HumSynthesizer::new(SynthConfig {
                seed: seed.wrapping_add(i as u64 * 104729),
                ..SynthConfig::default()
            });
            let audio = synth.render(&notes);
            let series =
                track_pitch(&audio, &PitchTrackerConfig::default()).voiced_series();
            HumQuery { target, series }
        })
        .collect()
}

/// Evaluates the time-series (warping index) approach on hum queries at
/// DTW band `band` (Table 3 varies the warping width; Table 2 runs at
/// [`QbhSystem::band`]).
///
/// # Errors
/// As [`target_ranks`].
pub fn evaluate_timeseries(
    system: &QbhSystem,
    hums: &[HumQuery],
    band: usize,
) -> Result<RankBins, EngineError> {
    let mut bins = RankBins::default();
    for rank in target_ranks(system, hums, band, 10)? {
        bins.record(rank);
    }
    Ok(bins)
}

/// Evaluates the contour baseline on the same hum queries.
pub fn evaluate_contour(
    db: &MelodyDatabase,
    hums: &[HumQuery],
    alphabet: ContourAlphabet,
) -> RankBins {
    let mut index = ContourIndex::new(alphabet, SegmenterConfig::default());
    for entry in db.entries() {
        index.insert(entry.id(), entry.melody());
    }
    let mut bins = RankBins::default();
    for hum in hums {
        bins.record(index.rank_of(&hum.series, hum.target));
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::QbhConfig;
    use hum_music::SongbookConfig;

    fn db() -> MelodyDatabase {
        MelodyDatabase::from_songbook(&SongbookConfig {
            songs: 20,
            phrases_per_song: 5,
            ..SongbookConfig::default()
        })
    }

    #[test]
    fn bins_classify_ranks_correctly() {
        let mut bins = RankBins::default();
        for rank in [1, 2, 3, 4, 5, 6, 10, 11, 50] {
            bins.record(Some(rank));
        }
        bins.record(None);
        assert_eq!(bins.as_row(), [1, 2, 2, 2, 3]);
        assert_eq!(bins.total(), 10);
        assert_eq!(bins.within_top10(), 7);
    }

    #[test]
    fn hum_generation_is_deterministic_and_varied() {
        let db = db();
        let a = generate_hums(&db, SingerProfile::good(), 5, 1);
        let b = generate_hums(&db, SingerProfile::good(), 5, 1);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.target, y.target);
            assert_eq!(x.series, y.series);
        }
        // Targets are not all identical.
        let distinct: std::collections::HashSet<u64> = a.iter().map(|h| h.target).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn good_singers_mostly_hit_the_top_bins() {
        let db = db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        let hums = generate_hums(&db, SingerProfile::good(), 10, 42);
        let bins = evaluate_timeseries(&system, &hums, system.band()).unwrap();
        assert_eq!(bins.total(), 10);
        assert!(
            bins.within_top10() >= 8,
            "good singers should succeed: {bins}"
        );
    }

    #[test]
    fn timeseries_beats_contour_on_shared_audio_hums() {
        // The paper's Table 2 comparison runs on hums that went through the
        // acoustic front end; that is where the contour method's note
        // segmentation degrades.
        let db = db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        let hums = generate_hums_audio(&db, SingerProfile::good(), 12, 7);
        let ts = evaluate_timeseries(&system, &hums, system.band()).unwrap();
        let contour = evaluate_contour(&db, &hums, ContourAlphabet::Five);
        assert!(
            ts.top1 >= contour.top1,
            "time series {ts} should not lose at rank 1 to contour {contour}"
        );
        assert!(
            ts.within_top10() >= contour.within_top10(),
            "time series {ts} vs contour {contour}"
        );
    }

    #[test]
    fn display_formats_all_bins() {
        let mut bins = RankBins::default();
        bins.record(Some(1));
        bins.record(None);
        let s = bins.to_string();
        assert!(s.contains("1: 1") && s.contains("10-: 1"));
    }
}
