//! The contour-matching baseline (paper §2, Table 2).
//!
//! Pre-existing query-by-humming systems transcribe the hum into discrete
//! notes, reduce the notes to a contour string over a small alphabet
//! (U/D/S, optionally refined with u/d), and rank melodies by edit distance.
//! The paper's critique is twofold: contour alone under-discriminates, and —
//! more fundamentally — "no good algorithm is known to segment such a time
//! series of pitches into discrete notes."
//!
//! This module implements the whole baseline: a stability-based note
//! segmenter over the pitch series (accurate on cleanly separated notes,
//! degraded by glides and legato — the documented failure mode), both
//! contour alphabets, Levenshtein edit distance, and an exhaustive ranking
//! index.

use crate::melody::Melody;

/// One segmented note: a representative pitch and its extent in frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoteSegment {
    /// Median pitch of the segment (fractional MIDI).
    pub pitch: f64,
    /// Number of frames the segment spans.
    pub frames: usize,
}

/// Segmentation tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmenterConfig {
    /// A frame further than this (semitones) from the running segment pitch
    /// opens a new segment.
    pub jump_threshold: f64,
    /// Segments shorter than this many frames are discarded as transition
    /// noise (this is where legato glides eat real notes).
    pub min_frames: usize,
}

impl Default for SegmenterConfig {
    fn default() -> Self {
        SegmenterConfig { jump_threshold: 0.7, min_frames: 6 }
    }
}

/// Segments a pitch time series into notes by pitch stability.
///
/// Returns an empty vector for an empty series.
pub fn segment_notes(series: &[f64], config: &SegmenterConfig) -> Vec<NoteSegment> {
    let mut segments = Vec::new();
    let mut current: Vec<f64> = Vec::new();
    let mut running = 0.0f64;

    for &p in series {
        if current.is_empty() {
            current.push(p);
            running = p;
            continue;
        }
        if (p - running).abs() <= config.jump_threshold {
            current.push(p);
            // Exponential tracking keeps the reference stable under drift
            // but lets slow glides smear segments together — realistic.
            running = 0.8 * running + 0.2 * p;
        } else {
            flush(&mut segments, &mut current, config);
            current.push(p);
            running = p;
        }
    }
    flush(&mut segments, &mut current, config);
    segments
}

fn flush(segments: &mut Vec<NoteSegment>, current: &mut Vec<f64>, config: &SegmenterConfig) {
    if current.len() >= config.min_frames {
        let mut sorted = current.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite pitches"));
        segments.push(NoteSegment { pitch: sorted[sorted.len() / 2], frames: current.len() });
    }
    current.clear();
}

/// Contour alphabet granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContourAlphabet {
    /// U / D / S.
    Three,
    /// U / u / S / d / D — "u" and "d" are small moves, "U" and "D" large.
    Five,
}

/// Converts successive pitch differences to contour letters.
pub fn contour_from_pitches(pitches: &[f64], alphabet: ContourAlphabet) -> Vec<u8> {
    pitches
        .windows(2)
        .map(|w| letter(w[1] - w[0], alphabet))
        .collect()
}

/// Contour of a symbolic melody (exact, no segmentation involved) — how the
/// database side is encoded.
pub fn melody_contour(melody: &Melody, alphabet: ContourAlphabet) -> Vec<u8> {
    let pitches: Vec<f64> = melody.notes().iter().map(|n| n.pitch as f64).collect();
    contour_from_pitches(&pitches, alphabet)
}

/// Contour of a hummed pitch series: segment first, then compare segment
/// pitches — the error-prone preprocessing stage the paper criticizes.
pub fn series_contour(
    series: &[f64],
    segmenter: &SegmenterConfig,
    alphabet: ContourAlphabet,
) -> Vec<u8> {
    let segments = segment_notes(series, segmenter);
    let pitches: Vec<f64> = segments.iter().map(|s| s.pitch).collect();
    contour_from_pitches(&pitches, alphabet)
}

fn letter(diff: f64, alphabet: ContourAlphabet) -> u8 {
    match alphabet {
        ContourAlphabet::Three => {
            if diff > 0.5 {
                b'U'
            } else if diff < -0.5 {
                b'D'
            } else {
                b'S'
            }
        }
        ContourAlphabet::Five => {
            if diff > 2.5 {
                b'U'
            } else if diff > 0.5 {
                b'u'
            } else if diff < -2.5 {
                b'D'
            } else if diff < -0.5 {
                b'd'
            } else {
                b'S'
            }
        }
    }
}

/// Levenshtein edit distance (unit costs).
pub fn edit_distance(a: &[u8], b: &[u8]) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut curr = vec![0usize; m + 1];
    for i in 1..=n {
        curr[0] = i;
        for j in 1..=m {
            let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
            curr[j] = sub.min(prev[j] + 1).min(curr[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// A contour-string retrieval index over a melody database.
#[derive(Debug, Clone)]
pub struct ContourIndex {
    alphabet: ContourAlphabet,
    segmenter: SegmenterConfig,
    entries: Vec<(u64, Vec<u8>)>,
}

impl ContourIndex {
    /// Creates an empty index.
    pub fn new(alphabet: ContourAlphabet, segmenter: SegmenterConfig) -> Self {
        ContourIndex { alphabet, segmenter, entries: Vec::new() }
    }

    /// Indexes a melody (exact symbolic contour).
    pub fn insert(&mut self, id: u64, melody: &Melody) {
        self.entries.push((id, melody_contour(melody, self.alphabet)));
    }

    /// Number of indexed melodies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ranks all melodies against a hummed pitch series by ascending edit
    /// distance (segmentation happens here, on the query). Ties are ordered
    /// by id for determinism.
    pub fn rank(&self, hummed_series: &[f64]) -> Vec<(u64, usize)> {
        let query = series_contour(hummed_series, &self.segmenter, self.alphabet);
        let mut scored: Vec<(u64, usize)> = self
            .entries
            .iter()
            .map(|(id, contour)| (*id, edit_distance(&query, contour)))
            .collect();
        scored.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        scored
    }

    /// Rank position (1-based) of `target` for the given hummed series.
    pub fn rank_of(&self, hummed_series: &[f64], target: u64) -> Option<usize> {
        self.rank(hummed_series).iter().position(|(id, _)| *id == target).map(|p| p + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::melody::Note;

    #[test]
    fn segmentation_recovers_clean_notes() {
        // Three flat notes, clearly separated in pitch.
        let mut series = Vec::new();
        series.extend(std::iter::repeat_n(60.0, 20));
        series.extend(std::iter::repeat_n(64.0, 20));
        series.extend(std::iter::repeat_n(62.0, 20));
        let segs = segment_notes(&series, &SegmenterConfig::default());
        assert_eq!(segs.len(), 3);
        assert!((segs[0].pitch - 60.0).abs() < 0.01);
        assert!((segs[1].pitch - 64.0).abs() < 0.01);
        assert!((segs[2].pitch - 62.0).abs() < 0.01);
    }

    #[test]
    fn legato_glide_corrupts_segmentation() {
        // The same three notes connected by slow glides: the segmenter
        // tracks through the glide and merges/miscounts notes — the paper's
        // core criticism of the contour pipeline.
        let mut series = Vec::new();
        series.extend(std::iter::repeat_n(60.0, 20));
        for i in 0..30 {
            series.push(60.0 + 4.0 * (i as f64 / 30.0));
        }
        series.extend(std::iter::repeat_n(64.0, 20));
        let segs = segment_notes(&series, &SegmenterConfig::default());
        assert_ne!(segs.len(), 2, "a slow glide should not segment cleanly into 2 notes");
    }

    #[test]
    fn repeated_pitch_is_one_segment() {
        let series = vec![66.0; 50];
        let segs = segment_notes(&series, &SegmenterConfig::default());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].frames, 50);
    }

    #[test]
    fn contour_letters_three_and_five() {
        let pitches = [60.0, 62.0, 62.2, 58.0, 59.0];
        assert_eq!(contour_from_pitches(&pitches, ContourAlphabet::Three), b"USDU".to_vec());
        assert_eq!(contour_from_pitches(&pitches, ContourAlphabet::Five), b"uSDu".to_vec());
    }

    #[test]
    fn melody_contour_matches_hand_computation() {
        let m = Melody::new(vec![
            Note::new(60, 1.0),
            Note::new(64, 1.0),
            Note::new(64, 1.0),
            Note::new(62, 1.0),
        ]);
        assert_eq!(melody_contour(&m, ContourAlphabet::Three), b"USD".to_vec());
        assert_eq!(melody_contour(&m, ContourAlphabet::Five), b"USd".to_vec());
    }

    #[test]
    fn edit_distance_known_values() {
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
        assert_eq!(edit_distance(b"", b"abc"), 3);
        assert_eq!(edit_distance(b"abc", b"abc"), 0);
        assert_eq!(edit_distance(b"abc", b"axc"), 1);
    }

    #[test]
    fn edit_distance_is_a_metric_on_samples() {
        let strings: Vec<&[u8]> = vec![b"UUDS", b"UDSS", b"DDUU", b"UUDD", b""];
        for a in &strings {
            assert_eq!(edit_distance(a, a), 0);
            for b in &strings {
                assert_eq!(edit_distance(a, b), edit_distance(b, a));
                for c in &strings {
                    assert!(
                        edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c),
                        "triangle inequality"
                    );
                }
            }
        }
    }

    #[test]
    fn index_ranks_exact_contour_match_first() {
        let melodies: Vec<Melody> = (0..20)
            .map(|s| {
                Melody::new(
                    (0..10)
                        .map(|i| Note::new(60 + ((i * (s + 2)) % 7) as u8, 1.0))
                        .collect(),
                )
            })
            .collect();
        let mut index = ContourIndex::new(ContourAlphabet::Five, SegmenterConfig::default());
        for (i, m) in melodies.iter().enumerate() {
            index.insert(i as u64, m);
        }
        // A clean, well-separated rendition of melody 4 (flat 12-frame notes).
        let series: Vec<f64> = melodies[4]
            .notes()
            .iter()
            .flat_map(|n| std::iter::repeat_n(n.pitch as f64, 12))
            .collect();
        let rank = index.rank_of(&series, 4).unwrap();
        assert!(rank <= 3, "clean rendition ranked {rank}");
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = ContourIndex::new(ContourAlphabet::Three, SegmenterConfig::default());
        assert!(index.is_empty());
        assert!(index.rank(&[60.0; 30]).is_empty());
        assert_eq!(index.rank_of(&[60.0; 30], 5), None);
    }
}
