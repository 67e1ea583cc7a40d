//! A seeded generative songbook.
//!
//! Stands in for the paper's manually entered corpus of "50 of the most
//! popular Beatles's songs … further segmented to 1000 short melodies", each
//! of 15–30 notes (§5.1). Songs are tonal: a key (major or minor), phrases
//! built as constrained random walks over scale degrees with step-biased
//! interval statistics, cadences toward tonic/dominant, and bar-structured
//! rhythms — enough musical structure that phrase melodies are mutually
//! distinguishable yet realistically self-similar, which is what the
//! retrieval experiments require.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use crate::melody::{Melody, Note};

/// Intervals (in scale steps) of the major scale.
const MAJOR: [u8; 7] = [0, 2, 4, 5, 7, 9, 11];
/// Intervals of the natural minor scale.
const MINOR: [u8; 7] = [0, 2, 3, 5, 7, 8, 10];

/// Songbook generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SongbookConfig {
    /// Number of songs.
    pub songs: usize,
    /// Phrases per song (the paper's corpus averages 20).
    pub phrases_per_song: usize,
    /// Minimum notes per phrase.
    pub min_notes: usize,
    /// Maximum notes per phrase (inclusive).
    pub max_notes: usize,
    /// RNG seed; equal seeds give byte-identical songbooks.
    pub seed: u64,
}

impl Default for SongbookConfig {
    fn default() -> Self {
        SongbookConfig { songs: 50, phrases_per_song: 20, min_notes: 15, max_notes: 30, seed: 2003 }
    }
}

/// A generated song: a key and its phrase melodies.
#[derive(Debug, Clone, PartialEq)]
pub struct Song {
    /// Display name ("Song 07 in A minor").
    pub name: String,
    /// Tonic MIDI pitch.
    pub tonic: u8,
    /// `true` for major, `false` for natural minor.
    pub major: bool,
    /// Phrase melodies in song order.
    pub phrases: Vec<Melody>,
}

/// A corpus of generated songs.
#[derive(Debug, Clone, PartialEq)]
pub struct Songbook {
    /// The songs.
    pub songs: Vec<Song>,
}

impl Songbook {
    /// Generates a songbook deterministically from the configuration.
    ///
    /// # Panics
    /// Panics on degenerate configurations (zero sizes, inverted note
    /// bounds).
    pub fn generate(config: &SongbookConfig) -> Self {
        assert!(config.songs > 0 && config.phrases_per_song > 0, "empty songbook");
        assert!(
            2 <= config.min_notes && config.min_notes <= config.max_notes,
            "invalid phrase-length bounds"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let songs = (0..config.songs).map(|i| generate_song(i, config, &mut rng)).collect();
        Songbook { songs }
    }

    /// All phrase melodies flattened in `(song index, phrase index, melody)`
    /// order — the melody database of the experiments.
    pub fn phrases(&self) -> Vec<(usize, usize, &Melody)> {
        self.songs
            .iter()
            .enumerate()
            .flat_map(|(s, song)| {
                song.phrases.iter().enumerate().map(move |(p, m)| (s, p, m))
            })
            .collect()
    }
}

fn generate_song(index: usize, config: &SongbookConfig, rng: &mut StdRng) -> Song {
    let tonic = rng.random_range(48u8..=62); // C3..D4: comfortable hum range
    let major = rng.random_bool(0.7);
    let scale = if major { &MAJOR } else { &MINOR };
    let key_name = if major { "major" } else { "minor" };

    // A motif of rhythm values shared across the song gives it coherence.
    let rhythm_pool: Vec<f64> = vec![0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.5, 2.0];
    let motif_rhythm: Vec<f64> =
        (0..4).map(|_| *rhythm_pool.choose(rng).expect("pool nonempty")).collect();

    // Songs are self-similar: a few section themes (verse, chorus, bridge)
    // recur as varied repetitions, like a real pop corpus. This
    // self-similarity is what stresses coarse representations (contour
    // strings) while exact pitch-and-duration matching stays informative.
    let n_themes = rng.random_range(3..=5usize);
    let themes: Vec<Vec<(i32, f64)>> =
        (0..n_themes).map(|_| generate_phrase_degrees(&motif_rhythm, config, rng)).collect();

    let phrases = (0..config.phrases_per_song)
        .map(|_| {
            let degrees = if rng.random_bool(0.25) {
                generate_phrase_degrees(&motif_rhythm, config, rng)
            } else {
                vary_phrase(themes.choose(rng).expect("themes nonempty"), rng)
            };
            render_degrees(&degrees, tonic, scale)
        })
        .collect();
    Song { name: format!("Song {index:02} in {key_name}"), tonic, major, phrases }
}

/// Produces a varied repetition of a theme: every variant differs from the
/// theme in at least one note, with small degree and rhythm edits scattered
/// through.
fn vary_phrase(theme: &[(i32, f64)], rng: &mut StdRng) -> Vec<(i32, f64)> {
    let mut out = theme.to_vec();
    let mut changed = false;
    for entry in &mut out {
        if rng.random_bool(0.15) {
            let delta = if rng.random_bool(0.5) { 1 } else { -1 };
            entry.0 = (entry.0 + delta).clamp(0, 13);
            changed = true;
        }
        if rng.random_bool(0.12) {
            entry.1 = *[0.5, 1.0, 1.5].choose(rng).expect("nonempty");
            changed = true;
        }
    }
    if !changed {
        let at = rng.random_range(0..out.len());
        out[at].0 = (out[at].0 + 1).clamp(0, 13);
    }
    out
}

/// Renders a degree/rhythm sketch into concrete pitches in a key.
fn render_degrees(degrees: &[(i32, f64)], tonic: u8, scale: &[u8; 7]) -> Melody {
    degrees
        .iter()
        .map(|&(degree, beats)| {
            let octave = (degree / 7) as u8;
            let in_scale = scale[(degree % 7) as usize];
            Note::new((tonic + 12 * octave + in_scale).min(127), beats)
        })
        .collect()
}

/// Builds one phrase sketch as a step-biased random walk over scale
/// degrees, paired with rhythm values.
fn generate_phrase_degrees(
    motif_rhythm: &[f64],
    config: &SongbookConfig,
    rng: &mut StdRng,
) -> Vec<(i32, f64)> {
    let n_notes = rng.random_range(config.min_notes..=config.max_notes);
    // Degree index over two octaves: 0..14 maps to tonic .. tonic+2 octaves.
    let mut degree: i32 = rng.random_range(4..10);
    let mut sketch = Vec::with_capacity(n_notes);
    for i in 0..n_notes {
        // Interval distribution matching real melodic statistics (Vos &
        // Troost): ~a quarter repeated notes, steps dominating, leaps rare,
        // with gravity toward the middle of the ambitus. The resulting
        // low-entropy contours are exactly what makes contour strings
        // under-discriminative on real corpora (paper §2).
        let step = {
            let r: f64 = rng.random();
            let magnitude = if r < 0.22 {
                0
            } else if r < 0.68 {
                1
            } else if r < 0.88 {
                2
            } else if r < 0.96 {
                3
            } else {
                4
            };
            let up = if degree <= 2 {
                true
            } else if degree >= 12 {
                false
            } else {
                rng.random_bool(0.5)
            };
            if up {
                magnitude
            } else {
                -magnitude
            }
        };
        if i > 0 {
            degree = (degree + step).clamp(0, 13);
        }
        // Cadence: last note resolves to tonic or dominant.
        if i == n_notes - 1 {
            degree = *[0i32, 4, 7].choose(rng).expect("nonempty");
        }

        // Rhythm: cycle the song motif with occasional variation.
        let beats = if rng.random_bool(0.2) {
            *[0.5, 1.0, 1.5].choose(rng).expect("nonempty")
        } else {
            motif_rhythm[i % motif_rhythm.len()]
        };
        sketch.push((degree, beats));
    }
    sketch
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SongbookConfig {
        SongbookConfig { songs: 5, phrases_per_song: 4, ..SongbookConfig::default() }
    }

    #[test]
    fn default_config_matches_paper_corpus_shape() {
        let c = SongbookConfig::default();
        assert_eq!(c.songs * c.phrases_per_song, 1000);
        assert_eq!((c.min_notes, c.max_notes), (15, 30));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Songbook::generate(&small_config());
        let b = Songbook::generate(&small_config());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Songbook::generate(&small_config());
        let b = Songbook::generate(&SongbookConfig { seed: 9, ..small_config() });
        assert_ne!(a, b);
    }

    #[test]
    fn phrase_lengths_respect_bounds() {
        let book = Songbook::generate(&SongbookConfig::default());
        assert_eq!(book.phrases().len(), 1000);
        for (_, _, m) in book.phrases() {
            assert!((15..=30).contains(&m.len()), "phrase of {} notes", m.len());
        }
    }

    #[test]
    fn pitches_stay_in_singable_range() {
        let book = Songbook::generate(&SongbookConfig::default());
        for (_, _, m) in book.phrases() {
            let (lo, hi) = m.pitch_range().expect("nonempty phrase");
            assert!(lo >= 40 && hi <= 100, "range {lo}..{hi}");
            // Two-octave ambitus cap.
            assert!(hi - lo <= 26, "ambitus {}", hi - lo);
        }
    }

    #[test]
    fn melodies_are_step_dominated() {
        // Real melodies move mostly by small intervals; the generator should
        // mirror that (it drives contour-method behaviour).
        let book = Songbook::generate(&SongbookConfig::default());
        let mut steps = 0usize;
        let mut total = 0usize;
        for (_, _, m) in book.phrases() {
            for iv in m.intervals() {
                total += 1;
                if iv.abs() <= 4 {
                    steps += 1;
                }
            }
        }
        assert!(steps as f64 / total as f64 > 0.6, "step ratio {}", steps as f64 / total as f64);
    }

    #[test]
    fn phrases_within_a_book_are_mostly_distinct() {
        let book = Songbook::generate(&small_config());
        let phrases = book.phrases();
        let mut identical = 0;
        for i in 0..phrases.len() {
            for j in (i + 1)..phrases.len() {
                if phrases[i].2 == phrases[j].2 {
                    identical += 1;
                }
            }
        }
        assert_eq!(identical, 0, "{identical} duplicate phrases");
    }

    #[test]
    fn song_names_mention_mode() {
        let book = Songbook::generate(&small_config());
        for song in &book.songs {
            assert!(song.name.contains("major") || song.name.contains("minor"));
        }
    }

    #[test]
    #[should_panic(expected = "empty songbook")]
    fn zero_songs_rejected() {
        let _ = Songbook::generate(&SongbookConfig { songs: 0, ..SongbookConfig::default() });
    }
}
