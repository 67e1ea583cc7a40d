//! Melody databases (paper §3.2 and §5.3).
//!
//! Two construction paths, mirroring the paper's two corpora:
//!
//! * [`MelodyDatabase::from_songbook`] — the small high-quality corpus
//!   ("50 songs → 1000 phrase melodies") used in the retrieval-quality
//!   experiments;
//! * [`MelodyDatabase::from_midi_roundtrip`] — the large corpus: melodies
//!   are *serialized to Standard MIDI Files and re-extracted* through
//!   `hum-midi`, exercising the exact pipeline the paper used on MIDI files
//!   collected from the Internet (35,000 melodies in §5.3).

use hum_midi::{extract_melody, parse_smf, write_smf, Event, MetaEvent, Smf, Track};
use hum_music::{Melody, Note, Songbook, SongbookConfig};

/// One database melody with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct MelodyEntry {
    id: u64,
    song: usize,
    phrase: usize,
    melody: Melody,
}

impl MelodyEntry {
    /// Database identifier (dense, 0-based).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Index of the source song.
    pub fn song(&self) -> usize {
        self.song
    }

    /// Phrase index within the song.
    pub fn phrase(&self) -> usize {
        self.phrase
    }

    /// The melody itself.
    pub fn melody(&self) -> &Melody {
        &self.melody
    }
}

/// A collection of phrase melodies, the unit the whole-sequence matcher
/// searches over.
#[derive(Debug, Clone, PartialEq)]
pub struct MelodyDatabase {
    entries: Vec<MelodyEntry>,
}

/// MIDI resolution used for round-tripping (ticks per quarter note).
const ROUNDTRIP_TPQ: u16 = 480;

impl MelodyDatabase {
    /// Builds the database directly from a generated songbook.
    pub fn from_songbook(config: &SongbookConfig) -> Self {
        let book = Songbook::generate(config);
        Self::from_phrases(
            book.phrases().into_iter().map(|(s, p, m)| (s, p, m.clone())).collect(),
        )
    }

    /// Builds the database from a songbook, but round-trips every phrase
    /// through an in-memory Standard MIDI File first (write → parse →
    /// extract), as the paper did with Internet MIDI collections.
    ///
    /// # Panics
    /// Panics if a round-trip fails — that would be a bug in `hum-midi`.
    pub fn from_midi_roundtrip(config: &SongbookConfig) -> Self {
        let book = Songbook::generate(config);
        let phrases = book
            .phrases()
            .into_iter()
            .map(|(s, p, m)| {
                let smf = melody_to_smf(m, ROUNDTRIP_TPQ);
                let parsed = parse_smf(&write_smf(&smf)).expect("round-trip parse");
                (s, p, melody_from_smf(&parsed, 0))
            })
            .collect();
        Self::from_phrases(phrases)
    }

    /// An empty database, used to exercise error paths in tests.
    #[doc(hidden)]
    pub fn empty() -> Self {
        MelodyDatabase { entries: Vec::new() }
    }

    /// Builds the database from bare melodies. Used when the corpus comes
    /// from external files rather than a songbook: each melody is treated
    /// as its own single-phrase song (`song = position`, `phrase = 0`), so
    /// every entry keeps a distinct `(song, phrase)` provenance pair.
    pub fn from_melodies(melodies: Vec<Melody>) -> Self {
        Self::from_phrases(melodies.into_iter().enumerate().map(|(i, m)| (i, 0, m)).collect())
    }

    fn from_phrases(phrases: Vec<(usize, usize, Melody)>) -> Self {
        let entries = phrases
            .into_iter()
            .enumerate()
            .map(|(id, (song, phrase, melody))| MelodyEntry { id: id as u64, song, phrase, melody })
            .collect();
        MelodyDatabase { entries }
    }

    /// All entries in id order.
    pub fn entries(&self) -> &[MelodyEntry] {
        &self.entries
    }

    /// Number of melodies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by id.
    pub fn entry(&self, id: u64) -> Option<&MelodyEntry> {
        self.entries.get(id as usize)
    }
}

/// Serializes a melody as a single-track SMF on channel 0.
pub fn melody_to_smf(melody: &Melody, ticks_per_quarter: u16) -> Smf {
    let mut smf = Smf::new(0, ticks_per_quarter);
    let mut track = Track::default();
    track.push(0, Event::Meta(MetaEvent::Tempo(500_000)));
    for note in melody.notes() {
        let ticks = (note.beats * ticks_per_quarter as f64).round() as u32;
        track.push(0, Event::NoteOn { channel: 0, key: note.pitch, velocity: 96 });
        track.push(ticks.max(1), Event::NoteOff { channel: 0, key: note.pitch, velocity: 0 });
    }
    track.push(0, Event::Meta(MetaEvent::EndOfTrack));
    smf.tracks.push(track);
    smf
}

/// Extracts a melody from a parsed SMF channel.
pub fn melody_from_smf(smf: &Smf, channel: u8) -> Melody {
    extract_melody(smf, channel)
        .into_iter()
        .map(|n| Note::new(n.pitch, n.beats.max(1.0 / ROUNDTRIP_TPQ as f64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SongbookConfig {
        SongbookConfig { songs: 6, phrases_per_song: 5, ..SongbookConfig::default() }
    }

    #[test]
    fn songbook_database_has_dense_ids_and_provenance() {
        let db = MelodyDatabase::from_songbook(&small());
        assert_eq!(db.len(), 30);
        for (i, e) in db.entries().iter().enumerate() {
            assert_eq!(e.id(), i as u64);
            assert!(e.song() < 6);
            assert!(e.phrase() < 5);
            assert!(!e.melody().is_empty());
        }
        assert_eq!(db.entry(7).unwrap().id(), 7);
        assert!(db.entry(999).is_none());
    }

    #[test]
    fn midi_roundtrip_preserves_melodies() {
        let direct = MelodyDatabase::from_songbook(&small());
        let round = MelodyDatabase::from_midi_roundtrip(&small());
        assert_eq!(direct.len(), round.len());
        for (a, b) in direct.entries().iter().zip(round.entries()) {
            assert_eq!(a.melody().len(), b.melody().len(), "note counts");
            for (na, nb) in a.melody().notes().iter().zip(b.melody().notes()) {
                assert_eq!(na.pitch, nb.pitch);
                // Quantization to 480 ticks/quarter is exact for the rhythm
                // grid the songbook uses (multiples of 0.5 beats).
                assert!((na.beats - nb.beats).abs() < 1e-9, "{} vs {}", na.beats, nb.beats);
            }
        }
    }

    #[test]
    fn smf_serialization_is_single_track_format0() {
        let db = MelodyDatabase::from_songbook(&small());
        let smf = melody_to_smf(db.entry(0).unwrap().melody(), 480);
        assert_eq!(smf.format, 0);
        assert_eq!(smf.tracks.len(), 1);
        // NoteOn/NoteOff pairs plus tempo and end-of-track.
        let expected = db.entry(0).unwrap().melody().len() * 2 + 2;
        assert_eq!(smf.tracks[0].events.len(), expected);
    }

    #[test]
    fn roundtrip_of_empty_melody() {
        let smf = melody_to_smf(&Melody::default(), 480);
        let parsed = parse_smf(&write_smf(&smf)).unwrap();
        assert!(melody_from_smf(&parsed, 0).is_empty());
    }
}
