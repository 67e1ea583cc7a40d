//! Music substrate: melodies, synthetic songbooks, humming simulation, and
//! the contour-matching baseline.
//!
//! The paper's music database is "a collection of melodies", each "a
//! sequence of the tuples (Note, Duration)" (§3.2), queried by hummed input
//! from singers of varying skill (§5.1) and compared against the traditional
//! *contour* string-matching approach (§2, Table 2). This crate provides all
//! of that:
//!
//! * [`melody`] — the `(Note, Duration)` melody model and its §3.2
//!   time-series rendering;
//! * [`songbook`] — a seeded generative songbook standing in for the
//!   manually entered Beatles corpus: tonal songs segmented into phrase
//!   melodies of 15–30 notes;
//! * [`humming`] — singer models that distort a melody exactly the way the
//!   paper says hummers do: absolute-pitch shift, global tempo scaling,
//!   per-note duration jitter (local time warping), interval error, octave
//!   slips, plus frame-level pitch wobble;
//! * [`contour`] — the competing approach: error-prone note segmentation of
//!   the hummed pitch series, contour alphabets (U/D/S and the finer
//!   five-letter variant), and exhaustive edit-distance ranking.

pub mod contour;
pub mod humming;
pub mod melody;
pub mod songbook;

pub use humming::{HummingSimulator, SingerProfile, SungNote};
pub use melody::{Melody, Note};
pub use songbook::{Song, Songbook, SongbookConfig};
