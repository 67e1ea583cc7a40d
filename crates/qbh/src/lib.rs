//! The end-to-end Query-by-Humming system (paper §3).
//!
//! Ties every substrate together into the three-component architecture the
//! paper describes:
//!
//! 1. **User humming** — accepted either as raw audio (pitch-tracked by
//!    `hum-audio` at 10 ms frames) or as an already-extracted pitch series
//!    (e.g. from the [`hum_music::HummingSimulator`]);
//! 2. **A database of music** — phrase melodies from a songbook or from
//!    MIDI files round-tripped through `hum-midi` ([`corpus`]);
//! 3. **An index** — the warping index of `hum-core`: normal forms,
//!    the container-invariant New_PAA envelope transform, and a feature
//!    index with exact-DTW refinement ([`system`]).
//!
//! [`eval`] adds the paper's evaluation protocol: each hum's target rank,
//! binned for the retrieval tables (Tables 2 and 3), and the head-to-head
//! comparison with the contour baseline.
//!
//! ```
//! use hum_core::engine::QueryRequest;
//! use hum_qbh::corpus::MelodyDatabase;
//! use hum_qbh::system::{QbhConfig, QbhSystem};
//! use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
//!
//! let db = MelodyDatabase::from_songbook(&SongbookConfig {
//!     songs: 10,
//!     phrases_per_song: 4,
//!     ..SongbookConfig::default()
//! });
//! let system = QbhSystem::build(&db, &QbhConfig::default());
//!
//! // Hum phrase 17 and look up its ten nearest melodies at the configured
//! // warping width; a malformed hum is an `EngineError`, never a panic.
//! let mut singer = HummingSimulator::new(SingerProfile::good(), 42);
//! let hum = singer.sing_series(db.entry(17).unwrap().melody(), 0.01);
//! let request = QueryRequest::knn(10).with_band(system.band());
//! let (results, _trace) = system.try_query_request(&hum, request).unwrap();
//! assert!(results.matches.iter().any(|m| m.id == 17));
//! ```

pub mod corpus;
pub mod eval;
pub mod fault;
pub mod serve;
pub mod storage;
pub mod store;
pub mod system;

pub use corpus::{MelodyDatabase, MelodyEntry};
pub use system::{QbhConfig, QbhSystem};
