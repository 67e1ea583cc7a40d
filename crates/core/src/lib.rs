//! Warping indexes with envelope transforms.
//!
//! This crate is the primary contribution of Zhu & Shasha, *"Warping Indexes
//! with Envelope Transforms for Query by Humming"* (SIGMOD 2003), implemented
//! as a reusable library:
//!
//! * [`normal`] — shift- and tempo-invariant *normal forms* (§3.3): subtract
//!   the mean, resample to a canonical length (Uniform Time Warping).
//! * [`upsample`] — `w`-upsampling (Definition 3) and the resampling that
//!   stores every series at the canonical UTW length (§4.1).
//! * [`dtw`] — Dynamic Time Warping and its `k`-local variant LDTW
//!   (Definitions 1, 4, 5) with a banded O(nk) dynamic program.
//! * [`envelope`] — the `k`-envelope of a series (Definition 6) via monotonic
//!   deques, and the distance between a series and an envelope
//!   (Definition 7), which is Keogh's LB lower bound (Lemma 2).
//! * [`transform`] — dimensionality-reduction transforms extended to
//!   envelopes. The container-invariance construction of Lemma 3 turns *any*
//!   linear lower-bounding transform (PAA, DFT, DWT, SVD) into a DTW index
//!   transform with no false negatives (Theorem 1). Includes the paper's
//!   improved **New_PAA** envelope reduction and Keogh's original
//!   **Keogh_PAA** for comparison.
//! * [`tightness`] — the tightness-of-lower-bound metric used throughout the
//!   paper's evaluation (§5.2).
//! * [`engine`] — the GEMINI query engine (§4.3): New_PAA features in one
//!   flat sweep ([`hum_index::LinearScan`]), and the one query
//!   entry point — validate, prepare, ε-range or the one-sweep k-NN schedule
//!   (seed round, radius, close round), record, trace — with exact-DTW
//!   refinement and full access accounting, bit-identical to a brute-force
//!   sweep.
//! * [`obs`] — observability: a registry of named monotonic counters and
//!   duration histograms, opt-in per-query cascade traces
//!   ([`obs::QueryTrace`]), and text/JSON exporters. Counters are
//!   deterministic and may appear in results; wall-clock timers never do.
//! * [`kernel`] — the SIMD-friendly inner loops under [`dtw`], [`envelope`]
//!   and the engine's verification cascade: aligned structure-of-arrays
//!   buffers, blocked lower-bound accumulation, an unrolled banded-DTW row
//!   recurrence, and the sliding-window min/max behind every envelope. One
//!   shape runs everywhere (AVX2 when the CPU has it); a scalar reference
//!   shape is held to the same bits.
//! * [`session`] — [`session::QuerySession`], the validated raw frames →
//!   [`engine::QueryRequest`] builder every query goes through.
//!
//! # Quick example
//!
//! ```
//! use hum_core::engine::{DtwIndexEngine, QueryRequest};
//! use hum_core::transform::paa::NewPaa;
//! use hum_index::LinearScan;
//!
//! // Sixteen-point toy series; real workloads use length 128–256.
//! let db: Vec<Vec<f64>> = (0..10)
//!     .map(|s| (0..16).map(|t| ((t + s) as f64 * 0.7).sin()).collect())
//!     .collect();
//!
//! let transform = NewPaa::new(16, 4);
//! let index = LinearScan::new(4);
//! let mut engine = DtwIndexEngine::new(transform, index);
//! for (id, series) in db.iter().enumerate() {
//!     engine.try_insert(id as u64, series.clone()).unwrap();
//! }
//!
//! // Range query under DTW with Sakoe-Chiba half-width 2: no false negatives.
//! let request = QueryRequest::range(0.5).with_series(db[3].clone()).with_band(2);
//! let outcome = engine.try_query(&request).unwrap();
//! assert!(outcome.result.matches.iter().any(|(id, _)| *id == 3));
//! ```

mod arena;
pub mod dtw;
pub mod engine;
pub mod envelope;
pub mod kernel;
pub mod normal;
pub mod obs;
pub mod session;
pub mod tightness;
pub mod transform;
pub mod upsample;

pub use dtw::{band_for_warping_width, dtw_distance, ldtw_distance};
pub use envelope::Envelope;
pub use session::QuerySession;
pub use transform::EnvelopeTransform;
