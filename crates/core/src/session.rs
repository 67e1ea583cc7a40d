//! Incremental query sessions: query-as-you-hum.
//!
//! A [`QuerySession`] is the first-class query object for interactive
//! retrieval: the hum grows frame by frame (`append`), and each
//! *refinement* — [`QuerySession::to_request`] handed to any engine's
//! `try_query_with` — answers the query over everything appended so far,
//! through the same executor, verification cascade and
//! [`QueryBudget`]/deadline machinery as every other query, so every
//! refinement is bounded work.
//!
//! # The prefix bit-identity invariant
//!
//! The contract that makes streaming trustworthy:
//!
//! > A refinement after any sequence of appends returns **bit-identical
//! > matches and counters** to a one-shot query over the same prefix —
//! > at every shard count, thread count, and [`KernelMode`].
//!
//! It holds by construction: the session derives exactly the canonical
//! normal form ([`NormalForm::apply`]) of the appended prefix and executes
//! it through the same [`QueryRequest`] entry points a one-shot caller
//! uses. `crates/core/tests/session.rs` proves it over a shard ×
//! kernel-mode matrix.
//!
//! # What is incremental, and what is re-derived
//!
//! Three pieces of state live in the session:
//!
//! * **Compensated running mean** ([`KahanSum`]) — the shift-normalization
//!   state, O(1) per appended frame. The incremental mean is bit-identical
//!   to a full compensated recompute over the prefix (same additions in
//!   the same order; a proptest drives 10⁴ appends against the batch
//!   form).
//! * **Raw-domain envelope** ([`IncrementalEnvelope`]) — `Env_k` of the
//!   appended frames, *extended* on append instead of recomputed: a new
//!   frame can only touch the trailing `k` envelope entries plus its own,
//!   so appends cost O(k) while a recompute costs O(n). The extension is
//!   bit-identical to [`Envelope::compute`] over the prefix, tie semantics
//!   included. Combined with the running mean,
//!   [`QuerySession::envelope`] yields the envelope of the
//!   *shift-normalized* hum without materializing the shifted series
//!   (min/max commute with a constant shift).
//! * **Canonical normalized view** — re-derived on demand. This is forced,
//!   not lazy engineering: the canonical form resamples the prefix to a
//!   fixed length (tempo invariance, Uniform Time Warping), and every
//!   append moves *every* resample position, so no per-frame state can
//!   extend it. Re-derivation is O(canonical length) and the cascade
//!   dominates refinement cost anyway.
//!
//! [`KernelMode`]: crate::kernel::KernelMode

use std::collections::VecDeque;

use crate::engine::{check_finite, EngineError, QueryBudget, QueryRequest};
use crate::envelope::Envelope;
use crate::normal::NormalForm;

/// Kahan-compensated accumulator: sums `f64`s with an error-compensation
/// term so the running total does not drift the way a naive accumulation
/// does over long streams. Deterministic: the same values in the same
/// order produce the same bits, whether added one at a time or replayed in
/// a batch ([`kahan_sum`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// An empty accumulator.
    pub const fn new() -> Self {
        KahanSum { sum: 0.0, compensation: 0.0 }
    }

    /// Adds one value.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let y = x - self.compensation;
        let t = self.sum + y;
        self.compensation = (t - self.sum) - y;
        self.sum = t;
    }

    /// The compensated total.
    pub fn value(&self) -> f64 {
        self.sum
    }
}

/// Batch reference for [`KahanSum`]: the compensated sum of `xs` in order.
/// An incremental accumulator fed the same values is bit-identical.
pub fn kahan_sum(xs: &[f64]) -> f64 {
    let mut acc = KahanSum::new();
    for &x in xs {
        acc.add(x);
    }
    acc.value()
}

/// Compensated mean of `xs` (0.0 for an empty slice).
pub fn kahan_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        kahan_sum(xs) / xs.len() as f64
    }
}

/// The `k`-envelope of a growing series, maintained by *extension*: each
/// appended sample updates at most the trailing `k` envelope entries and
/// adds its own, instead of recomputing all `n` (the windows of entries
/// more than `k` behind the end are complete and never change again).
///
/// Bounds are bit-identical to [`Envelope::compute`] over the current
/// prefix, including tie behaviour: among equal window extremes the
/// latest sample's value wins, matching the monotonic-deque scan (which
/// pops earlier elements on `>=`/`<=` comparisons). The distinction is
/// only observable for `0.0` vs `-0.0`, and the tests pin it.
///
/// Samples must be finite; the session validates before appending.
#[derive(Debug, Clone)]
pub struct IncrementalEnvelope {
    k: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// The last `k + 1` samples — the window of the next appended entry.
    tail: VecDeque<f64>,
}

impl IncrementalEnvelope {
    /// An empty envelope with window half-width `k`.
    pub fn new(k: usize) -> Self {
        IncrementalEnvelope {
            k,
            lower: Vec::new(),
            upper: Vec::new(),
            tail: VecDeque::with_capacity(k.saturating_add(1)),
        }
    }

    /// The window half-width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of samples appended so far.
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// `true` before the first append.
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }

    /// Lower bounds over the current prefix.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper bounds over the current prefix.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Appends one sample, extending the envelope.
    pub fn append(&mut self, v: f64) {
        let m = self.lower.len();
        // The new sample joins the windows of the trailing `k` entries:
        // entry j sees it iff j + k >= m. Later samples replace equal
        // extremes (the deque's `>=`/`<=` pop rule), so `>=` / `<=` here.
        let first = m.saturating_sub(self.k);
        for j in first..m {
            if v >= self.upper[j] {
                self.upper[j] = v;
            }
            if v <= self.lower[j] {
                self.lower[j] = v;
            }
        }
        // The new entry's own window is the retained tail plus itself,
        // scanned left to right with the same latest-wins tie rule.
        if self.tail.len() > self.k {
            self.tail.pop_front();
        }
        self.tail.push_back(v);
        let mut lo = v;
        let mut hi = v;
        // Iterate oldest→newest so a later equal sample overwrites.
        let mut iter = self.tail.iter();
        if let Some(&first_sample) = iter.next() {
            lo = first_sample;
            hi = first_sample;
            for &s in iter {
                if s >= hi {
                    hi = s;
                }
                if s <= lo {
                    lo = s;
                }
            }
        }
        self.lower.push(lo);
        self.upper.push(hi);
    }

    /// Appends every sample of `xs` in order.
    pub fn extend(&mut self, xs: &[f64]) {
        for &v in xs {
            self.append(v);
        }
    }

    /// The envelope as an owned [`Envelope`], optionally shifted down by
    /// `shift` (min/max commute with a constant shift, so this equals the
    /// envelope of the shifted series bit for bit).
    ///
    /// # Panics
    /// Panics if the envelope is empty (callers check [`Self::is_empty`]).
    pub fn snapshot(&self, shift: f64) -> Envelope {
        assert!(!self.is_empty(), "snapshot of empty incremental envelope");
        if shift == 0.0 {
            Envelope::from_bounds(self.lower.clone(), self.upper.clone())
        } else {
            Envelope::from_bounds(
                self.lower.iter().map(|v| v - shift).collect(),
                self.upper.iter().map(|v| v - shift).collect(),
            )
        }
    }
}

/// An incremental query session: the first-class query object for
/// query-as-you-hum.
///
/// Build one from a [`QueryRequest`] template (kind, band, trace, scan —
/// any series on the template is ignored) plus the [`NormalForm`] the
/// serving system normalizes hums with; then interleave
/// [`append`](Self::append) and refinements (execute
/// [`to_request`](Self::to_request) on an engine) as frames arrive. A
/// one-shot query is the degenerate session: open → one append → one
/// refinement → drop, and `QbhSystem::try_query_request` is implemented
/// exactly that way.
///
/// ```
/// use hum_core::engine::QueryRequest;
/// use hum_core::normal::NormalForm;
/// use hum_core::session::QuerySession;
///
/// let template = QueryRequest::knn(3).with_band(2);
/// let mut session = QuerySession::new(template, NormalForm::with_length(16));
/// session.append(&[60.0, 62.0, 64.0, 62.0]).unwrap();
/// assert_eq!(session.len(), 4);
/// assert!((session.running_mean() - 62.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct QuerySession {
    template: QueryRequest,
    normal: NormalForm,
    frames: Vec<f64>,
    sum: KahanSum,
    env: IncrementalEnvelope,
}

impl QuerySession {
    /// Opens a session from a request template and a normal form. The
    /// template's series (if any) is ignored; its kind, band, trace and
    /// scan settings apply to every refinement.
    pub fn new(template: QueryRequest, normal: NormalForm) -> Self {
        let band = template.band();
        QuerySession {
            template,
            normal,
            frames: Vec::new(),
            sum: KahanSum::new(),
            env: IncrementalEnvelope::new(band),
        }
    }

    /// Appends raw pitch frames to the hum; returns the total frame count.
    /// Incremental state (compensated mean, raw-domain envelope) updates
    /// in O(band) per frame.
    ///
    /// # Errors
    /// [`EngineError::NonFiniteSample`] naming the offending *session*
    /// frame index (the whole batch is rejected; the session is
    /// unchanged). Streaming ingest validates eagerly, at raw-frame
    /// indices, before resampling could smear the poison.
    pub fn append(&mut self, frames: &[f64]) -> Result<usize, EngineError> {
        if let Some(offset) = frames.iter().position(|v| !v.is_finite()) {
            return Err(EngineError::NonFiniteSample {
                context: "appended frames",
                index: self.frames.len() + offset,
                value: frames[offset],
            });
        }
        for &v in frames {
            self.sum.add(v);
            self.env.append(v);
        }
        self.frames.extend_from_slice(frames);
        Ok(self.frames.len())
    }

    /// The raw frames appended so far.
    pub fn frames(&self) -> &[f64] {
        &self.frames
    }

    /// Number of raw frames appended so far.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` before the first append.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The request template this session refines (series empty).
    pub fn template(&self) -> &QueryRequest {
        &self.template
    }

    /// The normal form applied at refinement.
    pub fn normal_form(&self) -> &NormalForm {
        &self.normal
    }

    /// Compensated running mean of the raw frames (0.0 when empty) — the
    /// session's shift-normalization state, bit-identical to
    /// [`kahan_mean`] over [`Self::frames`].
    pub fn running_mean(&self) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.sum.value() / self.frames.len() as f64
        }
    }

    /// The band-width envelope of the *shift-normalized* raw hum, `None`
    /// before the first append. Maintained by extension (never
    /// recomputed): bit-identical to
    /// `Envelope::compute(&shifted_frames, band)` where `shifted_frames`
    /// subtracts [`Self::running_mean`] from every frame.
    pub fn envelope(&self) -> Option<Envelope> {
        if self.env.is_empty() {
            None
        } else {
            Some(self.env.snapshot(self.running_mean()))
        }
    }

    /// The canonical normalized view of the current prefix — exactly what
    /// a one-shot caller would pass to the engine.
    ///
    /// # Errors
    /// [`EngineError::EmptyQuery`] before the first append.
    pub fn normalized_view(&self) -> Result<Vec<f64>, EngineError> {
        if self.frames.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        Ok(self.normal.apply(&self.frames))
    }

    /// Builds the [`QueryRequest`] a refinement executes: the template
    /// with the canonical view of the current prefix and `budget`
    /// attached. Execute it with `try_query_with` on any engine (or
    /// `QbhSystem::try_refine_session`) — the session adds no query path of
    /// its own.
    ///
    /// # Errors
    /// [`EngineError::EmptyQuery`] before the first append.
    pub fn to_request(&self, budget: QueryBudget) -> Result<QueryRequest, EngineError> {
        Ok(self.template.clone().with_series(self.normalized_view()?).with_budget(budget))
    }
}

/// Re-validates appended frames with engine-boundary semantics; used by
/// serving layers that buffer frames outside a [`QuerySession`] (the wire
/// session store) and want the identical typed rejection.
///
/// # Errors
/// [`EngineError::NonFiniteSample`] at the raw index.
pub fn validate_frames(frames: &[f64]) -> Result<(), EngineError> {
    check_finite(frames, "appended frames")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_incremental_matches_batch() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i as f64) * 0.37).sin() * 1e6 + 1e-6).collect();
        let mut acc = KahanSum::new();
        for &x in &xs {
            acc.add(x);
        }
        assert_eq!(acc.value().to_bits(), kahan_sum(&xs).to_bits());
    }

    #[test]
    fn kahan_beats_naive_on_adversarial_stream() {
        // 1.0 followed by many tiny values a naive f64 sum drops entirely.
        let mut xs = vec![1.0];
        xs.extend(std::iter::repeat_n(1e-16, 10_000));
        let naive: f64 = xs.iter().sum();
        let compensated = kahan_sum(&xs);
        let exact = 1.0 + 1e-16 * 10_000.0;
        assert!((compensated - exact).abs() < (naive - exact).abs());
        assert!((compensated - exact).abs() < 1e-15);
    }

    #[test]
    fn incremental_envelope_matches_full_recompute_on_every_prefix() {
        let xs: Vec<f64> =
            (0..200).map(|i| ((i as f64) * 0.9).sin() * ((i % 5) as f64 + 1.0)).collect();
        for k in [0usize, 1, 3, 8, 64] {
            let mut inc = IncrementalEnvelope::new(k);
            for (n, &v) in xs.iter().enumerate() {
                inc.append(v);
                let full = Envelope::compute(&xs[..=n], k);
                assert_eq!(inc.lower(), full.lower(), "k={k} n={n}");
                assert_eq!(inc.upper(), full.upper(), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn incremental_envelope_ties_match_deque_including_signed_zero() {
        // 0.0 and -0.0 compare equal but differ bitwise; the deque's
        // latest-wins pop rule must be reproduced exactly.
        let xs = [0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0];
        for k in [0usize, 1, 2, 3, 10] {
            let mut inc = IncrementalEnvelope::new(k);
            for (n, &v) in xs.iter().enumerate() {
                inc.append(v);
                let full = Envelope::compute(&xs[..=n], k);
                let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(inc.lower()), bits(full.lower()), "k={k} n={n}");
                assert_eq!(bits(inc.upper()), bits(full.upper()), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn session_rejects_non_finite_at_the_raw_index() {
        let mut session =
            QuerySession::new(QueryRequest::knn(1).with_band(2), NormalForm::with_length(16));
        session.append(&[60.0, 61.0]).unwrap();
        let err = session.append(&[62.0, f64::NAN]).unwrap_err();
        match err {
            EngineError::NonFiniteSample { index, .. } => assert_eq!(index, 3),
            other => panic!("expected NonFiniteSample, got {other:?}"),
        }
        // The failed batch left nothing behind.
        assert_eq!(session.len(), 2);
        assert_eq!(session.frames(), &[60.0, 61.0]);
    }

    #[test]
    fn empty_session_refuses_to_build_a_request() {
        let session =
            QuerySession::new(QueryRequest::knn(1).with_band(2), NormalForm::with_length(16));
        assert!(matches!(
            session.to_request(QueryBudget::unlimited()),
            Err(EngineError::EmptyQuery)
        ));
        assert!(session.envelope().is_none());
        assert_eq!(session.running_mean(), 0.0);
    }

    #[test]
    fn session_envelope_equals_envelope_of_shifted_frames() {
        let mut session =
            QuerySession::new(QueryRequest::knn(1).with_band(3), NormalForm::with_length(16));
        let frames: Vec<f64> = (0..40).map(|i| 60.0 + ((i as f64) * 0.7).sin() * 4.0).collect();
        session.append(&frames).unwrap();
        let mu = session.running_mean();
        let shifted: Vec<f64> = frames.iter().map(|v| v - mu).collect();
        let expected = Envelope::compute(&shifted, 3);
        let got = session.envelope().expect("non-empty");
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.lower()), bits(expected.lower()));
        assert_eq!(bits(got.upper()), bits(expected.upper()));
    }

    #[test]
    fn normalized_view_is_the_one_shot_normal_form() {
        let normal = NormalForm::with_length(32);
        let mut session = QuerySession::new(QueryRequest::knn(2).with_band(2), normal);
        let frames: Vec<f64> = (0..55).map(|i| ((i as f64) * 0.31).cos() * 3.0 + 59.0).collect();
        for chunk in frames.chunks(7) {
            session.append(chunk).unwrap();
        }
        let view = session.normalized_view().unwrap();
        let one_shot = normal.apply(&frames);
        assert_eq!(
            view.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            one_shot.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
