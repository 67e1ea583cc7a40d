//! The raw frames → [`QueryRequest`] builder every query goes through.
//!
//! A [`QuerySession`] holds a request template, the [`NormalForm`] the
//! serving system normalizes hums with, and the validated raw pitch frames
//! of one hum — nothing derived. [`QuerySession::append`] is a finiteness
//! check (at raw-frame indices, before resampling could smear the poison)
//! and a copy; [`QuerySession::to_request`] attaches the canonical normal
//! form ([`NormalForm::apply`]) of the frames to the template. The request
//! runs through the same executor, verification cascade and
//! [`QueryBudget`]/deadline machinery as any other — the type adds no query
//! path of its own.
//!
//! Because the request is a pure function of the frames held, a query built
//! after any sequence of appends is **bit-identical** — matches and
//! counters — to one built from the same frames appended at once, at every
//! thread count and [`KernelMode`]; `crates/core/tests/session.rs` proves it
//! under both kernel modes. Query-as-you-hum is therefore a caller's loop
//! over growing prefixes, and nothing is kept between them: the canonical
//! form resamples the whole prefix to a fixed length (tempo invariance,
//! Uniform Time Warping), so every new frame moves *every* resample
//! position and no per-frame state could extend the previous view.
//!
//! [`KernelMode`]: crate::kernel::KernelMode

use crate::engine::{EngineError, QueryBudget, QueryRequest};
use crate::normal::NormalForm;

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
/// assert_eq!(session.frames(), &[60.0, 62.0, 64.0, 62.0]);
/// ```
#[derive(Debug, Clone)]
pub struct QuerySession {
    template: QueryRequest,
    normal: NormalForm,
    frames: Vec<f64>,
}

impl QuerySession {
    /// Opens a session from a request template and a normal form. The
    /// template's series (if any) is ignored; its kind, band, trace and
    /// scan settings apply to every refinement.
    pub fn new(template: QueryRequest, normal: NormalForm) -> Self {
        QuerySession { template, normal, frames: Vec::new() }
    }

    /// Appends raw pitch frames to the hum; returns the total frame count.
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
    /// attached. Execute it with `try_query_with` on any engine — the
    /// session adds no query path of its own.
    ///
    /// # Errors
    /// [`EngineError::EmptyQuery`] before the first append.
    pub fn to_request(&self, budget: QueryBudget) -> Result<QueryRequest, EngineError> {
        Ok(self.template.clone().with_series(self.normalized_view()?).with_budget(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
