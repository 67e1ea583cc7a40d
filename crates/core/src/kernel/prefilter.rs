//! Stand-in for the deleted `f32` prefilter stage. It exists only because
//! the frozen `benchmark/src/replay.rs` imports these three names, and goes
//! with the next `benchmark` PR. Nothing in the workspace calls it: it
//! holds no data and never prunes (trivially sound), so the replay times
//! the schedule the engine now runs — one envelope sweep.

use super::KernelMode;
use crate::envelope::Envelope;

/// Holds nothing.
#[derive(Debug)]
pub struct SeriesMirror;

impl SeriesMirror {
    /// Ignores `series`.
    pub fn build(_series: &[f64]) -> Self {
        SeriesMirror
    }
}

/// Holds nothing.
#[derive(Debug, Default)]
pub struct PrefilterEnvelope;

impl PrefilterEnvelope {
    /// Ignores `env`.
    pub fn stage(&mut self, _env: &Envelope) {}
}

/// Always `false`: no candidate is pruned.
pub fn prefilter_exceeds(
    _mode: KernelMode,
    _env: &PrefilterEnvelope,
    _mirror: &SeriesMirror,
    _threshold_sq: f64,
) -> bool {
    false
}
