//! Frame-based autocorrelation pitch tracking (paper §3.1).
//!
//! The acoustic input is segmented into 10 ms frames and each frame is
//! resolved to a pitch, yielding the pitch time series of Figure 1. The
//! tracker here follows the classic autocorrelation recipe (a simplified
//! main loop of the Tolonen-Karjalainen analysis the paper cites): per-frame
//! normalized autocorrelation over a plausible F0 lag range, peak picking
//! with parabolic interpolation, an energy + clarity voicing gate, and a
//! median post-filter to remove octave blips.

use crate::hz_to_midi;

/// Tracker parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PitchTrackerConfig {
    /// Input sample rate in Hz.
    pub sample_rate: u32,
    /// Frame hop in seconds (the paper uses 10 ms).
    pub frame_seconds: f64,
    /// Analysis window in seconds (longer than the hop for low pitches).
    pub window_seconds: f64,
    /// Lowest detectable fundamental in Hz.
    pub min_hz: f64,
    /// Highest detectable fundamental in Hz.
    pub max_hz: f64,
    /// RMS energy below which a frame is unvoiced.
    pub energy_threshold: f64,
    /// Normalized autocorrelation below which a frame is unvoiced.
    pub clarity_threshold: f64,
    /// Median filter half-width in frames (0 disables smoothing).
    pub median_half_width: usize,
}

impl Default for PitchTrackerConfig {
    fn default() -> Self {
        PitchTrackerConfig {
            sample_rate: 8_000,
            frame_seconds: 0.010,
            window_seconds: 0.030,
            min_hz: 80.0,
            max_hz: 1_000.0,
            energy_threshold: 0.01,
            clarity_threshold: 0.5,
            median_half_width: 2,
        }
    }
}

/// The tracker output: one entry per frame, `None` where unvoiced.
#[derive(Debug, Clone, PartialEq)]
pub struct PitchTrack {
    /// Per-frame pitch in fractional MIDI note numbers; `None` = unvoiced.
    pub frames: Vec<Option<f64>>,
    /// Frame hop in seconds.
    pub frame_seconds: f64,
}

impl PitchTrack {
    /// The voiced pitch values with silence dropped — the paper's input to
    /// matching ("we simply ignore the silent information", §3.2).
    pub fn voiced_series(&self) -> Vec<f64> {
        self.frames.iter().filter_map(|f| *f).collect()
    }

    /// Fraction of frames that are voiced.
    pub fn voicing_rate(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().filter(|f| f.is_some()).count() as f64 / self.frames.len() as f64
    }
}

/// Tracks pitch over `samples`, returning one (possibly unvoiced) pitch per
/// 10 ms-class frame.
///
/// # Panics
/// Panics if the configuration is degenerate (zero rate, inverted range…).
pub fn track_pitch(samples: &[f64], config: &PitchTrackerConfig) -> PitchTrack {
    let sr = config.sample_rate as f64;
    assert!(config.sample_rate > 0, "sample rate must be positive");
    assert!(config.frame_seconds > 0.0 && config.window_seconds >= config.frame_seconds);
    assert!(config.min_hz > 0.0 && config.max_hz > config.min_hz);
    assert!(config.max_hz <= sr / 2.0, "max_hz beyond Nyquist");

    let hop = (config.frame_seconds * sr).round() as usize;
    let window = (config.window_seconds * sr).round() as usize;
    let min_lag = (sr / config.max_hz).floor().max(1.0) as usize;
    let max_lag = (sr / config.min_hz).ceil() as usize;

    let mut frames = Vec::new();
    let mut start = 0usize;
    while start + window <= samples.len() {
        let frame = &samples[start..start + window];
        frames.push(analyze_frame(frame, sr, min_lag, max_lag, config));
        start += hop;
    }
    if config.median_half_width > 0 {
        median_filter(&mut frames, config.median_half_width);
    }
    PitchTrack { frames, frame_seconds: config.frame_seconds }
}

fn analyze_frame(
    frame: &[f64],
    sr: f64,
    min_lag: usize,
    max_lag: usize,
    config: &PitchTrackerConfig,
) -> Option<f64> {
    let n = frame.len();
    let energy: f64 = frame.iter().map(|s| s * s).sum::<f64>() / n as f64;
    if energy.sqrt() < config.energy_threshold {
        return None;
    }
    let mean = frame.iter().sum::<f64>() / n as f64;
    let centered: Vec<f64> = frame.iter().map(|s| s - mean).collect();
    let r0: f64 = centered.iter().map(|s| s * s).sum();
    if r0 <= 0.0 {
        return None;
    }

    let max_lag = max_lag.min(n - 1);
    if min_lag >= max_lag {
        return None;
    }
    // Normalized cross-correlation of the two overlapping segments,
    // `Σ x_i·x_{i+τ} / √(Σ x_i² · Σ x_{i+τ}²)`. Normalizing by the actual
    // overlap energies (rather than r(0)) removes the short-lag bias of the
    // plain autocorrelation, which would otherwise lock onto harmonics for
    // low fundamentals.
    let mut best_lag = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    let mut corr = vec![0.0; max_lag + 1];
    // Prefix sums of squared samples for O(1) overlap energies.
    let mut prefix_sq = vec![0.0; n + 1];
    for (i, &c) in centered.iter().enumerate() {
        prefix_sq[i + 1] = prefix_sq[i] + c * c;
    }
    for lag in min_lag..=max_lag {
        let overlap = n - lag;
        let mut acc = 0.0;
        for i in 0..overlap {
            acc += centered[i] * centered[i + lag];
        }
        let e_head = prefix_sq[overlap];
        let e_tail = prefix_sq[n] - prefix_sq[lag];
        let denom = (e_head * e_tail).sqrt();
        let val = if denom > 1e-12 { acc / denom } else { 0.0 };
        corr[lag] = val;
        if val > best_val {
            best_val = val;
            best_lag = lag;
        }
    }
    if best_val < config.clarity_threshold {
        return None;
    }

    // Subharmonic guard: a perfectly periodic frame correlates equally well
    // at 2T, 3T, … Pick the *smallest* lag that is a local peak within a
    // small margin of the global maximum (classic first-peak picking).
    for lag in min_lag..=max_lag {
        let left_ok = lag == min_lag || corr[lag] >= corr[lag - 1];
        let right_ok = lag == max_lag || corr[lag] >= corr[lag + 1];
        if left_ok && right_ok && corr[lag] >= best_val - 0.06 {
            best_lag = lag;
            break;
        }
    }

    // Parabolic interpolation around the peak for sub-sample lag precision.
    let refined = if best_lag > min_lag && best_lag < max_lag {
        let (a, b, c) = (corr[best_lag - 1], corr[best_lag], corr[best_lag + 1]);
        let denom = a - 2.0 * b + c;
        if denom.abs() > 1e-12 {
            best_lag as f64 + 0.5 * (a - c) / denom
        } else {
            best_lag as f64
        }
    } else {
        best_lag as f64
    };
    Some(hz_to_midi(sr / refined))
}

/// In-place median filter over voiced runs; unvoiced frames are untouched
/// and excluded from windows.
fn median_filter(frames: &mut [Option<f64>], half_width: usize) {
    let snapshot: Vec<Option<f64>> = frames.to_vec();
    for i in 0..frames.len() {
        if snapshot[i].is_none() {
            continue;
        }
        let lo = i.saturating_sub(half_width);
        let hi = (i + half_width).min(frames.len() - 1);
        let mut window: Vec<f64> = snapshot[lo..=hi].iter().filter_map(|f| *f).collect();
        window.sort_by(|a, b| a.partial_cmp(b).expect("finite pitches"));
        frames[i] = Some(window[window.len() / 2]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{HumNote, HumSynthesizer, SynthConfig};

    fn clean_synth() -> HumSynthesizer {
        HumSynthesizer::new(SynthConfig {
            vibrato_semitones: 0.0,
            noise_level: 0.0,
            ..SynthConfig::default()
        })
    }

    #[test]
    fn pure_tone_is_tracked_accurately() {
        let sr = 8_000.0;
        let samples: Vec<f64> =
            (0..8_000).map(|i| (2.0 * std::f64::consts::PI * 220.0 * i as f64 / sr).sin()).collect();
        let track = track_pitch(&samples, &PitchTrackerConfig::default());
        assert!(track.voicing_rate() > 0.95);
        for p in track.voiced_series() {
            assert!((p - 57.0).abs() < 0.3, "pitch {p} should be near A3 = 57");
        }
    }

    #[test]
    fn synthesized_hum_recovers_the_melody() {
        let melody =
            vec![HumNote { midi: 60.0, seconds: 0.4 }, HumNote { midi: 67.0, seconds: 0.4 }];
        let samples = clean_synth().render(&melody);
        let track = track_pitch(&samples, &PitchTrackerConfig::default());
        let series = track.voiced_series();
        assert!(!series.is_empty());
        // First and last thirds should sit near the two notes.
        let first = &series[..series.len() / 3];
        let last = &series[2 * series.len() / 3..];
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(first) - 60.0).abs() < 0.8, "got {}", mean(first));
        assert!((mean(last) - 67.0).abs() < 0.8, "got {}", mean(last));
    }

    #[test]
    fn silence_is_unvoiced() {
        let track = track_pitch(&vec![0.0; 4_000], &PitchTrackerConfig::default());
        assert_eq!(track.voicing_rate(), 0.0);
        assert!(track.voiced_series().is_empty());
    }

    #[test]
    fn white_noise_is_mostly_unvoiced() {
        // LCG noise has no periodicity in the F0 range.
        let mut state = 12345u64;
        let samples: Vec<f64> = (0..8_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect();
        let track = track_pitch(&samples, &PitchTrackerConfig::default());
        assert!(track.voicing_rate() < 0.3, "voicing {}", track.voicing_rate());
    }

    #[test]
    fn frame_count_matches_hop() {
        let samples = vec![0.0; 8_000]; // 1 s at 8 kHz
        let track = track_pitch(&samples, &PitchTrackerConfig::default());
        // hop = 80 samples, window = 240: (8000-240)/80 + 1 = 98 frames.
        assert_eq!(track.frames.len(), 98);
    }

    #[test]
    fn median_filter_removes_blips() {
        let mut frames = vec![Some(60.0); 9];
        frames[4] = Some(72.0); // octave blip
        median_filter(&mut frames, 2);
        assert_eq!(frames[4], Some(60.0));
    }

    #[test]
    fn median_filter_preserves_unvoiced_gaps() {
        let mut frames = vec![Some(60.0), None, Some(60.0)];
        median_filter(&mut frames, 1);
        assert_eq!(frames[1], None);
    }

    #[test]
    fn vibrato_stays_within_half_semitone() {
        let synth = HumSynthesizer::new(SynthConfig {
            vibrato_semitones: 0.3,
            noise_level: 0.0,
            ..SynthConfig::default()
        });
        let samples = synth.render(&[HumNote { midi: 64.0, seconds: 1.0 }]);
        let track = track_pitch(&samples, &PitchTrackerConfig::default());
        for p in track.voiced_series() {
            assert!((p - 64.0).abs() < 0.8, "pitch {p}");
        }
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn max_hz_beyond_nyquist_rejected() {
        let cfg = PitchTrackerConfig { max_hz: 6_000.0, ..PitchTrackerConfig::default() };
        let _ = track_pitch(&[0.0; 100], &cfg);
    }
}
