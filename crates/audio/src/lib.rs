//! Audio substrate: the microphone end of the query-by-humming pipeline.
//!
//! The paper's front end (§3.1) records the user's hum with a mono PC
//! microphone, segments it into 10 ms frames, and resolves each frame to a
//! pitch with a pitch-tracking algorithm [Tolonen & Karjalainen]. Real
//! hummers are not available to an offline reproduction, so this crate
//! provides both halves of a faithful substitute:
//!
//! * [`synth`] — a hum synthesizer that renders a melody into a waveform
//!   with the acoustic quirks of a human voice (harmonics, vibrato, pitch
//!   glides between notes, breath noise, amplitude envelopes);
//! * [`pitch`] — an autocorrelation pitch tracker over 10 ms frames with
//!   voicing detection and median smoothing, producing the pitch time
//!   series the query engine consumes;
//! * [`wav`] — mono PCM16 WAV read/write so hums can be persisted and
//!   inspected.
//!
//! The synthesizer and tracker together exercise the same error modes the
//! paper leans on: frame-level pitch jitter, unreliable silence, and smooth
//! note transitions that defeat naive note segmentation.

pub mod pitch;
pub mod synth;
pub mod wav;

pub use pitch::{track_pitch, PitchTrack, PitchTrackerConfig};
pub use synth::{HumNote, HumSynthesizer, SynthConfig};
pub use wav::{read_wav_mono, write_wav_mono, WavError};

/// Converts a MIDI note number (possibly fractional) to frequency in Hz
/// (A4 = 69 = 440 Hz).
pub fn midi_to_hz(midi: f64) -> f64 {
    440.0 * ((midi - 69.0) / 12.0).exp2()
}

/// Converts a frequency in Hz to a (fractional) MIDI note number.
///
/// # Panics
/// Panics if `hz` is not positive.
pub fn hz_to_midi(hz: f64) -> f64 {
    assert!(hz > 0.0, "frequency must be positive");
    69.0 + 12.0 * (hz / 440.0).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn midi_hz_reference_points() {
        assert!((midi_to_hz(69.0) - 440.0).abs() < 1e-9);
        assert!((midi_to_hz(57.0) - 220.0).abs() < 1e-9);
        assert!((midi_to_hz(60.0) - 261.6256).abs() < 1e-3);
    }

    #[test]
    fn midi_hz_roundtrip() {
        for m in 40..100 {
            let m = m as f64 + 0.37;
            assert!((hz_to_midi(midi_to_hz(m)) - m).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = hz_to_midi(0.0);
    }
}
