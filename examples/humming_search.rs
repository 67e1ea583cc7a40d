//! The full acoustic pipeline: synthesize a hum as audio, write it to a WAV
//! file, pitch-track it at 10 ms frames, and search the melody database —
//! every stage of the paper's §3 architecture.
//!
//! ```text
//! cargo run --release -p hum-qbh --example humming_search
//! ```

use hum_audio::{track_pitch, HumNote, HumSynthesizer, PitchTrackerConfig, SynthConfig};
use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::system::{QbhConfig, QbhSystem};

fn main() {
    let db = MelodyDatabase::from_songbook(&SongbookConfig::default());
    let system = QbhSystem::build(&db, &QbhConfig::default());
    println!("Database ready: {} melodies.", db.len());

    // A (simulated) user hums phrase 612 from memory.
    let target = 612u64;
    let melody = db.entry(target).expect("in range").melody();
    let mut singer = HummingSimulator::new(SingerProfile::good(), 7);
    let sung = singer.sing_notes(melody);

    // Render the hum as a waveform: harmonics, vibrato, glides, breath
    // noise, loudness tremolo — a mono microphone signal.
    let notes: Vec<HumNote> =
        sung.iter().map(|n| HumNote { midi: n.midi, seconds: n.seconds }).collect();
    let synth = HumSynthesizer::new(SynthConfig::default());
    let audio = synth.render(&notes);
    println!(
        "Synthesized {:.1} s of humming audio at {} Hz.",
        audio.len() as f64 / 8000.0,
        8000
    );

    // Persist it like a recording session would.
    let wav = hum_audio::write_wav_mono(&audio, 8000);
    let path = std::env::temp_dir().join("hum_query.wav");
    if std::fs::write(&path, &wav).is_ok() {
        println!("Wrote the hum to {}.", path.display());
    }

    // Pitch-track: 10 ms frames -> fractional MIDI pitches; silence dropped.
    let track = track_pitch(&audio, &PitchTrackerConfig::default());
    println!(
        "Pitch tracker: {} frames, {:.0}% voiced.",
        track.frames.len(),
        track.voicing_rate() * 100.0
    );

    // Search through the same API the higher-level system uses.
    let Some(results) = system.try_query_audio(&audio, 8000, 10).expect("a tracked hum is valid")
    else {
        println!("\nThe pitch tracker found no voiced frame to search with.");
        return;
    };
    println!("\nTop matches:");
    for (rank, m) in results.matches.iter().take(5).enumerate() {
        let marker = if m.id == target { "  <-- correct" } else { "" };
        println!(
            "  {}. song {:02} phrase {:02}  distance {:8.3}{}",
            rank + 1,
            m.song,
            m.phrase,
            m.distance,
            marker
        );
    }
    match results.matches.iter().position(|m| m.id == target) {
        Some(p) => println!("\nThe hummed melody ranked {} of {}.", p + 1, db.len()),
        None => println!("\nThe hummed melody did not reach the top 10."),
    }
}
