//! Property-based tests for the music substrate.

use hum_music::contour::{
    contour_from_pitches, edit_distance, segment_notes, ContourAlphabet, SegmenterConfig,
};
use hum_music::{HummingSimulator, Melody, Note, SingerProfile};
use proptest::prelude::*;

fn arb_melody() -> impl Strategy<Value = Melody> {
    proptest::collection::vec((40u8..95, prop_oneof![Just(0.5f64), Just(1.0), Just(1.5), Just(2.0)]), 2..30)
        .prop_map(|notes| notes.into_iter().map(|(p, b)| Note::new(p, b)).collect())
}

fn arb_contour() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'U'), Just(b'u'), Just(b'S'), Just(b'd'), Just(b'D')], 0..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn time_series_length_matches_durations(melody in arb_melody(), spb in 1usize..8) {
        let ts = melody.to_time_series(spb);
        // Every rhythm value is a multiple of 0.5 with spb ≥ 2 exact; with
        // rounding each note contributes ≥ 1 sample.
        prop_assert!(ts.len() >= melody.len());
        let expected: usize = melody
            .notes()
            .iter()
            .map(|n| ((n.beats * spb as f64).round() as usize).max(1))
            .sum();
        prop_assert_eq!(ts.len(), expected);
        // Values are exactly the melody pitches.
        for v in &ts {
            prop_assert!(melody.notes().iter().any(|n| n.pitch as f64 == *v));
        }
    }

    #[test]
    fn transposition_preserves_interval_structure(melody in arb_melody(), t in -10i8..10) {
        let transposed = melody.transposed(t);
        // Away from the clamp boundaries the contours agree letter for letter.
        let (lo, hi) = melody.pitch_range().unwrap();
        prop_assume!(lo as i16 + (t as i16) >= 0 && hi as i16 + (t as i16) <= 127);
        let a: Vec<f64> = melody.notes().iter().map(|n| n.pitch as f64).collect();
        let b: Vec<f64> = transposed.notes().iter().map(|n| n.pitch as f64).collect();
        prop_assert_eq!(
            contour_from_pitches(&a, ContourAlphabet::Five),
            contour_from_pitches(&b, ContourAlphabet::Five)
        );
    }

    #[test]
    fn edit_distance_is_a_metric(a in arb_contour(), b in arb_contour(), c in arb_contour()) {
        prop_assert_eq!(edit_distance(&a, &a), 0);
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        prop_assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
        // Bounded by the longer length.
        prop_assert!(edit_distance(&a, &b) <= a.len().max(b.len()));
    }

    #[test]
    fn segmentation_output_is_well_formed(
        series in proptest::collection::vec(40.0f64..90.0, 0..300),
    ) {
        let segs = segment_notes(&series, &SegmenterConfig::default());
        let total: usize = segs.iter().map(|s| s.frames).sum();
        prop_assert!(total <= series.len());
        for s in &segs {
            prop_assert!(s.frames >= SegmenterConfig::default().min_frames);
            prop_assert!(s.pitch.is_finite());
        }
    }

    #[test]
    fn humming_is_deterministic_and_finite(melody in arb_melody(), seed in 0u64..500) {
        let a = HummingSimulator::new(SingerProfile::poor(), seed).sing_series(&melody, 0.01);
        let b = HummingSimulator::new(SingerProfile::poor(), seed).sing_series(&melody, 0.01);
        prop_assert_eq!(&a, &b);
        prop_assert!(!a.is_empty());
        for v in &a {
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn sung_durations_respect_floors(melody in arb_melody(), seed in 0u64..200) {
        let sung = HummingSimulator::new(SingerProfile::poor(), seed).sing_notes(&melody);
        prop_assert_eq!(sung.len(), melody.len());
        for n in &sung {
            prop_assert!(n.seconds >= 0.05);
            prop_assert!((45.0..=83.0).contains(&n.midi), "register clamp: {}", n.midi);
        }
    }
}
