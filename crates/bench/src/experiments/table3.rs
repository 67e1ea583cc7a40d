//! Table 3 — "The number of melodies correctly retrieved by poor singers
//! using different warping widths": rank bins at δ ∈ {0.05, 0.1, 0.2}.
//!
//! The paper's observation: widening the band from 0.05 to 0.1 rescues
//! poorly timed hums, but 0.2 over-warps — "when the warping width is too
//! large, some melodies that are very different will have a small DTW
//! distance too".

use serde::Serialize;

use hum_core::dtw::band_for_warping_width;
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::{evaluate_timeseries, generate_hums_audio};
use hum_qbh::system::{QbhConfig, QbhSystem};

use crate::report::TextTable;

/// The warping widths of the paper's Table 3.
pub const WIDTHS: [f64; 3] = [0.05, 0.1, 0.2];

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Songs in the songbook (phrases = songs × 20).
    pub songs: usize,
    /// Number of hum queries.
    pub queries: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Params {
    /// Paper scale: 1000 phrases, 20 poor-singer hums.
    pub fn paper() -> Self {
        Params { songs: 50, queries: 20, seed: 77 }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Params { songs: 10, queries: 8, seed: 77 }
    }
}

/// Experiment output: one rank-bin row per warping width.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Database size (phrases).
    pub melodies: usize,
    /// Queries issued.
    pub queries: usize,
    /// `bins[w][b]` = count in bin `b` at `WIDTHS[w]`.
    pub bins: Vec<[usize; 5]>,
}

/// Runs the experiment.
pub fn run(params: &Params) -> Output {
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: params.songs,
        phrases_per_song: 20,
        ..SongbookConfig::default()
    });
    let config = QbhConfig::default();
    let system = QbhSystem::build(&db, &config);
    let hums = generate_hums_audio(&db, SingerProfile::poor(), params.queries, params.seed);
    let bins = WIDTHS
        .iter()
        .map(|&w| {
            let band = band_for_warping_width(w, config.normal_length);
            evaluate_timeseries(&system, &hums, band).expect("valid hum queries").as_row()
        })
        .collect();
    Output { melodies: db.len(), queries: params.queries, bins }
}

/// Renders the paper's table layout.
pub fn render(output: &Output) -> (String, TextTable) {
    let mut table = TextTable::new(vec!["Rank", "delta = 0.05", "delta = 0.1", "delta = 0.2"]);
    let labels = ["1", "2-3", "4-5", "6-10", "10-"];
    for (i, label) in labels.iter().enumerate() {
        table.row(vec![
            label.to_string(),
            output.bins[0][i].to_string(),
            output.bins[1][i].to_string(),
            output.bins[2][i].to_string(),
        ]);
    }
    let text = format!(
        "Table 3: poor-singer retrieval by rank and warping width ({} melodies, {} hums)\n\n{}",
        output.melodies,
        output.queries,
        table.render()
    );
    (text, table)
}

/// Qualitative check of the paper's width trade-off: δ=0.1 retrieves at
/// least as many top-10 melodies as δ=0.05 (the 0.05→0.1 improvement), and
/// δ=0.2 does not beat δ=0.1 by more than sampling noise (the "tendency
/// disappears"). Returns the failed claims.
pub fn check(output: &Output) -> Vec<String> {
    let top10 = |row: &[usize; 5]| -> usize { row[..4].iter().sum() };
    let (w05, w10, w20) =
        (top10(&output.bins[0]), top10(&output.bins[1]), top10(&output.bins[2]));
    let mut failures = Vec::new();
    if w10 + 1 < w05 {
        failures.push(format!("top-10 fell from {w05} (δ=0.05) to {w10} (δ=0.1)"));
    }
    if w20 > w10 + 2 {
        failures.push(format!(
            "δ=0.2 ({w20}) improved clearly over δ=0.1 ({w10}); the paper's plateau is missing"
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top10(row: &[usize; 5]) -> usize {
        row[..4].iter().sum()
    }

    #[test]
    fn quick_run_produces_three_width_columns() {
        let out = run(&Params::quick());
        assert_eq!(out.bins.len(), 3);
        for row in &out.bins {
            assert_eq!(row.iter().sum::<usize>(), out.queries);
        }
    }

    #[test]
    fn wider_band_helps_poor_singers_up_to_a_point() {
        // The paper's tendency: δ=0.1 retrieves at least as many top-10
        // melodies as δ=0.05 for poorly timed hums. (The drop at 0.2 is a
        // population-level effect; with quick-scale queries we assert only
        // the first half of the tendency.)
        let out = run(&Params { songs: 15, queries: 12, seed: 77 });
        assert!(
            top10(&out.bins[1]) + 1 >= top10(&out.bins[0]),
            "δ=0.1 ({:?}) should be no worse than δ=0.05 ({:?})",
            out.bins[1],
            out.bins[0]
        );
    }

    #[test]
    fn render_mentions_all_widths() {
        let out = run(&Params::quick());
        let (text, _) = render(&out);
        for w in ["0.05", "0.1", "0.2"] {
            assert!(text.contains(w));
        }
    }
}
