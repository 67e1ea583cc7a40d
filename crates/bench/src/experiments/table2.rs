//! Table 2 — "The number of melodies correctly retrieved using different
//! approaches": rank bins of good-singer hum queries under the time-series
//! approach vs the contour approach, on the 1000-phrase songbook.

use serde::Serialize;

use hum_music::contour::ContourAlphabet;
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::{evaluate_contour, evaluate_timeseries, generate_hums_audio, RankBins};
use hum_qbh::system::{QbhConfig, QbhSystem};

use crate::report::TextTable;

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
    /// Paper scale: 50 songs → 1000 phrases, 20 hum queries.
    pub fn paper() -> Self {
        Params { songs: 50, queries: 20, seed: 2003 }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Params { songs: 10, queries: 8, seed: 2003 }
    }
}

/// Experiment output.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Database size (phrases).
    pub melodies: usize,
    /// Queries issued.
    pub queries: usize,
    /// Rank-bin counts for the time-series approach `[1, 2-3, 4-5, 6-10, 10-]`.
    pub time_series: [usize; 5],
    /// Rank-bin counts for the contour approach.
    pub contour: [usize; 5],
}

/// Runs the experiment.
pub fn run(params: &Params) -> Output {
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: params.songs,
        phrases_per_song: 20,
        ..SongbookConfig::default()
    });
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let hums = generate_hums_audio(&db, SingerProfile::good(), params.queries, params.seed);
    let ts = evaluate_timeseries(&system, &hums, system.band()).expect("valid hum queries");
    let contour = evaluate_contour(&db, &hums, ContourAlphabet::Five);
    Output {
        melodies: db.len(),
        queries: params.queries,
        time_series: ts.as_row(),
        contour: contour.as_row(),
    }
}

/// Renders the paper's table layout.
pub fn render(output: &Output) -> (String, TextTable) {
    let mut table =
        TextTable::new(vec!["Rank", "Time series Approach", "Contour Approach"]);
    let labels = ["1", "2-3", "4-5", "6-10", "10-"];
    for (i, label) in labels.iter().enumerate() {
        table.row(vec![
            label.to_string(),
            output.time_series[i].to_string(),
            output.contour[i].to_string(),
        ]);
    }
    let text = format!(
        "Table 2: melodies correctly retrieved by rank ({} melodies, {} good-singer hums)\n\n{}",
        output.melodies,
        output.queries,
        table.render()
    );
    (text, table)
}

/// Qualitative checks for the paper's headline comparison; returns the
/// failed claims.
pub fn check(output: &Output) -> Vec<String> {
    let (ts, contour) = bins(output);
    let mut failures = Vec::new();
    if ts.top1 < contour.top1 {
        failures.push(format!(
            "time series rank-1 count {} below contour {}",
            ts.top1, contour.top1
        ));
    }
    if ts.within_top10() < contour.within_top10() {
        failures.push(format!(
            "time series top-10 count {} below contour {}",
            ts.within_top10(),
            contour.within_top10()
        ));
    }
    failures
}

/// Convenience wrapper used by tests.
pub fn bins(output: &Output) -> (RankBins, RankBins) {
    let from = |row: [usize; 5]| RankBins {
        top1: row[0],
        r2_3: row[1],
        r4_5: row[2],
        r6_10: row[3],
        beyond10: row[4],
    };
    (from(output.time_series), from(output.contour))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_time_series_dominance() {
        let out = run(&Params::quick());
        assert_eq!(out.queries, 8);
        let (ts, contour) = bins(&out);
        assert_eq!(ts.total(), 8);
        assert_eq!(contour.total(), 8);
        // The paper's headline: the time-series approach clearly beats the
        // contour approach at rank 1.
        assert!(ts.top1 >= contour.top1, "ts {ts} vs contour {contour}");
        assert!(ts.within_top10() >= contour.within_top10());
    }

    #[test]
    fn render_contains_all_bins() {
        let out = run(&Params::quick());
        let (text, table) = render(&out);
        assert!(text.contains("Table 2"));
        assert_eq!(table.render().lines().count(), 7); // header + rule + 5 bins
    }
}
