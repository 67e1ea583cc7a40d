//! `obs` — the cascade-trajectory demonstration: the Figure-9 workload
//! (large MIDI music database, ε-range queries) re-run with the library's
//! own observability layer turned on.
//!
//! Every query executes with a [`QueryTrace`](hum_core::obs::QueryTrace);
//! per grid point the traces' counters are summed with
//! `EngineStats::absorb` into one trajectory row — candidates in →
//! envelope-LB pruned → `LB_Improved` pruned → early-abandoned → verified,
//! plus DP cells, matches, and page accesses — and each row records whether
//! the summed trace counters equal the queries' summed `EngineStats` (the
//! no-silent-drift contract). The registry snapshot at the end
//! renders through the same text/JSON exporters production would use, so
//! this table is regenerated from shipped instrumentation, not bench-only
//! bookkeeping.

use serde::Serialize;

use hum_core::dtw::band_for_warping_width;
use hum_core::engine::{DtwIndexEngine, EngineConfig, EngineStats, QueryRequest};
use hum_core::normal::NormalForm;
use hum_core::obs::{metrics_to_text, MetricsSink, MetricsSnapshot};
use hum_core::transform::paa::NewPaa;
use hum_index::RStarTree;
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::generate_hums;

use crate::experiments::sweep::{paper_widths, THRESHOLDS};
use crate::report::TextTable;

/// Experiment parameters (the Figure-9 workload).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Total melodies (paper: 35,000).
    pub melodies: usize,
    /// Normal-form length (paper: 128).
    pub length: usize,
    /// Feature dimensions (paper: 8).
    pub dims: usize,
    /// Hum queries per grid point.
    pub queries: usize,
    /// Warping widths to sweep.
    pub width_steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// Paper scale.
    pub fn paper() -> Self {
        Params { melodies: 35_000, length: 128, dims: 8, queries: 100, width_steps: 10, seed: 9 }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Params { melodies: 2_000, queries: 10, width_steps: 4, ..Params::paper() }
    }
}

/// One grid point's aggregated cascade trajectory (totals over all queries
/// at that point — totals, not means, so they compare exactly against the
/// engine's counters).
#[derive(Debug, Clone, Serialize)]
pub struct TrajectoryRow {
    /// Threshold ε (range radius = √(n·ε)).
    pub threshold: f64,
    /// Warping width δ.
    pub warping_width: f64,
    /// Queries aggregated.
    pub queries: u64,
    /// Index pages (nodes) read.
    pub page_accesses: u64,
    /// Candidates entering the verification cascade.
    pub candidates: u64,
    /// Removed by the envelope lower bound.
    pub lb_pruned: u64,
    /// Removed by `LB_Improved`.
    pub lb_improved_pruned: u64,
    /// Exact DTW evaluations started.
    pub exact_started: u64,
    /// Abandoned by the radius threshold.
    pub early_abandoned: u64,
    /// Run to completion.
    pub verified: u64,
    /// DP cells evaluated.
    pub dp_cells: u64,
    /// Matches returned.
    pub matches: u64,
    /// The drift contract: aggregated trace totals == merged `EngineStats`.
    pub totals_match_stats: bool,
}

/// Experiment output.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Database size.
    pub melodies: usize,
    /// Queries per grid point.
    pub queries: usize,
    /// One row per (threshold, width) grid point.
    pub rows: Vec<TrajectoryRow>,
    /// The registry at the end of the run, through the library exporter.
    pub metrics: MetricsSnapshot,
}

/// Runs the traced Figure-9 workload.
pub fn run(params: &Params) -> Output {
    let songs = params.melodies.div_ceil(20);
    let db = MelodyDatabase::from_midi_roundtrip(&SongbookConfig {
        songs,
        phrases_per_song: 20,
        ..SongbookConfig::default()
    });
    let normal = NormalForm::with_length(params.length);
    let database: Vec<Vec<f64>> = db
        .entries()
        .iter()
        .take(params.melodies)
        .map(|e| normal.apply(&e.melody().to_time_series(4)))
        .collect();
    let queries: Vec<Vec<f64>> =
        generate_hums(&db, SingerProfile::good(), params.queries, params.seed)
            .into_iter()
            .map(|h| normal.apply(&h.series))
            .collect();

    let n = params.length;
    let mut engine = DtwIndexEngine::new(
        NewPaa::new(n, params.dims),
        RStarTree::with_page_size(params.dims, 4096),
        EngineConfig::default(),
    )
    .with_metrics(MetricsSink::enabled());
    for (i, s) in database.iter().enumerate() {
        engine.insert(i as u64, s.clone());
    }

    let widths: Vec<f64> = paper_widths().into_iter().take(params.width_steps).collect();
    let mut rows = Vec::with_capacity(THRESHOLDS.len() * widths.len());
    for &threshold in &THRESHOLDS {
        let radius = (n as f64 * threshold).sqrt();
        for &width in &widths {
            let band = band_for_warping_width(width, n);
            let (mut total, mut stats) = (EngineStats::default(), EngineStats::default());
            for q in &queries {
                let request =
                    QueryRequest::range(radius).with_series(q.clone()).with_band(band).with_trace(true);
                let outcome = engine.try_query(&request).expect("validated workload");
                total.absorb(&outcome.trace.expect("every request traced").stats);
                stats.absorb(&outcome.result.stats);
            }
            rows.push(TrajectoryRow {
                threshold,
                warping_width: width,
                queries: queries.len() as u64,
                page_accesses: total.index.pages(),
                candidates: total.index.candidates,
                lb_pruned: total.lb_pruned,
                lb_improved_pruned: total.lb_improved_pruned,
                exact_started: total.exact_computations,
                early_abandoned: total.early_abandoned,
                verified: total.exact_computations - total.early_abandoned,
                dp_cells: total.dp_cells,
                matches: total.matches,
                totals_match_stats: total == stats,
            });
        }
    }

    let metrics = engine.metrics().registry().expect("metrics enabled").snapshot();
    Output { melodies: database.len(), queries: params.queries, rows, metrics }
}

/// Renders the trajectory table and the registry snapshot.
pub fn render(output: &Output) -> (String, TextTable) {
    let mut table = TextTable::new(vec![
        "threshold".to_string(),
        "width".to_string(),
        "pages".to_string(),
        "candidates".to_string(),
        "env pruned".to_string(),
        "LBimp pruned".to_string(),
        "abandoned".to_string(),
        "verified".to_string(),
        "dp cells".to_string(),
        "matches".to_string(),
        "consistent".to_string(),
    ]);
    for r in &output.rows {
        table.row(vec![
            format!("{:.1}", r.threshold),
            format!("{:.2}", r.warping_width),
            r.page_accesses.to_string(),
            r.candidates.to_string(),
            r.lb_pruned.to_string(),
            r.lb_improved_pruned.to_string(),
            r.early_abandoned.to_string(),
            r.verified.to_string(),
            r.dp_cells.to_string(),
            r.matches.to_string(),
            if r.totals_match_stats { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let text = format!(
        "Observability: cascade trajectories for the Figure-9 workload\n\
         ({} melodies, {} hums per grid point; totals per point)\n\n{}\n\
         Metrics registry after the run:\n{}",
        output.melodies,
        output.queries,
        table.render(),
        metrics_to_text(&output.metrics)
    );
    (text, table)
}

/// Qualitative checks: the drift contract holds everywhere, the range-path
/// funnel closes exactly, and index work is visible whenever candidates
/// are.
pub fn check(output: &Output) -> Vec<String> {
    let mut failures = Vec::new();
    for r in &output.rows {
        let point = format!("eps={:.1} delta={:.2}", r.threshold, r.warping_width);
        if !r.totals_match_stats {
            failures.push(format!("{point}: trace totals drifted from EngineStats"));
        }
        if r.lb_pruned + r.lb_improved_pruned + r.exact_started != r.candidates {
            failures.push(format!("{point}: cascade funnel does not close"));
        }
        if r.verified != r.exact_started - r.early_abandoned {
            failures.push(format!("{point}: verified != started - abandoned"));
        }
        if r.candidates > 0 && r.page_accesses == 0 {
            failures.push(format!("{point}: candidates without page accesses"));
        }
        if r.matches > r.verified {
            failures.push(format!("{point}: more matches than verified candidates"));
        }
    }
    let traced: u64 = output.rows.iter().map(|r| r.queries).sum();
    if output.metrics.counter(hum_core::obs::Metric::RangeQueries) != traced {
        failures.push("registry query count disagrees with the workload".to_string());
    }
    if output.metrics.counter(hum_core::obs::Metric::DpCells)
        != output.rows.iter().map(|r| r.dp_cells).sum::<u64>()
    {
        failures.push("registry dp_cells disagree with summed trajectories".to_string());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_fully_consistent() {
        let out = run(&Params::quick());
        assert_eq!(out.melodies, 2_000);
        assert_eq!(out.rows.len(), 2 * 4);
        let failures = check(&out);
        assert!(failures.is_empty(), "{failures:?}");
        let (text, table) = render(&out);
        assert!(text.contains("cascade.dp_cells"));
        assert_eq!(table.render().lines().count(), 2 + out.rows.len());
    }
}
