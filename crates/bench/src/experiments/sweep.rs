//! Shared machinery for the candidate / page-access sweeps of Figures 8–10.
//!
//! Each method (New_PAA, Keogh_PAA) indexes the *same* data in its own
//! R\*-tree at the same page size; the same ε-range queries run against both
//! across a grid of warping widths and thresholds, recording the paper's two
//! implementation-bias-free cost metrics: candidates retrieved and page
//! (node) accesses, read from the tree's range query over the query
//! envelope's feature box ([`feature_range`]). The answers come from the
//! product engine ([`build_engine`]); a method's matches are the engine's
//! matches its candidate list holds, so a false negative would show as a
//! match-count gap between the methods.

use serde::Serialize;

use hum_core::dtw::band_for_warping_width;
use hum_core::engine::{DtwIndexEngine, QueryRequest};
use hum_core::envelope::Envelope;
use hum_core::transform::paa::{KeoghPaa, NewPaa};
use hum_core::transform::EnvelopeTransform;
use hum_index::{ItemId, LinearScan, Query, QueryStats, RStarTree, SpatialIndex};

/// The warping widths of Figures 8–10 (0.02 → 0.2, step 0.02).
pub fn paper_widths() -> Vec<f64> {
    (1..=10).map(|i| 0.02 * i as f64).collect()
}

/// The query thresholds ε of Figures 8–10.
pub const THRESHOLDS: [f64; 2] = [0.2, 0.8];

/// One grid point of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Warping width δ.
    pub warping_width: f64,
    /// Threshold ε (range radius = √(n·ε)).
    pub threshold: f64,
    /// Mean candidates retrieved per query.
    pub candidates: f64,
    /// Mean page accesses per query.
    pub page_accesses: f64,
    /// Mean final matches (identical across methods — a correctness probe).
    pub matches: f64,
}

/// A full sweep for one method.
#[derive(Debug, Clone, Serialize)]
pub struct MethodSweep {
    /// "New_PAA" or "Keogh_PAA".
    pub method: String,
    /// Grid points in (threshold-major, width-minor) order.
    pub points: Vec<SweepPoint>,
}

/// Runs the two-method sweep over normal-form series and queries.
///
/// `dims` must divide the series length. The range radius for threshold ε
/// is `√(n·ε)`, the paper's "range nε" on squared distances.
///
/// # Panics
/// Panics if the database is empty or lengths are inconsistent.
pub fn run_sweep(
    database: &[Vec<f64>],
    queries: &[Vec<f64>],
    dims: usize,
    widths: &[f64],
    thresholds: &[f64],
    page_bytes: usize,
) -> Vec<MethodSweep> {
    assert!(!database.is_empty(), "empty database");
    let n = database[0].len();
    assert!(database.iter().all(|s| s.len() == n), "ragged database");
    assert!(queries.iter().all(|s| s.len() == n), "query length mismatch");

    let engine = build_engine(database, dims);
    let methods: [(&str, Box<dyn EnvelopeTransform>); 2] = [
        ("New_PAA", Box::new(NewPaa::new(n, dims))),
        ("Keogh_PAA", Box::new(KeoghPaa::new(n, dims))),
    ];
    let trees: Vec<RStarTree> =
        methods.iter().map(|(_, t)| feature_tree(&**t, database, page_bytes)).collect();
    let mut sweeps: Vec<MethodSweep> = methods
        .iter()
        .map(|(name, _)| MethodSweep { method: name.to_string(), points: Vec::new() })
        .collect();
    let nq = queries.len().max(1) as f64;
    for &threshold in thresholds {
        let radius = (n as f64 * threshold).sqrt();
        for &width in widths {
            let band = band_for_warping_width(width, n);
            // Per method: its tree's counters, and the engine matches it lists.
            let mut totals = [(QueryStats::default(), 0u64); 2];
            for q in queries {
                let request = QueryRequest::range(radius).with_series(q.clone()).with_band(band);
                let matches = engine.try_query(&request).expect("valid query").result.matches;
                for (((_, transform), tree), total) in methods.iter().zip(&trees).zip(&mut totals) {
                    let (mut listed, stats) = feature_range(tree, &**transform, q, band, radius);
                    listed.sort_unstable();
                    let kept = matches.iter().filter(|(id, _)| listed.binary_search(id).is_ok());
                    total.0.absorb(&stats);
                    total.1 += kept.count() as u64;
                }
            }
            for (sweep, (stats, matches)) in sweeps.iter_mut().zip(totals) {
                sweep.points.push(SweepPoint {
                    warping_width: width,
                    threshold,
                    candidates: stats.candidates as f64 / nq,
                    page_accesses: stats.node_accesses as f64 / nq,
                    matches: matches as f64 / nq,
                });
            }
        }
    }
    sweeps
}

/// The product engine over `database` (ids are positions): New_PAA at
/// `dims` features over the flat sweep.
///
/// # Panics
/// Panics if the database is empty or a series is not in normal form.
pub fn build_engine(database: &[Vec<f64>], dims: usize) -> DtwIndexEngine {
    let transform = NewPaa::new(database[0].len(), dims);
    let mut engine = DtwIndexEngine::new(transform, LinearScan::new(dims));
    for (i, s) in database.iter().enumerate() {
        engine.try_insert(i as u64, s.clone()).expect("finite normal form");
    }
    engine
}

/// The paper's R\*-tree over `transform`'s features of `database`, inserted
/// one by one in id order (ids are positions).
pub fn feature_tree(
    transform: &dyn EnvelopeTransform,
    database: &[Vec<f64>],
    page_bytes: usize,
) -> RStarTree {
    let tree = RStarTree::with_page_size(transform.output_dims(), page_bytes);
    with_features(tree, transform, database)
}

/// `index` with `transform`'s features of `database` inserted in id order.
pub fn with_features<I: SpatialIndex>(
    mut index: I,
    transform: &dyn EnvelopeTransform,
    database: &[Vec<f64>],
) -> I {
    for (i, s) in database.iter().enumerate() {
        index.insert(i as u64, transform.project(s));
    }
    index
}

/// The index phase of an ε-range query: the query's `band`-envelope, its
/// feature box under `transform`, and `index`'s range query at `radius`
/// around that box. By Theorem 1 the candidates hold every series within
/// `radius` of the query under banded DTW.
pub fn feature_range<I: SpatialIndex + ?Sized>(
    index: &I,
    transform: &dyn EnvelopeTransform,
    query: &[f64],
    band: usize,
    radius: f64,
) -> (Vec<ItemId>, QueryStats) {
    let envelope = Envelope::compute(query, band);
    index.range_query(&Query::Rect(transform.project_envelope(&envelope)), radius)
}

/// Renders two method sweeps side by side for one metric.
pub fn render_metric(
    sweeps: &[MethodSweep],
    metric: impl Fn(&SweepPoint) -> f64,
    metric_name: &str,
) -> crate::report::TextTable {
    let mut table = crate::report::TextTable::new(vec![
        "threshold".to_string(),
        "warping width".to_string(),
        format!("{metric_name} (Keogh_PAA)"),
        format!("{metric_name} (New_PAA)"),
    ]);
    let new = &sweeps.iter().find(|s| s.method == "New_PAA").expect("New_PAA sweep").points;
    let keogh =
        &sweeps.iter().find(|s| s.method == "Keogh_PAA").expect("Keogh_PAA sweep").points;
    for (n, k) in new.iter().zip(keogh.iter()) {
        debug_assert_eq!(n.warping_width, k.warping_width);
        table.row(vec![
            format!("{:.1}", n.threshold),
            format!("{:.2}", n.warping_width),
            crate::report::fmt1(metric(k)),
            crate::report::fmt1(metric(n)),
        ]);
    }
    table
}

/// Qualitative checks shared by Figures 8–10; returns failed claims.
pub fn verify_shape(sweeps: &[MethodSweep]) -> Vec<String> {
    let mut failures = Vec::new();
    let new = &sweeps.iter().find(|s| s.method == "New_PAA").expect("New_PAA sweep").points;
    let keogh =
        &sweeps.iter().find(|s| s.method == "Keogh_PAA").expect("Keogh_PAA sweep").points;

    let mut new_total = 0.0;
    let mut keogh_total = 0.0;
    for (n, k) in new.iter().zip(keogh.iter()) {
        // Exactness: both methods must return identical match counts.
        if (n.matches - k.matches).abs() > 1e-9 {
            failures.push(format!(
                "match counts differ at delta={:.2} eps={:.1}: {} vs {}",
                n.warping_width, n.threshold, n.matches, k.matches
            ));
        }
        // A tighter bound can never admit more candidates.
        if n.candidates > k.candidates + 1e-9 {
            failures.push(format!(
                "New_PAA admits more candidates at delta={:.2} eps={:.1}",
                n.warping_width, n.threshold
            ));
        }
        new_total += n.candidates;
        keogh_total += k.candidates;
    }
    // The paper's headline: a clear aggregate advantage for New_PAA.
    if new_total * 1.05 >= keogh_total {
        failures.push(format!(
            "aggregate candidates not clearly better: New_PAA {new_total:.1} vs Keogh_PAA {keogh_total:.1}"
        ));
    }
    // Candidates grow with warping width within each method and threshold.
    for pts in [new, keogh] {
        for pair in pts.windows(2) {
            if pair[0].threshold == pair[1].threshold
                && pair[1].candidates + 1e-9 < pair[0].candidates * 0.5
            {
                failures.push(format!(
                    "candidates dropped sharply with width at eps={:.1}",
                    pair[0].threshold
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use hum_core::normal::NormalForm;
    use hum_datasets::{generate, DatasetFamily};

    fn workload(db: usize, q: usize, n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let normal = NormalForm::with_length(n);
        let all: Vec<Vec<f64>> = generate(DatasetFamily::RandomWalk, db + q, n, 3)
            .into_iter()
            .map(|s| normal.apply(&s))
            .collect();
        let queries = all[db..].to_vec();
        (all[..db].to_vec(), queries)
    }

    #[test]
    fn sweep_produces_full_grid_and_holds_shape() {
        let (db, queries) = workload(300, 5, 64);
        let sweeps = run_sweep(&db, &queries, 8, &[0.05, 0.1, 0.2], &THRESHOLDS, 1024);
        assert_eq!(sweeps.len(), 2);
        for sweep in &sweeps {
            assert_eq!(sweep.points.len(), 6);
        }
        let failures = verify_shape(&sweeps);
        assert!(failures.is_empty(), "{failures:?}");
    }

    /// The premise of the figures: the New_PAA tree admits exactly the
    /// engine's candidates (same box, same radius, another index), and the
    /// Keogh_PAA tree lists every match the engine returns.
    #[test]
    fn trees_list_the_engines_candidates_and_matches() {
        let (db, queries) = workload(300, 5, 64);
        let n = 64;
        let engine = build_engine(&db, 8);
        let keogh = KeoghPaa::new(n, 8);
        let new_tree = feature_tree(engine.transform(), &db, 1024);
        let keogh_tree = feature_tree(&keogh, &db, 1024);
        for threshold in THRESHOLDS {
            let radius = (n as f64 * threshold).sqrt();
            for width in [0.05, 0.1, 0.2] {
                let band = band_for_warping_width(width, n);
                for q in &queries {
                    let request =
                        QueryRequest::range(radius).with_series(q.clone()).with_band(band);
                    let result = engine.try_query(&request).unwrap().result;
                    let (mut listed, stats) =
                        feature_range(&new_tree, engine.transform(), q, band, radius);
                    let (mut swept, _) =
                        feature_range(engine.index(), engine.transform(), q, band, radius);
                    assert_eq!(stats.candidates, result.stats.index.candidates);
                    listed.sort_unstable();
                    swept.sort_unstable();
                    assert_eq!(listed, swept, "eps={threshold} delta={width}");
                    let (keogh_listed, _) = feature_range(&keogh_tree, &keogh, q, band, radius);
                    for (id, _) in &result.matches {
                        assert!(keogh_listed.contains(id), "Keogh_PAA drops match {id}");
                    }
                }
            }
        }
    }

    #[test]
    fn candidates_increase_with_threshold() {
        let (db, queries) = workload(300, 5, 64);
        let sweeps = run_sweep(&db, &queries, 8, &[0.1], &THRESHOLDS, 1024);
        for sweep in &sweeps {
            assert!(
                sweep.points[1].candidates >= sweep.points[0].candidates,
                "{}: eps=0.8 should admit at least as many candidates",
                sweep.method
            );
        }
    }

    #[test]
    fn render_metric_emits_one_row_per_grid_point() {
        let (db, queries) = workload(100, 3, 64);
        let sweeps = run_sweep(&db, &queries, 8, &[0.1, 0.2], &[0.2], 1024);
        let table = render_metric(&sweeps, |p| p.candidates, "candidates");
        assert_eq!(table.render().lines().count(), 4); // header + rule + 2 rows
    }

    #[test]
    fn paper_widths_match_figure_axis() {
        let w = paper_widths();
        assert_eq!(w.len(), 10);
        assert!((w[0] - 0.02).abs() < 1e-12);
        assert!((w[9] - 0.2).abs() < 1e-12);
    }
}
