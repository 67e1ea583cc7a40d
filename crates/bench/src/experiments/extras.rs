//! Ablations beyond the paper's figures — the design-choice experiments
//! DESIGN.md calls out, reported in the same candidates/page-accesses
//! currency as Figs 8–10:
//!
//! 1. **Index backend**: the paper's R\*-tree (a range query over the
//!    New_PAA features) vs the product engine's linear scan, on the same
//!    boxes — their candidate counts must agree;
//! 2. **Envelope second filter**: exact-DTW computations with and without
//!    the full-dimension LB refilter between index and verification,
//!    computed from section 5's funnel;
//! 3. **Build strategy**: repeated insertion vs STR bulk loading (wall time
//!    and node count);
//! 4. **Transform pruning**: candidates for all five envelope transforms on
//!    one workload, each a range query over that transform's features;
//! 5. **Verification cascade**: where candidates die (envelope bound,
//!    `LB_Improved`, early-abandoned DTW) and the DP-cell cost of
//!    verification, from the product engine. Only the full cascade runs;
//!    the "no cascade" and "envelope only" rows are computed from its
//!    funnel (see `without_later_stages`).

use std::time::Instant;

use serde::Serialize;

use hum_core::dtw::{band_for_warping_width, ldtw_distance_sq_bounded_with, DtwWorkspace};
use hum_core::engine::{EngineStats, QueryRequest};
use hum_core::normal::NormalForm;
use hum_core::transform::dft::Dft;
use hum_core::transform::dwt::Dwt;
use hum_core::transform::paa::{KeoghPaa, NewPaa};
use hum_core::transform::svd::SvdTransform;
use hum_core::transform::EnvelopeTransform;
use hum_datasets::{generate, DatasetFamily};
use hum_index::{LinearScan, QueryStats, RStarTree, SpatialIndex};

use crate::experiments::sweep::{build_engine, feature_range, with_features};
use crate::report::{cascade_table, fmt1, TextTable};

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Database size.
    pub series: usize,
    /// Series length.
    pub length: usize,
    /// Feature dimensions.
    pub dims: usize,
    /// Queries averaged.
    pub queries: usize,
    /// Warping width.
    pub warping_width: f64,
    /// Threshold ε.
    pub threshold: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// Full scale.
    pub fn paper() -> Self {
        Params {
            series: 20_000,
            length: 128,
            dims: 8,
            queries: 50,
            warping_width: 0.1,
            threshold: 0.2,
            seed: 12,
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Params { series: 2_000, queries: 10, ..Params::paper() }
    }
}

/// One backend's costs.
#[derive(Debug, Clone, Serialize)]
pub struct BackendRow {
    /// Backend name.
    pub backend: String,
    /// Mean candidates per query.
    pub candidates: f64,
    /// Mean page accesses per query.
    pub page_accesses: f64,
}

/// One transform's pruning power.
#[derive(Debug, Clone, Serialize)]
pub struct TransformRow {
    /// Transform name.
    pub transform: String,
    /// Mean candidates per query.
    pub candidates: f64,
}

/// Build-strategy costs.
#[derive(Debug, Clone, Serialize)]
pub struct BuildRow {
    /// Strategy name.
    pub strategy: String,
    /// Wall-clock build time in milliseconds.
    pub millis: f64,
    /// Nodes (pages) in the resulting tree.
    pub nodes: usize,
    /// Mean page accesses per range query on the built tree.
    pub page_accesses: f64,
}

/// One cascade configuration's verification costs, summed over the query
/// batch.
#[derive(Debug, Clone, Serialize)]
pub struct CascadeRow {
    /// Configuration name.
    pub config: String,
    /// Index candidates entering verification.
    pub candidates: u64,
    /// Candidates removed by the envelope second filter.
    pub lb_pruned: u64,
    /// Candidates removed by the `LB_Improved` third filter.
    pub lb_improved_pruned: u64,
    /// Exact DTW evaluations started.
    pub exact_started: u64,
    /// Exact DTW evaluations abandoned by the radius threshold.
    pub early_abandoned: u64,
    /// DTW dynamic-programming cells evaluated.
    pub dp_cells: u64,
    /// Matches returned.
    pub matches: u64,
}

impl CascadeRow {
    fn new(config: &str, stats: &EngineStats) -> Self {
        CascadeRow {
            config: config.to_string(),
            candidates: stats.index.candidates,
            lb_pruned: stats.lb_pruned,
            lb_improved_pruned: stats.lb_improved_pruned,
            exact_started: stats.exact_computations,
            early_abandoned: stats.early_abandoned,
            dp_cells: stats.dp_cells,
            matches: stats.matches,
        }
    }
}

/// Experiment output.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Database size.
    pub series: usize,
    /// Backend ablation (New_PAA features).
    pub backends: Vec<BackendRow>,
    /// Exact DTW computations with the LB second filter.
    pub exact_with_filter: f64,
    /// Exact DTW computations without it.
    pub exact_without_filter: f64,
    /// Build-strategy ablation for the R\*-tree.
    pub builds: Vec<BuildRow>,
    /// Transform pruning ablation (feature-space range query per transform).
    pub transforms: Vec<TransformRow>,
    /// Verification-cascade ablation (the product engine).
    pub cascade: Vec<CascadeRow>,
}

fn workload(params: &Params) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let normal = NormalForm::with_length(params.length);
    let database: Vec<Vec<f64>> =
        generate(DatasetFamily::RandomWalk, params.series, params.length, params.seed)
            .into_iter()
            .map(|s| normal.apply(&s))
            .collect();
    let queries: Vec<Vec<f64>> = generate(
        DatasetFamily::RandomWalk,
        params.queries,
        params.length,
        params.seed ^ 0x5150,
    )
    .into_iter()
    .map(|s| normal.apply(&s))
    .collect();
    (database, queries)
}

/// Runs all five ablations. One product engine (New_PAA over the flat
/// sweep) answers every query and gives the linear-scan row and the cascade
/// funnel; the R\*-tree row and the transform rows are feature-space range
/// queries ([`feature_range`]) over the same envelope boxes.
pub fn run(params: &Params) -> Output {
    let (database, queries) = workload(params);
    let band = band_for_warping_width(params.warping_width, params.length);
    let radius = (params.length as f64 * params.threshold).sqrt();
    let new_paa = NewPaa::new(params.length, params.dims);
    let per_query = |total: u64| total as f64 / queries.len().max(1) as f64;

    // 3. Build strategies (point data only; query cost measured after).
    let features: Vec<(u64, Vec<f64>)> =
        database.iter().enumerate().map(|(i, s)| (i as u64, new_paa.project(s))).collect();
    let started = Instant::now();
    let mut inserted = RStarTree::with_page_size(params.dims, 4096);
    for (id, p) in features.clone() {
        inserted.insert(id, p);
    }
    let build = |strategy: &str, started: Instant, tree: &RStarTree| {
        let millis = started.elapsed().as_secs_f64() * 1e3;
        let pages: u64 = queries
            .iter()
            .map(|q| feature_range(tree, &new_paa, q, band, radius).1.node_accesses)
            .sum();
        BuildRow {
            strategy: strategy.to_string(),
            millis,
            nodes: tree.node_count(),
            page_accesses: per_query(pages),
        }
    };
    let mut builds = vec![build("insert one-by-one", started, &inserted)];
    let started = Instant::now();
    let bulk = RStarTree::bulk_load(params.dims, 4096, features);
    builds.push(build("STR bulk load", started, &bulk));

    // 1 and 5. The product engine: the linear-scan row, and where the
    // verification cascade's candidates die and what verification costs in
    // DP cells. The full cascade runs; the rows without its later stages
    // follow from its funnel. The R*-tree row is the inserted tree's range
    // query over the same boxes.
    let engine = build_engine(&database, params.dims);
    let (mut full, mut tree) = (EngineStats::default(), QueryStats::default());
    for q in &queries {
        let request = QueryRequest::range(radius).with_series(q.clone()).with_band(band);
        full.absorb(&engine.try_query(&request).expect("valid query").result.stats);
        tree.absorb(&feature_range(&inserted, &new_paa, q, band, radius).1);
    }
    let backend = |name: &str, stats: &QueryStats| BackendRow {
        backend: name.to_string(),
        candidates: per_query(stats.candidates),
        page_accesses: per_query(stats.node_accesses),
    };
    let backends = vec![backend("R*-tree", &tree), backend("linear scan", &full.index)];

    // 4. Transform pruning: each transform's candidates from a range query
    // over its features.
    let transform_list: Vec<Box<dyn EnvelopeTransform>> = vec![
        Box::new(new_paa.clone()),
        Box::new(KeoghPaa::new(params.length, params.dims)),
        Box::new(Dft::new(params.length, params.dims)),
        Box::new(Dwt::new(params.length, params.dims)),
        Box::new(SvdTransform::fit(&database[..500.min(database.len())], params.dims)),
    ];
    let transforms = transform_list
        .iter()
        .map(|transform| {
            let index = with_features(LinearScan::new(params.dims), &**transform, &database);
            let total: u64 = queries
                .iter()
                .map(|q| feature_range(&index, &**transform, q, band, radius).1.candidates)
                .sum();
            TransformRow { transform: transform.name().to_string(), candidates: per_query(total) }
        })
        .collect();

    // The DP cells of one full banded DTW, as the kernel counts them.
    let mut ws = DtwWorkspace::new();
    ldtw_distance_sq_bounded_with(&mut ws, &database[0], &database[0], band, f64::INFINITY);
    let no_cascade = without_later_stages(&full, 0, ws.cells());
    let envelope_only = without_later_stages(&full, full.lb_pruned, ws.cells());

    // 2. Envelope second filter: exact DTWs per query with and without it.
    Output {
        series: params.series,
        backends,
        exact_with_filter: per_query(envelope_only.exact_computations),
        exact_without_filter: per_query(no_cascade.exact_computations),
        builds,
        transforms,
        cascade: vec![
            CascadeRow::new("no cascade", &no_cascade),
            CascadeRow::new("envelope only", &envelope_only),
            CascadeRow::new("full cascade", &full),
        ],
    }
}

/// The funnel of a cascade whose stages after the envelope sweep are off,
/// computed from the full cascade's funnel `full`: the envelope sweep prunes
/// `lb_pruned` of the candidates (0 with it off too), and every other
/// candidate runs one full banded DTW of `dtw_cells` DP cells. Exact for a
/// batch of range queries: a range query decides each candidate at one
/// threshold, so the envelope sweep prunes the same candidates whatever
/// stages follow it, and without `LB_Improved` or early abandoning a DTW's
/// cell count depends only on the series length and the band.
fn without_later_stages(full: &EngineStats, lb_pruned: u64, dtw_cells: u64) -> EngineStats {
    let exact_computations = full.index.candidates - lb_pruned;
    EngineStats {
        index: full.index,
        lb_pruned,
        exact_computations,
        dp_cells: exact_computations * dtw_cells,
        matches: full.matches,
        ..EngineStats::default()
    }
}

/// Renders the four ablation tables.
pub fn render(output: &Output) -> (String, TextTable) {
    let mut backends = TextTable::new(vec!["backend", "candidates", "page accesses"]);
    for row in &output.backends {
        backends.row(vec![row.backend.clone(), fmt1(row.candidates), fmt1(row.page_accesses)]);
    }
    let mut builds = TextTable::new(vec!["build strategy", "ms", "nodes", "page accesses/query"]);
    for row in &output.builds {
        builds.row(vec![
            row.strategy.clone(),
            fmt1(row.millis),
            row.nodes.to_string(),
            fmt1(row.page_accesses),
        ]);
    }
    let mut transforms = TextTable::new(vec!["transform", "candidates"]);
    for row in &output.transforms {
        transforms.row(vec![row.transform.clone(), fmt1(row.candidates)]);
    }
    // Reconstruct stats bundles so the cascade table renders through the
    // shared report helper.
    let cascade_stats: Vec<(String, EngineStats)> = output
        .cascade
        .iter()
        .map(|r| {
            let mut s = EngineStats::default();
            s.index.candidates = r.candidates;
            s.lb_pruned = r.lb_pruned;
            s.lb_improved_pruned = r.lb_improved_pruned;
            s.exact_computations = r.exact_started;
            s.early_abandoned = r.early_abandoned;
            s.dp_cells = r.dp_cells;
            s.matches = r.matches;
            (r.config.clone(), s)
        })
        .collect();
    let cascade = cascade_table(cascade_stats.iter().map(|(l, s)| (l.as_str(), s)));
    let text = format!(
        "Ablations ({} random walks, delta=0.1, eps=0.2)\n\n\
         Backend comparison (New_PAA):\n{}\n\
         Envelope second filter: {:.1} exact DTWs/query with, {:.1} without\n\n\
         R*-tree build strategy:\n{}\n\
         Transform pruning power:\n{}\n\
         Verification cascade (totals over the query batch):\n{}\
         Rows 1-2 are computed from the full cascade's counters, not run: with no stage\n\
         after the envelope sweep, exact_started = candidates - lb_pruned (lb_pruned = 0\n\
         for no cascade) and dp_cells = exact_started x the cells of one full banded DTW.\n",
        output.series,
        backends.render(),
        output.exact_with_filter,
        output.exact_without_filter,
        builds.render(),
        transforms.render(),
        cascade.render()
    );
    (text, backends)
}

/// Sanity checks; returns failed claims.
pub fn check(output: &Output) -> Vec<String> {
    let mut failures = Vec::new();
    let by = |name: &str| output.backends.iter().find(|b| b.backend == name);
    let (Some(rstar), Some(linear)) = (by("R*-tree"), by("linear scan")) else {
        return vec!["missing backend rows".into()];
    };
    if rstar.page_accesses > linear.page_accesses {
        failures.push("R*-tree reads more pages than a full scan".into());
    }
    if (rstar.candidates - linear.candidates).abs() > 1e-6 {
        failures.push("candidate sets must be backend-independent".into());
    }
    if output.exact_with_filter > output.exact_without_filter + 1e-9 {
        failures.push("the LB second filter must never add exact computations".into());
    }
    if let [insert, bulk] = &output.builds[..] {
        if bulk.nodes > insert.nodes {
            failures.push("bulk load should pack at least as tightly".into());
        }
    }
    let cascade_by = |name: &str| output.cascade.iter().find(|r| r.config == name);
    if let (Some(off), Some(full)) = (cascade_by("no cascade"), cascade_by("full cascade")) {
        if full.dp_cells > off.dp_cells {
            failures.push("the cascade must not add DP cells".into());
        }
        if full.exact_started > off.exact_started {
            failures.push("the cascade must not add exact DTW starts".into());
        }
    } else {
        failures.push("missing cascade rows".into());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ablations_hold() {
        let out = run(&Params::quick());
        let failures = check(&out);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(out.backends.len(), 2);
        assert_eq!(out.transforms.len(), 5);
        assert_eq!(out.builds.len(), 2);
        assert_eq!(out.cascade.len(), 3);
    }

    #[test]
    fn render_covers_all_sections() {
        let out = run(&Params { series: 500, queries: 4, ..Params::paper() });
        let (text, _) = render(&out);
        for section in [
            "Backend comparison",
            "second filter",
            "build strategy",
            "pruning power",
            "Verification cascade",
        ] {
            assert!(text.contains(section), "{section}");
        }
    }
}
