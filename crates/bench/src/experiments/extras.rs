//! Ablations beyond the paper's figures — the design-choice experiments
//! DESIGN.md calls out, reported in the same candidates/page-accesses
//! currency as Figs 8–10:
//!
//! 1. **Index backend**: R\*-tree vs linear scan under the same transform
//!    and workload;
//! 2. **Envelope second filter**: exact-DTW computations with and without
//!    the full-dimension LB refilter between index and verification,
//!    computed from section 5's funnel;
//! 3. **Build strategy**: repeated insertion vs STR bulk loading (wall time
//!    and node count);
//! 4. **Transform pruning**: candidates for all five envelope transforms on
//!    one workload;
//! 5. **Verification cascade**: where candidates die (envelope bound,
//!    `LB_Improved`, early-abandoned DTW) and the DP-cell cost of
//!    verification. Only the full cascade runs; the "no cascade" and
//!    "envelope only" rows are computed from its funnel (see
//!    `without_later_stages`).

use std::time::Instant;

use serde::Serialize;

use hum_core::dtw::{band_for_warping_width, ldtw_distance_sq_bounded_with, DtwWorkspace};
use hum_core::engine::{DtwIndexEngine, EngineStats, QueryRequest};
use hum_core::normal::NormalForm;
use hum_core::transform::dft::Dft;
use hum_core::transform::dwt::Dwt;
use hum_core::transform::paa::{KeoghPaa, NewPaa};
use hum_core::transform::svd::SvdTransform;
use hum_core::transform::EnvelopeTransform;
use hum_datasets::{generate, DatasetFamily};
use hum_index::{LinearScan, RStarTree, SpatialIndex};

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
    /// Backend ablation (New_PAA transform).
    pub backends: Vec<BackendRow>,
    /// Exact DTW computations with the LB second filter.
    pub exact_with_filter: f64,
    /// Exact DTW computations without it.
    pub exact_without_filter: f64,
    /// Build-strategy ablation for the R\*-tree.
    pub builds: Vec<BuildRow>,
    /// Transform pruning ablation (R\*-tree backend).
    pub transforms: Vec<TransformRow>,
    /// Verification-cascade ablation (R\*-tree backend, New\_PAA).
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

/// Runs all four ablations.
pub fn run(params: &Params) -> Output {
    let (database, queries) = workload(params);
    let band = band_for_warping_width(params.warping_width, params.length);
    let radius = (params.length as f64 * params.threshold).sqrt();

    // 1. Backends under New_PAA.
    let mut backends = Vec::new();
    let backend_list: Vec<(&str, Box<dyn SpatialIndex>)> = vec![
        ("R*-tree", Box::new(RStarTree::with_page_size(params.dims, 4096))),
        ("linear scan", Box::new(LinearScan::with_page_size(params.dims, 4096))),
    ];
    for (name, index) in backend_list {
        let mut engine = DtwIndexEngine::new(NewPaa::new(params.length, params.dims), index);
        for (i, s) in database.iter().enumerate() {
            engine.try_insert(i as u64, s.clone()).expect("finite normal form");
        }
        let (mut cand, mut pages) = (0u64, 0u64);
        for q in &queries {
            let request = QueryRequest::range(radius).with_series(q.clone()).with_band(band);
            let r = engine.try_query(&request).expect("valid query").result;
            cand += r.stats.index.candidates;
            pages += r.stats.index.node_accesses;
        }
        let n = queries.len().max(1) as f64;
        backends.push(BackendRow {
            backend: name.to_string(),
            candidates: cand as f64 / n,
            page_accesses: pages as f64 / n,
        });
    }

    // 3. Build strategies (point data only; query cost measured after).
    let features: Vec<(u64, Vec<f64>)> = {
        let t = NewPaa::new(params.length, params.dims);
        database.iter().enumerate().map(|(i, s)| (i as u64, t.project(s))).collect()
    };
    let mut builds = Vec::new();
    {
        let started = Instant::now();
        let mut tree = RStarTree::with_page_size(params.dims, 4096);
        for (id, p) in features.clone() {
            tree.insert(id, p);
        }
        builds.push(build_row("insert one-by-one", started, &tree, &queries, params, band, radius, &database));
    }
    {
        let started = Instant::now();
        let tree = RStarTree::bulk_load(params.dims, 4096, features.clone());
        builds.push(build_row("STR bulk load", started, &tree, &queries, params, band, radius, &database));
    }

    // 4. Transform pruning on the R*-tree.
    let transform_list: Vec<Box<dyn EnvelopeTransform>> = vec![
        Box::new(NewPaa::new(params.length, params.dims)),
        Box::new(KeoghPaa::new(params.length, params.dims)),
        Box::new(Dft::new(params.length, params.dims)),
        Box::new(Dwt::new(params.length, params.dims)),
        Box::new(SvdTransform::fit(&database[..500.min(database.len())], params.dims)),
    ];
    let mut transforms = Vec::new();
    for transform in transform_list {
        let name = transform.name().to_string();
        let mut engine =
            DtwIndexEngine::new(transform, RStarTree::with_page_size(params.dims, 4096));
        for (i, s) in database.iter().enumerate() {
            engine.try_insert(i as u64, s.clone()).expect("finite normal form");
        }
        let total: u64 = queries
            .iter()
            .map(|q| {
                let request =
                    QueryRequest::range(radius).with_series(q.clone()).with_band(band);
                engine.try_query(&request).expect("valid query").result.stats.index.candidates
            })
            .sum();
        transforms.push(TransformRow {
            transform: name,
            candidates: total as f64 / queries.len().max(1) as f64,
        });
    }

    // 5. Verification cascade (R*-tree, New_PAA): where candidates die and
    // what verification costs in DP cells. The full cascade runs; the rows
    // without its later stages follow from its funnel.
    let mut engine = DtwIndexEngine::new(
        NewPaa::new(params.length, params.dims),
        RStarTree::with_page_size(params.dims, 4096),
    );
    for (i, s) in database.iter().enumerate() {
        engine.try_insert(i as u64, s.clone()).expect("finite normal form");
    }
    let mut full = EngineStats::default();
    for q in &queries {
        let request = QueryRequest::range(radius).with_series(q.clone()).with_band(band);
        full.absorb(&engine.try_query(&request).expect("valid query").result.stats);
    }
    // The DP cells of one full banded DTW, as the kernel counts them.
    let mut ws = DtwWorkspace::new();
    ldtw_distance_sq_bounded_with(&mut ws, &database[0], &database[0], band, f64::INFINITY);
    let no_cascade = without_later_stages(&full, 0, ws.cells());
    let envelope_only = without_later_stages(&full, full.lb_pruned, ws.cells());

    // 2. Envelope second filter: exact DTWs per query with and without it.
    let per_query = |stats: &EngineStats| {
        stats.exact_computations as f64 / queries.len().max(1) as f64
    };
    Output {
        series: params.series,
        backends,
        exact_with_filter: per_query(&envelope_only),
        exact_without_filter: per_query(&no_cascade),
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

#[allow(clippy::too_many_arguments)] // internal helper mirroring the measurement context
fn build_row(
    strategy: &str,
    started: Instant,
    tree: &RStarTree,
    queries: &[Vec<f64>],
    params: &Params,
    band: usize,
    radius: f64,
    database: &[Vec<f64>],
) -> BuildRow {
    let millis = started.elapsed().as_secs_f64() * 1e3;
    // Measure index-level page accesses directly against the prebuilt tree
    // (queries are already in normal form).
    let transform = NewPaa::new(params.length, params.dims);
    let mut pages = 0u64;
    for q in queries {
        let env = hum_core::envelope::Envelope::compute(q, band);
        let fbox = transform.project_envelope(&env);
        let (_, stats) = tree.range_query(&hum_index::Query::Rect(fbox), radius);
        pages += stats.node_accesses;
    }
    let _ = database;
    BuildRow {
        strategy: strategy.to_string(),
        millis,
        nodes: tree.node_count(),
        page_accesses: pages as f64 / queries.len().max(1) as f64,
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
