//! Feature-dimension sweep at scale: what the New_PAA frame count `d` buys
//! and costs on songbook corpora of 10^4 to 10^5 melodies, queried with
//! sung hums.
//!
//! Every corpus is a songbook of 20-phrase songs, and every hum comes from
//! [`hum_qbh::eval::generate_hums`]: three good singers to every poor one,
//! interleaved, seeded as the repo benchmark seeds its hums. Each corpus is
//! built once per `d` and answers the same k-NN(10) hums one at a time on
//! one thread. A row reports the build seconds, the share of the corpus the
//! feature index hands over as candidates, the feature pages and exact DTW
//! runs per query, and latency.
//!
//! The shape check is the paper's contract: New_PAA is container-invariant
//! at every `d`, so Theorem 1 leaves no false negatives at any of them, and
//! every `d` returns identical matches for every hum. Candidate ratios must
//! lie in [0, 1].

use std::time::Instant;

use serde::Serialize;

use hum_core::engine::{EngineStats, QueryRequest, QueryScratch};
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::{generate_hums, HumQuery};
use hum_qbh::system::{QbhConfig, QbhSystem};

use crate::report::{fmt1, fmt3, TextTable};

/// Phrases per song in every corpus (the repo benchmark's songbooks).
const PHRASES_PER_SONG: usize = 20;

/// Neighbours asked of every k-NN (the paper's top-10 retrieval bins).
const K: usize = 10;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Corpus sizes in melodies, one row group each.
    pub melodies: Vec<usize>,
    /// New_PAA frame counts swept at every size; each must divide the
    /// normal-form length.
    pub dims: Vec<usize>,
    /// Hums per corpus.
    pub hums: usize,
    /// Seed of the songbooks and the hums.
    pub seed: u64,
}

impl Params {
    /// Full scale: 10^4, 3·10^4 and 10^5 melodies.
    pub fn paper() -> Self {
        Params {
            melodies: vec![10_000, 30_000, 100_000],
            dims: vec![8, 16, 32],
            hums: 200,
            seed: 1,
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Params { melodies: vec![1_000, 4_000], hums: 40, ..Params::paper() }
    }
}

/// One measured (corpus size, `d`) cell.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleRow {
    /// Corpus size.
    pub melodies: usize,
    /// New_PAA frame count.
    pub feature_dims: usize,
    /// Seconds to build the in-memory system over the corpus.
    pub build_secs: f64,
    /// Mean share of the corpus handed over as index candidates.
    pub candidate_ratio: f64,
    /// Mean feature pages the index read per query.
    pub pages_per_query: f64,
    /// Mean exact DTW runs per query.
    pub exact_per_query: f64,
    /// Queries per second over the cell's hums.
    pub qps: f64,
    /// Median query latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile query latency in milliseconds.
    pub p95_ms: f64,
    /// Hums whose matches differ from those at the size's first `d`.
    pub mismatched_hums: usize,
}

/// Experiment output.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// One row per (corpus size, `d`) cell.
    pub rows: Vec<ScaleRow>,
}

/// `count` hums at melodies of `db`: three good singers to every poor one,
/// interleaved so any stretch of the list has that mix.
fn hum_mix(db: &MelodyDatabase, count: usize, seed: u64) -> Vec<HumQuery> {
    let poor_count = count / 4;
    let good = generate_hums(db, SingerProfile::good(), count - poor_count, seed ^ 0x600D);
    let mut poor = generate_hums(db, SingerProfile::poor(), poor_count, seed ^ 0xBAD).into_iter();
    let mut mix = Vec::with_capacity(count);
    for (i, hum) in good.into_iter().enumerate() {
        mix.push(hum);
        if i % 3 == 2 {
            mix.extend(poor.next());
        }
    }
    mix.extend(poor);
    mix
}

/// Every answer of one cell, hum by hum, as (id, distance bits).
type Answers = Vec<Vec<(u64, u64)>>;

/// Builds `db` at `d` frames and answers every hum.
fn run_cell(db: &MelodyDatabase, hums: &[HumQuery], dims: usize) -> (ScaleRow, Answers) {
    let config = QbhConfig { feature_dims: dims, ..QbhConfig::default() };
    let started = Instant::now();
    let system = QbhSystem::build(db, &config);
    let build_secs = started.elapsed().as_secs_f64();

    let request = QueryRequest::knn(K).with_band(system.band());
    let mut scratch = QueryScratch::new();
    let mut stats = EngineStats::default();
    let mut latencies_ms = Vec::with_capacity(hums.len());
    let mut answers = Vec::with_capacity(hums.len());
    let queries_started = Instant::now();
    for hum in hums {
        let t = Instant::now();
        let (results, _) = system
            .try_query_request_with(&hum.series, request.clone(), &mut scratch)
            .expect("a sung hum is a well-formed query");
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        stats.absorb(&results.stats);
        answers.push(results.matches.iter().map(|m| (m.id, m.distance.to_bits())).collect());
    }
    let query_secs = queries_started.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| latencies_ms[((latencies_ms.len() as f64 - 1.0) * p).round() as usize];
    let per_query = |total: u64| total as f64 / hums.len() as f64;

    let row = ScaleRow {
        melodies: db.len(),
        feature_dims: dims,
        build_secs,
        candidate_ratio: per_query(stats.index.candidates) / db.len() as f64,
        pages_per_query: per_query(stats.index.pages()),
        exact_per_query: per_query(stats.exact_computations),
        qps: hums.len() as f64 / query_secs.max(1e-9),
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        mismatched_hums: 0,
    };
    (row, answers)
}

/// Runs the experiment.
pub fn run(params: &Params) -> Output {
    let mut rows = Vec::new();
    for &n in &params.melodies {
        let db = MelodyDatabase::from_songbook(&SongbookConfig {
            songs: n.div_ceil(PHRASES_PER_SONG),
            phrases_per_song: PHRASES_PER_SONG,
            seed: params.seed,
            ..SongbookConfig::default()
        });
        let hums = hum_mix(&db, params.hums, params.seed);
        let mut reference: Option<Answers> = None;
        for &dims in &params.dims {
            let (mut row, answers) = run_cell(&db, &hums, dims);
            row.mismatched_hums = reference.as_ref().map_or(0, |first| {
                answers.iter().zip(first).filter(|(a, b)| a != b).count()
            });
            reference.get_or_insert(answers);
            rows.push(row);
        }
    }
    Output { rows }
}

/// Renders the sweep table.
pub fn render(output: &Output) -> (String, TextTable) {
    let mut table = TextTable::new(vec![
        "melodies",
        "d",
        "build s",
        "cand ratio",
        "pages/q",
        "exact/q",
        "qps",
        "p50 ms",
        "p95 ms",
        "mismatched",
    ]);
    for row in &output.rows {
        table.row(vec![
            row.melodies.to_string(),
            row.feature_dims.to_string(),
            fmt3(row.build_secs),
            fmt3(row.candidate_ratio),
            fmt1(row.pages_per_query),
            fmt1(row.exact_per_query),
            fmt1(row.qps),
            fmt3(row.p50_ms),
            fmt3(row.p95_ms),
            row.mismatched_hums.to_string(),
        ]);
    }
    let mut text = String::from(
        "Feature-dimension sweep: New_PAA frame count d on songbook corpora,\n\
         k-NN(10) over sung hums (3 good : 1 poor), one query at a time\n\n",
    );
    text.push_str(&table.render());
    (text, table)
}

/// Shape checks: at every corpus size every `d` answers every hum exactly
/// as the first `d` does (no false negatives at any `d`), and every cell
/// produced a sane workload (candidate ratio in [0, 1], queries ran, p50 ≤
/// p95).
pub fn check(output: &Output) -> Vec<String> {
    let mut failures = Vec::new();
    for row in &output.rows {
        let cell = format!("{} melodies, d={}", row.melodies, row.feature_dims);
        if row.mismatched_hums != 0 {
            failures.push(format!(
                "{cell}: {} hums answered differently than at the first d",
                row.mismatched_hums
            ));
        }
        if !(0.0..=1.0).contains(&row.candidate_ratio) {
            let ratio = row.candidate_ratio;
            failures.push(format!("{cell}: candidate ratio {ratio:.3} outside [0, 1]"));
        }
        if row.qps <= 0.0 || !row.qps.is_finite() {
            failures.push(format!("{cell}: degenerate qps {}", row.qps));
        }
        if row.p50_ms > row.p95_ms + 1e-9 {
            let (p50, p95) = (row.p50_ms, row.p95_ms);
            failures.push(format!("{cell}: p50 {p50:.3} ms exceeds p95 {p95:.3} ms"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_passes_shape_checks() {
        let mut out = run(&Params { melodies: vec![200, 400], hums: 8, ..Params::quick() });
        assert_eq!(out.rows.len(), 2 * 3);
        let failures = check(&out);
        assert!(failures.is_empty(), "{failures:?}");
        // A d that answered one hum differently is caught.
        out.rows[4].mismatched_hums = 1;
        assert_eq!(check(&out).len(), 1);
    }

    #[test]
    fn hum_mix_is_three_good_to_one_poor() {
        let db = MelodyDatabase::from_songbook(&SongbookConfig {
            songs: 2,
            phrases_per_song: PHRASES_PER_SONG,
            ..SongbookConfig::default()
        });
        let good = generate_hums(&db, SingerProfile::good(), 6, 5 ^ 0x600D);
        let poor = generate_hums(&db, SingerProfile::poor(), 2, 5 ^ 0xBAD);
        let want = [&good[..3], &poor[..1], &good[3..], &poor[1..]].concat();
        let key = |hums: &[HumQuery]| -> Vec<(u64, Vec<f64>)> {
            hums.iter().map(|h| (h.target, h.series.clone())).collect()
        };
        assert_eq!(key(&hum_mix(&db, 8, 5)), key(&want));
    }
}
