//! Prints a bit-exact digest of engine answers and counters over a fixed
//! pseudo-random workload, for before/after comparison of engine changes.
//!
//! One pass over the engine (New_PAA over the flat sweep). Every line prints
//! the matches and their bits, the index counters, and the cascade funnel:
//! envelope-pruned, `LB_Improved`-pruned, exact DTW runs started, of those
//! abandoned, and DP cells. `ci.sh` compares the output's sha256 with the
//! committed `results/engine_digest.sha256`, so a change that moves an
//! answer or any counter re-baselines it on purpose.

use std::fmt::Write as _;

use hum_core::engine::{DtwIndexEngine, QueryRequest, QueryResult};
use hum_core::transform::paa::NewPaa;
use hum_index::{ItemId, LinearScan};

fn lcg_series(n: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    let mut next = move || {
        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n)
        .map(|_| {
            let mut acc = 0.0;
            let mut s: Vec<f64> = (0..len)
                .map(|_| {
                    acc += next();
                    acc
                })
                .collect();
            hum_linalg::vec_ops::center(&mut s);
            s
        })
        .collect()
}

fn match_bits(matches: &[(ItemId, f64)]) -> u64 {
    matches
        .iter()
        .fold(0u64, |h, (id, d)| h.wrapping_mul(31).wrapping_add(id.wrapping_add(d.to_bits())))
}

/// One digest line's fields after the label: answers, index counters and
/// the cascade funnel.
fn fields(r: &QueryResult) -> String {
    let s = &r.stats;
    format!(
        "m={} bits={:x} cand={} pages={} pts={} lb={} lbi={} exact={} abandoned={} cells={}",
        r.matches.len(),
        match_bits(&r.matches),
        s.index.candidates,
        s.index.node_accesses,
        s.index.points_examined,
        s.lb_pruned,
        s.lb_improved_pruned,
        s.exact_computations,
        s.early_abandoned,
        s.dp_cells
    )
}

fn main() {
    let mut out = String::new();
    let series = lcg_series(400, 64, 11);
    let queries = lcg_series(12, 64, 777);
    let mut engine = DtwIndexEngine::new(NewPaa::new(64, 8), LinearScan::with_page_size(8, 1024));
    for (i, s) in series.iter().enumerate() {
        engine.try_insert(i as ItemId, s.clone()).unwrap();
    }
    for (qi, q) in queries.iter().enumerate() {
        for (band, radius) in [(0usize, 1.2), (3, 2.0), (6, 3.5)] {
            let request = QueryRequest::range(radius).with_series(q.clone()).with_band(band);
            let r = engine.try_query(&request).unwrap().result;
            let _ = writeln!(out, "linear q{qi} range b{band} r{radius}: {}", fields(&r));
        }
        for (band, k) in [(0usize, 1), (3, 5), (6, 17)] {
            let request = QueryRequest::knn(k).with_series(q.clone()).with_band(band);
            let r = engine.try_query(&request).unwrap().result;
            let _ = writeln!(out, "linear q{qi} knn b{band} k{k}: {}", fields(&r));
        }
    }
    print!("{out}");
}
