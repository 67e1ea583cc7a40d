//! Engine-level properties of the verification cascade: every stage
//! (envelope bound, `LB_Improved`, early-abandoning DTW) is exact with
//! respect to its prune threshold, so the cascade is invisible in the
//! answers — same ids, bit-identical distances to a brute-force
//! `ldtw_distance` sweep; and a range query through the paper's R\*-tree
//! over the same features, refined the same way, answers identically.

use hum_core::dtw::ldtw_distance;
use hum_core::engine::{DtwIndexEngine, QueryRequest};
use hum_core::transform::paa::NewPaa;
use hum_core::{Envelope, EnvelopeTransform};
use hum_index::{LinearScan, Query, RStarTree, SpatialIndex};
use proptest::prelude::*;

const LEN: usize = 32;
const N: usize = 60;

/// Deterministic pseudo-random walks from a seed, centered like the
/// engine's normal form expects.
fn lcg_series(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    let mut next = move || {
        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n)
        .map(|_| {
            let mut acc = 0.0;
            let mut s: Vec<f64> = (0..LEN)
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

fn bits(matches: &[(u64, f64)]) -> Vec<(u64, u64)> {
    matches.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}

/// The oracle: bit-exact images of the range and k-NN answers of a
/// brute-force sweep over the `candidates`, in `(distance, id)` order.
fn brute_force(
    database: &[Vec<f64>],
    candidates: impl Iterator<Item = u64>,
    query: &[f64],
    band: usize,
    radius: f64,
    k: usize,
) -> Vec<Vec<(u64, u64)>> {
    let mut all: Vec<(u64, f64)> = candidates
        .map(|id| (id, ldtw_distance(query, &database[id as usize], band)))
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    let in_range: Vec<(u64, f64)> = all.iter().copied().filter(|m| m.1 <= radius).collect();
    vec![bits(&in_range), bits(&all[..k.min(all.len())])]
}

/// Bit-exact images of the engine's range and k-NN answers, then of the
/// range answer through the paper's R\*-tree over the same features (its
/// candidates refined by brute force).
fn answers(
    database: &[Vec<f64>],
    query: &[f64],
    band: usize,
    radius: f64,
    k: usize,
) -> Vec<Vec<(u64, u64)>> {
    let mut engine = DtwIndexEngine::new(NewPaa::new(LEN, 4), LinearScan::new(4));
    let mut tree = RStarTree::with_page_size(4, 1024);
    for (i, s) in database.iter().enumerate() {
        engine.try_insert(i as u64, s.clone()).unwrap();
        tree.insert(i as u64, engine.transform().project(s));
    }
    let range = QueryRequest::range(radius).with_series(query).with_band(band);
    let knn = QueryRequest::knn(k).with_series(query).with_band(band);
    let feature_box = engine.transform().project_envelope(&Envelope::compute(query, band));
    let (listed, _) = tree.range_query(&Query::Rect(feature_box), radius);
    vec![
        bits(&engine.try_query(&range).unwrap().result.matches),
        bits(&engine.try_query(&knn).unwrap().result.matches),
        brute_force(database, listed.into_iter(), query, band, radius, k).swap_remove(0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn answers_equal_brute_force_on_both_backends(
        seed in any::<u64>(),
        band in 0usize..8,
        k in 1usize..8,
        radius in 0.5f64..4.0,
    ) {
        let database = lcg_series(N, seed);
        let query = lcg_series(1, seed ^ 0x00ab_cdef).remove(0);
        let reference = brute_force(&database, 0..N as u64, &query, band, radius, k);
        prop_assert!(
            reference[0].len() <= N && reference[1].len() == k.min(N),
            "reference answers malformed"
        );
        let expected = [reference.clone(), vec![reference[0].clone()]].concat();
        prop_assert_eq!(answers(&database, &query, band, radius, k), expected);
    }
}
