//! The paper's central guarantee, exercised across crates with randomized
//! workloads: for every transform, a feature-space range query over the
//! query envelope's box lists every series whose true banded DTW distance
//! is within ε (Theorem 1), in either index, so refining its candidates by
//! exact DTW, as the product engine's ε-range query does, returns *exactly*
//! those series — never fewer, never more.

use hum_bench::experiments::sweep::{build_engine, feature_range, with_features};
use hum_core::dtw::ldtw_distance;
use hum_core::engine::QueryRequest;
use hum_core::transform::dft::Dft;
use hum_core::transform::dwt::Dwt;
use hum_core::transform::paa::{KeoghPaa, NewPaa};
use hum_core::transform::svd::SvdTransform;
use hum_core::transform::EnvelopeTransform;
use hum_datasets::{generate, DatasetFamily, ALL_FAMILIES};
use hum_index::{LinearScan, RStarTree};
use proptest::prelude::*;

const LEN: usize = 64;
const DIMS: usize = 8;

fn workload(family: DatasetFamily, n: usize, seed: u64) -> Vec<Vec<f64>> {
    generate(family, n, LEN, seed)
        .into_iter()
        .map(|s| hum_core::normal::NormalForm::with_length(LEN).apply(&s))
        .collect()
}

fn transforms(sample: &[Vec<f64>]) -> Vec<Box<dyn EnvelopeTransform>> {
    vec![
        Box::new(NewPaa::new(LEN, DIMS)),
        Box::new(KeoghPaa::new(LEN, DIMS)),
        Box::new(Dft::new(LEN, DIMS)),
        Box::new(Dwt::new(LEN, DIMS)),
        Box::new(SvdTransform::fit(sample, DIMS)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn range_queries_are_exact_for_all_stacks(
        seed in 0u64..1000,
        family_idx in 0usize..24,
        band in 0usize..8,
        radius in 0.5f64..8.0,
    ) {
        let family = ALL_FAMILIES[family_idx];
        let database = workload(family, 60, seed);
        let query = workload(family, 1, seed ^ 0xFFFF).remove(0);
        let within = |id: &u64| ldtw_distance(&query, &database[*id as usize], band) <= radius;
        let expected: Vec<u64> = (0..database.len() as u64).filter(within).collect();

        for transform in transforms(&database) {
            let name = transform.name();
            let tree = with_features(RStarTree::with_page_size(DIMS, 1024), &*transform, &database);
            let sweep = with_features(LinearScan::new(DIMS), &*transform, &database);
            let (mut listed, _) = feature_range(&tree, &*transform, &query, band, radius);
            let (mut swept, _) = feature_range(&sweep, &*transform, &query, band, radius);
            listed.sort_unstable();
            swept.sort_unstable();
            prop_assert_eq!(&listed, &swept, "transform {} family {:?}", name, family);
            // Theorem 1 keeps every match listed; exact refinement drops the rest.
            let refined: Vec<u64> = listed.into_iter().filter(within).collect();
            prop_assert_eq!(&refined, &expected, "transform {} family {:?}", name, family);
        }

        let engine = build_engine(&database, DIMS);
        let request = QueryRequest::range(radius).with_series(query.clone()).with_band(band);
        let mut got: Vec<u64> =
            engine.try_query(&request).unwrap().result.matches.iter().map(|m| m.0).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected, "engine, family {:?}", family);
    }

    #[test]
    fn knn_matches_brute_force_for_all_stacks(
        seed in 0u64..1000,
        family_idx in 0usize..24,
        band in 0usize..6,
        k in 1usize..12,
    ) {
        let family = ALL_FAMILIES[family_idx];
        let database = workload(family, 50, seed);
        let query = workload(family, 1, seed ^ 0xABC).remove(0);

        let mut brute: Vec<(u64, f64)> = database
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, ldtw_distance(&query, s, band)))
            .collect();
        brute.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        let engine = build_engine(&database, DIMS);
        let request = QueryRequest::knn(k).with_series(query.clone()).with_band(band);
        let got = engine.try_query(&request).unwrap().result.matches;
        prop_assert_eq!(got.len(), k.min(database.len()));
        for (g, b) in got.iter().zip(&brute) {
            prop_assert!((g.1 - b.1).abs() < 1e-9);
        }
    }
}
