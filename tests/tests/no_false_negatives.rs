//! The paper's central guarantee, exercised across crates with randomized
//! workloads: for every transform and every index backend, an ε-range query
//! through the GEMINI engine returns *exactly* the series whose true banded
//! DTW distance is within ε — never fewer (Theorem 1), never more (exact
//! refinement).

use hum_core::dtw::ldtw_distance;
use hum_core::engine::{DtwIndexEngine, QueryRequest};
use hum_core::transform::dft::Dft;
use hum_core::transform::dwt::Dwt;
use hum_core::transform::paa::{KeoghPaa, NewPaa};
use hum_core::transform::svd::SvdTransform;
use hum_core::transform::EnvelopeTransform;
use hum_datasets::{generate, DatasetFamily, ALL_FAMILIES};
use hum_index::{LinearScan, RStarTree, SpatialIndex};
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

fn backends() -> Vec<Box<dyn SpatialIndex>> {
    vec![
        Box::new(RStarTree::with_page_size(DIMS, 1024)),
        Box::new(LinearScan::with_page_size(DIMS, 1024)),
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

        let mut expected: Vec<u64> = database
            .iter()
            .enumerate()
            .filter(|(_, s)| ldtw_distance(&query, s, band) <= radius)
            .map(|(i, _)| i as u64)
            .collect();
        expected.sort_unstable();

        for transform in transforms(&database) {
            let name = transform.name().to_string();
            for index in backends() {
                let mut engine = DtwIndexEngine::new(
                    // Re-create per backend: transforms are consumed by the
                    // engine, so fit a fresh boxed clone from the same data.
                    clone_transform(&*transform, &database),
                    index,
                );
                for (i, s) in database.iter().enumerate() {
                    engine.try_insert(i as u64, s.clone()).unwrap();
                }
                let request =
                    QueryRequest::range(radius).with_series(query.clone()).with_band(band);
                let result = engine.try_query(&request).unwrap().result;
                let mut got: Vec<u64> = result.matches.iter().map(|m| m.0).collect();
                got.sort_unstable();
                prop_assert_eq!(&got, &expected, "transform {} family {:?}", name, family);
            }
        }
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

        let mut engine =
            DtwIndexEngine::new(NewPaa::new(LEN, DIMS), RStarTree::with_page_size(DIMS, 1024));
        for (i, s) in database.iter().enumerate() {
            engine.try_insert(i as u64, s.clone()).unwrap();
        }
        let request = QueryRequest::knn(k).with_series(query.clone()).with_band(band);
        let got = engine.try_query(&request).unwrap().result.matches;
        prop_assert_eq!(got.len(), k.min(database.len()));
        for (g, b) in got.iter().zip(&brute) {
            prop_assert!((g.1 - b.1).abs() < 1e-9);
        }
    }
}

/// Rebuilds an equivalent transform (transforms are cheap to reconstruct;
/// SVD refits on the same data, giving the same basis).
fn clone_transform(
    t: &dyn EnvelopeTransform,
    data: &[Vec<f64>],
) -> Box<dyn EnvelopeTransform> {
    match t.name() {
        "New_PAA" => Box::new(NewPaa::new(LEN, DIMS)),
        "Keogh_PAA" => Box::new(KeoghPaa::new(LEN, DIMS)),
        "DFT" => Box::new(Dft::new(LEN, DIMS)),
        "DWT" => Box::new(Dwt::new(LEN, DIMS)),
        "SVD" => Box::new(SvdTransform::fit(data, DIMS)),
        other => unreachable!("unknown transform {other}"),
    }
}
