//! Build-time transform planning: pick the envelope transform empirically
//! per corpus instead of hard-coding one.
//!
//! The paper's Figure 7 shows that New_PAA, Keogh_PAA, DFT, and DWT trade
//! lower-bound tightness differently by workload; at large corpus sizes
//! that choice dominates the candidate ratio and therefore throughput. The
//! planner here makes the choice measurable and deterministic: it draws a
//! seeded sample of corpus series, measures each candidate `(family,
//! dimension)` pair's mean feature-space tightness (§5.2, reusing
//! [`crate::tightness`]) and an estimated candidate ratio on the same
//! sample, scores everything under a simple cost model (tightness vs.
//! index width vs. projection cost), and emits a [`TransformPlan`]
//! carrying both the decision and the evidence that justified it.
//!
//! Selection is **tightness-first**: the chosen candidate's measured mean
//! tightness is ≥ that of every candidate it rejected on the same sample;
//! exact ties are broken by the cost-model score, and any remaining ties
//! by the deterministic family/dimension enumeration order. Given the same
//! series, band, grid, and [`PlannerOptions`] the planner always returns
//! the same plan — callers persist the plan next to the index so a
//! reopened store can never silently re-plan.
//!
//! SVD is deliberately **not** a candidate: its basis is fitted to a
//! corpus snapshot, so the resulting transform cannot be reconstructed
//! from a `(family, dimension)` plan alone, and the segmented store
//! rejects it for the same reason.

use crate::envelope::Envelope;
use crate::tightness::{sampled_pairs, splitmix64, tightness};
use crate::transform::dft::Dft;
use crate::transform::dwt::Dwt;
use crate::transform::paa::{KeoghPaa, NewPaa};
use crate::transform::{feature_lower_bound, EnvelopeTransform};

/// Relative weight of index width (`dims / input_len`) in the cost-model
/// score. Small on purpose: the score only decides exact-tightness ties.
const WIDTH_WEIGHT: f64 = 0.05;

/// Relative weight of normalized projection cost in the cost-model score.
const PROJECTION_WEIGHT: f64 = 0.05;

/// Salt mixed into the seed for pair sampling so the series sample and the
/// pair sample draw from independent streams.
const PAIR_SALT: u64 = 0x70_61_69_72; // "pair"

/// The plannable transform families. Each can be rebuilt from
/// `(family, input_len, dims)` alone, which is what makes a persisted
/// [`TransformPlan`] sufficient to reopen an index bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanFamily {
    /// The paper's container-invariant PAA variant (its best performer).
    NewPaa,
    /// Keogh's original PAA lower bound.
    KeoghPaa,
    /// Truncated Fourier coefficients.
    Dft,
    /// Truncated Haar wavelet coefficients (needs a power-of-two length).
    Dwt,
}

impl PlanFamily {
    /// Every plannable family, in deterministic enumeration (and
    /// tie-breaking) order.
    pub const ALL: [PlanFamily; 4] =
        [PlanFamily::NewPaa, PlanFamily::KeoghPaa, PlanFamily::Dft, PlanFamily::Dwt];

    /// Stable lowercase name, used in reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            PlanFamily::NewPaa => "new_paa",
            PlanFamily::KeoghPaa => "keogh_paa",
            PlanFamily::Dft => "dft",
            PlanFamily::Dwt => "dwt",
        }
    }

    /// Whether this family's constructor accepts `(input_len, dims)`:
    /// the PAA variants need `dims` to divide the length, DWT needs a
    /// power-of-two length, and nothing may expand dimensionality.
    pub fn supports(self, input_len: usize, dims: usize) -> bool {
        if dims == 0 || input_len == 0 || dims > input_len {
            return false;
        }
        match self {
            PlanFamily::NewPaa | PlanFamily::KeoghPaa => input_len.is_multiple_of(dims),
            PlanFamily::Dft => true,
            PlanFamily::Dwt => input_len.is_power_of_two(),
        }
    }

    /// Builds the transform, or `None` when [`PlanFamily::supports`] says
    /// the shape is invalid (the constructors themselves panic on invalid
    /// shapes; this wrapper is the non-panicking gate the planner uses).
    pub fn build(self, input_len: usize, dims: usize) -> Option<Box<dyn EnvelopeTransform>> {
        if !self.supports(input_len, dims) {
            return None;
        }
        Some(match self {
            PlanFamily::NewPaa => Box::new(NewPaa::new(input_len, dims)),
            PlanFamily::KeoghPaa => Box::new(KeoghPaa::new(input_len, dims)),
            PlanFamily::Dft => Box::new(Dft::new(input_len, dims)),
            PlanFamily::Dwt => Box::new(Dwt::new(input_len, dims)),
        })
    }

    /// Analytic cost of projecting one series, in floating-point
    /// operations, normalized by `input_len²` so families are comparable
    /// across dimension grids. Both PAA variants are frame sums (`O(n)`);
    /// DFT and DWT are dense row products (`O(n·d)`).
    pub fn projection_cost(self, input_len: usize, dims: usize) -> f64 {
        let n = input_len as f64;
        let flops = match self {
            PlanFamily::NewPaa | PlanFamily::KeoghPaa => n,
            PlanFamily::Dft | PlanFamily::Dwt => n * dims as f64,
        };
        flops / (n * n).max(1.0)
    }
}

/// Knobs for the planner's seeded sampling. All fields are plain scalars
/// so the options can ride in a `Copy` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerOptions {
    /// Maximum number of corpus series drawn (seeded) into the measurement
    /// sample.
    pub sample: usize,
    /// Maximum number of ordered series pairs measured per candidate (see
    /// [`crate::tightness::sampled_pairs`]).
    pub pair_cap: usize,
    /// Seed for both the series and the pair sample.
    pub seed: u64,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        // 64 series / 2048 pairs keeps the planner a sub-second step even
        // at a 10^6-melody build while measuring every ordered pair of the
        // default sample (64·63 = 4032 > 2048 draws a representative half).
        PlannerOptions { sample: 64, pair_cap: 2048, seed: 2003 }
    }
}

/// One measured `(family, dims)` candidate: the evidence a plan keeps for
/// every option it considered, chosen or rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEvidence {
    /// Transform family measured.
    pub family: PlanFamily,
    /// Reduced dimension measured.
    pub dims: usize,
    /// Mean feature-space tightness over the pair sample (§5.2).
    pub mean_tightness: f64,
    /// Estimated 1-NN candidate ratio on the sample: for each sampled
    /// query, the fraction of sampled partners whose feature lower bound
    /// does not exceed the query's true nearest-neighbor distance (the
    /// fraction of the corpus a k-NN search at that radius must verify).
    pub est_candidate_ratio: f64,
    /// Normalized projection cost ([`PlanFamily::projection_cost`]).
    pub projection_cost: f64,
    /// Cost-model score: `tightness − 0.05·width − 0.05·projection_cost`.
    /// Only consulted to break exact tightness ties.
    pub score: f64,
}

/// The planner's decision plus the evidence that justified it. Persisted
/// verbatim next to the index (snapshot section / store manifest) so a
/// reopened index can be checked against the plan instead of re-planned.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformPlan {
    /// Chosen family.
    pub family: PlanFamily,
    /// Chosen reduced dimension.
    pub dims: usize,
    /// Series length the plan was measured at (and is only valid for).
    pub input_len: usize,
    /// DTW band the tightness was measured at.
    pub band: usize,
    /// Seed the sample was drawn with.
    pub seed: u64,
    /// Number of series actually measured.
    pub sample_len: usize,
    /// Number of ordered pairs actually measured.
    pub pairs: usize,
    /// The chosen candidate's mean tightness (copied out of `candidates`
    /// for direct access).
    pub mean_tightness: f64,
    /// The chosen candidate's estimated candidate ratio.
    pub est_candidate_ratio: f64,
    /// The chosen candidate's cost-model score.
    pub score: f64,
    /// Every measured candidate, in deterministic enumeration order.
    pub candidates: Vec<CandidateEvidence>,
}

impl TransformPlan {
    /// The evidence row of the chosen `(family, dims)` pair, if present
    /// (always present for planner-produced plans; a deserialized plan is
    /// validated for it on read).
    pub fn chosen(&self) -> Option<&CandidateEvidence> {
        self.candidates.iter().find(|c| c.family == self.family && c.dims == self.dims)
    }

    /// One-line human rendering of the decision, used by the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{} d={} (tightness {:.4}, est. candidate ratio {:.4}, score {:.4}; \
             {} series / {} pairs, band {}, seed {})",
            self.family.name(),
            self.dims,
            self.mean_tightness,
            self.est_candidate_ratio,
            self.score,
            self.sample_len,
            self.pairs,
            self.band,
            self.seed
        )
    }
}

/// Why the planner could not produce a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// No corpus series were provided to measure.
    EmptySample,
    /// No `(family, dims)` candidate in the grid is valid for the series
    /// length (e.g. an empty grid, or every dimension exceeds the length).
    EmptyGrid,
    /// The sampled series do not all share one length.
    MismatchedLength {
        /// Length of the first series.
        expected: usize,
        /// The offending length.
        got: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptySample => write!(f, "transform planning needs at least one series"),
            PlanError::EmptyGrid => {
                write!(f, "no transform family supports any dimension in the planner grid")
            }
            PlanError::MismatchedLength { expected, got } => write!(
                f,
                "transform planning needs equal-length series (saw {expected} and {got})"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Plans the transform for a corpus: draws a seeded sample of at most
/// `options.sample` series, measures every valid `(family, dims ∈ grid)`
/// candidate's mean tightness and estimated candidate ratio on a shared
/// pair sample, and returns the tightness-maximizing candidate (cost-model
/// score breaks exact ties) together with all the evidence.
///
/// The true banded DTW distance of each sampled pair is computed **once**
/// and reused across every candidate — only the cheap feature lower bound
/// is per-candidate — so adding grid points stays inexpensive.
///
/// Deterministic: equal `(series, band, grid, options)` always produce an
/// identical plan, regardless of platform or thread count.
///
/// # Errors
/// [`PlanError::EmptySample`] when `series` is empty,
/// [`PlanError::MismatchedLength`] when the series disagree on length, and
/// [`PlanError::EmptyGrid`] when no family supports any grid dimension at
/// that length.
pub fn plan_transform(
    series: &[Vec<f64>],
    band: usize,
    dims_grid: &[usize],
    options: &PlannerOptions,
) -> Result<TransformPlan, PlanError> {
    let Some(first) = series.first() else {
        return Err(PlanError::EmptySample);
    };
    let input_len = first.len();
    for s in series {
        if s.len() != input_len {
            return Err(PlanError::MismatchedLength { expected: input_len, got: s.len() });
        }
    }

    let mut grid: Vec<usize> = dims_grid.to_vec();
    grid.sort_unstable();
    grid.dedup();

    let sample = sample_indices(series.len(), options.sample.max(1), options.seed);
    let sampled: Vec<&[f64]> = sample.iter().map(|&i| series[i].as_slice()).collect();
    let pairs = sampled_pairs(sampled.len(), options.pair_cap, options.seed ^ PAIR_SALT);

    // The expensive, transform-independent groundwork: envelopes per
    // sampled series and the true banded DTW distance per sampled pair.
    let envelopes: Vec<Envelope> =
        sampled.iter().map(|s| Envelope::compute(s, band)).collect();
    let true_distances: Vec<f64> = pairs
        .iter()
        .map(|&(i, j)| crate::dtw::ldtw_distance(sampled[i], sampled[j], band))
        .collect();
    // Per query index, its smallest true distance over the pair sample —
    // the 1-NN radius the candidate-ratio estimate prunes against.
    let mut nn_radius = vec![f64::INFINITY; sampled.len()];
    for (&(i, _), &d) in pairs.iter().zip(&true_distances) {
        if d < nn_radius[i] {
            nn_radius[i] = d;
        }
    }

    let mut candidates = Vec::new();
    for family in PlanFamily::ALL {
        for &dims in &grid {
            let Some(transform) = family.build(input_len, dims) else {
                continue;
            };
            let features: Vec<Vec<f64>> =
                sampled.iter().map(|s| transform.project(s)).collect();
            let rects: Vec<_> = envelopes.iter().map(|e| transform.project_envelope(e)).collect();

            let mut tightness_sum = 0.0;
            let mut admitted = vec![0usize; sampled.len()];
            let mut partners = vec![0usize; sampled.len()];
            for (&(i, j), &true_d) in pairs.iter().zip(&true_distances) {
                // Same orientation as `transform_tightness`: envelope on
                // the partner `j`, features of the query `i`.
                let lb = feature_lower_bound(&rects[j], &features[i]);
                tightness_sum += tightness(lb, true_d);
                partners[i] += 1;
                if lb <= nn_radius[i] {
                    admitted[i] += 1;
                }
            }
            let mean_tightness = if pairs.is_empty() {
                0.0
            } else {
                tightness_sum / pairs.len() as f64
            };
            let mut ratio_sum = 0.0;
            let mut queries = 0usize;
            for (&a, &p) in admitted.iter().zip(&partners) {
                if p > 0 {
                    ratio_sum += a as f64 / p as f64;
                    queries += 1;
                }
            }
            // With no measurable pairs every candidate scans everything.
            let est_candidate_ratio =
                if queries == 0 { 1.0 } else { ratio_sum / queries as f64 };

            let projection_cost = family.projection_cost(input_len, dims);
            let score = mean_tightness
                - WIDTH_WEIGHT * dims as f64 / input_len as f64
                - PROJECTION_WEIGHT * projection_cost;
            candidates.push(CandidateEvidence {
                family,
                dims,
                mean_tightness,
                est_candidate_ratio,
                projection_cost,
                score,
            });
        }
    }

    // Tightness-first selection; the cost model only breaks exact ties,
    // and enumeration order breaks anything left, so the choice is total
    // and deterministic.
    let mut best: Option<&CandidateEvidence> = None;
    for c in &candidates {
        let better = match best {
            None => true,
            Some(b) => {
                c.mean_tightness > b.mean_tightness
                    || (c.mean_tightness == b.mean_tightness && c.score > b.score)
            }
        };
        if better {
            best = Some(c);
        }
    }
    let Some(chosen) = best else {
        return Err(PlanError::EmptyGrid);
    };

    Ok(TransformPlan {
        family: chosen.family,
        dims: chosen.dims,
        input_len,
        band,
        seed: options.seed,
        sample_len: sampled.len(),
        pairs: pairs.len(),
        mean_tightness: chosen.mean_tightness,
        est_candidate_ratio: chosen.est_candidate_ratio,
        score: chosen.score,
        candidates: candidates.clone(),
    })
}

/// Seeded sample of `min(cap, n)` distinct indices from `0..n`, in draw
/// order: a partial Fisher–Yates shuffle over a splitmix64 stream, so the
/// same `(n, cap, seed)` always selects the same series.
fn sample_indices(n: usize, cap: usize, seed: u64) -> Vec<usize> {
    if cap >= n {
        return (0..n).collect();
    }
    let mut indices: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for slot in 0..cap {
        let pick = slot + (splitmix64(&mut state) % (n - slot) as u64) as usize;
        indices.swap(slot, pick);
    }
    indices.truncate(cap);
    indices
}

/// Records a plan's decision into the observability registry: one run, the
/// sample and pair counts it measured, and the chosen family / dimension /
/// tightness as high-water gauges (see [`crate::obs::Metric`]).
pub fn record_plan(metrics: &crate::obs::MetricsSink, plan: &TransformPlan) {
    use crate::obs::Metric;
    metrics.add(Metric::PlannerRuns, 1);
    metrics.add(Metric::PlannerSampledSeries, plan.sample_len as u64);
    metrics.add(Metric::PlannerSampledPairs, plan.pairs as u64);
    metrics.record_max(Metric::PlannerChosenFamilyTag, plan.family as u64 + 1);
    metrics.record_max(Metric::PlannerChosenDims, plan.dims as u64);
    metrics.record_max(
        Metric::PlannerTightnessPpm,
        (plan.mean_tightness.clamp(0.0, 1.0) * 1e6).round() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tightness::mean_transform_tightness_sampled;

    fn corpus(n: usize, len: usize) -> Vec<Vec<f64>> {
        let mut state = 0xC0FFEEu64;
        (0..n)
            .map(|s| {
                let drift = (splitmix64(&mut state) % 7) as f64 * 0.1;
                (0..len)
                    .map(|t| {
                        (t as f64 * (0.07 + 0.015 * (s % 5) as f64)).sin() * 2.0
                            + drift * t as f64 / len as f64
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn planner_is_deterministic_and_tightness_first() {
        let series = corpus(40, 64);
        let grid = [4usize, 8, 16];
        let options = PlannerOptions { sample: 24, pair_cap: 300, seed: 11 };
        let a = plan_transform(&series, 4, &grid, &options).unwrap();
        let b = plan_transform(&series, 4, &grid, &options).unwrap();
        assert_eq!(a, b, "same inputs must give the identical plan");
        assert!(!a.candidates.is_empty());
        let chosen = a.chosen().expect("chosen candidate must be in the evidence");
        assert_eq!(chosen.mean_tightness, a.mean_tightness);
        for c in &a.candidates {
            assert!(
                a.mean_tightness >= c.mean_tightness,
                "rejected {}/d{} is tighter: {} > {}",
                c.family.name(),
                c.dims,
                c.mean_tightness,
                a.mean_tightness
            );
            assert!((0.0..=1.0).contains(&c.mean_tightness));
            assert!((0.0..=1.0).contains(&c.est_candidate_ratio));
            assert!(c.score.is_finite());
        }
    }

    #[test]
    fn tightness_matches_the_sampled_estimator() {
        // The planner's per-candidate tightness must agree with the public
        // capped estimator when fed the same sample, pairs, and seed.
        let series = corpus(20, 64);
        let options = PlannerOptions { sample: 20, pair_cap: 150, seed: 77 };
        let plan = plan_transform(&series, 3, &[8], &options).unwrap();
        for c in &plan.candidates {
            let Some(t) = c.family.build(64, c.dims) else { continue };
            let direct = mean_transform_tightness_sampled(
                &*t,
                &series,
                3,
                options.pair_cap,
                options.seed ^ super::PAIR_SALT,
            );
            assert!(
                (direct - c.mean_tightness).abs() < 1e-12,
                "{}: planner {} vs estimator {direct}",
                c.family.name(),
                c.mean_tightness
            );
        }
    }

    #[test]
    fn seed_changes_the_sample_but_not_validity() {
        let series = corpus(60, 64);
        let grid = [8usize];
        let a = plan_transform(&series, 4, &grid, &PlannerOptions { seed: 1, ..Default::default() })
            .unwrap();
        let b = plan_transform(&series, 4, &grid, &PlannerOptions { seed: 2, ..Default::default() })
            .unwrap();
        // Different seeds measure different pairs; the evidence shifts even
        // if the winner usually does not.
        assert!(a.candidates.len() == b.candidates.len());
        assert!(a.sample_len == 60 && b.sample_len == 60, "cap 64 covers all 60 series");
    }

    #[test]
    fn grid_is_filtered_per_family() {
        // length 60: not a power of two (no DWT), 8 does not divide it (no
        // PAA at 8), DFT takes anything ≤ length.
        let series = corpus(10, 60);
        let plan = plan_transform(&series, 2, &[6, 8], &PlannerOptions::default()).unwrap();
        for c in &plan.candidates {
            assert!(c.family.supports(60, c.dims));
            assert_ne!(c.family, PlanFamily::Dwt);
        }
        assert!(plan.candidates.iter().any(|c| c.family == PlanFamily::Dft && c.dims == 8));
        assert!(!plan
            .candidates
            .iter()
            .any(|c| c.family == PlanFamily::NewPaa && c.dims == 8));
    }

    #[test]
    fn typed_errors_never_panics() {
        assert_eq!(
            plan_transform(&[], 2, &[4], &PlannerOptions::default()),
            Err(PlanError::EmptySample)
        );
        let series = corpus(5, 64);
        assert_eq!(
            plan_transform(&series, 2, &[], &PlannerOptions::default()),
            Err(PlanError::EmptyGrid)
        );
        assert_eq!(
            plan_transform(&series, 2, &[1000], &PlannerOptions::default()),
            Err(PlanError::EmptyGrid)
        );
        let mut ragged = corpus(3, 64);
        ragged.push(vec![0.0; 32]);
        assert_eq!(
            plan_transform(&ragged, 2, &[4], &PlannerOptions::default()),
            Err(PlanError::MismatchedLength { expected: 64, got: 32 })
        );
        // A single series has no pairs: every candidate ties at zero
        // tightness and the cost model must still pick deterministically.
        let one = corpus(1, 64);
        let plan = plan_transform(&one, 2, &[4, 8], &PlannerOptions::default()).unwrap();
        assert_eq!(plan.pairs, 0);
        assert_eq!(plan.mean_tightness, 0.0);
        // Cheapest width wins on an all-zero tie: smallest dims, PAA first.
        assert_eq!((plan.family, plan.dims), (PlanFamily::NewPaa, 4));
    }

    #[test]
    fn sample_indices_are_distinct_and_seeded() {
        let a = sample_indices(100, 10, 5);
        let b = sample_indices(100, 10, 5);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "sampled indices must be distinct");
        assert!(a.iter().all(|&i| i < 100));
        assert_eq!(sample_indices(5, 64, 9), vec![0, 1, 2, 3, 4]);
        assert_ne!(sample_indices(100, 10, 5), sample_indices(100, 10, 6));
    }

    #[test]
    fn record_plan_populates_the_registry() {
        use crate::obs::{Metric, MetricsRegistry, MetricsSink};
        let series = corpus(12, 64);
        let plan = plan_transform(&series, 3, &[8], &PlannerOptions::default()).unwrap();
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        record_plan(&MetricsSink::Enabled(registry.clone()), &plan);
        assert_eq!(registry.get(Metric::PlannerRuns), 1);
        assert_eq!(registry.get(Metric::PlannerSampledSeries), 12);
        assert!(registry.get(Metric::PlannerSampledPairs) > 0);
        assert_eq!(registry.get(Metric::PlannerChosenDims), 8);
        assert!(registry.get(Metric::PlannerChosenFamilyTag) >= 1);
        let ppm = registry.get(Metric::PlannerTightnessPpm);
        assert!(ppm <= 1_000_000);
    }
}
