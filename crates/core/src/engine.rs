//! The GEMINI query engine for DTW (paper §4.3).
//!
//! Build phase: every database series (already in normal form — equal
//! length, mean-subtracted; see [`crate::normal`]) is reduced to a feature
//! vector and stored in a spatial index.
//!
//! Query phase, for an ε-range query at warping band `k`:
//!
//! 1. compute the query's `k`-envelope and its feature-space image (a box),
//! 2. range-search the index: candidates are points within ε of the box —
//!    by Theorem 1 this never drops a true match,
//! 3. optionally re-filter candidates with the full-dimension envelope bound
//!    (the paper's "LB used as a second filter after the indexing scheme"),
//! 4. verify survivors with the exact banded DTW.
//!
//! k-NN queries use the optimal multi-step scheme (Seidl & Kriegel): probe
//! the index for `k` nearest feature lower bounds, take the `k`-th exact
//! distance as a provisional radius, then close with one exact range query
//! whose candidates are verified best-first under a shrinking radius.
//!
//! Verification runs as a threshold-aware cascade in squared-distance space
//! (one square root per reported match): index box → envelope lower bound →
//! two-pass `LB_Improved` → early-abandoning banded DTW. Each stage is exact
//! with respect to the prune threshold, so the cascade changes only the work
//! counters, never the answers.
//!
//! The warping band is a *query-time* parameter: one index serves every
//! warping width, which is the paper's point that "adding the DTW support
//! requires changes only to the time series query".
//!
//! # The query API
//!
//! Every query path goes through one request type: build a
//! [`QueryRequest`] ([`QueryRequest::range`] / [`QueryRequest::knn`], with
//! optional band override, per-query trace toggle, and brute-force scan
//! fallback) and execute it with [`DtwIndexEngine::query`] (panicking) or
//! [`DtwIndexEngine::try_query`] (returning [`EngineError`]); batches go
//! through [`DtwIndexEngine::try_query_batch`]. All of them are thin
//! callers of the one executor in [`crate::exec`], which runs this engine
//! as a single *leaf*; the engine itself contributes the per-leaf
//! primitives (indexed range, the two k-NN phases, the two scans) and no
//! orchestration of its own.
//!
//! # Observability
//!
//! The engine optionally records every query into a shared
//! [`MetricsRegistry`](crate::obs::MetricsRegistry) (see
//! [`DtwIndexEngine::set_metrics`]) and, per request, emits a
//! [`QueryTrace`] of the cascade trajectory. Both are off by default and
//! free when disabled; traces carry counters only (never wall-clock time),
//! so they are bit-identical across runs and thread counts.

use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::time::{Duration, Instant};

use hum_index::{ItemId, Query, QueryStats, SpatialIndex};

use crate::batch::BatchOptions;
use crate::dtw::{ldtw_distance_sq_bounded_with_mode, DtwWorkspace};
use crate::envelope::{lb_improved_tail_sq_mode, Envelope, LbScratch};
use crate::exec::{execute, execute_batch, Leaf};
use crate::kernel::prefilter::{prefilter_exceeds, PrefilterEnvelope, SeriesMirror};
use crate::kernel::KernelMode;
use crate::obs::{Metric, MetricsSink, QueryTrace};
use crate::transform::EnvelopeTransform;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Apply the full-dimension envelope lower bound to index candidates
    /// before running exact DTW (cheap and prunes aggressively).
    pub envelope_refinement: bool,
    /// Apply Lemire's two-pass `LB_Improved` to candidates that survive the
    /// envelope bound, before exact DTW (costs two O(n) passes, prunes the
    /// near-misses the plain envelope bound lets through).
    pub lb_improved_refinement: bool,
    /// Abandon exact DTW verification as soon as a DP row proves the
    /// distance exceeds the query radius (or the current k-NN best-so-far).
    pub early_abandon: bool,
    /// Run the conservative `f32` prefilter
    /// ([`crate::kernel::prefilter`]) ahead of the `f64` envelope bound.
    /// Pruning decisions, matches and counters are bit-identical either
    /// way (a prefilter prune is provably also an envelope prune, booked
    /// under the same statistic); the flag only controls whether the
    /// engine builds `f32` mirrors at insert time and consults them.
    /// Ignored while both refinement stages are disabled (the prefilter
    /// fronts the envelope stage, so without one it could change which
    /// stage a candidate dies in).
    pub prefilter: bool,
    /// Which [`KernelMode`] the verification kernels run in. Bit-identical
    /// results in every mode; defaults to the unrolled forms when the
    /// crate is built with the `simd` feature.
    pub kernel: KernelMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            envelope_refinement: true,
            lb_improved_refinement: true,
            early_abandon: true,
            prefilter: true,
            kernel: KernelMode::default(),
        }
    }
}

/// Counters for one engine query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Spatial-index counters (page accesses, candidates, ...).
    pub index: QueryStats,
    /// Candidates removed by the envelope second filter.
    pub lb_pruned: u64,
    /// Candidates removed by the `LB_Improved` third filter.
    pub lb_improved_pruned: u64,
    /// Exact DTW evaluations started (including abandoned ones).
    pub exact_computations: u64,
    /// Exact DTW evaluations abandoned early by the radius threshold.
    pub early_abandoned: u64,
    /// DTW dynamic-programming cells evaluated during verification.
    pub dp_cells: u64,
    /// Final matches returned.
    pub matches: u64,
}

impl EngineStats {
    /// Adds another query's counters into this accumulator (for averaging
    /// work over a batch of queries).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.index.absorb(&other.index);
        self.lb_pruned += other.lb_pruned;
        self.lb_improved_pruned += other.lb_improved_pruned;
        self.exact_computations += other.exact_computations;
        self.early_abandoned += other.early_abandoned;
        self.dp_cells += other.dp_cells;
        self.matches += other.matches;
    }
}

/// A rejected input, reported at the engine boundary before any state is
/// touched (failed calls never mutate the engine or the index).
///
/// The panicking entry points (`insert`, `query`) format
/// these with `Display`, so the legacy panic messages — "must be in normal
/// form", "non-finite sample ...", "duplicate id ..." — are unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineError {
    /// The query series has no samples.
    EmptyQuery,
    /// A series' length differs from the transform's normal-form length.
    LengthMismatch {
        /// What was being validated ("query", "inserted series").
        context: &'static str,
        /// The normal-form length the engine requires.
        expected: usize,
        /// The length that was provided.
        got: usize,
    },
    /// A sample is NaN or infinite; reports exactly where and what.
    NonFiniteSample {
        /// What was being validated ("query", "inserted series").
        context: &'static str,
        /// Index of the first offending sample.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The Sakoe-Chiba band half-width is at least the series length, which
    /// would make the "banded" DTW unconstrained.
    BandTooWide {
        /// The requested half-width.
        band: usize,
        /// The normal-form series length it must stay below.
        len: usize,
    },
    /// An insert reused an id that is already stored.
    DuplicateId(ItemId),
    /// The request's [`QueryBudget`] deadline passed while the query was
    /// running. Carries the counters for the work done up to the abort
    /// point (`matches` is always 0 — partial match sets are never
    /// reported, so a completed query is the only way to observe matches).
    DeadlineExceeded {
        /// Work counters accumulated before the abort.
        stats: EngineStats,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EmptyQuery => write!(f, "empty query: at least one sample is required"),
            EngineError::LengthMismatch { context, expected, got } => write!(
                f,
                "{context} must be in normal form: expected {expected} samples, got {got}"
            ),
            EngineError::NonFiniteSample { context, index, value } => {
                write!(f, "non-finite sample {value} at index {index} in {context}")
            }
            EngineError::BandTooWide { band, len } => {
                write!(f, "band half-width {band} too wide for series length {len}")
            }
            EngineError::DuplicateId(id) => write!(f, "duplicate id {id}"),
            EngineError::DeadlineExceeded { stats } => write!(
                f,
                "deadline exceeded after {} candidates examined ({} exact DTW computations)",
                stats.index.candidates, stats.exact_computations
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Returns the first NaN/infinite sample as an error. The engine validates
/// every series at its boundary — on insert and on query — so non-finite
/// input cannot reach the spatial index or the distance kernels, where it
/// would poison feature boxes and break distance sorting far from its
/// origin. Public so layers above the engine (raw pitch-series ingest)
/// can reject bad input with the same error, at the caller's indices,
/// before any resampling obscures the offending position.
pub fn check_finite(series: &[f64], context: &'static str) -> Result<(), EngineError> {
    match series.iter().position(|v| !v.is_finite()) {
        Some(index) => {
            Err(EngineError::NonFiniteSample { context, index, value: series[index] })
        }
        None => Ok(()),
    }
}

/// Result of a range or k-NN query: `(id, exact DTW distance)` pairs sorted
/// by ascending distance, plus counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Matches sorted by ascending exact DTW distance.
    pub matches: Vec<(ItemId, f64)>,
    /// Work counters for the query.
    pub stats: EngineStats,
}

/// What every per-leaf query primitive returns: `(id, distance)` pairs plus
/// this leaf's counters, or — when the budget's deadline passed between
/// candidates — the partial counters alone.
pub(crate) type LeafRun = Result<(Vec<(ItemId, f64)>, EngineStats), EngineStats>;

/// Result of one [`QueryRequest`]: the matches and counters, plus the
/// cascade trace when the request asked for one.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Matches and work counters — identical to the legacy entry points.
    pub result: QueryResult,
    /// The cascade trajectory, present iff [`QueryRequest::with_trace`] was
    /// set. Counters only; bit-identical across runs and thread counts.
    pub trace: Option<QueryTrace>,
}

/// A cooperative time budget for one query.
///
/// The default ([`QueryBudget::unlimited`]) never expires and costs nothing:
/// no clock is read anywhere in the engine. With a deadline set, the run
/// paths poll [`QueryBudget::expired`] once per *candidate* — never inside
/// the distance kernels — so a query that finishes before its deadline does
/// exactly the same arithmetic in exactly the same order as an unbudgeted
/// one and returns bit-identical matches and counters. A query that hits
/// its deadline aborts between candidates with
/// [`EngineError::DeadlineExceeded`], carrying the partial work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryBudget {
    deadline: Option<Instant>,
}

impl QueryBudget {
    /// A budget that never expires (the default).
    pub const fn unlimited() -> Self {
        QueryBudget { deadline: None }
    }

    /// A budget that expires at `deadline`.
    pub const fn with_deadline(deadline: Instant) -> Self {
        QueryBudget { deadline: Some(deadline) }
    }

    /// A budget that expires `timeout` from now. Saturates to unlimited if
    /// the deadline is not representable.
    pub fn within(timeout: Duration) -> Self {
        QueryBudget { deadline: Instant::now().checked_add(timeout) }
    }

    /// The deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// `true` when no deadline is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
    }

    /// `true` once the deadline has passed. Reads the clock only when a
    /// deadline is set.
    #[inline]
    pub fn expired(&self) -> bool {
        match self.deadline {
            None => false,
            Some(deadline) => Instant::now() >= deadline,
        }
    }
}

/// What a [`QueryRequest`] asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestKind {
    /// ε-range query: everything within `radius`.
    Range {
        /// Query radius (plain DTW distance, not squared).
        radius: f64,
    },
    /// k-nearest-neighbors query.
    Knn {
        /// Neighbors requested.
        k: usize,
    },
}

/// One similarity query, built fluently and executed with
/// [`DtwIndexEngine::query`] / [`DtwIndexEngine::try_query`].
///
/// ```
/// use hum_core::engine::QueryRequest;
/// let series = vec![0.25, -0.25, 0.25, -0.25];
/// let request = QueryRequest::knn(5).with_series(series).with_band(1).with_trace(true);
/// assert_eq!(request.band(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    series: Vec<f64>,
    kind: RequestKind,
    band: usize,
    trace: bool,
    scan: bool,
    budget: QueryBudget,
}

impl QueryRequest {
    /// An ε-range request at `radius`. Attach the query series with
    /// [`QueryRequest::with_series`].
    pub fn range(radius: f64) -> Self {
        QueryRequest {
            series: Vec::new(),
            kind: RequestKind::Range { radius },
            band: 0,
            trace: false,
            scan: false,
            budget: QueryBudget::unlimited(),
        }
    }

    /// A k-NN request. Attach the query series with
    /// [`QueryRequest::with_series`].
    pub fn knn(k: usize) -> Self {
        QueryRequest {
            series: Vec::new(),
            kind: RequestKind::Knn { k },
            band: 0,
            trace: false,
            scan: false,
            budget: QueryBudget::unlimited(),
        }
    }

    /// Sets the normal-form query series.
    pub fn with_series(mut self, series: impl Into<Vec<f64>>) -> Self {
        self.series = series.into();
        self
    }

    /// Overrides the Sakoe-Chiba band half-width (default 0 = no warping).
    pub fn with_band(mut self, band: usize) -> Self {
        self.band = band;
        self
    }

    /// Toggles the per-query cascade trace (default off).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Toggles the brute-force scan fallback: bypass the spatial index and
    /// run the verification cascade over every stored series (default off).
    pub fn with_scan(mut self, scan: bool) -> Self {
        self.scan = scan;
        self
    }

    /// The query series.
    pub fn series(&self) -> &[f64] {
        &self.series
    }

    /// What the request asks for.
    pub fn kind(&self) -> RequestKind {
        self.kind
    }

    /// The Sakoe-Chiba band half-width.
    pub fn band(&self) -> usize {
        self.band
    }

    /// `true` when a [`QueryTrace`] was requested.
    pub fn trace_enabled(&self) -> bool {
        self.trace
    }

    /// `true` when the brute-force scan fallback was requested.
    pub fn scan_enabled(&self) -> bool {
        self.scan
    }

    /// Attaches a time budget (default [`QueryBudget::unlimited`]).
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The time budget.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }
}

/// Reusable per-query scratch: the DTW workspace, the `LB_Improved`
/// scratch, and the staged `f32` prefilter envelope. One per worker thread
/// amortizes the row allocations across an entire batch; the engine
/// reports `dp_cells` as a per-query delta, so reuse never changes any
/// counter.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    ws: DtwWorkspace,
    lb: LbScratch,
    pf: PrefilterEnvelope,
}

impl QueryScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        QueryScratch::default()
    }
}

/// A stored series plus (when the engine's prefilter is enabled) its
/// directed-rounded `f32` mirror, built once at insert time.
#[derive(Debug, Clone)]
struct StoredSeries {
    samples: Vec<f64>,
    mirror: Option<SeriesMirror>,
}

/// A DTW similarity-search engine over a spatial index backend.
#[derive(Debug, Clone)]
pub struct DtwIndexEngine<T, I> {
    transform: T,
    index: I,
    series: HashMap<ItemId, StoredSeries>,
    config: EngineConfig,
    metrics: MetricsSink,
}

impl<T: EnvelopeTransform, I: SpatialIndex> DtwIndexEngine<T, I> {
    /// Creates an engine from a transform and an (empty) index backend.
    /// Metrics start [disabled](MetricsSink::Disabled).
    ///
    /// # Panics
    /// Panics if the index dimensionality differs from the transform output.
    pub fn new(transform: T, index: I, config: EngineConfig) -> Self {
        assert_eq!(
            index.dims(),
            transform.output_dims(),
            "index dimensionality must match the transform output"
        );
        DtwIndexEngine {
            transform,
            index,
            series: HashMap::new(),
            config,
            metrics: MetricsSink::Disabled,
        }
    }

    /// Builder form of [`DtwIndexEngine::set_metrics`].
    pub fn with_metrics(mut self, sink: MetricsSink) -> Self {
        self.metrics = sink;
        self
    }

    /// Points the engine at a metrics sink. Pass
    /// [`MetricsSink::enabled`] (or share one registry across engines via
    /// `MetricsSink::Enabled(arc.clone())`) to start recording;
    /// [`MetricsSink::Disabled`] to stop. Cloning an engine shares its
    /// sink. Enabling metrics never changes matches or [`EngineStats`] —
    /// only what gets recorded on the side.
    pub fn set_metrics(&mut self, sink: MetricsSink) {
        self.metrics = sink;
    }

    /// The metrics sink in use (disabled by default).
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Number of indexed series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` if no series are indexed.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Normal-form length every series must have.
    pub fn series_len(&self) -> usize {
        self.transform.input_len()
    }

    /// The transform in use.
    pub fn transform(&self) -> &T {
        &self.transform
    }

    /// The index backend in use.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Looks up a stored series.
    pub fn get(&self, id: ItemId) -> Option<&[f64]> {
        self.series.get(&id).map(|s| s.samples.as_slice())
    }

    /// Inserts a normal-form series under `id` (replacing nothing: ids must
    /// be unique). On error the engine is unchanged.
    pub fn try_insert(&mut self, id: ItemId, series: Vec<f64>) -> Result<(), EngineError> {
        if series.len() != self.transform.input_len() {
            return Err(EngineError::LengthMismatch {
                context: "inserted series",
                expected: self.transform.input_len(),
                got: series.len(),
            });
        }
        check_finite(&series, "inserted series")?;
        if self.series.contains_key(&id) {
            return Err(EngineError::DuplicateId(id));
        }
        let features = self.transform.project(&series);
        let mirror = self.config.prefilter.then(|| SeriesMirror::build(&series));
        self.series.insert(id, StoredSeries { samples: series, mirror });
        self.index.insert(id, features);
        self.metrics.add(Metric::Inserts, 1);
        Ok(())
    }

    /// Panicking form of [`DtwIndexEngine::try_insert`].
    ///
    /// # Panics
    /// Panics if the length is wrong, the id is already present, or any
    /// sample is NaN/infinite.
    pub fn insert(&mut self, id: ItemId, series: Vec<f64>) {
        self.try_insert(id, series).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Removes the series stored under `id` from both the store and the
    /// index. Returns `true` if it was present.
    pub fn remove(&mut self, id: ItemId) -> bool {
        if self.series.remove(&id).is_none() {
            return false;
        }
        let removed = self.index.remove(id);
        debug_assert!(removed, "series and index must stay in lockstep");
        self.metrics.add(Metric::Removals, 1);
        true
    }

    /// Rejects malformed query input. The executor calls this once per
    /// request before touching any leaf, so failed queries observe nothing
    /// and count nothing.
    pub(crate) fn validate_query(&self, query: &[f64], band: usize) -> Result<(), EngineError> {
        if query.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        if query.len() != self.transform.input_len() {
            return Err(EngineError::LengthMismatch {
                context: "query",
                expected: self.transform.input_len(),
                got: query.len(),
            });
        }
        check_finite(query, "query")?;
        if band >= query.len() {
            return Err(EngineError::BandTooWide { band, len: query.len() });
        }
        Ok(())
    }

    /// Executes a request against this engine.
    ///
    /// # Errors
    /// [`EngineError::EmptyQuery`], [`EngineError::LengthMismatch`],
    /// [`EngineError::NonFiniteSample`], or [`EngineError::BandTooWide`] —
    /// all reported before any work (or metrics recording) happens — plus
    /// [`EngineError::DeadlineExceeded`] when the request carries a
    /// [`QueryBudget`] whose deadline passes mid-query (carrying the partial
    /// counters; not recorded as a completed query in the metrics sink).
    pub fn try_query(&self, request: &QueryRequest) -> Result<QueryOutcome, EngineError> {
        self.try_query_with(request, &mut QueryScratch::new())
    }

    /// [`DtwIndexEngine::try_query`] computing in caller-provided scratch.
    /// Results and counters are identical to a fresh-scratch call — reuse
    /// only avoids the per-query row allocations.
    pub fn try_query_with(
        &self,
        request: &QueryRequest,
        scratch: &mut QueryScratch,
    ) -> Result<QueryOutcome, EngineError> {
        execute(&[Leaf { engine: self, meta: None }], request, scratch, 1, &self.metrics)
    }

    /// Panicking form of [`DtwIndexEngine::try_query`].
    ///
    /// # Panics
    /// Panics on any [`EngineError`] the `try_` form would return.
    pub fn query(&self, request: &QueryRequest) -> QueryOutcome {
        self.try_query(request).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes a batch of [`QueryRequest`]s across
    /// [`BatchOptions::threads`] workers; see [`execute_batch`] for the
    /// determinism and error contract (every request is validated before any
    /// runs; outcomes are bit-identical to [`DtwIndexEngine::try_query`] at
    /// every thread count).
    ///
    /// # Errors
    /// As [`execute_batch`].
    pub fn try_query_batch(
        &self,
        requests: &[QueryRequest],
        options: &BatchOptions,
    ) -> Result<BatchOutcome, EngineError> {
        execute_batch(&[Leaf { engine: self, meta: None }], requests, options, &self.metrics)
    }

    /// Runs the post-index verification cascade for one candidate at a fixed
    /// squared threshold. Returns `Some(d_sq)` when the candidate's exact
    /// squared distance was computed and is `≤ threshold_sq`… or when exact
    /// DTW ran un-abandoned and produced any finite value (callers compare
    /// against their own threshold); `None` when a stage pruned it.
    #[allow(clippy::too_many_arguments)]
    fn cascade_verify(
        &self,
        query: &[f64],
        envelope: &Envelope,
        band: usize,
        stored: &StoredSeries,
        threshold_sq: f64,
        precomputed_lb_sq: Option<f64>,
        pf: Option<&PrefilterEnvelope>,
        stats: &mut EngineStats,
        ws: &mut DtwWorkspace,
        scratch: &mut LbScratch,
    ) -> Option<f64> {
        let mode = self.config.kernel;
        let series = stored.samples.as_slice();
        let use_env = self.config.envelope_refinement || self.config.lb_improved_refinement;
        let mut lb_sq = 0.0;
        if use_env {
            lb_sq = match precomputed_lb_sq {
                Some(lb) => lb,
                None => {
                    // Conservative f32 prefilter: its bound never exceeds
                    // the f64 envelope bound below, so a prune here is a
                    // prune the envelope stage was about to make — booked
                    // under the same counter, skipping the f64 pass.
                    if let (Some(pf), Some(mirror)) = (pf, stored.mirror.as_ref()) {
                        if prefilter_exceeds(mode, pf, mirror, threshold_sq) {
                            stats.lb_pruned += 1;
                            return None;
                        }
                    }
                    envelope.distance_sq_bounded_mode(series, threshold_sq, mode)
                }
            };
            if lb_sq > threshold_sq {
                stats.lb_pruned += 1;
                return None;
            }
        }
        if self.config.lb_improved_refinement {
            let tail = lb_improved_tail_sq_mode(
                query,
                envelope,
                series,
                band,
                threshold_sq - lb_sq,
                scratch,
                mode,
            );
            if lb_sq + tail > threshold_sq {
                stats.lb_improved_pruned += 1;
                return None;
            }
        }
        stats.exact_computations += 1;
        let dtw_threshold = if self.config.early_abandon { threshold_sq } else { f64::INFINITY };
        let d_sq = ldtw_distance_sq_bounded_with_mode(ws, query, series, band, dtw_threshold, mode);
        if d_sq.is_infinite() {
            stats.early_abandoned += 1;
            return None;
        }
        Some(d_sq)
    }

    /// Whether this query should stage and consult the `f32` prefilter: it
    /// fronts the `f64` envelope stage, so it runs only when that stage
    /// does (keeping counters identical with the prefilter off).
    fn prefilter_active(&self) -> bool {
        self.config.prefilter
            && (self.config.envelope_refinement || self.config.lb_improved_refinement)
    }

    /// The indexed range path: matches within `radius`, sorted by
    /// `(distance, id)`. Like every per-leaf primitive below, it takes
    /// input the executor has already validated.
    pub(crate) fn run_range(
        &self,
        query: &[f64],
        band: usize,
        radius: f64,
        budget: QueryBudget,
        scratch: &mut QueryScratch,
    ) -> LeafRun {
        let cells_before = scratch.ws.cells();
        let radius_sq = radius * radius;
        let envelope = Envelope::compute(query, band);
        let feature_box = self.transform.project_envelope(&envelope);
        let (candidates, index_stats) =
            self.index.range_query(&Query::Rect(feature_box), radius);

        let mut stats = EngineStats { index: index_stats, ..EngineStats::default() };
        let QueryScratch { ws, lb, pf } = scratch;
        if self.prefilter_active() {
            pf.stage(&envelope);
        }
        let pf: Option<&PrefilterEnvelope> = self.prefilter_active().then_some(&*pf);
        let mut matches = Vec::new();
        for id in candidates {
            if budget.expired() {
                stats.dp_cells = ws.cells() - cells_before;
                return Err(stats);
            }
            let stored = &self.series[&id];
            if let Some(d_sq) = self.cascade_verify(
                query, &envelope, band, stored, radius_sq, None, pf, &mut stats, ws, lb,
            ) {
                if d_sq <= radius_sq {
                    matches.push((id, d_sq.sqrt()));
                }
            }
        }
        sort_by_distance(&mut matches);
        stats.matches = matches.len() as u64;
        stats.dp_cells = ws.cells() - cells_before;
        Ok((matches, stats))
    }

    /// Phase 1 of the optimal multi-step k-NN scheme: probe the index for
    /// the `k` nearest feature lower bounds and compute their exact squared
    /// distances (cached so the close phase never recomputes a probe).
    ///
    /// Returns the probes as `(id, exact squared distance)` pairs in index
    /// probe order; the executor takes the global k-th probe distance over
    /// every leaf as the closing radius before running the close phase.
    pub(crate) fn knn_probe_phase(
        &self,
        query: &[f64],
        band: usize,
        k: usize,
        budget: QueryBudget,
        scratch: &mut QueryScratch,
    ) -> LeafRun {
        if k == 0 || self.series.is_empty() {
            return Ok((Vec::new(), EngineStats::default()));
        }
        let cells_before = scratch.ws.cells();
        let envelope = Envelope::compute(query, band);
        let feature_box = self.transform.project_envelope(&envelope);
        let shape = Query::Rect(feature_box);
        let ws = &mut scratch.ws;

        let (probes, probe_stats) = self.index.knn(&shape, k);
        let mut stats = EngineStats { index: probe_stats, ..EngineStats::default() };
        let mut exact: Vec<(ItemId, f64)> = Vec::with_capacity(probes.len());
        for (id, _) in &probes {
            if budget.expired() {
                stats.dp_cells = ws.cells() - cells_before;
                return Err(stats);
            }
            stats.exact_computations += 1;
            let d_sq = ldtw_distance_sq_bounded_with_mode(
                ws,
                query,
                &self.series[id].samples,
                band,
                f64::INFINITY,
                self.config.kernel,
            );
            exact.push((*id, d_sq));
        }
        stats.dp_cells = ws.cells() - cells_before;
        Ok((exact, stats))
    }

    /// Phase 2 of the optimal multi-step k-NN scheme: a closing range query
    /// at `radius_sq`, its candidates verified best-first under a shrinking
    /// top-k threshold.
    ///
    /// The best-so-far max-heap starts from `seed` — `(id, exact squared
    /// distance)` pairs that need not be stored in *this* engine (the
    /// executor seeds every leaf with the global best probes, so each prunes
    /// against the globally tightest threshold). Ids in `known` already
    /// have exact distances (this engine's own probes) and are skipped.
    /// Returns the final heap contents ascending by `(d², id)`, distances
    /// still squared.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn knn_close_phase(
        &self,
        query: &[f64],
        band: usize,
        k: usize,
        radius_sq: f64,
        seed: &[(ItemId, f64)],
        known: &std::collections::HashSet<ItemId>,
        budget: QueryBudget,
        scratch: &mut QueryScratch,
    ) -> LeafRun {
        if k == 0 || self.series.is_empty() {
            return Ok((Vec::new(), EngineStats::default()));
        }
        let cells_before = scratch.ws.cells();
        let envelope = Envelope::compute(query, band);
        let feature_box = self.transform.project_envelope(&envelope);
        let shape = Query::Rect(feature_box);
        let QueryScratch { ws, lb: scratch, pf } = scratch;
        if self.prefilter_active() {
            pf.stage(&envelope);
        }
        let pf: Option<&PrefilterEnvelope> = self.prefilter_active().then_some(&*pf);

        // The closing range query. Any true top-k member has exact distance
        // ≤ radius, hence lower bound ≤ radius, hence appears here.
        let radius = radius_sq.sqrt();
        let (candidates, range_stats) = self.index.range_query(&shape, radius);
        let mut stats = EngineStats { index: range_stats, ..EngineStats::default() };

        // Best-so-far is a max-heap seeded with the probes (worst of the
        // current top-k on top); its top is the shrinking radius.
        let mut heap: BinaryHeap<Cand> =
            seed.iter().map(|&(id, d_sq)| Cand { d_sq, id }).collect();

        // Envelope-bound pass over the remaining candidates at the outer
        // radius, so the expensive stages can visit them in ascending
        // lower-bound order: the likeliest true neighbors come first and
        // shrink the radius fastest for everything after them.
        let use_env = self.config.envelope_refinement || self.config.lb_improved_refinement;
        let mut pending: Vec<(f64, ItemId)> = Vec::new();
        for id in candidates {
            if known.contains(&id) {
                continue; // probe: exact distance already known
            }
            if use_env {
                let stored = &self.series[&id];
                // Prefilter prunes here are exactly the candidates whose
                // f64 envelope bound would come back above the radius
                // (hence infinite from the bounded kernel): same counter,
                // same surviving `pending` set, with or without it.
                if let (Some(pf), Some(mirror)) = (pf, stored.mirror.as_ref()) {
                    if prefilter_exceeds(self.config.kernel, pf, mirror, radius_sq) {
                        stats.lb_pruned += 1;
                        continue;
                    }
                }
                let lb_sq = envelope.distance_sq_bounded_mode(
                    &stored.samples,
                    radius_sq,
                    self.config.kernel,
                );
                if lb_sq > radius_sq {
                    stats.lb_pruned += 1;
                    continue;
                }
                pending.push((lb_sq, id));
            } else {
                pending.push((0.0, id));
            }
        }
        pending.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("finite lower bounds").then_with(|| a.1.cmp(&b.1))
        });

        for (lb_sq, id) in pending {
            if budget.expired() {
                stats.dp_cells = ws.cells() - cells_before;
                return Err(stats);
            }
            // The threshold an entrant must beat: the current k-th best when
            // the heap is full, the outer radius while it is not.
            let full = heap.len() >= k;
            // While the heap is under-full (only possible if the probes
            // numbered fewer than `min(k, len)`) every survivor is kept, so
            // verification must run to completion.
            let threshold_sq =
                if full { heap.peek().expect("non-empty heap").d_sq } else { f64::INFINITY };
            if full && lb_sq > threshold_sq {
                stats.lb_pruned += 1;
                continue;
            }
            let stored = &self.series[&id];
            let verified = self.cascade_verify(
                query,
                &envelope,
                band,
                stored,
                threshold_sq,
                use_env.then_some(lb_sq),
                pf,
                &mut stats,
                ws,
                scratch,
            );
            let Some(d_sq) = verified else { continue };
            if !full {
                heap.push(Cand { d_sq, id });
            } else {
                let worst = heap.peek().expect("non-empty heap");
                if (d_sq, id) < (worst.d_sq, worst.id) {
                    heap.pop();
                    heap.push(Cand { d_sq, id });
                }
            }
        }
        let survivors: Vec<(ItemId, f64)> =
            heap.into_sorted_vec().into_iter().map(|c| (c.id, c.d_sq)).collect();
        stats.dp_cells = ws.cells() - cells_before;
        Ok((survivors, stats))
    }

    /// The brute-force range path: the verification cascade over every
    /// stored series, sorted by `(distance, id)`.
    pub(crate) fn run_scan_range(
        &self,
        query: &[f64],
        band: usize,
        radius: f64,
        budget: QueryBudget,
        scratch: &mut QueryScratch,
    ) -> LeafRun {
        let cells_before = scratch.ws.cells();
        let radius_sq = radius * radius;
        let envelope = Envelope::compute(query, band);
        let mut stats = EngineStats::default();
        let QueryScratch { ws, lb, pf } = scratch;
        if self.prefilter_active() {
            pf.stage(&envelope);
        }
        let pf: Option<&PrefilterEnvelope> = self.prefilter_active().then_some(&*pf);
        let mut matches = Vec::new();
        for id in self.sorted_ids() {
            if budget.expired() {
                stats.dp_cells = ws.cells() - cells_before;
                return Err(stats);
            }
            let stored = &self.series[&id];
            if let Some(d_sq) = self.cascade_verify(
                query, &envelope, band, stored, radius_sq, None, pf, &mut stats, ws, lb,
            ) {
                if d_sq <= radius_sq {
                    matches.push((id, d_sq.sqrt()));
                }
            }
        }
        sort_by_distance(&mut matches);
        stats.matches = matches.len() as u64;
        stats.dp_cells = ws.cells() - cells_before;
        Ok((matches, stats))
    }

    /// The brute-force k-NN path: exact DTW against every stored series,
    /// the `k` best sorted by `(distance, id)`.
    pub(crate) fn run_scan_knn(
        &self,
        query: &[f64],
        band: usize,
        k: usize,
        budget: QueryBudget,
        scratch: &mut QueryScratch,
    ) -> LeafRun {
        let cells_before = scratch.ws.cells();
        let ws = &mut scratch.ws;
        let mut stats = EngineStats::default();
        // Preallocation is clamped to the corpus size: `k` can come straight
        // off the wire, and the heap never holds more than one entry per
        // stored series anyway (`k = 10^15` must not reserve terabytes, and
        // `k = u64::MAX as usize` must not overflow `k + 1`).
        let mut heap: BinaryHeap<Cand> =
            BinaryHeap::with_capacity(k.min(self.series.len()) + 1);
        for id in self.sorted_ids() {
            if budget.expired() {
                stats.dp_cells = ws.cells() - cells_before;
                return Err(stats);
            }
            let full = k > 0 && heap.len() >= k;
            let threshold_sq = if full && self.config.early_abandon {
                heap.peek().expect("non-empty heap").d_sq
            } else {
                f64::INFINITY
            };
            stats.exact_computations += 1;
            let d_sq = ldtw_distance_sq_bounded_with_mode(
                ws,
                query,
                &self.series[&id].samples,
                band,
                threshold_sq,
                self.config.kernel,
            );
            if d_sq.is_infinite() {
                stats.early_abandoned += 1;
                continue;
            }
            if !full {
                if k > 0 {
                    heap.push(Cand { d_sq, id });
                }
            } else {
                let worst = heap.peek().expect("non-empty heap");
                if (d_sq, id) < (worst.d_sq, worst.id) {
                    heap.pop();
                    heap.push(Cand { d_sq, id });
                }
            }
        }
        let mut matches: Vec<(ItemId, f64)> =
            heap.into_sorted_vec().into_iter().map(|c| (c.id, c.d_sq.sqrt())).collect();
        sort_by_distance(&mut matches);
        stats.matches = matches.len() as u64;
        stats.dp_cells = ws.cells() - cells_before;
        Ok((matches, stats))
    }

    /// All stored ids, ascending — a deterministic scan order.
    fn sorted_ids(&self) -> Vec<ItemId> {
        let mut ids: Vec<ItemId> = self.series.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// Result of a batched [`QueryRequest`] execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutcome {
    /// Per-request outcomes (result + optional trace), in submission order.
    /// Each is bit-identical to the corresponding single-request call, for
    /// every thread count.
    pub outcomes: Vec<QueryOutcome>,
    /// All per-request counters merged in submission order.
    pub stats: EngineStats,
}

/// Max-heap entry for the k-NN best-so-far set: orders by squared distance,
/// ties broken toward the larger id so the heap's top is always the entry a
/// lexicographically smaller `(distance, id)` pair should displace.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    d_sq: f64,
    id: ItemId,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.d_sq
            .partial_cmp(&other.d_sq)
            .expect("finite distances")
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Sorts `(id, distance)` pairs by `(distance, id)` — the one total order
/// every sort, heap and merge in the query path uses.
pub(crate) fn sort_by_distance(matches: &mut [(ItemId, f64)]) {
    matches.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).expect("finite distances").then_with(|| a.0.cmp(&b.0))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::ldtw_distance;
    use crate::transform::paa::{KeoghPaa, NewPaa};
    use hum_index::{GridFile, LinearScan, RStarTree};

    fn lcg_series(n: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = move || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n)
            .map(|_| {
                // Random walks, centered.
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

    fn build_engine(series: &[Vec<f64>]) -> DtwIndexEngine<NewPaa, RStarTree> {
        let len = series[0].len();
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(len, 8),
            RStarTree::with_page_size(8, 1024),
            EngineConfig::default(),
        );
        for (i, s) in series.iter().enumerate() {
            engine.insert(i as ItemId, s.clone());
        }
        engine
    }

    fn range_of<T: EnvelopeTransform, I: SpatialIndex>(
        engine: &DtwIndexEngine<T, I>,
        query: &[f64],
        band: usize,
        radius: f64,
    ) -> QueryResult {
        engine.query(&QueryRequest::range(radius).with_series(query).with_band(band)).result
    }

    fn scan_of<T: EnvelopeTransform, I: SpatialIndex>(
        engine: &DtwIndexEngine<T, I>,
        request: QueryRequest,
        query: &[f64],
        band: usize,
    ) -> QueryResult {
        engine.query(&request.with_series(query).with_band(band).with_scan(true)).result
    }

    fn knn_of<T: EnvelopeTransform, I: SpatialIndex>(
        engine: &DtwIndexEngine<T, I>,
        query: &[f64],
        band: usize,
        k: usize,
    ) -> QueryResult {
        engine.query(&QueryRequest::knn(k).with_series(query).with_band(band)).result
    }

    #[test]
    fn range_query_equals_brute_force() {
        let series = lcg_series(120, 64, 5);
        let engine = build_engine(&series);
        let query = &series[17];
        for (band, radius) in [(0usize, 1.0), (3, 2.0), (6, 4.0)] {
            let fast = range_of(&engine, query, band, radius);
            let slow = scan_of(&engine, QueryRequest::range(radius), query, band);
            assert_eq!(fast.matches, slow.matches, "band={band} r={radius}");
        }
    }

    #[test]
    fn no_false_negatives_across_backends() {
        let series = lcg_series(100, 64, 9);
        let query = lcg_series(1, 64, 1234).remove(0);
        let band = 4;
        let radius = 3.0;
        // Ground truth by direct DTW.
        let mut expected: Vec<ItemId> = series
            .iter()
            .enumerate()
            .filter(|(_, s)| ldtw_distance(&query, s, band) <= radius)
            .map(|(i, _)| i as ItemId)
            .collect();
        expected.sort_unstable();

        macro_rules! check {
            ($index:expr) => {{
                let mut engine =
                    DtwIndexEngine::new(NewPaa::new(64, 8), $index, EngineConfig::default());
                for (i, s) in series.iter().enumerate() {
                    engine.insert(i as ItemId, s.clone());
                }
                let mut got: Vec<ItemId> =
                    range_of(&engine, &query, band, radius).matches.iter().map(|m| m.0).collect();
                got.sort_unstable();
                assert_eq!(got, expected);
            }};
        }
        check!(RStarTree::with_page_size(8, 1024));
        check!(GridFile::with_params(8, 4, 32, 1024));
        check!(LinearScan::with_page_size(8, 1024));
    }

    #[test]
    fn knn_equals_brute_force_distances() {
        let series = lcg_series(150, 64, 21);
        let engine = build_engine(&series);
        let query = lcg_series(1, 64, 777).remove(0);
        for band in [0usize, 2, 5] {
            let fast = knn_of(&engine, &query, band, 10);
            let slow = scan_of(&engine, QueryRequest::knn(10), &query, band);
            assert_eq!(fast.matches.len(), 10);
            for (f, s) in fast.matches.iter().zip(&slow.matches) {
                assert!((f.1 - s.1).abs() < 1e-9, "band={band}");
            }
        }
    }

    #[test]
    fn self_query_returns_self_first() {
        let series = lcg_series(60, 64, 3);
        let engine = build_engine(&series);
        let result = knn_of(&engine, &series[42], 2, 1);
        assert_eq!(result.matches[0].0, 42);
        assert!(result.matches[0].1 < 1e-12);
    }

    #[test]
    fn index_prunes_relative_to_full_scan() {
        let series = lcg_series(600, 64, 31);
        let engine = build_engine(&series);
        let query = &series[0];
        let result = range_of(&engine, query, 2, 0.5);
        assert!(
            result.stats.index.points_examined < 600,
            "examined {}",
            result.stats.index.points_examined
        );
        // The exact-DTW step runs on far fewer series than the database size.
        assert!(result.stats.exact_computations < 300);
    }

    #[test]
    fn tighter_transform_yields_fewer_candidates() {
        let series = lcg_series(400, 64, 13);
        let query = lcg_series(1, 64, 999).remove(0);
        let band = 4;
        let radius = 2.0;

        let mut new_engine = DtwIndexEngine::new(
            NewPaa::new(64, 8),
            LinearScan::with_page_size(8, 1024),
            EngineConfig { envelope_refinement: false, ..EngineConfig::default() },
        );
        let mut keogh_engine = DtwIndexEngine::new(
            KeoghPaa::new(64, 8),
            LinearScan::with_page_size(8, 1024),
            EngineConfig { envelope_refinement: false, ..EngineConfig::default() },
        );
        for (i, s) in series.iter().enumerate() {
            new_engine.insert(i as ItemId, s.clone());
            keogh_engine.insert(i as ItemId, s.clone());
        }
        let new_result = range_of(&new_engine, &query, band, radius);
        let keogh_result = range_of(&keogh_engine, &query, band, radius);
        assert_eq!(new_result.matches, keogh_result.matches, "same exact answer");
        assert!(
            new_result.stats.index.candidates <= keogh_result.stats.index.candidates,
            "New_PAA candidates {} vs Keogh_PAA {}",
            new_result.stats.index.candidates,
            keogh_result.stats.index.candidates
        );
    }

    #[test]
    fn envelope_refinement_only_changes_work_not_answers() {
        let series = lcg_series(200, 64, 8);
        let query = lcg_series(1, 64, 555).remove(0);
        let mut with = DtwIndexEngine::new(
            NewPaa::new(64, 8),
            RStarTree::with_page_size(8, 1024),
            EngineConfig { envelope_refinement: true, ..EngineConfig::default() },
        );
        let mut without = DtwIndexEngine::new(
            NewPaa::new(64, 8),
            RStarTree::with_page_size(8, 1024),
            EngineConfig { envelope_refinement: false, ..EngineConfig::default() },
        );
        for (i, s) in series.iter().enumerate() {
            with.insert(i as ItemId, s.clone());
            without.insert(i as ItemId, s.clone());
        }
        let a = range_of(&with, &query, 3, 2.5);
        let b = range_of(&without, &query, 3, 2.5);
        assert_eq!(a.matches, b.matches);
        assert!(a.stats.exact_computations <= b.stats.exact_computations);
    }

    #[test]
    fn knn_with_k_zero_or_empty_engine() {
        let series = lcg_series(10, 32, 2);
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(32, 4),
            RStarTree::new(4),
            EngineConfig::default(),
        );
        assert!(knn_of(&engine, &series[0], 2, 3).matches.is_empty());
        engine.insert(0, series[0].clone());
        assert!(knn_of(&engine, &series[0], 2, 0).matches.is_empty());
    }

    #[test]
    fn removal_keeps_queries_exact_across_backends() {
        let series = lcg_series(150, 64, 61);
        let query = lcg_series(1, 64, 4242).remove(0);
        let band = 3;
        let radius = 3.0;

        macro_rules! check {
            ($index:expr) => {{
                let mut engine =
                    DtwIndexEngine::new(NewPaa::new(64, 8), $index, EngineConfig::default());
                for (i, s) in series.iter().enumerate() {
                    engine.insert(i as ItemId, s.clone());
                }
                for id in (0..150).step_by(4) {
                    assert!(engine.remove(id as ItemId));
                }
                assert!(!engine.remove(0), "already removed");
                let mut expected: Vec<ItemId> = series
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 4 != 0)
                    .filter(|(_, s)| ldtw_distance(&query, s, band) <= radius)
                    .map(|(i, _)| i as ItemId)
                    .collect();
                expected.sort_unstable();
                let mut got: Vec<ItemId> =
                    range_of(&engine, &query, band, radius).matches.iter().map(|m| m.0).collect();
                got.sort_unstable();
                assert_eq!(got, expected);
            }};
        }
        check!(RStarTree::with_page_size(8, 1024));
        check!(GridFile::with_params(8, 4, 32, 1024));
        check!(LinearScan::with_page_size(8, 1024));
    }

    #[test]
    fn removed_id_can_be_reinserted() {
        let series = lcg_series(3, 32, 2);
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(32, 4),
            RStarTree::new(4),
            EngineConfig::default(),
        );
        engine.insert(5, series[0].clone());
        assert!(engine.remove(5));
        engine.insert(5, series[1].clone());
        assert_eq!(engine.len(), 1);
        let top = knn_of(&engine, &series[1], 2, 1);
        assert_eq!(top.matches[0].0, 5);
        assert!(top.matches[0].1 < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn nan_in_inserted_series_rejected() {
        let mut series = lcg_series(1, 32, 4).remove(0);
        series[7] = f64::NAN;
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(32, 4),
            RStarTree::new(4),
            EngineConfig::default(),
        );
        engine.insert(0, series);
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn infinity_in_inserted_series_rejected() {
        let mut series = lcg_series(1, 32, 4).remove(0);
        series[0] = f64::INFINITY;
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(32, 4),
            RStarTree::new(4),
            EngineConfig::default(),
        );
        engine.insert(0, series);
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn nan_in_range_query_rejected() {
        let series = lcg_series(4, 32, 4);
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(32, 4),
            RStarTree::new(4),
            EngineConfig::default(),
        );
        engine.insert(0, series[0].clone());
        let mut query = series[1].clone();
        query[3] = f64::NAN;
        let _ = range_of(&engine, &query, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn nan_in_knn_query_rejected() {
        let series = lcg_series(4, 32, 4);
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(32, 4),
            RStarTree::new(4),
            EngineConfig::default(),
        );
        engine.insert(0, series[0].clone());
        let mut query = series[1].clone();
        query[30] = f64::NEG_INFINITY;
        let _ = knn_of(&engine, &query, 2, 1);
    }

    #[test]
    fn reused_scratch_reproduces_fresh_scratch_counters() {
        let series = lcg_series(80, 64, 44);
        let engine = build_engine(&series);
        let queries = lcg_series(6, 64, 4711);
        let mut scratch = QueryScratch::new();
        for q in &queries {
            let range = QueryRequest::range(2.0).with_series(q.clone()).with_band(3);
            assert_eq!(engine.query(&range), engine.try_query_with(&range, &mut scratch).unwrap());
            let knn = QueryRequest::knn(5).with_series(q.clone()).with_band(3);
            assert_eq!(engine.query(&knn), engine.try_query_with(&knn, &mut scratch).unwrap());
        }
    }

    #[test]
    fn query_batch_matches_single_queries_for_every_thread_count() {
        let series = lcg_series(90, 64, 77);
        let engine = build_engine(&series);
        let queries = lcg_series(9, 64, 31337);
        let batch: Vec<QueryRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                if i % 2 == 0 {
                    QueryRequest::knn(7).with_series(q.clone()).with_band(3)
                } else {
                    QueryRequest::range(2.5).with_series(q.clone()).with_band(2)
                }
            })
            .collect();
        let expected: Vec<QueryOutcome> = batch.iter().map(|r| engine.query(r)).collect();
        let mut expected_stats = EngineStats::default();
        for outcome in &expected {
            expected_stats.absorb(&outcome.result.stats);
        }
        for threads in [1, 2, 8] {
            let got = engine
                .try_query_batch(&batch, &crate::batch::BatchOptions::new(threads, 2))
                .unwrap();
            assert_eq!(got.outcomes, expected, "threads={threads}");
            assert_eq!(got.stats, expected_stats, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate id")]
    fn duplicate_id_rejected() {
        let series = lcg_series(2, 32, 4);
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(32, 4),
            RStarTree::new(4),
            EngineConfig::default(),
        );
        engine.insert(7, series[0].clone());
        engine.insert(7, series[1].clone());
    }

    #[test]
    fn try_insert_reports_every_error_and_mutates_nothing() {
        let series = lcg_series(3, 32, 4);
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(32, 4),
            RStarTree::new(4),
            EngineConfig::default(),
        );
        assert_eq!(
            engine.try_insert(0, vec![1.0; 31]),
            Err(EngineError::LengthMismatch {
                context: "inserted series",
                expected: 32,
                got: 31
            })
        );
        let mut bad = series[0].clone();
        bad[9] = f64::NAN;
        match engine.try_insert(0, bad) {
            Err(EngineError::NonFiniteSample { context, index, value }) => {
                assert_eq!(context, "inserted series");
                assert_eq!(index, 9);
                assert!(value.is_nan());
            }
            other => panic!("expected NonFiniteSample, got {other:?}"),
        }
        assert!(engine.is_empty(), "failed inserts must not mutate");
        engine.try_insert(3, series[1].clone()).unwrap();
        assert_eq!(
            engine.try_insert(3, series[2].clone()),
            Err(EngineError::DuplicateId(3))
        );
        assert_eq!(engine.get(3).unwrap(), series[1].as_slice(), "original survives");
    }

    #[test]
    fn try_query_reports_every_error_variant() {
        let series = lcg_series(2, 32, 4);
        let mut engine = DtwIndexEngine::new(
            NewPaa::new(32, 4),
            RStarTree::new(4),
            EngineConfig::default(),
        );
        engine.insert(0, series[0].clone());
        let empty = QueryRequest::range(1.0);
        assert_eq!(engine.try_query(&empty), Err(EngineError::EmptyQuery));
        let short = QueryRequest::knn(1).with_series(vec![0.0; 16]);
        assert_eq!(
            engine.try_query(&short),
            Err(EngineError::LengthMismatch { context: "query", expected: 32, got: 16 })
        );
        let mut bad = series[1].clone();
        bad[30] = f64::NEG_INFINITY;
        match engine.try_query(&QueryRequest::range(1.0).with_series(bad)) {
            Err(EngineError::NonFiniteSample { context, index, value }) => {
                assert_eq!(context, "query");
                assert_eq!(index, 30);
                assert_eq!(value, f64::NEG_INFINITY);
            }
            other => panic!("expected NonFiniteSample, got {other:?}"),
        }
        let wide = QueryRequest::range(1.0).with_series(series[1].clone()).with_band(32);
        assert_eq!(
            engine.try_query(&wide),
            Err(EngineError::BandTooWide { band: 32, len: 32 })
        );
        // The same input is fine one sample narrower.
        let ok = QueryRequest::range(1.0).with_series(series[1].clone()).with_band(31);
        assert!(engine.try_query(&ok).is_ok());
    }

    #[test]
    fn error_display_keeps_legacy_panic_substrings() {
        let messages = [
            EngineError::LengthMismatch { context: "query", expected: 4, got: 2 }.to_string(),
            EngineError::NonFiniteSample { context: "query", index: 3, value: f64::NAN }
                .to_string(),
            EngineError::DuplicateId(7).to_string(),
        ];
        assert!(messages[0].contains("must be in normal form"));
        assert!(messages[1].contains("non-finite sample"));
        assert!(messages[1].contains("index 3"));
        assert!(messages[2].contains("duplicate id 7"));
    }

    #[test]
    fn trace_totals_equal_stats_on_every_path() {
        let series = lcg_series(100, 64, 51);
        let engine = build_engine(&series);
        let query = lcg_series(1, 64, 909).remove(0);
        for (request, scan) in [
            (QueryRequest::range(2.5), false),
            (QueryRequest::knn(5), false),
            (QueryRequest::range(2.5), true),
            (QueryRequest::knn(5), true),
        ] {
            let request =
                request.with_series(query.clone()).with_band(3).with_trace(true).with_scan(scan);
            let outcome = engine.query(&request);
            let trace = outcome.trace.expect("trace requested");
            assert_eq!(trace.totals(), outcome.result.stats, "scan={scan}");
            assert_eq!(trace.band, 3);
            if scan {
                assert_eq!(trace.candidates_in, engine.len() as u64);
                assert_eq!(trace.index, QueryStats::default());
            } else {
                assert_eq!(trace.candidates_in, outcome.result.stats.index.candidates);
            }
        }
    }

    #[test]
    fn batch_requests_carry_traces_in_submission_order() {
        let series = lcg_series(80, 64, 52);
        let engine = build_engine(&series);
        let queries = lcg_series(6, 64, 6001);
        let requests: Vec<QueryRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let r = if i % 2 == 0 { QueryRequest::range(2.0) } else { QueryRequest::knn(4) };
                r.with_series(q.clone()).with_band(2).with_trace(true)
            })
            .collect();
        let expected: Vec<QueryOutcome> =
            requests.iter().map(|r| engine.query(r)).collect();
        for threads in [1, 2, 8] {
            let got = engine
                .try_query_batch(&requests, &crate::batch::BatchOptions::new(threads, 2))
                .unwrap();
            assert_eq!(got.outcomes, expected, "threads={threads}");
        }
    }

    #[test]
    fn expired_deadline_aborts_with_partial_stats_on_every_path() {
        let series = lcg_series(120, 64, 55);
        let engine = build_engine(&series);
        let query = lcg_series(1, 64, 1010).remove(0);
        // A deadline of "now" is already expired by the first poll.
        let expired = QueryBudget::with_deadline(Instant::now());
        assert!(expired.expired());
        for (request, scan) in [
            (QueryRequest::range(50.0), false),
            (QueryRequest::knn(5), false),
            (QueryRequest::range(50.0), true),
            (QueryRequest::knn(5), true),
        ] {
            let request = request
                .with_series(query.clone())
                .with_band(3)
                .with_scan(scan)
                .with_budget(expired);
            match engine.try_query(&request) {
                Err(EngineError::DeadlineExceeded { stats }) => {
                    // Aborted before the first candidate: no matches, no
                    // exact DTW, but the index walk already happened on the
                    // indexed paths.
                    assert_eq!(stats.matches, 0, "scan={scan}");
                    assert_eq!(stats.exact_computations, 0, "scan={scan}");
                    if !scan {
                        assert!(stats.index.candidates > 0, "scan={scan}");
                    }
                }
                other => panic!("expected DeadlineExceeded (scan={scan}), got {other:?}"),
            }
        }
    }

    #[test]
    fn unexpired_deadline_is_bit_identical_to_unbudgeted() {
        let series = lcg_series(100, 64, 56);
        let engine = build_engine(&series);
        let query = lcg_series(1, 64, 2020).remove(0);
        let budget = QueryBudget::within(Duration::from_secs(3600));
        assert!(!budget.expired());
        for (request, scan) in [
            (QueryRequest::range(2.5), false),
            (QueryRequest::knn(7), false),
            (QueryRequest::range(2.5), true),
            (QueryRequest::knn(7), true),
        ] {
            let request =
                request.with_series(query.clone()).with_band(3).with_trace(true).with_scan(scan);
            let plain = engine.query(&request);
            let budgeted = engine.query(&request.clone().with_budget(budget));
            assert_eq!(plain, budgeted, "scan={scan}");
        }
    }

    #[test]
    fn batch_with_expired_deadline_fails_with_deadline_error() {
        let series = lcg_series(60, 64, 57);
        let engine = build_engine(&series);
        let queries = lcg_series(3, 64, 3030);
        let mut requests: Vec<QueryRequest> = queries
            .iter()
            .map(|q| QueryRequest::knn(3).with_series(q.clone()).with_band(2))
            .collect();
        requests[1] =
            requests[1].clone().with_budget(QueryBudget::with_deadline(Instant::now()));
        let got = engine.try_query_batch(&requests, &crate::batch::BatchOptions::new(2, 1));
        assert!(
            matches!(got, Err(EngineError::DeadlineExceeded { .. })),
            "expected DeadlineExceeded, got {got:?}"
        );
    }

    #[test]
    fn deadline_abort_is_not_recorded_as_a_completed_query() {
        let series = lcg_series(60, 64, 58);
        let mut engine = build_engine(&series);
        engine.set_metrics(MetricsSink::enabled());
        let query = lcg_series(1, 64, 4040).remove(0);
        let expired = QueryRequest::range(50.0)
            .with_series(query.clone())
            .with_band(3)
            .with_budget(QueryBudget::with_deadline(Instant::now()));
        assert!(engine.try_query(&expired).is_err());
        let completed = QueryRequest::range(50.0).with_series(query).with_band(3);
        assert!(engine.try_query(&completed).is_ok());
        let registry = engine.metrics().registry().expect("enabled");
        assert_eq!(registry.snapshot().counter(Metric::RangeQueries), 1);
    }

    #[test]
    fn deadline_error_display_names_the_deadline() {
        let message =
            EngineError::DeadlineExceeded { stats: EngineStats::default() }.to_string();
        assert!(message.contains("deadline exceeded"), "{message}");
    }
}
