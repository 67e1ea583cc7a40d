//! The GEMINI query engine for DTW (paper §4.3).
//!
//! Build phase: every database series (already in normal form — equal
//! length, mean-subtracted; see [`crate::normal`]) is reduced to its New_PAA
//! feature vector and appended to one flat sweep ([`LinearScan`]). The
//! paper's R\*-tree and its other transforms serve the figures, which read
//! candidates and pages from a range query over their features, not from an
//! engine.
//!
//! Query phase, for an ε-range query at warping band `k`:
//!
//! 1. compute the query's `k`-envelope and its feature-space image (a box),
//! 2. range-search the index: candidates are points within ε of the box —
//!    by Theorem 1 this never drops a true match,
//! 3. re-filter candidates with the full-dimension envelope bound (the
//!    paper's "LB used as a second filter after the indexing scheme"),
//! 4. verify survivors with the exact banded DTW.
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
//! # k-NN: one sweep, two rounds
//!
//! The k-NN is a multi-step scheme (Seidl & Kriegel) over one sequential
//! pass of a cheap bound, the schedule Lemire's two-pass DTW search
//! assumes. The index is swept once for every stored point's feature lower
//! bound; that one bound array feeds both rounds, and no candidate reaches
//! DTW but through the cascade.
//!
//! 1. **Seed round:** the `M = min(32·k, len)` smallest feature bounds by
//!    `(d², id)` run through the cascade with an empty heap at threshold ∞,
//!    leaving the exact top-k and the bounds left out.
//! 2. **Radius:** the k-th smallest `(d², id)` pair of that top-k: `k` real
//!    items sit within it, so the true k-th neighbor does too.
//! 3. **Close round:** the bounds left out are admitted with a range
//!    query's root-space test, `sqrt(d²) ≤ sqrt(radius²)`, and run through
//!    the same cascade under a heap seeded with the top-k. No melody is
//!    examined twice. The heap, ordered by `(d², id)`, is the answer.
//!
//! The result is exact: a seed-round candidate pruned or abandoned at
//! threshold `t` has a bound, or a distance, above `t ≥` the final k-th
//! `(d², id)`, and pruning uses a strict `>`, so a tie with the k-th
//! survives and is decided by id; a true top-k member left out has bound ≤
//! distance ≤ radius, so the close round admits and keeps it. Every
//! candidate, seed or admitted, is counted in `index.candidates` and pruned
//! by one stage or verified, so a traced query has
//! `candidates_in == lb_pruned + lb_improved_pruned + exact_started`.
//!
//! # The query API
//!
//! Every query goes through one request type: build a [`QueryRequest`]
//! ([`QueryRequest::range`] / [`QueryRequest::knn`], with optional band
//! override, per-query trace toggle and time budget) and execute it with
//! [`DtwIndexEngine::try_query`], which returns an [`EngineError`] for a
//! malformed request and is a fresh-scratch caller of
//! [`DtwIndexEngine::try_query_with`]: validate → prepare → run → record →
//! trace. Matches are bit-identical to a brute-force DTW sweep, and matches,
//! counters and traces are functions of `(query, corpus)` alone: every
//! selection runs in the total order `(d², id)`, so neither insertion order
//! nor timing moves them.
//!
//! # Observability
//!
//! The engine optionally records every query into a shared
//! [`MetricsRegistry`](crate::obs::MetricsRegistry) (see
//! [`DtwIndexEngine::set_metrics`]) and, per request, emits a
//! [`QueryTrace`] of the cascade trajectory. Both are off by default and
//! free when disabled; traces carry counters only (never wall-clock time),
//! so they are bit-identical across runs.
//!
//! # Deadlines
//!
//! A query polls its request's [`QueryBudget`] between candidates. An
//! expiry fails it with [`EngineError::DeadlineExceeded`] carrying the
//! partial counters (`matches` forced to 0 — partial match sets are never
//! reported); it is not recorded as a completed query.

use std::collections::BinaryHeap;
use std::fmt;
use std::time::{Duration, Instant};

use hum_index::{ItemId, LinearScan, Query, QueryStats, SpatialIndex};

use crate::arena::SeriesArena;
use crate::dtw::{ldtw_distance_sq_bounded_with_mode, DtwWorkspace};
use crate::envelope::{lb_improved_tail_sq_mode, Envelope, LbScratch};
use crate::kernel::KernelMode;
use crate::obs::{Metric, MetricsSink, QueryKind, QueryTrace};
use crate::transform::paa::NewPaa;
use crate::transform::EnvelopeTransform;

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
    /// work over many queries).
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
    /// A recording's sample rate is too low to pitch-track: raised by the
    /// audio query path above the engine, before any tracking.
    UnsupportedSampleRate {
        /// The recording's sample rate in Hz.
        rate: u32,
        /// The lowest rate the pitch tracker accepts.
        min: u32,
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
            EngineError::UnsupportedSampleRate { rate, min } => {
                write!(f, "sample rate {rate} Hz is below the {min} Hz pitch tracking needs")
            }
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

/// What every query primitive returns: its pool — `(id, distance)` pairs
/// unless stated — plus its counters, or, when the budget's deadline passed
/// between candidates, the partial counters alone.
type Run<P = Vec<(ItemId, f64)>> = Result<(P, EngineStats), EngineStats>;

/// A k-NN seed round's pool: the exact top-k and the `(id, bound²)` pairs
/// it left for the close round.
type SeedRun = Run<(Vec<(ItemId, f64)>, Vec<(ItemId, f64)>)>;

/// Result of one [`QueryRequest`]: the matches and counters, plus the
/// cascade trace when the request asked for one.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Matches and work counters.
    pub result: QueryResult,
    /// The cascade trajectory, present iff [`QueryRequest::with_trace`] was
    /// set. Counters only; bit-identical across runs.
    pub trace: Option<QueryTrace>,
}

/// A cooperative time budget for one query.
///
/// The default ([`QueryBudget::unlimited`]) never expires and costs nothing:
/// no clock is read anywhere in the engine. With a deadline set, the run
/// paths poll [`QueryBudget::expired`] once per *candidate* in every
/// stage that walks candidates (the envelope sweep and the verification
/// loops alike) — never inside
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
/// [`DtwIndexEngine::try_query`].
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
    budget: QueryBudget,
}

impl QueryRequest {
    /// An ε-range request at `radius`. Attach the query series with
    /// [`QueryRequest::with_series`].
    pub fn range(radius: f64) -> Self {
        QueryRequest::of(RequestKind::Range { radius })
    }

    /// A k-NN request. Attach the query series with
    /// [`QueryRequest::with_series`].
    pub fn knn(k: usize) -> Self {
        QueryRequest::of(RequestKind::Knn { k })
    }

    fn of(kind: RequestKind) -> Self {
        QueryRequest {
            series: Vec::new(),
            kind,
            band: 0,
            trace: false,
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

/// Reusable per-query scratch: the DTW workspace and the `LB_Improved`
/// scratch. One per worker thread amortizes the row allocations across
/// every query it runs; the engine reports `dp_cells` as a per-query delta,
/// so reuse never changes any counter.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    ws: DtwWorkspace,
    lb: LbScratch,
}

impl QueryScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        QueryScratch::default()
    }
}

/// What every phase of one request shares, computed once: the query, its
/// `k`-envelope and the envelope's feature-space image, the box the index
/// is queried with.
#[derive(Debug)]
struct PreparedQuery<'a> {
    series: &'a [f64],
    band: usize,
    envelope: Envelope,
    shape: Query,
}

impl<'a> PreparedQuery<'a> {
    /// Prepares a *validated* query for an engine built on `transform`.
    fn new(transform: &NewPaa, series: &'a [f64], band: usize) -> Self {
        let envelope = Envelope::compute(series, band);
        let shape = Query::Rect(transform.project_envelope(&envelope));
        PreparedQuery { series, band, envelope, shape }
    }
}

/// The budget's deadline passed between two candidates.
struct Expired;

/// A candidate that survived the envelope sweep, with its envelope bound.
#[derive(Debug, Clone, Copy)]
struct Pending {
    lb_sq: f64,
    id: ItemId,
    slot: u32,
}

/// How many candidates ahead of the one being examined the envelope sweep
/// requests cache lines for.
const PREFETCH_AHEAD: usize = 4;

/// The k-NN seed round verifies the `SEEDS_PER_NEIGHBOR · k`
/// best-bounded melodies; 8 and 128 per neighbor measured within noise.
const SEEDS_PER_NEIGHBOR: usize = 32;

/// The DTW similarity-search engine: New_PAA features in one flat sweep,
/// the series in an arena, and the verification cascade over both.
#[derive(Debug, Clone)]
pub struct DtwIndexEngine {
    transform: NewPaa,
    index: LinearScan,
    series: SeriesArena,
    metrics: MetricsSink,
}

impl DtwIndexEngine {
    /// Creates an engine from a transform and an empty sweep. Metrics start
    /// [disabled](MetricsSink::Disabled).
    ///
    /// # Panics
    /// Panics if the index dimensionality differs from the transform output.
    pub fn new(transform: NewPaa, index: LinearScan) -> Self {
        assert_eq!(
            index.dims(),
            transform.output_dims(),
            "index dimensionality must match the transform output"
        );
        let series = SeriesArena::new(transform.input_len());
        DtwIndexEngine { transform, index, series, metrics: MetricsSink::Disabled }
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

    /// This engine as a one-element slice. Kept only for the frozen
    /// benchmark's stage replay; ROADMAP item 1(b) deletes both.
    #[doc(hidden)]
    pub fn shards(&self) -> &[Self] {
        std::slice::from_ref(self)
    }

    /// The transform in use.
    pub fn transform(&self) -> &NewPaa {
        &self.transform
    }

    /// The feature sweep in use.
    pub fn index(&self) -> &LinearScan {
        &self.index
    }

    /// Looks up a stored series.
    pub fn get(&self, id: ItemId) -> Option<&[f64]> {
        self.series.slot_of(id).map(|slot| self.series.samples(slot))
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
        if self.series.slot_of(id).is_some() {
            return Err(EngineError::DuplicateId(id));
        }
        let features = self.transform.project(&series);
        self.series.insert(id, &series);
        self.index.insert(id, features);
        self.metrics.add(Metric::Inserts, 1);
        Ok(())
    }

    /// Removes the series stored under `id` from both the store and the
    /// index. Returns `true` if it was present.
    pub fn remove(&mut self, id: ItemId) -> bool {
        if !self.series.remove(id) {
            return false;
        }
        let removed = self.index.remove(id);
        debug_assert!(removed, "series and index must stay in lockstep");
        self.metrics.add(Metric::Removals, 1);
        true
    }

    /// Rejects malformed query input, before any work, so failed queries
    /// observe nothing and count nothing.
    fn validate_query(&self, query: &[f64], band: usize) -> Result<(), EngineError> {
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

    /// [`DtwIndexEngine::try_query`] computing in caller-provided scratch:
    /// the one entry point every query runs through — validate, prepare the
    /// envelope and its feature box once, run the ε-range or the two k-NN
    /// rounds, record the completed query, build the trace. Results and
    /// counters are identical to a fresh-scratch call — reuse only avoids
    /// the per-query row allocations.
    ///
    /// # Errors
    /// As [`DtwIndexEngine::try_query`].
    pub fn try_query_with(
        &self,
        request: &QueryRequest,
        scratch: &mut QueryScratch,
    ) -> Result<QueryOutcome, EngineError> {
        let (query, band, budget) = (request.series(), request.band(), request.budget());
        self.validate_query(query, band)?;
        let started = self.metrics.start_timer();
        let prepared = PreparedQuery::new(&self.transform, query, band);
        let (kind, run) = match request.kind() {
            RequestKind::Knn { k } => (QueryKind::Knn, self.run_knn(&prepared, k, budget, scratch)),
            RequestKind::Range { radius } => {
                (QueryKind::Range, self.run_range(&prepared, radius, budget, scratch))
            }
        };
        let (matches, mut stats) = run.map_err(|partial| EngineError::DeadlineExceeded {
            stats: EngineStats { matches: 0, ..partial },
        })?;
        stats.matches = matches.len() as u64;
        debug_assert_eq!(
            stats.lb_pruned + stats.lb_improved_pruned + stats.exact_computations,
            stats.index.candidates,
            "every candidate is pruned by exactly one stage or verified"
        );
        self.metrics.record_query(kind, &stats, started);
        let trace = request.trace_enabled().then_some(QueryTrace { kind, band, stats });
        Ok(QueryOutcome { result: QueryResult { matches, stats }, trace })
    }

    /// Resolves index candidates to arena slots — one id → slot lookup per
    /// candidate for the whole query. Slots come back ascending, so the
    /// sweep walks the arena front to back.
    fn resolve_slots(&self, candidates: impl IntoIterator<Item = ItemId>) -> Vec<u32> {
        let mut slots: Vec<u32> = candidates
            .into_iter()
            .map(|id| self.series.slot_of(id).expect("series and index must stay in lockstep"))
            .collect();
        slots.sort_unstable();
        slots
    }

    /// The cascade's streaming stage over `slots` at a fixed `threshold_sq`:
    /// the envelope bound over each candidate's samples, requesting the
    /// lines of the candidates a few places ahead while it works on the
    /// current one. Returns the survivors with their bounds, in `slots`
    /// order; everything else is booked as `lb_pruned`.
    fn envelope_sweep(
        &self,
        prepared: &PreparedQuery<'_>,
        slots: Vec<u32>,
        threshold_sq: f64,
        budget: QueryBudget,
        stats: &mut EngineStats,
    ) -> Result<Vec<Pending>, Expired> {
        let arena = &self.series;
        let mode = KernelMode::default();
        let mut pending = Vec::with_capacity(slots.len());
        for (i, &slot) in slots.iter().enumerate() {
            if budget.expired() {
                return Err(Expired);
            }
            if let Some(&ahead) = slots.get(i + PREFETCH_AHEAD) {
                arena.prefetch_samples(ahead);
            }
            let lb_sq =
                prepared.envelope.distance_sq_bounded_mode(arena.samples(slot), threshold_sq, mode);
            if lb_sq > threshold_sq {
                stats.lb_pruned += 1;
            } else {
                pending.push(Pending { lb_sq, id: arena.id_at(slot), slot });
            }
        }
        Ok(pending)
    }

    /// The cascade's two per-candidate stages for a survivor of the
    /// envelope sweep, at a fixed squared threshold: two-pass
    /// `LB_Improved` on top of the candidate's envelope bound, then exact
    /// banded DTW. Returns `Some(d_sq)` when exact DTW ran to completion
    /// (callers compare against their own threshold); `None` when a stage
    /// pruned or abandoned it.
    fn verify(
        &self,
        prepared: &PreparedQuery<'_>,
        candidate: Pending,
        threshold_sq: f64,
        stats: &mut EngineStats,
        scratch: &mut QueryScratch,
    ) -> Option<f64> {
        let mode = KernelMode::default();
        let (query, band) = (prepared.series, prepared.band);
        let series = self.series.samples(candidate.slot);
        let tail = lb_improved_tail_sq_mode(
            query,
            &prepared.envelope,
            series,
            band,
            threshold_sq - candidate.lb_sq,
            &mut scratch.lb,
            mode,
        );
        if candidate.lb_sq + tail > threshold_sq {
            stats.lb_improved_pruned += 1;
            return None;
        }
        stats.exact_computations += 1;
        let d_sq = ldtw_distance_sq_bounded_with_mode(
            &mut scratch.ws,
            query,
            series,
            band,
            threshold_sq,
            mode,
        );
        if d_sq.is_infinite() {
            stats.early_abandoned += 1;
            return None;
        }
        Some(d_sq)
    }

    /// The ε-range cascade over `slots`: envelope sweep, then every
    /// survivor verified at the fixed radius. Matches sorted by
    /// `(distance, id)`; every decision is per candidate at one threshold,
    /// so neither they nor any counter depend on the order of `slots`.
    ///
    /// A candidate matches iff the distance it would be reported with,
    /// `d_sq.sqrt()`, is `<= radius` — so a range query at a distance an
    /// earlier answer returned finds that item again. The stages before
    /// that test work on squared values and prune at
    /// [`range_prune_sq`]`(radius)`, which no match exceeds. (The index
    /// filters in root space, `sqrt(lower bound²) <= radius`: the matching
    /// test itself, since `sqrt` is monotone.)
    fn range_over_slots(
        &self,
        prepared: &PreparedQuery<'_>,
        slots: Vec<u32>,
        radius: f64,
        budget: QueryBudget,
        stats: &mut EngineStats,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<(ItemId, f64)>, Expired> {
        let prune_sq = range_prune_sq(radius);
        let pending = self.envelope_sweep(prepared, slots, prune_sq, budget, stats)?;
        let mut matches = Vec::new();
        for (i, &candidate) in pending.iter().enumerate() {
            if budget.expired() {
                return Err(Expired);
            }
            if let Some(next) = pending.get(i + 1) {
                self.series.prefetch_samples(next.slot);
            }
            if let Some(d_sq) = self.verify(prepared, candidate, prune_sq, stats, scratch) {
                let distance = d_sq.sqrt();
                if distance <= radius {
                    matches.push((candidate.id, distance));
                }
            }
        }
        sort_by_distance(&mut matches);
        stats.matches = matches.len() as u64;
        Ok(matches)
    }

    /// The indexed range path: matches within `radius`, sorted by
    /// `(distance, id)`. Like every primitive below, it takes input
    /// [`DtwIndexEngine::try_query_with`] has already validated and prepared.
    fn run_range(
        &self,
        prepared: &PreparedQuery<'_>,
        radius: f64,
        budget: QueryBudget,
        scratch: &mut QueryScratch,
    ) -> Run {
        let cells_before = scratch.ws.cells();
        let (candidates, index_stats) = self.index.range_query(&prepared.shape, radius);
        let mut stats = EngineStats { index: index_stats, ..EngineStats::default() };
        let slots = self.resolve_slots(candidates);
        let run = self.range_over_slots(prepared, slots, radius, budget, &mut stats, scratch);
        stats.dp_cells = scratch.ws.cells() - cells_before;
        run.map(|matches| (matches, stats)).map_err(|Expired| stats)
    }

    /// The k-NN schedule (see the module docs): the seed round, the radius
    /// it leaves, the close round seeded with its top-k. Matches sorted by
    /// `(distance, id)`, with one square root each.
    fn run_knn(
        &self,
        prepared: &PreparedQuery<'_>,
        k: usize,
        budget: QueryBudget,
        scratch: &mut QueryScratch,
    ) -> Run {
        let ((top, rest), mut stats) = self.knn_seed_round(prepared, k, budget, scratch)?;
        let radius_sq = top.last().map_or(0.0, |&(_, d_sq)| d_sq);
        let close = self.knn_close_round(prepared, k, radius_sq, &top, &rest, budget, scratch);
        let (heap, close_stats) = match close {
            Ok(run) => run,
            Err(partial) => {
                stats.absorb(&partial);
                return Err(stats);
            }
        };
        stats.absorb(&close_stats);
        Ok((heap.into_iter().map(|(id, d_sq)| (id, d_sq.sqrt())).collect(), stats))
    }

    /// Round 1 of the k-NN schedule: the one feature sweep, then a close
    /// round over its `M = min(32·k, len)` smallest bounds by `(d², id)` at
    /// radius ∞ with an empty heap.
    fn knn_seed_round(
        &self,
        prepared: &PreparedQuery<'_>,
        k: usize,
        budget: QueryBudget,
        scratch: &mut QueryScratch,
    ) -> SeedRun {
        if k == 0 || self.series.is_empty() {
            return Ok(((Vec::new(), Vec::new()), EngineStats::default()));
        }
        let (mut bounds, sweep) = self.index.all_dist_sq(&prepared.shape);
        // A descending partition puts the M best at the back, so splitting
        // them off copies M pairs, not the rest.
        let cut = bounds.len() - k.saturating_mul(SEEDS_PER_NEIGHBOR).min(bounds.len());
        bounds.select_nth_unstable_by(cut, |a, b| b.1.total_cmp(&a.1).then(b.0.cmp(&a.0)));
        let best = bounds.split_off(cut);
        // The round counts the M candidates; the sweep adds pages and points.
        let with_sweep = |mut stats: EngineStats| {
            stats.index.absorb(&QueryStats { candidates: 0, ..sweep });
            stats
        };
        let run = self.knn_close_round(prepared, k, f64::INFINITY, &[], &best, budget, scratch);
        run.map(|(top, stats)| ((top, bounds), with_sweep(stats))).map_err(with_sweep)
    }

    /// Round 2 of the k-NN schedule: admits the melodies of `rest` whose
    /// bound passes the root-space test a range query at `sqrt(radius_sq)`
    /// applies, and verifies them under a heap seeded with `seed`, the best
    /// `(id, d²)` pairs so far. Returns the final heap contents ascending by
    /// `(d², id)`.
    #[allow(clippy::too_many_arguments)]
    fn knn_close_round(
        &self,
        prepared: &PreparedQuery<'_>,
        k: usize,
        radius_sq: f64,
        seed: &[(ItemId, f64)],
        rest: &[(ItemId, f64)],
        budget: QueryBudget,
        scratch: &mut QueryScratch,
    ) -> Run {
        let cells_before = scratch.ws.cells();
        let radius = radius_sq.sqrt();
        let admitted = rest.iter().filter(|&&(_, bound_sq)| bound_sq.sqrt() <= radius);
        let slots = self.resolve_slots(admitted.map(|&(id, _)| id));
        let index = QueryStats { candidates: slots.len() as u64, ..QueryStats::default() };
        let mut stats = EngineStats { index, ..EngineStats::default() };
        let run =
            self.close_over_slots(prepared, slots, k, radius_sq, seed, budget, &mut stats, scratch);
        stats.dp_cells = scratch.ws.cells() - cells_before;
        run.map(|survivors| (survivors, stats)).map_err(|Expired| stats)
    }

    /// Both k-NN rounds over their resolved candidates: envelope sweep at
    /// the outer radius, then the survivors verified in ascending bound
    /// order under the shrinking k-th best distance.
    #[allow(clippy::too_many_arguments)]
    fn close_over_slots(
        &self,
        prepared: &PreparedQuery<'_>,
        slots: Vec<u32>,
        k: usize,
        radius_sq: f64,
        seed: &[(ItemId, f64)],
        budget: QueryBudget,
        stats: &mut EngineStats,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<(ItemId, f64)>, Expired> {
        // Envelope bounds at the outer radius, so the expensive stages can
        // visit the survivors in ascending lower-bound order: the likeliest
        // true neighbors come first and shrink the radius fastest for
        // everything after them.
        let mut pending = self.envelope_sweep(prepared, slots, radius_sq, budget, stats)?;
        pending.sort_by(|a, b| {
            a.lb_sq
                .partial_cmp(&b.lb_sq)
                .expect("finite lower bounds")
                .then_with(|| a.id.cmp(&b.id))
        });

        // Best-so-far is a max-heap started from `seed` (worst of the
        // current top-k on top); its top is the shrinking radius.
        let mut heap: BinaryHeap<Cand> =
            seed.iter().map(|&(id, d_sq)| Cand { d_sq, id }).collect();
        for (i, &candidate) in pending.iter().enumerate() {
            if budget.expired() {
                return Err(Expired);
            }
            // The threshold an entrant must beat: the current k-th best when
            // the heap is full. While it is under-full (the seed round's
            // first k, or a corpus smaller than k) every survivor is kept,
            // so verification must run to completion.
            let full = heap.len() >= k;
            let threshold_sq =
                if full { heap.peek().expect("non-empty heap").d_sq } else { f64::INFINITY };
            if full && candidate.lb_sq > threshold_sq {
                // Bounds ascend and a full heap's threshold only shrinks:
                // this candidate and every later one is pruned.
                stats.lb_pruned += (pending.len() - i) as u64;
                break;
            }
            // The next survivor's samples travel while this one is verified.
            if let Some(next) = pending.get(i + 1) {
                self.series.prefetch_samples(next.slot);
            }
            let Some(d_sq) = self.verify(prepared, candidate, threshold_sq, stats, scratch) else {
                continue;
            };
            let id = candidate.id;
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
        Ok(heap.into_sorted_vec().into_iter().map(|c| (c.id, c.d_sq)).collect())
    }
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
/// every sort and heap in the query path uses.
fn sort_by_distance(matches: &mut [(ItemId, f64)]) {
    matches.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).expect("finite distances").then_with(|| a.0.cmp(&b.0))
    });
}

/// The squared threshold an ε-range query's squared-space stages (envelope
/// sweep, `LB_Improved`, early abandon) prune at: a few ulps above `r·r`,
/// never below the squared distance of a match.
///
/// A match has `fl(√x) <= r` for its squared distance `x`. With `u = 2⁻⁵³`,
/// a correctly rounded root gives `√x <= r / (1 − u)` and a correctly
/// rounded product `r² <= fl(r·r) / (1 − u)`, so `x <= fl(r·r) / (1 − u)³ <
/// fl(r·r)·(1 + 3.01u)`, while the value returned is at least
/// `fl(r·r)·(1 + 8u)(1 − u) > fl(r·r)·(1 + 6.9u)`. (`r·r` itself would sit
/// up to ~3 ulps *below* such an `x`.) Too wide costs a candidate within
/// ulps of the radius one exact DTW before the root-space test rejects it;
/// too narrow would lose a match. Holds wherever `r·r` does not underflow.
fn range_prune_sq(radius: f64) -> f64 {
    radius * radius * (1.0 + 4.0 * f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::ldtw_distance;
    use crate::transform::paa::KeoghPaa;
    use hum_index::RStarTree;

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

    fn build_engine(series: &[Vec<f64>]) -> DtwIndexEngine {
        let len = series[0].len();
        let mut engine = DtwIndexEngine::new(NewPaa::new(len, 8), LinearScan::new(8));
        for (i, s) in series.iter().enumerate() {
            engine.try_insert(i as ItemId, s.clone()).unwrap();
        }
        engine
    }

    fn range_of(engine: &DtwIndexEngine, query: &[f64], band: usize, radius: f64) -> QueryResult {
        let request = QueryRequest::range(radius).with_series(query).with_band(band);
        engine.try_query(&request).unwrap().result
    }

    /// The oracle: every series' exact distance, in `(distance, id)` order.
    fn brute_force(series: &[Vec<f64>], query: &[f64], band: usize) -> Vec<(ItemId, f64)> {
        let mut all: Vec<(ItemId, f64)> = series
            .iter()
            .enumerate()
            .map(|(i, s)| (i as ItemId, ldtw_distance(query, s, band)))
            .collect();
        sort_by_distance(&mut all);
        all
    }

    /// A range query's candidates from `index` over `transform`'s features
    /// of the `present` series (id = position) and, refined by exact DTW,
    /// its matches, both ascending.
    fn feature_range<I: SpatialIndex>(
        mut index: I,
        transform: &dyn EnvelopeTransform,
        series: &[Vec<f64>],
        present: impl Fn(usize) -> bool,
        query: &[f64],
        band: usize,
        radius: f64,
    ) -> (Vec<ItemId>, Vec<ItemId>) {
        for (i, s) in series.iter().enumerate().filter(|(i, _)| present(*i)) {
            index.insert(i as ItemId, transform.project(s));
        }
        let feature_box = transform.project_envelope(&Envelope::compute(query, band));
        let (mut listed, _) = index.range_query(&Query::Rect(feature_box), radius);
        listed.sort_unstable();
        let within = |id: &ItemId| ldtw_distance(query, &series[*id as usize], band) <= radius;
        let matches = listed.iter().copied().filter(within).collect();
        (listed, matches)
    }

    fn knn_of(engine: &DtwIndexEngine, query: &[f64], band: usize, k: usize) -> QueryResult {
        let request = QueryRequest::knn(k).with_series(query).with_band(band);
        engine.try_query(&request).unwrap().result
    }

    #[test]
    fn range_query_equals_brute_force() {
        let series = lcg_series(120, 64, 5);
        let engine = build_engine(&series);
        let query = &series[17];
        for (band, radius) in [(0usize, 1.0), (3, 2.0), (6, 4.0)] {
            let fast = range_of(&engine, query, band, radius);
            let mut slow = brute_force(&series, query, band);
            slow.retain(|&(_, d)| d <= radius);
            assert_eq!(fast.matches, slow, "band={band} r={radius}");
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
        let engine = build_engine(&series);
        let mut got: Vec<ItemId> =
            range_of(&engine, &query, band, radius).matches.iter().map(|m| m.0).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
        // The paper's R*-tree over the same features loses no match either.
        let tree = RStarTree::with_page_size(8, 1024);
        let (_, listed) =
            feature_range(tree, &NewPaa::new(64, 8), &series, |_| true, &query, band, radius);
        assert_eq!(listed, expected, "R*-tree");
    }

    #[test]
    fn knn_equals_brute_force_distances() {
        let series = lcg_series(150, 64, 21);
        let engine = build_engine(&series);
        let query = lcg_series(1, 64, 777).remove(0);
        for band in [0usize, 2, 5] {
            let fast = knn_of(&engine, &query, band, 10);
            assert_eq!(fast.matches, brute_force(&series, &query, band)[..10], "band={band}");
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
        assert!(result.stats.index.candidates < 600, "admitted {}", result.stats.index.candidates);
        // The exact-DTW step runs on far fewer series than the database size.
        assert!(result.stats.exact_computations < 300);
    }

    #[test]
    fn tighter_transform_yields_fewer_candidates() {
        let series = lcg_series(400, 64, 13);
        let query = lcg_series(1, 64, 999).remove(0);
        let (band, radius, all) = (4, 2.0, |_| true);
        let (new, keogh) = (NewPaa::new(64, 8), KeoghPaa::new(64, 8));
        let (new_listed, new_matches) =
            feature_range(LinearScan::new(8), &new, &series, all, &query, band, radius);
        let (keogh_listed, keogh_matches) =
            feature_range(LinearScan::new(8), &keogh, &series, all, &query, band, radius);
        assert_eq!(new_matches, keogh_matches, "same exact answer");
        assert!(
            new_listed.len() <= keogh_listed.len(),
            "New_PAA candidates {} vs Keogh_PAA {}",
            new_listed.len(),
            keogh_listed.len()
        );
    }

    #[test]
    fn knn_with_k_zero_or_empty_engine() {
        let series = lcg_series(10, 32, 2);
        let mut engine = DtwIndexEngine::new(NewPaa::new(32, 4), LinearScan::new(4));
        assert!(knn_of(&engine, &series[0], 2, 3).matches.is_empty());
        engine.try_insert(0, series[0].clone()).unwrap();
        assert!(knn_of(&engine, &series[0], 2, 0).matches.is_empty());
    }

    #[test]
    fn removal_keeps_queries_exact_across_backends() {
        let series = lcg_series(150, 64, 61);
        let query = lcg_series(1, 64, 4242).remove(0);
        let band = 3;
        let radius = 3.0;
        let mut engine = build_engine(&series);
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
        // An R*-tree holding only the survivors gives the same answer.
        let (tree, survivors) = (RStarTree::with_page_size(8, 1024), |i| i % 4 != 0);
        let (_, listed) =
            feature_range(tree, &NewPaa::new(64, 8), &series, survivors, &query, band, radius);
        assert_eq!(listed, expected, "R*-tree");
    }

    #[test]
    fn removed_id_can_be_reinserted() {
        let series = lcg_series(3, 32, 2);
        let mut engine = DtwIndexEngine::new(NewPaa::new(32, 4), LinearScan::new(4));
        engine.try_insert(5, series[0].clone()).unwrap();
        assert!(engine.remove(5));
        engine.try_insert(5, series[1].clone()).unwrap();
        assert_eq!(engine.len(), 1);
        let top = knn_of(&engine, &series[1], 2, 1);
        assert_eq!(top.matches[0].0, 5);
        assert!(top.matches[0].1 < 1e-12);
    }

    #[test]
    fn reused_scratch_reproduces_fresh_scratch_counters() {
        let series = lcg_series(80, 64, 44);
        let engine = build_engine(&series);
        let queries = lcg_series(6, 64, 4711);
        let mut scratch = QueryScratch::new();
        for q in &queries {
            let range = QueryRequest::range(2.0).with_series(q.clone()).with_band(3);
            let fresh = engine.try_query(&range).unwrap();
            assert_eq!(fresh, engine.try_query_with(&range, &mut scratch).unwrap());
            let knn = QueryRequest::knn(5).with_series(q.clone()).with_band(3);
            let fresh = engine.try_query(&knn).unwrap();
            assert_eq!(fresh, engine.try_query_with(&knn, &mut scratch).unwrap());
        }
    }

    #[test]
    fn try_insert_reports_every_error_and_mutates_nothing() {
        let series = lcg_series(3, 32, 4);
        let mut engine = DtwIndexEngine::new(NewPaa::new(32, 4), LinearScan::new(4));
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
        let mut infinite = series[0].clone();
        infinite[0] = f64::INFINITY;
        match engine.try_insert(0, infinite) {
            Err(EngineError::NonFiniteSample { index: 0, value, .. }) => {
                assert_eq!(value, f64::INFINITY);
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
        let mut engine = DtwIndexEngine::new(NewPaa::new(32, 4), LinearScan::new(4));
        engine.try_insert(0, series[0].clone()).unwrap();
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
        let mut nan = series[1].clone();
        nan[3] = f64::NAN;
        match engine.try_query(&QueryRequest::knn(1).with_series(nan)) {
            Err(EngineError::NonFiniteSample { context: "query", index: 3, value }) => {
                assert!(value.is_nan());
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
    fn error_display_names_the_offending_input() {
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
        for request in [QueryRequest::range(2.5), QueryRequest::knn(5)] {
            let request = request.with_series(query.clone()).with_band(3).with_trace(true);
            let outcome = engine.try_query(&request).unwrap();
            let trace = outcome.trace.expect("trace requested");
            assert_eq!(trace.stats, outcome.result.stats, "{request:?}");
            assert_eq!(trace.band, 3);
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
        for request in [QueryRequest::range(50.0), QueryRequest::knn(5)] {
            let request = request.with_series(query.clone()).with_band(3).with_budget(expired);
            match engine.try_query(&request) {
                Err(EngineError::DeadlineExceeded { stats }) => {
                    // Aborted before the first candidate: no matches, no
                    // exact DTW, but the index walk already happened.
                    assert_eq!(stats.matches, 0, "{request:?}");
                    assert_eq!(stats.exact_computations, 0, "{request:?}");
                    assert!(stats.index.candidates > 0, "{request:?}");
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
    }

    #[test]
    fn close_phase_sweep_honours_the_deadline() {
        // Both k-NN rounds poll the budget from their first candidate on: a
        // budget expiring in either returns that round's partial counters —
        // the index work before the first poll, no match — and an unexpired
        // one changes nothing.
        let series = lcg_series(600, 64, 59);
        let engine = build_engine(&series);
        let query = lcg_series(1, 64, 5050).remove(0);
        let prepared = PreparedQuery::new(engine.transform(), &query, 3);
        let mut scratch = QueryScratch::new();
        let (k, roomy) = (3, QueryBudget::within(Duration::from_secs(3600)));
        let expired = || QueryBudget::with_deadline(Instant::now());
        let index_only = |s: &EngineStats| EngineStats { index: s.index, ..Default::default() };

        let mut seed_round = |budget| engine.knn_seed_round(&prepared, k, budget, &mut scratch);
        let (seeded, seed_stats) = seed_round(QueryBudget::unlimited()).unwrap();
        assert_eq!(seed_round(roomy).unwrap(), (seeded.clone(), seed_stats));
        assert_eq!(seed_round(expired()).unwrap_err(), index_only(&seed_stats));
        let (top, rest) = seeded;
        assert_eq!((top.len(), rest.len()), (k, 600 - 32 * k));

        // An outer radius that admits the whole rest, so the round has work.
        let radius_sq = rest.iter().map(|&(_, bound_sq)| bound_sq).fold(0.0, f64::max);
        let mut close = |budget| {
            engine.knn_close_round(&prepared, k, radius_sq, &top, &rest, budget, &mut scratch)
        };
        let (_, close_stats) = close(QueryBudget::unlimited()).unwrap();
        assert_eq!(close_stats.index.candidates, rest.len() as u64);
        assert!(close_stats.lb_pruned > 0);
        assert_eq!(close(roomy).unwrap().1, close_stats);
        assert_eq!(close(expired()).unwrap_err(), index_only(&close_stats));
    }

    #[test]
    fn unexpired_deadline_is_bit_identical_to_unbudgeted() {
        let series = lcg_series(100, 64, 56);
        let engine = build_engine(&series);
        let query = lcg_series(1, 64, 2020).remove(0);
        let budget = QueryBudget::within(Duration::from_secs(3600));
        assert!(!budget.expired());
        for request in [QueryRequest::range(2.5), QueryRequest::knn(7)] {
            let request = request.with_series(query.clone()).with_band(3).with_trace(true);
            let plain = engine.try_query(&request).unwrap();
            let budgeted = engine.try_query(&request.clone().with_budget(budget)).unwrap();
            assert_eq!(plain, budgeted, "{request:?}");
        }
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
