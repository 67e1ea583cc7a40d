//! Per-query cascade trajectories.
//!
//! A [`QueryTrace`] is the *per-query* half of the observability layer: it
//! records, for one query, how the candidate set moved through the
//! verification cascade — candidates in → envelope-LB pruned →
//! `LB_Improved` pruned → early-abandoned → DP cells → verified — plus the
//! index-level page/probe accounting ([`QueryStats`]).
//!
//! A trace carries **counters only, never wall-clock time**: it is `Copy`,
//! allocation-free, a pure function of the query and the immutable index,
//! and therefore bit-identical across runs and thread counts (the batch
//! layer's permutation-invariance guarantee extends to traces unchanged).
//! Durations live in the [`MetricsRegistry`](crate::obs::MetricsRegistry)
//! histograms instead.
//!
//! Traces and [`EngineStats`] are two views of the same instrumentation:
//! [`QueryTrace::totals`] maps a trace back onto the stats it came from, and
//! [`debug_assert_trace_consistent`] enforces the equality in debug builds
//! so the two can never drift silently.

use hum_index::QueryStats;

use crate::engine::EngineStats;

/// Which engine code path produced a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Indexed ε-range query.
    Range,
    /// Indexed k-NN query (optimal multi-step).
    Knn,
    /// Brute-force ε-range scan.
    ScanRange,
    /// Brute-force k-NN scan.
    ScanKnn,
}

impl QueryKind {
    /// Exported name.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Range => "range",
            QueryKind::Knn => "knn",
            QueryKind::ScanRange => "scan_range",
            QueryKind::ScanKnn => "scan_knn",
        }
    }
}

/// One verification-cascade stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The spatial-index filter (feature-space box vs stored points).
    IndexFilter,
    /// Full-dimension envelope lower bound.
    EnvelopeLb,
    /// Lemire's two-pass `LB_Improved`.
    LbImproved,
    /// Early-abandoning banded DTW.
    ExactDtw,
}

impl Stage {
    /// Exported name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::IndexFilter => "index_filter",
            Stage::EnvelopeLb => "envelope_lb",
            Stage::LbImproved => "lb_improved",
            Stage::ExactDtw => "exact_dtw",
        }
    }
}

/// One stage of the funnel view: how many candidates entered, how many the
/// stage removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTrace {
    /// The cascade stage.
    pub stage: Stage,
    /// Candidates entering the stage.
    pub entered: u64,
    /// Candidates the stage removed.
    pub pruned: u64,
}

/// The cascade trajectory of one query. Counters only — see the module
/// docs for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTrace {
    /// The code path that ran.
    pub kind: QueryKind,
    /// Sakoe-Chiba band half-width of the query.
    pub band: usize,
    /// Index-level page/probe accounting (all zero on scan paths).
    pub index: QueryStats,
    /// Candidates entering the verification cascade: the index's candidate
    /// set on indexed paths, the full database on scan paths.
    pub candidates_in: u64,
    /// Removed by the envelope lower bound.
    pub lb_pruned: u64,
    /// Removed by `LB_Improved`.
    pub lb_improved_pruned: u64,
    /// Exact DTW evaluations started.
    pub exact_started: u64,
    /// Exact DTW evaluations abandoned by the threshold.
    pub early_abandoned: u64,
    /// Exact DTW evaluations that ran to completion.
    pub verified: u64,
    /// DTW dynamic-programming cells evaluated.
    pub dp_cells: u64,
    /// Final matches returned.
    pub matches: u64,
}

impl QueryTrace {
    /// Builds the trace for one query from the stats the engine already
    /// collected (so the two *cannot* disagree — same instrumentation, two
    /// shapes).
    pub fn from_stats(
        kind: QueryKind,
        band: usize,
        candidates_in: u64,
        stats: &EngineStats,
    ) -> Self {
        QueryTrace {
            kind,
            band,
            index: stats.index,
            candidates_in,
            lb_pruned: stats.lb_pruned,
            lb_improved_pruned: stats.lb_improved_pruned,
            exact_started: stats.exact_computations,
            early_abandoned: stats.early_abandoned,
            verified: stats.exact_computations - stats.early_abandoned,
            dp_cells: stats.dp_cells,
            matches: stats.matches,
        }
    }

    /// Maps the trace back onto the [`EngineStats`] it was built from.
    /// Exact inverse of [`QueryTrace::from_stats`]; the drift guard
    /// ([`debug_assert_trace_consistent`]) asserts this equality.
    pub fn totals(&self) -> EngineStats {
        EngineStats {
            index: self.index,
            lb_pruned: self.lb_pruned,
            lb_improved_pruned: self.lb_improved_pruned,
            exact_computations: self.exact_started,
            early_abandoned: self.early_abandoned,
            dp_cells: self.dp_cells,
            matches: self.matches,
        }
    }

    /// The funnel view, for rendering: candidates per stage with the count
    /// each stage removed. Every candidate is pruned by one stage or
    /// verified, on every path, so the rows close exactly.
    pub fn stages(&self) -> [StageTrace; 4] {
        let examined = self.index.points_examined.max(self.candidates_in);
        [
            StageTrace {
                stage: Stage::IndexFilter,
                entered: examined,
                pruned: examined - self.candidates_in,
            },
            StageTrace {
                stage: Stage::EnvelopeLb,
                entered: self.candidates_in,
                pruned: self.lb_pruned,
            },
            StageTrace {
                stage: Stage::LbImproved,
                entered: self.candidates_in - self.lb_pruned,
                pruned: self.lb_improved_pruned,
            },
            StageTrace {
                stage: Stage::ExactDtw,
                entered: self.exact_started,
                pruned: self.early_abandoned,
            },
        ]
    }

    /// Adds another trace's counters into this one (for aggregating a
    /// batch into one trajectory row). `kind` and `band` keep the
    /// receiver's values; aggregate across kinds at your own peril.
    pub fn absorb(&mut self, other: &QueryTrace) {
        self.index.absorb(&other.index);
        self.candidates_in += other.candidates_in;
        self.lb_pruned += other.lb_pruned;
        self.lb_improved_pruned += other.lb_improved_pruned;
        self.exact_started += other.exact_started;
        self.early_abandoned += other.early_abandoned;
        self.verified += other.verified;
        self.dp_cells += other.dp_cells;
        self.matches += other.matches;
    }

    /// An all-zero trace to aggregate into (see [`QueryTrace::absorb`]).
    pub fn zero(kind: QueryKind, band: usize) -> Self {
        QueryTrace::from_stats(kind, band, 0, &EngineStats::default())
    }
}

/// Debug-build guard against counter drift: a query's trace and its
/// [`EngineStats`] are two renderings of the same counters, so
/// [`QueryTrace::totals`] must reproduce the stats exactly; and every
/// candidate leaves the funnel once. Release builds compile this to nothing.
#[inline]
pub fn debug_assert_trace_consistent(trace: &QueryTrace, stats: &EngineStats) {
    debug_assert_eq!(
        trace.totals(),
        *stats,
        "QueryTrace drifted from EngineStats: instrumentation bug"
    );
    debug_assert_eq!(
        trace.verified,
        stats.exact_computations - stats.early_abandoned,
        "verified must equal completed exact computations"
    );
    debug_assert_eq!(
        trace.lb_pruned + trace.lb_improved_pruned + trace.exact_started,
        trace.candidates_in,
        "every candidate is pruned by exactly one stage or verified"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> EngineStats {
        let mut s = EngineStats::default();
        s.index.node_accesses = 12;
        s.index.leaf_accesses = 9;
        s.index.points_examined = 200;
        s.index.candidates = 40;
        s.lb_pruned = 25;
        s.lb_improved_pruned = 5;
        s.exact_computations = 10;
        s.early_abandoned = 4;
        s.dp_cells = 1234;
        s.matches = 3;
        s
    }

    #[test]
    fn totals_invert_from_stats() {
        let s = stats();
        let trace = QueryTrace::from_stats(QueryKind::Range, 6, s.index.candidates, &s);
        assert_eq!(trace.totals(), s);
        assert_eq!(trace.verified, 6);
        debug_assert_trace_consistent(&trace, &s);
    }

    #[test]
    fn stages_form_a_funnel_on_the_range_path() {
        let s = stats();
        let trace = QueryTrace::from_stats(QueryKind::Range, 6, s.index.candidates, &s);
        let [index, env, lbi, exact] = trace.stages();
        assert_eq!(index.stage, Stage::IndexFilter);
        assert_eq!(index.entered, 200);
        assert_eq!(index.pruned, 160);
        assert_eq!(env.entered, 40);
        assert_eq!(env.pruned, 25);
        assert_eq!(lbi.entered, 15);
        assert_eq!(lbi.pruned, 5);
        assert_eq!(exact.entered, 10);
        assert_eq!(exact.pruned, 4);
        // Range-path funnel closes exactly: every candidate is pruned
        // somewhere or verified.
        assert_eq!(env.pruned + lbi.pruned + exact.entered, trace.candidates_in);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let s = stats();
        let one = QueryTrace::from_stats(QueryKind::Range, 6, s.index.candidates, &s);
        let mut total = QueryTrace::zero(QueryKind::Range, 6);
        total.absorb(&one);
        total.absorb(&one);
        assert_eq!(total.candidates_in, 80);
        assert_eq!(total.dp_cells, 2468);
        assert_eq!(total.verified, 12);
        let mut twice = s;
        twice.absorb(&s);
        assert_eq!(total.totals(), twice);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(QueryKind::ScanKnn.name(), "scan_knn");
        assert_eq!(Stage::LbImproved.name(), "lb_improved");
    }
}
