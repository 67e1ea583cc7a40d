//! Per-query cascade trajectories.
//!
//! A [`QueryTrace`] is the *per-query* half of the observability layer: it
//! records, for one query, how the candidate set moved through the
//! verification cascade — candidates in → envelope-LB pruned →
//! `LB_Improved` pruned → early-abandoned → DP cells → verified — plus the
//! index-level page/probe accounting
//! ([`QueryStats`](hum_index::QueryStats)).
//!
//! A trace carries **counters only, never wall-clock time**: it is `Copy`,
//! allocation-free, a pure function of the query and the immutable index,
//! and therefore bit-identical across runs and thread counts.
//! Durations live in the [`MetricsRegistry`](crate::obs::MetricsRegistry)
//! histograms instead.
//!
//! A trace holds the query's [`EngineStats`] as they are, beside the code
//! path and band that produced them: there is no second copy of the
//! counters to drift. The funnel view ([`QueryTrace::stages`]) closes
//! because every candidate is pruned by one stage or verified, which the
//! engine asserts on every query in debug builds.

use crate::engine::EngineStats;

/// Which engine code path produced a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// ε-range query.
    Range,
    /// k-NN query (optimal multi-step).
    Knn,
}

impl QueryKind {
    /// Exported name.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Range => "range",
            QueryKind::Knn => "knn",
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
    /// The query's counters, equal to its result's `stats`.
    pub stats: EngineStats,
}

impl QueryTrace {
    /// The funnel view, for rendering: candidates per stage with the count
    /// each stage removed. Every candidate is pruned by one stage or
    /// verified, so the rows close exactly.
    pub fn stages(&self) -> [StageTrace; 4] {
        let s = &self.stats;
        let candidates = s.index.candidates;
        let examined = s.index.points_examined.max(candidates);
        [
            StageTrace {
                stage: Stage::IndexFilter,
                entered: examined,
                pruned: examined - candidates,
            },
            StageTrace { stage: Stage::EnvelopeLb, entered: candidates, pruned: s.lb_pruned },
            StageTrace {
                stage: Stage::LbImproved,
                entered: candidates - s.lb_pruned,
                pruned: s.lb_improved_pruned,
            },
            StageTrace {
                stage: Stage::ExactDtw,
                entered: s.exact_computations,
                pruned: s.early_abandoned,
            },
        ]
    }
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
    fn stages_form_a_funnel_on_the_range_path() {
        let s = stats();
        let trace = QueryTrace { kind: QueryKind::Range, band: 6, stats: s };
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
        assert_eq!(env.pruned + lbi.pruned + exact.entered, s.index.candidates);
    }

    #[test]
    fn absorb_sums_every_counter() {
        // `repro obs` aggregates traces through `EngineStats::absorb`; the
        // funnel of the sum is the sum of the funnels.
        let s = stats();
        let one = QueryTrace { kind: QueryKind::Range, band: 6, stats: s };
        let mut total = QueryTrace { stats: EngineStats::default(), ..one };
        total.stats.absorb(&one.stats);
        total.stats.absorb(&one.stats);
        assert_eq!(total.stats.index.candidates, 80);
        assert_eq!(total.stats.dp_cells, 2468);
        for (sum, part) in total.stages().iter().zip(one.stages()) {
            assert_eq!(sum.stage, part.stage);
            assert_eq!((sum.entered, sum.pruned), (2 * part.entered, 2 * part.pruned));
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(QueryKind::Knn.name(), "knn");
        assert_eq!(Stage::LbImproved.name(), "lb_improved");
    }
}
