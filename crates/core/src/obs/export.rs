//! Text and JSON exporters for traces and metrics.
//!
//! The text renderers produce small aligned tables for logs and terminals;
//! the JSON path goes through the workspace's `serde`/`serde_json` (the
//! same pipeline the `repro` bench persists every experiment with), so
//! EXPERIMENTS.md tables and production telemetry are regenerated from the
//! *same* instrumentation — `serde::Serialize` is implemented here for
//! every observability type.

use std::fmt::Write as _;

use serde::{Serialize, Value};

use crate::obs::registry::{
    CounterSnapshot, HistogramSnapshot, MetricsSnapshot, TimerSnapshot,
};
use crate::obs::trace::{QueryKind, QueryTrace, Stage, StageTrace};

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Serialize for QueryKind {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

impl Serialize for Stage {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

impl Serialize for StageTrace {
    fn to_value(&self) -> Value {
        object(vec![
            ("stage", self.stage.to_value()),
            ("entered", self.entered.to_value()),
            ("pruned", self.pruned.to_value()),
        ])
    }
}

impl Serialize for QueryTrace {
    fn to_value(&self) -> Value {
        object(vec![
            ("kind", self.kind.to_value()),
            ("band", self.band.to_value()),
            (
                "index",
                object(vec![
                    ("node_accesses", self.index.node_accesses.to_value()),
                    ("leaf_accesses", self.index.leaf_accesses.to_value()),
                    ("points_examined", self.index.points_examined.to_value()),
                    ("candidates", self.index.candidates.to_value()),
                ]),
            ),
            ("candidates_in", self.candidates_in.to_value()),
            ("lb_pruned", self.lb_pruned.to_value()),
            ("lb_improved_pruned", self.lb_improved_pruned.to_value()),
            ("exact_started", self.exact_started.to_value()),
            ("early_abandoned", self.early_abandoned.to_value()),
            ("verified", self.verified.to_value()),
            ("dp_cells", self.dp_cells.to_value()),
            ("matches", self.matches.to_value()),
            ("stages", self.stages().to_value()),
        ])
    }
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        object(vec![
            ("count", self.count.to_value()),
            ("sum_nanos", self.sum_nanos.to_value()),
            ("mean_nanos", self.mean_nanos().to_value()),
            ("p50_upper_nanos", self.quantile_upper_nanos(0.5).to_value()),
            ("p99_upper_nanos", self.quantile_upper_nanos(0.99).to_value()),
            ("buckets", self.buckets.to_value()),
        ])
    }
}

impl Serialize for CounterSnapshot {
    fn to_value(&self) -> Value {
        object(vec![("name", self.name.to_value()), ("value", self.value.to_value())])
    }
}

impl Serialize for TimerSnapshot {
    fn to_value(&self) -> Value {
        object(vec![("name", self.name.to_value()), ("histogram", self.histogram.to_value())])
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        object(vec![
            ("counters", self.counters.to_value()),
            ("timers", self.timers.to_value()),
        ])
    }
}

/// Pretty-printed JSON for any observability value (or anything else
/// implementing the workspace `Serialize`).
pub fn to_json_string<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("infallible vendored serializer")
}

/// Renders one trace as an aligned per-stage text table.
pub fn trace_to_text(trace: &QueryTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "query trace [{}] band={} pages={} dp_cells={} matches={}",
        trace.kind.name(),
        trace.band,
        trace.index.node_accesses,
        trace.dp_cells,
        trace.matches
    );
    let _ = writeln!(out, "{:<14}{:>10}{:>10}{:>10}", "stage", "entered", "pruned", "out");
    for s in trace.stages() {
        let _ = writeln!(
            out,
            "{:<14}{:>10}{:>10}{:>10}",
            s.stage.name(),
            s.entered,
            s.pruned,
            s.entered.saturating_sub(s.pruned)
        );
    }
    out
}

/// Renders a metrics snapshot as text: one line per counter, one line per
/// timer with count / mean / bucketed p50 / p99.
pub fn metrics_to_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let name_width = snapshot
        .counters
        .iter()
        .map(|c| c.name.len())
        .chain(snapshot.timers.iter().map(|t| t.name.len()))
        .max()
        .unwrap_or(0)
        .max("counter".len());
    let _ = writeln!(out, "{:<name_width$}  {:>14}", "counter", "value");
    for c in &snapshot.counters {
        let _ = writeln!(out, "{:<name_width$}  {:>14}", c.name, c.value);
    }
    let _ = writeln!(
        out,
        "{:<name_width$}  {:>10}{:>12}{:>12}{:>12}",
        "timer", "count", "mean_us", "p50_us", "p99_us"
    );
    for t in &snapshot.timers {
        let h = &t.histogram;
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>10}{:>12.1}{:>12.1}{:>12.1}",
            t.name,
            h.count,
            h.mean_nanos() / 1_000.0,
            h.quantile_upper_nanos(0.5) as f64 / 1_000.0,
            h.quantile_upper_nanos(0.99) as f64 / 1_000.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineStats;
    use crate::obs::registry::MetricsRegistry;
    use crate::obs::registry::Metric;

    fn sample_trace() -> QueryTrace {
        let mut s = EngineStats::default();
        s.index.node_accesses = 5;
        s.index.candidates = 20;
        s.lb_pruned = 12;
        s.lb_improved_pruned = 3;
        s.exact_computations = 5;
        s.early_abandoned = 1;
        s.dp_cells = 777;
        s.matches = 2;
        QueryTrace::from_stats(QueryKind::Range, 4, &s)
    }

    #[test]
    fn trace_text_contains_every_stage() {
        let text = trace_to_text(&sample_trace());
        for needle in ["index_filter", "envelope_lb", "lb_improved", "exact_dtw", "dp_cells=777"] {
            assert!(text.contains(needle), "{needle} missing from:\n{text}");
        }
    }

    #[test]
    fn trace_json_round_trips_counters() {
        let json = to_json_string(&sample_trace());
        for needle in [
            "\"kind\": \"range\"",
            "\"lb_pruned\": 12",
            "\"dp_cells\": 777",
            "\"stages\"",
            "\"node_accesses\": 5",
        ] {
            assert!(json.contains(needle), "{needle} missing from:\n{json}");
        }
    }

    #[test]
    fn metrics_exports_name_every_slot() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::DpCells, 99);
        reg.observe_nanos(crate::obs::registry::Timer::KnnQuery, 2_000);
        let snap = reg.snapshot();
        let text = metrics_to_text(&snap);
        assert!(text.contains("cascade.dp_cells"));
        assert!(text.contains("latency.knn_query"));
        let json = to_json_string(&snap);
        assert!(json.contains("\"cascade.dp_cells\""));
        assert!(json.contains("\"p99_upper_nanos\""));
    }
}
