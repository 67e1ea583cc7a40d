//! Observability: metrics registry, per-query cascade traces, exporters.
//!
//! The subsystem has two halves with different determinism contracts:
//!
//! * **Counters** ([`MetricsRegistry`], [`QueryTrace`], `EngineStats`) are
//!   monotone `u64` tallies of work performed — pages probed, candidates
//!   pruned per cascade stage, DP cells evaluated, matches returned. They
//!   are pure functions of the query and the immutable index, so they are
//!   bit-identical across runs and thread counts, and they may appear in
//!   result values.
//! * **Timers** ([`Timer`], [`DurationHistogram`]) read the monotonic
//!   clock and are therefore run-dependent. They live *only* inside the
//!   registry's histograms and are never part of a result value or a
//!   trace, so enabling them cannot perturb answers.
//!
//! Everything is off by default: the engine holds a [`MetricsSink`] which
//! is a two-variant enum (`Disabled` / `Enabled(Arc<MetricsRegistry>)`).
//! The disabled variant compiles to a branch on a discriminant — no
//! allocation, no atomics, no clock read — so production paths that don't
//! opt in pay nothing measurable. Per-query traces are likewise opt-in via
//! `QueryRequest::with_trace` and hold the very `EngineStats` the engine
//! already collects, beside the query's kind and band: no second
//! bookkeeping system, so nothing to drift.
//!
//! The module is self-contained: no dependencies beyond `std` and the
//! workspace's own crates (the vendored `serde` facade used by every other
//! exporter in the repo).

mod export;
mod registry;
mod trace;

pub use export::{metrics_to_text, to_json_string, trace_to_text};
pub use registry::{
    CounterSnapshot, DurationHistogram, HistogramSnapshot, Metric, MetricsRegistry,
    MetricsSink, MetricsSnapshot, Timer, TimerSnapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{QueryKind, QueryTrace, Stage, StageTrace};
