//! Named monotonic counters and duration histograms.
//!
//! The registry is the *aggregate* half of the observability layer: every
//! query records its [`EngineStats`] deltas into fixed-slot atomic counters
//! and its wall-clock duration into a log-bucketed histogram. Counter slots
//! are a closed enum ([`Metric`]) rather than a string-keyed map so the hot
//! path never hashes, allocates, or takes a lock — one relaxed atomic add
//! per field.
//!
//! Determinism contract: counters accumulate `u64` deltas, and `u64`
//! addition commutes, so after any set of queries the counter totals are
//! identical for every thread count and every scheduling. Timers are the one
//! exception — wall-clock durations are inherently run-dependent — which is
//! why durations live *only* here and never in [`EngineStats`],
//! [`QueryTrace`](crate::obs::QueryTrace), or any query result: answers and
//! counters stay bit-identical whether or not metrics are enabled.
//!
//! [`EngineStats`]: crate::engine::EngineStats

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::engine::EngineStats;
use crate::obs::trace::QueryKind;

/// One named monotonic counter slot.
///
/// A closed enum instead of string keys: registration is the enum
/// definition, lookup is an array index, and the set of metrics is
/// documented by the type itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// ε-range queries executed.
    RangeQueries,
    /// k-NN queries executed.
    KnnQueries,
    /// Series inserted into the engine.
    Inserts,
    /// Series removed from the engine.
    Removals,
    /// Index nodes (= disk pages) read.
    IndexNodeAccesses,
    /// Leaf-level nodes among those accesses.
    IndexLeafAccesses,
    /// Stored points whose exact feature distance was evaluated.
    IndexPointsExamined,
    /// Points that satisfied the index-level predicate.
    IndexCandidates,
    /// Candidates removed by the envelope second filter.
    LbPruned,
    /// Candidates removed by the `LB_Improved` third filter.
    LbImprovedPruned,
    /// Exact DTW evaluations started (including abandoned ones).
    ExactStarted,
    /// Exact DTW evaluations abandoned early by the radius threshold.
    EarlyAbandoned,
    /// DTW dynamic-programming cells evaluated.
    DpCells,
    /// Final matches returned.
    Matches,
    /// Database snapshot saves that committed successfully.
    StorageSaves,
    /// Database snapshot saves that failed (the previous snapshot, if any,
    /// is still intact — saves are atomic).
    StorageSaveErrors,
    /// Database snapshot loads that completed successfully.
    StorageLoads,
    /// Database snapshot loads that failed with a typed `StorageError`.
    StorageLoadErrors,
    /// Bytes written by successful snapshot saves.
    StorageBytesWritten,
    /// Bytes read by successful snapshot loads.
    StorageBytesRead,
    /// TCP connections accepted by the serving layer.
    ServerConnections,
    /// Requests admitted into the server's bounded queue.
    ServerRequestsAccepted,
    /// Requests rejected with a typed `Overloaded` response because the
    /// queue was full (never a silent drop).
    ServerRequestsRejectedOverload,
    /// Requests that answered `DeadlineExceeded` (expired in the queue or
    /// aborted inside the verification cascade).
    ServerDeadlineExceeded,
    /// Frames the server could not parse: bad length prefix, truncation,
    /// non-UTF8, malformed JSON, or an unrecognized request shape.
    ServerProtocolErrors,
    /// Request bytes read off the wire (frame headers included).
    ServerBytesIn,
    /// Response bytes written to the wire (frame headers included).
    ServerBytesOut,
    /// High-water mark of the admission queue depth (recorded with
    /// [`MetricsRegistry::record_max`], not an accumulating counter).
    ServerQueueHighWater,
    /// Background maintenance ticks the server ran against its service
    /// (memtable flushes / segment compactions happen inside these).
    ServerMaintenanceTicks,
    /// Maintenance ticks that failed; the service stays queryable, so
    /// these accumulate instead of killing the server.
    ServerMaintenanceErrors,
}

impl Metric {
    /// Every counter slot, in export order.
    pub const ALL: [Metric; 30] = [
        Metric::RangeQueries,
        Metric::KnnQueries,
        Metric::Inserts,
        Metric::Removals,
        Metric::IndexNodeAccesses,
        Metric::IndexLeafAccesses,
        Metric::IndexPointsExamined,
        Metric::IndexCandidates,
        Metric::LbPruned,
        Metric::LbImprovedPruned,
        Metric::ExactStarted,
        Metric::EarlyAbandoned,
        Metric::DpCells,
        Metric::Matches,
        Metric::StorageSaves,
        Metric::StorageSaveErrors,
        Metric::StorageLoads,
        Metric::StorageLoadErrors,
        Metric::StorageBytesWritten,
        Metric::StorageBytesRead,
        Metric::ServerConnections,
        Metric::ServerRequestsAccepted,
        Metric::ServerRequestsRejectedOverload,
        Metric::ServerDeadlineExceeded,
        Metric::ServerProtocolErrors,
        Metric::ServerBytesIn,
        Metric::ServerBytesOut,
        Metric::ServerQueueHighWater,
        Metric::ServerMaintenanceTicks,
        Metric::ServerMaintenanceErrors,
    ];

    /// The counter's exported name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::RangeQueries => "engine.queries.range",
            Metric::KnnQueries => "engine.queries.knn",
            Metric::Inserts => "engine.inserts",
            Metric::Removals => "engine.removals",
            Metric::IndexNodeAccesses => "index.node_accesses",
            Metric::IndexLeafAccesses => "index.leaf_accesses",
            Metric::IndexPointsExamined => "index.points_examined",
            Metric::IndexCandidates => "index.candidates",
            Metric::LbPruned => "cascade.lb_pruned",
            Metric::LbImprovedPruned => "cascade.lb_improved_pruned",
            Metric::ExactStarted => "cascade.exact_started",
            Metric::EarlyAbandoned => "cascade.early_abandoned",
            Metric::DpCells => "cascade.dp_cells",
            Metric::Matches => "engine.matches",
            Metric::StorageSaves => "storage.saves",
            Metric::StorageSaveErrors => "storage.save_errors",
            Metric::StorageLoads => "storage.loads",
            Metric::StorageLoadErrors => "storage.load_errors",
            Metric::StorageBytesWritten => "storage.bytes_written",
            Metric::StorageBytesRead => "storage.bytes_read",
            Metric::ServerConnections => "server.connections",
            Metric::ServerRequestsAccepted => "server.requests.accepted",
            Metric::ServerRequestsRejectedOverload => "server.requests.rejected_overload",
            Metric::ServerDeadlineExceeded => "server.requests.deadline_exceeded",
            Metric::ServerProtocolErrors => "server.protocol_errors",
            Metric::ServerBytesIn => "server.bytes_in",
            Metric::ServerBytesOut => "server.bytes_out",
            Metric::ServerQueueHighWater => "server.queue_high_water",
            Metric::ServerMaintenanceTicks => "server.maintenance.ticks",
            Metric::ServerMaintenanceErrors => "server.maintenance.errors",
        }
    }
}

/// One named duration-histogram slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Timer {
    /// Wall time of one ε-range query.
    RangeQuery,
    /// Wall time of one k-NN query.
    KnnQuery,
    /// Wall time of one served request, from frame decode to response
    /// enqueue (includes queue wait).
    ServerRequest,
    /// Time a request spent waiting in the server's admission queue.
    ServerQueueWait,
    /// Time a worker waited to acquire the service lock (read for a query,
    /// write for a mutation).
    ServiceLockWait,
    /// Wall time of one maintenance build (a segment write and its
    /// fsyncs) — runs with no service lock held.
    MaintenanceBuild,
    /// Time one maintenance commit held the service write lock.
    MaintenanceCommit,
}

impl Timer {
    /// Every histogram slot, in export order.
    pub const ALL: [Timer; 7] = [
        Timer::RangeQuery,
        Timer::KnnQuery,
        Timer::ServerRequest,
        Timer::ServerQueueWait,
        Timer::ServiceLockWait,
        Timer::MaintenanceBuild,
        Timer::MaintenanceCommit,
    ];

    /// The histogram's exported name.
    pub fn name(self) -> &'static str {
        match self {
            Timer::RangeQuery => "latency.range_query",
            Timer::KnnQuery => "latency.knn_query",
            Timer::ServerRequest => "latency.server_request",
            Timer::ServerQueueWait => "latency.server_queue_wait",
            Timer::ServiceLockWait => "latency.service_lock_wait",
            Timer::MaintenanceBuild => "latency.maintenance_build",
            Timer::MaintenanceCommit => "latency.maintenance_commit",
        }
    }
}

/// Histogram buckets: bucket `b` counts durations in `[2^(b-1), 2^b)` ns
/// (bucket 0 is `[0, 1)`). 40 buckets reach ≈ 9 minutes — far beyond any
/// single query.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A lock-free log₂-bucketed histogram of durations in nanoseconds.
#[derive(Debug)]
pub struct DurationHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl DurationHistogram {
    fn new() -> Self {
        DurationHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn observe_nanos(&self, nanos: u64) {
        let bucket = (u64::BITS - nanos.leading_zeros()) as usize;
        let bucket = bucket.min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// Plain-data histogram state (see [`DurationHistogram::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed durations, in nanoseconds.
    pub sum_nanos: u64,
    /// Per-bucket observation counts (bucket `b` covers `[2^(b-1), 2^b)` ns).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed duration in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }

    /// Upper bound (in ns) of the bucket containing the `q`-quantile
    /// observation, `0 ≤ q ≤ 1`. Returns 0 for an empty histogram.
    pub fn quantile_upper_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 { 0 } else { (1u64 << b) - 1 };
            }
        }
        (1u64 << (self.buckets.len() - 1)) - 1
    }
}

/// The registry: one fixed atomic slot per [`Metric`] and [`Timer`].
///
/// Shared across threads behind the [`Arc`] inside [`MetricsSink`]; all
/// operations are `&self` and lock-free.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Metric::ALL.len()],
    timers: [DurationHistogram; Timer::ALL.len()],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An all-zero registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            timers: std::array::from_fn(|_| DurationHistogram::new()),
        }
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, metric: Metric, delta: u64) {
        self.counters[metric as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric as usize].load(Ordering::Relaxed)
    }

    /// Raises a counter to `value` if it is below it (lock-free
    /// `fetch_max`) — for high-water-mark style metrics such as
    /// [`Metric::ServerQueueHighWater`].
    #[inline]
    pub fn record_max(&self, metric: Metric, value: u64) {
        self.counters[metric as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// Records one duration into a histogram.
    #[inline]
    pub fn observe_nanos(&self, timer: Timer, nanos: u64) {
        self.timers[timer as usize].observe_nanos(nanos);
    }

    /// The histogram behind a [`Timer`] slot.
    pub fn timer(&self, timer: Timer) -> &DurationHistogram {
        &self.timers[timer as usize]
    }

    /// Absorbs one query's counters (the exact per-stage deltas a
    /// [`QueryTrace`](crate::obs::QueryTrace) would carry for the same
    /// query — the two can never disagree because both read the same
    /// [`EngineStats`]).
    pub fn absorb_query(&self, kind: QueryKind, stats: &EngineStats) {
        let queries = match kind {
            QueryKind::Range => Metric::RangeQueries,
            QueryKind::Knn => Metric::KnnQueries,
        };
        self.add(queries, 1);
        self.add(Metric::IndexNodeAccesses, stats.index.node_accesses);
        self.add(Metric::IndexLeafAccesses, stats.index.leaf_accesses);
        self.add(Metric::IndexPointsExamined, stats.index.points_examined);
        self.add(Metric::IndexCandidates, stats.index.candidates);
        self.add(Metric::LbPruned, stats.lb_pruned);
        self.add(Metric::LbImprovedPruned, stats.lb_improved_pruned);
        self.add(Metric::ExactStarted, stats.exact_computations);
        self.add(Metric::EarlyAbandoned, stats.early_abandoned);
        self.add(Metric::DpCells, stats.dp_cells);
        self.add(Metric::Matches, stats.matches);
    }

    /// A plain-data copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Metric::ALL.iter().map(|&m| CounterSnapshot { name: m.name(), value: self.get(m) }).collect(),
            timers: Timer::ALL
                .iter()
                .map(|&t| TimerSnapshot { name: t.name(), histogram: self.timer(t).snapshot() })
                .collect(),
        }
    }
}

/// One counter's exported state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Exported counter name.
    pub name: &'static str,
    /// Current value.
    pub value: u64,
}

/// One timer's exported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Exported histogram name.
    pub name: &'static str,
    /// Histogram state.
    pub histogram: HistogramSnapshot,
}

/// Plain-data registry state (see [`MetricsRegistry::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Every counter, in [`Metric::ALL`] order.
    pub counters: Vec<CounterSnapshot>,
    /// Every duration histogram, in [`Timer::ALL`] order.
    pub timers: Vec<TimerSnapshot>,
}

impl MetricsSnapshot {
    /// The value of a counter by its [`Metric`] slot.
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == metric.name())
            .map_or(0, |c| c.value)
    }
}

/// Where the engine sends metrics: nowhere (the default), or a shared
/// registry.
///
/// This is the enum-dispatch no-op sink that keeps disabled observability
/// measurably free: every recording helper is an `#[inline]` match with an
/// empty `Disabled` arm, [`MetricsSink::start_timer`] never reads the clock
/// when disabled, and nothing on the path allocates.
#[derive(Debug, Clone, Default)]
pub enum MetricsSink {
    /// Discard everything (no clock reads, no atomics).
    #[default]
    Disabled,
    /// Record into a shared registry.
    Enabled(Arc<MetricsRegistry>),
}

impl MetricsSink {
    /// A sink backed by a fresh registry.
    pub fn enabled() -> Self {
        MetricsSink::Enabled(Arc::new(MetricsRegistry::new()))
    }

    /// `true` when recording somewhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self, MetricsSink::Enabled(_))
    }

    /// The registry behind the sink, if enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        match self {
            MetricsSink::Disabled => None,
            MetricsSink::Enabled(r) => Some(r),
        }
    }

    /// Adds `delta` to a counter (no-op when disabled).
    #[inline]
    pub fn add(&self, metric: Metric, delta: u64) {
        if let MetricsSink::Enabled(r) = self {
            r.add(metric, delta);
        }
    }

    /// Raises a high-water-mark counter to `value` (no-op when disabled).
    #[inline]
    pub fn record_max(&self, metric: Metric, value: u64) {
        if let MetricsSink::Enabled(r) = self {
            r.record_max(metric, value);
        }
    }

    /// Starts a wall-clock timer — `None` (no clock read) when disabled.
    #[inline]
    pub fn start_timer(&self) -> Option<Instant> {
        match self {
            MetricsSink::Disabled => None,
            MetricsSink::Enabled(_) => Some(Instant::now()),
        }
    }

    /// Records one duration measured from [`MetricsSink::start_timer`]
    /// (no-op when disabled or when the timer was started disabled).
    #[inline]
    pub fn observe_since(&self, timer: Timer, started: Option<Instant>) {
        if let (MetricsSink::Enabled(r), Some(t0)) = (self, started) {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            r.observe_nanos(timer, nanos);
        }
    }

    /// Absorbs one query's counters and duration (no-op when disabled).
    #[inline]
    pub fn record_query(&self, kind: QueryKind, stats: &EngineStats, started: Option<Instant>) {
        if let MetricsSink::Enabled(r) = self {
            r.absorb_query(kind, stats);
            let timer = match kind {
                QueryKind::Range => Timer::RangeQuery,
                QueryKind::Knn => Timer::KnnQuery,
            };
            if let Some(t0) = started {
                let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                r.observe_nanos(timer, nanos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_slot() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::DpCells, 40);
        reg.add(Metric::DpCells, 2);
        reg.add(Metric::Matches, 1);
        assert_eq!(reg.get(Metric::DpCells), 42);
        assert_eq!(reg.get(Metric::Matches), 1);
        assert_eq!(reg.get(Metric::LbPruned), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = DurationHistogram::new();
        h.observe_nanos(0); // bucket 0
        h.observe_nanos(1); // bucket 1
        h.observe_nanos(3); // bucket 2
        h.observe_nanos(1024); // bucket 11
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_nanos, 1028);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[11], 1);
    }

    #[test]
    fn histogram_quantiles_bound_the_data() {
        let h = DurationHistogram::new();
        for _ in 0..99 {
            h.observe_nanos(100); // bucket 7, upper bound 127
        }
        h.observe_nanos(1_000_000); // bucket 20
        let snap = h.snapshot();
        assert_eq!(snap.quantile_upper_nanos(0.5), 127);
        assert!(snap.quantile_upper_nanos(1.0) >= 1_000_000);
        assert_eq!(HistogramSnapshot { count: 0, sum_nanos: 0, buckets: vec![] }.quantile_upper_nanos(0.5), 0);
    }

    #[test]
    fn oversized_observation_saturates_last_bucket() {
        let h = DurationHistogram::new();
        h.observe_nanos(u64::MAX);
        assert_eq!(h.snapshot().buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = MetricsSink::Disabled;
        assert!(!sink.is_enabled());
        assert!(sink.registry().is_none());
        assert!(sink.start_timer().is_none());
        sink.add(Metric::Matches, 7); // must not panic (and has nowhere to go)
    }

    #[test]
    fn record_max_keeps_the_high_water_mark() {
        let reg = MetricsRegistry::new();
        reg.record_max(Metric::ServerQueueHighWater, 3);
        reg.record_max(Metric::ServerQueueHighWater, 9);
        reg.record_max(Metric::ServerQueueHighWater, 5);
        assert_eq!(reg.get(Metric::ServerQueueHighWater), 9);
        let sink = MetricsSink::Disabled;
        sink.record_max(Metric::ServerQueueHighWater, 100); // inert
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len());
    }

    #[test]
    fn snapshot_reads_back_by_slot() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::IndexCandidates, 9);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Metric::IndexCandidates), 9);
        assert_eq!(snap.counter(Metric::Matches), 0);
        assert_eq!(snap.counters.len(), Metric::ALL.len());
        assert_eq!(snap.timers.len(), Timer::ALL.len());
    }
}
