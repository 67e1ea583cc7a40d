//! The service boundary between the transport and the query system.
//!
//! `hum-server` deliberately does not depend on `hum-qbh` (the `qbh` binary
//! lives there and links the server, so the dependency must point the other
//! way). Instead the transport is generic over [`QbhService`] — the small
//! surface a query-by-humming system must expose to be served: budgeted
//! queries against an immutable snapshot (`&self`, so a worker pool can run
//! them concurrently behind a read lock), live mutation (`&mut self`), and
//! maintenance split into plan → build → commit so that the expensive
//! middle runs with no lock held. `hum-qbh` implements the trait for
//! `QbhSystem`.

use hum_core::engine::{EngineError, EngineStats, QueryBudget, QueryScratch, RequestKind};
use hum_core::obs::QueryTrace;

/// Why a service mutation failed.
///
/// The transport maps [`ServiceError::Engine`] to a client-visible
/// bad-request (the caller sent something the engine rejects: duplicate id,
/// non-finite samples, ...) and [`ServiceError::Storage`] to an internal
/// error (the service's durable store failed; nothing the client sent was
/// wrong). Storage failures carry the rendered message rather than a typed
/// error so `hum-server` stays independent of `hum-qbh`'s storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The query engine rejected the mutation.
    Engine(EngineError),
    /// The service's durable storage failed.
    Storage(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Engine(e) => write!(f, "{e}"),
            ServiceError::Storage(msg) => write!(f, "storage: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

/// One hit, with its provenance resolved by the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMatch {
    /// Stored melody id.
    pub id: u64,
    /// Song the melody belongs to.
    pub song: usize,
    /// Phrase number within the song.
    pub phrase: usize,
    /// Exact banded DTW distance.
    pub distance: f64,
}

/// A completed service query: matches, work counters, optional trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// Hits, best first.
    pub matches: Vec<ServiceMatch>,
    /// Engine work counters for this query.
    pub stats: EngineStats,
    /// The cascade trace, present iff the request asked for one.
    pub trace: Option<QueryTrace>,
}

/// What the server needs from a query system to serve it.
///
/// `Send + Sync + 'static` because the server shares the service across its
/// worker pool behind an `RwLock`: queries take the read lock (and run
/// concurrently), mutations take the write lock for the length of one
/// in-memory update.
///
/// # Maintenance
///
/// Durable services flush and compact in three phases, so nothing that
/// writes a file, waits for an fsync or builds an index holds the lock a
/// request needs:
///
/// 1. [`QbhService::plan`] (`&self`, read lock) decides whether anything is
///    due and copies out what the job needs;
/// 2. [`QbhService::build`] (no `self`, no lock) does the work on that
///    owned copy;
/// 3. [`QbhService::commit`] (`&mut self`, write lock) swaps the result in,
///    reconciling it with every mutation that landed since the plan.
///
/// The server runs one job at a time on its maintenance thread, so inside
/// it nothing but inserts and removals can land between a plan and its
/// commit. In-memory services plan nothing: `plan` returns `Ok(None)` and
/// the other two are never called.
pub trait QbhService: Send + Sync + 'static {
    /// What [`QbhService::plan`] copies out of the service for one job.
    type Plan: Send + 'static;
    /// What [`QbhService::build`] produces for [`QbhService::commit`].
    type Built: Send + 'static;

    /// Runs one `kind` query over a raw (hummed) pitch series. `band` of `None`
    /// means the service's default warping band. The `budget` must
    /// propagate into the engine so an expired deadline surfaces as
    /// [`EngineError::DeadlineExceeded`] with partial stats.
    fn query(
        &self,
        kind: RequestKind,
        pitch_series: &[f64],
        band: Option<usize>,
        budget: QueryBudget,
        trace: bool,
        scratch: &mut QueryScratch,
    ) -> Result<ServiceOutcome, EngineError>;

    /// Inserts a melody (raw pitch series) under `id` with its provenance.
    /// An in-memory update only: a store-backed service makes the melody
    /// durable at its next flush, which the server starts as soon as
    /// [`QbhService::needs_maintenance`] says one is due.
    fn insert(
        &mut self,
        id: u64,
        song: usize,
        phrase: usize,
        pitch_series: &[f64],
    ) -> Result<(), ServiceError>;

    /// Removes the melody stored under `id`; `Ok(true)` if it was present.
    /// Store-backed services make the removal durable before returning, so
    /// a [`ServiceError::Storage`] failure means the melody is still
    /// present and queryable.
    fn remove(&mut self, id: u64) -> Result<bool, ServiceError>;

    /// `true` when [`QbhService::plan`] would return a job. Cheap: the
    /// server asks after every mutation, still under that mutation's write
    /// lock, and wakes the maintenance thread on `true`.
    fn needs_maintenance(&self) -> bool {
        false
    }

    /// Phase 1, under the read lock: decides whether a flush or compaction
    /// is due and copies out everything the job needs. `Ok(None)` when
    /// nothing is due — an idle service never sees its write lock taken.
    ///
    /// # Errors
    /// [`ServiceError::Storage`] when the service's own bookkeeping is
    /// inconsistent; nothing has been written.
    fn plan(&self) -> Result<Option<Self::Plan>, ServiceError>;

    /// Phase 2, with no lock held: the file writes and fsyncs of the job,
    /// on the plan's owned data. Queries and mutations proceed against the
    /// pre-job view meanwhile.
    ///
    /// # Errors
    /// [`ServiceError::Storage`] when durable storage fails; the service is
    /// untouched and the build leaves nothing behind.
    fn build(plan: Self::Plan) -> Result<Self::Built, ServiceError>;

    /// Phase 3, under the write lock, in time proportional to what changed
    /// since the plan (not to the corpus): makes the built job the live
    /// view. A melody inserted or removed between plan and commit stays
    /// inserted or removed, in memory and on disk.
    ///
    /// Returns whatever the commit replaced (index structures, the names of
    /// superseded files) as an opaque owner; dropping it reclaims them, and
    /// the caller does so *after* releasing the write lock.
    ///
    /// # Errors
    /// [`ServiceError::Storage`] when the plan is stale (the service was
    /// maintained some other way since) or the commit point cannot be
    /// written; the pre-job view stays live and queryable.
    fn commit(&mut self, built: Self::Built) -> Result<Box<dyn Send>, ServiceError>;

    /// Number of stored melodies.
    fn len(&self) -> usize;

    /// `true` when nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
