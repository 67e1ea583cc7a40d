//! The assembled QBH system.
//!
//! Wraps the `hum-core` engine with the music-specific plumbing: melody →
//! time series rendering (§3.2), pitch-series normal forms (§3.3), audio
//! ingestion through the pitch tracker (§3.1), and provenance-aware results
//! (which song, which phrase).
//!
//! Every engine of the system indexes with the paper's New_PAA envelope
//! transform, the tightest reduced lower bound at realistic warping widths
//! (§5.2, Figs 6–7). The other transforms live in [`hum_core::transform`]
//! for the paper's figures.
//!
//! A system lives in memory ([`QbhSystem::build`]) or over the one
//! persistent form, the segmented store of [`crate::store`]
//! ([`QbhSystem::try_create_store`] / [`QbhSystem::try_open_store`]).
//!
//! A system owns exactly one engine over its whole corpus, built in memory
//! or from a store's segment files: a segment is a file and the id list it
//! holds, never an index of its own.
//!
//! A query is asked one way: every surface — `query_series*`,
//! [`QbhSystem::try_query_audio`], the server's workers — is a caller of
//! [`QbhSystem::try_query_request_with`], which runs one ε-range or k-NN
//! request through [`DtwIndexEngine::try_query_with`] on that engine.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hum_audio::{track_pitch, PitchTrackerConfig};
use hum_core::dtw::band_for_warping_width;
use hum_core::engine::{
    check_finite, DtwIndexEngine, EngineConfig, EngineError, EngineStats, QueryRequest,
    QueryScratch,
};
use hum_core::normal::NormalForm;
use hum_core::obs::{Metric, MetricsSink, QueryTrace};
use hum_core::session::QuerySession;
use hum_core::transform::paa::NewPaa;
use hum_index::LinearScan;

use crate::corpus::{MelodyDatabase, MelodyEntry};
use crate::storage::StorageError;
use crate::store::{self, Manifest, SegmentEntry, SegmentRef};

/// System configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QbhConfig {
    /// Canonical normal-form length (the paper's large-database experiments
    /// use 128).
    pub normal_length: usize,
    /// New_PAA frame count: the reduced feature dimensionality (the paper
    /// indexes 8 dimensions). Must divide `normal_length`.
    pub feature_dims: usize,
    /// Time-series samples per beat when rendering database melodies.
    pub samples_per_beat: usize,
    /// Default warping width δ = (2k+1)/n for queries.
    pub warping_width: f64,
    /// Page size in bytes: only the unit the flat index
    /// ([`hum_index::LinearScan`]) counts `index.pages_per_query` in. It
    /// leaves the configuration and the manifest once the feature plane
    /// moves into the series arena.
    pub page_bytes: usize,
}

impl Default for QbhConfig {
    fn default() -> Self {
        QbhConfig {
            normal_length: 128,
            feature_dims: 8,
            samples_per_beat: 4,
            warping_width: 0.1,
            page_bytes: 4096,
        }
    }
}

/// One retrieval hit with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct QbhMatch {
    /// Database melody id.
    pub id: u64,
    /// Source song index.
    pub song: usize,
    /// Phrase index within the song.
    pub phrase: usize,
    /// Exact band-constrained DTW distance to the query's normal form.
    pub distance: f64,
}

/// Ranked retrieval results plus work counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QbhResults {
    /// Matches sorted by ascending DTW distance.
    pub matches: Vec<QbhMatch>,
    /// Engine counters for the query.
    pub stats: EngineStats,
}

/// The engine of a system: New_PAA over the flat feature sweep.
pub type QbhEngine = DtwIndexEngine<NewPaa, LinearScan>;

/// One immutable on-disk segment: its file id and the full id list from
/// the file (tombstoned ids included, so manifest counts stay consistent on
/// rewrite). Its live melodies are held by the system's one engine.
struct StoreSegment {
    id: u64,
    ids: Vec<u64>,
}

impl StoreSegment {
    /// The manifest entry for this segment: the *file's* melody count
    /// (tombstoned entries included), not the live one.
    fn to_ref(&self) -> SegmentRef {
        SegmentRef { id: self.id, count: self.ids.len() as u64 }
    }
}

/// Operational knobs for a store-backed system; not part of the on-disk
/// format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Memtable melody count at which [`QbhSystem::needs_flush`] trips
    /// (flushes are otherwise explicit; the memtable may exceed this
    /// between maintenance ticks).
    pub memtable_capacity: usize,
    /// Segment count at which [`QbhSystem::needs_compaction`] trips.
    pub compact_at: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { memtable_capacity: 1024, compact_at: 4 }
    }
}

/// Mutable bookkeeping for a store-backed system.
struct StoreState {
    dir: PathBuf,
    options: StoreOptions,
    /// Removed-but-still-on-disk melody ids; cleared by compaction.
    tombstones: BTreeSet<u64>,
    /// Next segment file id (strictly greater than every live segment).
    /// Atomic because a plan reserves its id under the read lock: two plans
    /// never share a file name, so a stale job's file is always its own.
    next_segment_id: AtomicU64,
    /// The memtable: ids inserted since their last flush, held by the
    /// engine but by no segment file (not yet durable).
    memtable_ids: BTreeSet<u64>,
    flushes: u64,
    compactions: u64,
    bytes_written: u64,
}

/// A snapshot of store-backed storage counters, for operators and the
/// ingest benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Immutable segments currently live.
    pub segments: usize,
    /// Melodies in the memtable (not yet durable).
    pub memtable_len: usize,
    /// Removed ids awaiting compaction.
    pub tombstones: usize,
    /// Flushes performed by this instance.
    pub flushes: u64,
    /// Compactions performed by this instance.
    pub compactions: u64,
    /// Bytes written to segment and manifest files by this instance.
    pub bytes_written: u64,
}

/// What a [`QbhSystem::maintain`] call actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMaintenance {
    /// A memtable flush ran.
    pub flushed: bool,
    /// A compaction ran.
    pub compacted: bool,
}

/// Which job a [`MaintenancePlan`] describes.
enum PlannedJob {
    Flush,
    /// `purged` is the tombstone set the planned entries were filtered by.
    Compaction { purged: BTreeSet<u64> },
}

/// Phase 1 of a flush or compaction: everything the job needs, copied out
/// of the system under a shared borrow ([`QbhSystem::plan_flush`],
/// [`QbhSystem::plan_compaction`], [`QbhSystem::plan_maintenance`]).
///
/// Maintenance runs in three phases so that a server never writes a
/// segment file or waits for its fsync while holding the lock its requests
/// need: **plan** (`&QbhSystem`, copies), **build**
/// ([`MaintenancePlan::build`] — owned data, no reference to the system)
/// and **commit** ([`QbhSystem::commit_maintenance`], `&mut QbhSystem`,
/// time proportional to what changed since the plan). The system may be
/// queried, inserted into and removed from between the phases.
pub struct MaintenancePlan {
    dir: PathBuf,
    config: QbhConfig,
    metrics: MetricsSink,
    /// The id reserved for the segment this job writes.
    segment_id: u64,
    /// The live segment ids the job was planned over.
    live_segments: Vec<u64>,
    /// The melodies the new segment will hold (a flush's ascend by id).
    entries: Vec<SegmentEntry>,
    job: PlannedJob,
}

impl MaintenancePlan {
    /// Phase 2: everything expensive — the segment file with its fsyncs.
    /// Touches no [`QbhSystem`] and builds no index. A failed build leaves
    /// nothing behind; a built job that is never committed leaves an orphan
    /// segment file that [`QbhSystem::try_open_store_with`] ignores.
    ///
    /// # Errors
    /// Any I/O or encoding failure writing the segment.
    pub fn build(self) -> Result<BuiltMaintenance, StorageError> {
        let MaintenancePlan { dir, config, metrics, segment_id, live_segments, mut entries, job } =
            self;
        let save = |entries: &[SegmentEntry]| {
            booked(&metrics, store::save_segment(&dir, segment_id, &config, entries))
        };
        let file = Some(store::segment_path(&dir, segment_id));
        let (file, written, job) = match job {
            PlannedJob::Flush => (file, save(&entries)?, BuiltJob::Flush { entries }),
            PlannedJob::Compaction { purged } if entries.is_empty() => {
                (None, 0, BuiltJob::Compaction { purged, merged: None })
            }
            PlannedJob::Compaction { purged } => {
                // Segments never overlap, but flush order does not imply id
                // order across them.
                entries.sort_by_key(|e| e.id);
                let ids = entries.iter().map(|e| e.id).collect();
                let merged = Some(StoreSegment { id: segment_id, ids });
                (file, save(&entries)?, BuiltJob::Compaction { purged, merged })
            }
        };
        Ok(BuiltMaintenance { segment_id, live_segments, file, written, job })
    }
}

/// What a [`MaintenancePlan`] built.
enum BuiltJob {
    Flush { entries: Vec<SegmentEntry> },
    /// `merged` is `None` when nothing was live to merge.
    Compaction { purged: BTreeSet<u64>, merged: Option<StoreSegment> },
}

/// Phase 2's result: a segment written but named by no manifest yet.
/// [`QbhSystem::commit_maintenance`] makes it live.
pub struct BuiltMaintenance {
    segment_id: u64,
    live_segments: Vec<u64>,
    /// The segment file the build wrote (`None`: nothing was live).
    file: Option<PathBuf>,
    /// Its size in bytes.
    written: u64,
    job: BuiltJob,
}

/// The segments a commit replaced. Dropping this deletes their files
/// best-effort (a leftover is an orphan that opening ignores) — which is
/// why a server drops it after releasing its lock.
pub struct RetiredSegments {
    dir: PathBuf,
    segments: Vec<StoreSegment>,
}

impl Drop for RetiredSegments {
    fn drop(&mut self) {
        for segment in &self.segments {
            let _ = std::fs::remove_file(store::segment_path(&self.dir, segment.id));
        }
    }
}

/// Books a failed durable write as `storage.save_errors` before handing
/// the result on (successes are booked by the flush or compaction they
/// complete).
fn booked(metrics: &MetricsSink, written: Result<u64, StorageError>) -> Result<u64, StorageError> {
    if written.is_err() {
        metrics.add(Metric::StorageSaveErrors, 1);
    }
    written
}

/// An empty engine under `config`: New_PAA over a flat feature index that
/// fills by appending.
///
/// # Panics
/// When `feature_dims` does not divide `normal_length`, which
/// [`crate::storage`] rejects for every stored configuration.
fn new_engine(config: &QbhConfig) -> QbhEngine {
    let transform = NewPaa::new(config.normal_length, config.feature_dims);
    let index = LinearScan::with_page_size(config.feature_dims, config.page_bytes);
    DtwIndexEngine::new(transform, index, EngineConfig::default())
}

/// A built query-by-humming system.
///
/// The system owns one engine over its whole corpus. Storage-wise a
/// store-backed system ([`QbhSystem::try_create_store`] /
/// [`QbhSystem::try_open_store`]) is a one-level LSM tree of *files*: a
/// volatile **memtable** (the ids inserted since their last flush) over
/// zero or more immutable **segments** (each a `StoreSegment`: a file id
/// and its id list), with the durable lifecycle [`QbhSystem::flush`],
/// [`QbhSystem::compact`], [`QbhSystem::maintain`]. None of it changes
/// what the engine holds, so matches and counters are those of an
/// in-memory build ([`QbhSystem::build`]) over the same corpus at every
/// segment layout.
pub struct QbhSystem {
    engine: QbhEngine,
    segments: Vec<StoreSegment>,
    normal: NormalForm,
    band: usize,
    config: QbhConfig,
    // Keyed by melody id (not a Vec indexed by id): live inserts may use
    // arbitrary ids, and removals leave holes.
    provenance: HashMap<u64, (usize, usize)>,
    store: Option<StoreState>,
}

impl QbhSystem {
    /// Builds the system over a melody database.
    ///
    /// # Panics
    /// Panics on an empty database or when `feature_dims` does not divide
    /// `normal_length` (New_PAA's frame count).
    pub fn build(db: &MelodyDatabase, config: &QbhConfig) -> Self {
        assert!(!db.is_empty(), "cannot build over an empty melody database");
        let normal = NormalForm::with_length(config.normal_length);
        // Normal forms are rendered where they are consumed and never held
        // all at once: the engine copies each into its arena, so a corpus-
        // sized buffer of them would only be freed again, piecemeal, under
        // the arena as it grows.
        let samples_per_beat = config.samples_per_beat;
        let normal_of =
            |e: &MelodyEntry| normal.apply(&e.melody().to_time_series(samples_per_beat));
        let mut engine = new_engine(config);
        let mut provenance = HashMap::with_capacity(db.len());
        for entry in db.entries() {
            engine.insert(entry.id(), normal_of(entry));
            provenance.insert(entry.id(), (entry.song(), entry.phrase()));
        }
        QbhSystem {
            engine,
            segments: Vec::new(),
            normal,
            band: band_for_warping_width(config.warping_width, config.normal_length),
            config: *config,
            provenance,
            store: None,
        }
    }

    /// Creates a fresh store-backed system at `dir`: an empty engine over
    /// zero segments, with an empty `MANIFEST` written durably so a crash
    /// right after creation reopens cleanly.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for a configuration the store
    /// format rejects, an `AlreadyExists` I/O error when `dir` already
    /// holds a manifest, and any I/O failure.
    pub fn try_create_store(
        dir: &Path,
        config: &QbhConfig,
        options: StoreOptions,
    ) -> Result<Self, StorageError> {
        store::init_store(dir, config)?;
        Self::try_open_store_with(dir, options, &MetricsSink::Disabled)
    }

    /// Opens an existing store at `dir` with default [`StoreOptions`] and
    /// metrics disabled.
    ///
    /// # Errors
    /// See [`QbhSystem::try_open_store_with`].
    pub fn try_open_store(dir: &Path) -> Result<Self, StorageError> {
        Self::try_open_store_with(dir, StoreOptions::default(), &MetricsSink::Disabled)
    }

    /// Opens an existing store at `dir`: validates and loads the manifest
    /// and every segment it names (see [`crate::store::open_store`] for the
    /// corruption taxonomy), inserts every live entry of every segment into
    /// the one engine — skipping tombstoned melodies, so a removal never
    /// resurrects across a reload — and starts an empty memtable.
    ///
    /// # Errors
    /// Any [`StorageError`] from [`crate::store::open_store`], and
    /// [`StorageError::Corrupt`] naming the segment of an entry the engine
    /// rejects.
    ///
    /// The outcome is recorded into `metrics`: one `storage.loads` plus the
    /// manifest and segment bytes as `storage.bytes_read` on success, one
    /// `storage.load_errors` on any failure.
    pub fn try_open_store_with(
        dir: &Path,
        options: StoreOptions,
        metrics: &MetricsSink,
    ) -> Result<Self, StorageError> {
        let opened = Self::open_store_units(dir, options, metrics);
        match &opened {
            Ok((_, bytes_read)) => {
                metrics.add(Metric::StorageLoads, 1);
                metrics.add(Metric::StorageBytesRead, *bytes_read);
            }
            Err(_) => metrics.add(Metric::StorageLoadErrors, 1),
        }
        opened.map(|(system, _)| system)
    }

    /// The open itself: the system plus the bytes read from disk.
    fn open_store_units(
        dir: &Path,
        options: StoreOptions,
        metrics: &MetricsSink,
    ) -> Result<(Self, u64), StorageError> {
        let loaded = store::open_store(dir)?;
        let config = loaded.manifest.config;
        let tombstones: BTreeSet<u64> = loaded.manifest.tombstones.iter().copied().collect();
        let mut provenance = HashMap::new();
        let mut segments = Vec::with_capacity(loaded.segments.len());
        let mut next_segment_id = 0u64;
        // Metrics stay detached while the engine fills: re-indexing what is
        // already stored is not a user-visible insert.
        let mut engine = new_engine(&config);
        for (seg_ref, entries) in loaded.manifest.segments.iter().zip(&loaded.segments) {
            for entry in entries.iter().filter(|e| !tombstones.contains(&e.id)) {
                engine
                    .try_insert(entry.id, entry.series.clone())
                    .map_err(|e| StorageError::Corrupt(format!("segment {}: {e}", seg_ref.id)))?;
                provenance.insert(entry.id, (entry.song, entry.phrase));
            }
            next_segment_id = seg_ref.id + 1;
            let ids = entries.iter().map(|e| e.id).collect();
            segments.push(StoreSegment { id: seg_ref.id, ids });
        }
        engine.set_metrics(metrics.clone());
        let system = QbhSystem {
            engine,
            segments,
            normal: NormalForm::with_length(config.normal_length),
            band: band_for_warping_width(config.warping_width, config.normal_length),
            config,
            provenance,
            store: Some(StoreState {
                dir: dir.to_path_buf(),
                options,
                tombstones,
                next_segment_id: AtomicU64::new(next_segment_id),
                memtable_ids: BTreeSet::new(),
                flushes: 0,
                compactions: 0,
                bytes_written: 0,
            }),
        };
        Ok((system, loaded.bytes_read))
    }

    /// Number of indexed melodies, across the memtable and every segment.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// `true` if nothing is indexed (never after a successful build; an
    /// empty store-backed system is legal).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The DTW band implied by the configured warping width.
    pub fn band(&self) -> usize {
        self.band
    }

    /// The configuration the system was built or opened with.
    pub fn config(&self) -> &QbhConfig {
        &self.config
    }

    /// Always 1: a system is one engine. Kept only for the frozen
    /// benchmark's stage replay; ROADMAP item 1(b) deletes both.
    #[doc(hidden)]
    pub fn shard_count(&self) -> usize {
        1
    }

    /// The engine over the whole corpus, for experiments that need raw
    /// control — in memory or store-backed alike.
    pub fn engine(&self) -> &QbhEngine {
        &self.engine
    }

    /// Points the system at a metrics sink; pass [`MetricsSink::enabled`]
    /// to start recording every query, insert and removal of the engine,
    /// and every storage event, into a shared registry.
    pub fn set_metrics(&mut self, sink: MetricsSink) {
        self.engine.set_metrics(sink);
    }

    /// The metrics sink in use (disabled by default).
    pub fn metrics(&self) -> &MetricsSink {
        self.engine.metrics()
    }

    /// Opens the frames → request builder every query goes through: the
    /// request template's kind, band, trace and budget settings apply to the
    /// request it builds (any series already on the template is ignored —
    /// frames arrive through [`QuerySession::append`]), normalized with
    /// this system's normal form. Use [`QbhSystem::band`] for the
    /// configured warping width.
    pub fn open_session(&self, template: QueryRequest) -> QuerySession {
        QuerySession::new(template, self.normal)
    }

    /// Executes a [`QueryRequest`] on a hummed pitch series: the series is
    /// normalized and attached to the request (any series already on the
    /// request is replaced), so callers only choose kind, band, trace and
    /// budget. Use [`QbhSystem::band`] for the configured warping
    /// width. Returns annotated results plus the cascade trace when the
    /// request asked for one.
    ///
    /// There is exactly one path from raw frames to the engine — validate,
    /// normalize, attach ([`QuerySession`]), then
    /// [`DtwIndexEngine::try_query_with`] — and every other query method of
    /// the system is a caller of it.
    ///
    /// # Errors
    /// [`EngineError::EmptyQuery`] on an empty pitch series,
    /// [`EngineError::NonFiniteSample`] at the raw frame index, plus
    /// anything [`DtwIndexEngine::try_query`] reports.
    pub fn try_query_request(
        &self,
        pitch_series: &[f64],
        request: QueryRequest,
    ) -> Result<(QbhResults, Option<QueryTrace>), EngineError> {
        let mut scratch = QueryScratch::new();
        self.try_query_request_with(pitch_series, request, &mut scratch)
    }

    /// [`QbhSystem::try_query_request`] computing in caller-provided
    /// scratch — the server's worker pool reuses one scratch per worker.
    /// Results and counters are identical to the fresh-scratch form.
    ///
    /// # Errors
    /// Same as [`QbhSystem::try_query_request`].
    pub fn try_query_request_with(
        &self,
        pitch_series: &[f64],
        request: QueryRequest,
        scratch: &mut QueryScratch,
    ) -> Result<(QbhResults, Option<QueryTrace>), EngineError> {
        // The normal form of `pitch_series` attached; an empty series is
        // reported as `EmptyQuery` before `NormalForm::apply` could see it.
        let budget = request.budget();
        let mut session = self.open_session(request);
        session.append(pitch_series)?;
        let request = session.to_request(budget)?;
        let outcome = self.engine.try_query_with(&request, scratch)?;
        Ok((self.annotate(outcome.result), outcome.trace))
    }

    /// Live insert: renders a raw (hummed-scale) pitch series to normal
    /// form, indexes it under `id` (in store mode, as a memtable melody),
    /// and records its provenance. The melody is queryable as soon as this returns; on
    /// error nothing changes. In store mode the melody becomes *durable*
    /// at the next [`QbhSystem::flush`] (the memtable is volatile; there
    /// is no write-ahead log).
    ///
    /// # Errors
    /// [`EngineError::EmptyQuery`] on an empty series,
    /// [`EngineError::NonFiniteSample`] on NaN/infinite samples (checked on
    /// the *raw* series, before resampling can smear the poison), and
    /// [`EngineError::DuplicateId`] when `id` is already indexed — or
    /// tombstoned: a removed id stays reserved until
    /// compaction drops it from its segment file, since re-using it earlier
    /// would make the on-disk segments overlap.
    pub fn try_insert_melody(
        &mut self,
        id: u64,
        song: usize,
        phrase: usize,
        pitch_series: &[f64],
    ) -> Result<(), EngineError> {
        if pitch_series.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        check_finite(pitch_series, "inserted pitch series")?;
        // The engine's own check does not cover tombstoned ids.
        if self.store.as_ref().is_some_and(|s| s.tombstones.contains(&id)) {
            return Err(EngineError::DuplicateId(id));
        }
        self.engine.try_insert(id, self.normal.apply(pitch_series))?;
        self.provenance.insert(id, (song, phrase));
        if let Some(state) = self.store.as_mut() {
            state.memtable_ids.insert(id);
        }
        Ok(())
    }

    /// Ingests a whole melody database into a store-backed system: every
    /// entry is rendered and inserted under its own id and provenance with
    /// a [`QbhSystem::maintain`] tick after each (so the memtable flushes
    /// and segments compact as they fill), then the tail is flushed — on
    /// return the entire database is durable.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] naming the melody an insert
    /// rejected (duplicate id, empty or non-finite rendering), plus
    /// anything [`QbhSystem::maintain`] and [`QbhSystem::flush`] report;
    /// melodies ingested before the failure stay in the store.
    pub fn try_ingest(&mut self, db: &MelodyDatabase) -> Result<(), StorageError> {
        for entry in db.entries() {
            let series = entry.melody().to_time_series(self.config.samples_per_beat);
            self.try_insert_melody(entry.id(), entry.song(), entry.phrase(), &series).map_err(
                |e| StorageError::Unrepresentable(format!("melody #{}: {e}", entry.id())),
            )?;
            self.maintain()?;
        }
        self.flush()?;
        Ok(())
    }

    /// Live removal: drops the melody stored under `id` from the engine.
    /// Returns `Ok(true)` if it was present.
    ///
    /// In store mode, removing a *segment-resident* melody writes a
    /// tombstone into the manifest durably **before** the in-memory
    /// removal, so a crash-and-reload can never resurrect it; the
    /// tombstoned entry physically disappears at the next compaction.
    /// Memtable-resident melodies were never durable, so their removal is
    /// purely in-memory, as is every removal from an in-memory build
    /// (which never returns an error).
    ///
    /// # Errors
    /// Any I/O or encoding failure writing the updated manifest; the
    /// system is unchanged (the melody stays queryable) on error.
    pub fn try_remove(&mut self, id: u64) -> Result<bool, StorageError> {
        if self.engine.get(id).is_none() {
            return Ok(false);
        }
        // Every stored id the memtable does not hold is segment-resident.
        if let Some(state) = self.store.as_ref().filter(|s| !s.memtable_ids.contains(&id)) {
            // Durable first: manifest with the new tombstone, then memory.
            let mut tombstones = state.tombstones.clone();
            tombstones.insert(id);
            let dir = state.dir.clone();
            let refs = self.segments.iter().map(StoreSegment::to_ref).collect();
            let written = self.save_manifest_of(&dir, refs, &tombstones)?;
            if let Some(state) = self.store.as_mut() {
                state.bytes_written += written;
                state.tombstones = tombstones;
            }
        }
        if let Some(state) = self.store.as_mut() {
            state.memtable_ids.remove(&id);
        }
        self.engine.remove(id);
        self.provenance.remove(&id);
        Ok(true)
    }

    /// Top-`k` matches for a hummed pitch series (fractional MIDI values,
    /// silence already removed), at the configured warping width.
    ///
    /// # Panics
    /// As [`QbhSystem::query_series_banded`].
    pub fn query_series(&self, pitch_series: &[f64], k: usize) -> QbhResults {
        self.query_series_banded(pitch_series, self.band, k)
    }

    /// Top-`k` matches at an explicit DTW band: the panicking form of
    /// [`QbhSystem::try_query_request`] with a k-NN request.
    ///
    /// # Panics
    /// Panics on any [`EngineError`] the `try_` form would return (an empty
    /// or non-finite pitch series, a band at least the normal length).
    pub fn query_series_banded(&self, pitch_series: &[f64], band: usize, k: usize) -> QbhResults {
        let request = QueryRequest::knn(k).with_band(band);
        self.try_query_request(pitch_series, request).unwrap_or_else(|e| panic!("{e}")).0
    }

    /// Full pipeline from raw microphone audio: pitch-track at 10 ms frames,
    /// drop silence, and search for the top `k` at the configured warping
    /// width. `Ok(None)` means the recording has no voiced frame — silence,
    /// which is not the same as a search that matched nothing.
    ///
    /// # Errors
    /// Anything [`QbhSystem::try_query_request`] reports for the voiced
    /// pitch series.
    pub fn try_query_audio(
        &self,
        samples: &[f64],
        sample_rate: u32,
        k: usize,
    ) -> Result<Option<QbhResults>, EngineError> {
        let tracker = PitchTrackerConfig { sample_rate, ..PitchTrackerConfig::default() };
        let series = track_pitch(samples, &tracker).voiced_series();
        if series.is_empty() {
            return Ok(None);
        }
        let request = QueryRequest::knn(k).with_band(self.band);
        Ok(Some(self.try_query_request(&series, request)?.0))
    }

    /// `true` when the system is backed by an on-disk store.
    pub fn is_store_backed(&self) -> bool {
        self.store.is_some()
    }

    /// Melodies currently resident only in the memtable: every melody of
    /// an in-memory build, none of which is durable.
    pub fn memtable_len(&self) -> usize {
        self.store.as_ref().map_or(self.engine.len(), |s| s.memtable_ids.len())
    }

    /// Live immutable segments (always 0 for in-memory builds).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Store counters, or `None` for an in-memory build.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|state| StoreStats {
            segments: self.segments.len(),
            memtable_len: state.memtable_ids.len(),
            tombstones: state.tombstones.len(),
            flushes: state.flushes,
            compactions: state.compactions,
            bytes_written: state.bytes_written,
        })
    }

    /// `true` when the memtable has reached [`StoreOptions::memtable_capacity`]
    /// and the next [`QbhSystem::maintain`] will flush it.
    pub fn needs_flush(&self) -> bool {
        self.store
            .as_ref()
            .is_some_and(|s| s.memtable_ids.len() >= s.options.memtable_capacity.max(1))
    }

    /// `true` when the segment count has reached [`StoreOptions::compact_at`],
    /// or at least a quarter of the segment-resident melodies are
    /// tombstoned, so the next [`QbhSystem::maintain`] will compact.
    pub fn needs_compaction(&self) -> bool {
        let Some(state) = self.store.as_ref() else {
            return false;
        };
        if self.segments.len() >= state.options.compact_at.max(2) {
            return true;
        }
        let on_disk: usize = self.segments.iter().map(|s| s.ids.len()).sum();
        !state.tombstones.is_empty() && state.tombstones.len() * 4 >= on_disk
    }

    /// The store bookkeeping, or the typed refusal `what` gets on an
    /// in-memory build.
    fn store_state(&self, what: &str) -> Result<&StoreState, StorageError> {
        self.store.as_ref().ok_or_else(|| {
            StorageError::Unrepresentable(format!(
                "{what} requires a store-backed system (see QbhSystem::try_create_store)"
            ))
        })
    }

    /// A plan over `entries`, with the next segment id reserved for it.
    fn new_plan(
        &self,
        state: &StoreState,
        entries: Vec<SegmentEntry>,
        job: PlannedJob,
    ) -> MaintenancePlan {
        MaintenancePlan {
            dir: state.dir.clone(),
            config: self.config,
            metrics: self.metrics().clone(),
            // Relaxed: a unique-id counter that publishes nothing else.
            segment_id: state.next_segment_id.fetch_add(1, Ordering::Relaxed),
            live_segments: self.segments.iter().map(|s| s.id).collect(),
            entries,
            job,
        }
    }

    /// The stored form of melody `id`, which `unit` lists.
    fn entry_of(&self, id: u64, unit: &str) -> Result<SegmentEntry, StorageError> {
        let series = self
            .engine
            .get(id)
            .map(<[f64]>::to_vec)
            .ok_or_else(|| StorageError::Corrupt(format!("{unit} lost melody {id}")))?;
        let (song, phrase) = self.provenance.get(&id).copied().unwrap_or((0, 0));
        Ok(SegmentEntry { id, song, phrase, series })
    }

    /// Phase 1 of a flush (see [`MaintenancePlan`]): copies the memtable's
    /// melodies out. `Ok(None)` when the memtable is empty.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for an in-memory build.
    pub fn plan_flush(&self) -> Result<Option<MaintenancePlan>, StorageError> {
        let state = self.store_state("flush")?;
        if state.memtable_ids.is_empty() {
            return Ok(None);
        }
        let entries = state
            .memtable_ids
            .iter()
            .map(|&id| self.entry_of(id, "the memtable"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Some(self.new_plan(state, entries, PlannedJob::Flush)))
    }

    /// Phase 1 of a compaction (see [`MaintenancePlan`]): copies the live
    /// melodies of every segment out, with the tombstone set they were
    /// filtered by. `Ok(None)` when there is nothing to do (zero or one
    /// segment and no tombstones).
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for an in-memory build.
    pub fn plan_compaction(&self) -> Result<Option<MaintenancePlan>, StorageError> {
        let state = self.store_state("compact")?;
        if self.segments.len() <= 1 && state.tombstones.is_empty() {
            return Ok(None);
        }
        let mut entries = Vec::new();
        for seg in &self.segments {
            for &id in seg.ids.iter().filter(|id| !state.tombstones.contains(id)) {
                entries.push(self.entry_of(id, "a segment")?);
            }
        }
        let purged = state.tombstones.clone();
        Ok(Some(self.new_plan(state, entries, PlannedJob::Compaction { purged })))
    }

    /// Phase 1 of whatever maintenance is due: a flush if
    /// [`QbhSystem::needs_flush`], else a compaction if
    /// [`QbhSystem::needs_compaction`], else `Ok(None)` — always `Ok(None)`
    /// for in-memory builds, so serving layers can call it unconditionally.
    ///
    /// # Errors
    /// As [`QbhSystem::plan_flush`] and [`QbhSystem::plan_compaction`].
    pub fn plan_maintenance(&self) -> Result<Option<MaintenancePlan>, StorageError> {
        if self.needs_flush() {
            self.plan_flush()
        } else if self.needs_compaction() {
            self.plan_compaction()
        } else {
            Ok(None)
        }
    }

    /// Phase 3 of a flush or compaction: makes a built job the live view,
    /// in time proportional to what changed since its plan, with
    /// [`store::save_manifest`] as the commit point. Everything that
    /// happened between plan and commit stays as it was acknowledged:
    ///
    /// * **flush** — the flushed melodies leave the memtable; melodies
    ///   inserted since the plan stay in it; a flushed melody removed since
    ///   the plan is on disk now, so it is committed tombstoned;
    /// * **compaction** — melodies removed since the plan stay tombstoned
    ///   in the manifest; tombstones the merge already honoured are
    ///   dropped; the memtable is untouched.
    ///
    /// Neither touches the engine: it already holds exactly the live
    /// melodies.
    ///
    /// Returns the segments the commit replaced; dropping them deletes
    /// their files (do it outside any lock the caller holds).
    ///
    /// # Errors
    /// [`StorageError::StalePlan`] when the live segments are not the ones
    /// the job was planned over (another flush or compaction committed in
    /// between) or a planned memtable id now names a different melody, plus
    /// any I/O or encoding failure writing the manifest. On error the
    /// pre-job view stays live, the on-disk state stays openable, and the
    /// job's own segment file is removed best-effort.
    pub fn commit_maintenance(
        &mut self,
        built: BuiltMaintenance,
    ) -> Result<RetiredSegments, StorageError> {
        let file = built.file.clone();
        let committed = self.apply_built(built);
        if let (Err(_), Some(file)) = (&committed, file) {
            let _ = std::fs::remove_file(file);
        }
        committed
    }

    fn apply_built(&mut self, built: BuiltMaintenance) -> Result<RetiredSegments, StorageError> {
        let BuiltMaintenance { segment_id, live_segments, written, job, .. } = built;
        let dir = self.store_state("commit")?.dir.clone();
        if !self.segments.iter().map(|s| s.id).eq(live_segments.iter().copied()) {
            return Err(StorageError::StalePlan(format!(
                "segment {segment_id} was planned over segments {live_segments:?}, which are no \
                 longer the live ones"
            )));
        }
        let (retired, manifest_bytes) = match job {
            BuiltJob::Flush { entries } => {
                (Vec::new(), self.commit_flush(&dir, segment_id, entries)?)
            }
            BuiltJob::Compaction { purged, merged } => {
                self.commit_compaction(&dir, &purged, merged)?
            }
        };
        if let Some(state) = self.store.as_mut() {
            state.bytes_written += written + manifest_bytes;
        }
        self.metrics().add(Metric::StorageSaves, 1);
        self.metrics().add(Metric::StorageBytesWritten, written + manifest_bytes);
        Ok(RetiredSegments { dir, segments: retired })
    }

    /// The manifest naming `segments` and `tombstones`, written durably:
    /// the commit point of every flush, compaction and stored-melody
    /// removal. Returns its size.
    fn save_manifest_of(
        &self,
        dir: &Path,
        segments: Vec<SegmentRef>,
        tombstones: &BTreeSet<u64>,
    ) -> Result<u64, StorageError> {
        let manifest = Manifest {
            config: self.config,
            segments,
            tombstones: tombstones.iter().copied().collect(),
        };
        booked(self.metrics(), store::save_manifest(dir, &manifest))
    }

    fn commit_flush(
        &mut self,
        dir: &Path,
        segment_id: u64,
        entries: Vec<SegmentEntry>,
    ) -> Result<u64, StorageError> {
        let state = self.store_state("commit")?;
        // A planned melody no longer in the memtable was removed since: it
        // is on disk now, so it is committed tombstoned. One still there
        // must be the melody that was written, not a later one reusing the
        // id.
        let mut tombstones = state.tombstones.clone();
        for entry in &entries {
            if !state.memtable_ids.contains(&entry.id) {
                tombstones.insert(entry.id);
            } else if self.engine.get(entry.id) != Some(entry.series.as_slice())
                || self.provenance.get(&entry.id) != Some(&(entry.song, entry.phrase))
            {
                return Err(StorageError::StalePlan(format!(
                    "melody {} was replaced in the memtable since segment {segment_id} was planned",
                    entry.id
                )));
            }
        }
        // The id was reserved after every live segment's, so it sorts last,
        // as the manifest codec requires.
        let mut refs: Vec<SegmentRef> = self.segments.iter().map(StoreSegment::to_ref).collect();
        refs.push(SegmentRef { id: segment_id, count: entries.len() as u64 });
        let manifest_bytes = self.save_manifest_of(dir, refs, &tombstones)?;

        // Durably committed; whatever else the memtable holds arrived since
        // the plan and stays in it.
        let ids: Vec<u64> = entries.iter().map(|e| e.id).collect();
        if let Some(state) = self.store.as_mut() {
            state.memtable_ids.retain(|id| ids.binary_search(id).is_err());
            state.tombstones = tombstones;
            state.flushes += 1;
        }
        self.segments.push(StoreSegment { id: segment_id, ids });
        Ok(manifest_bytes)
    }

    fn commit_compaction(
        &mut self,
        dir: &Path,
        purged: &BTreeSet<u64>,
        merged: Option<StoreSegment>,
    ) -> Result<(Vec<StoreSegment>, u64), StorageError> {
        let state = self.store_state("commit")?;
        // Tombstones the merge honoured are gone with their entries; one
        // added since names a melody the merged segment still holds, so it
        // stays in the manifest.
        let tombstones: BTreeSet<u64> = state.tombstones.difference(purged).copied().collect();
        // A full merge: the merged segment, if anything was live, is the
        // whole list, so it trivially sits where its id sorts.
        let mut segments: Vec<StoreSegment> = merged.into_iter().collect();
        let refs = segments.iter().map(StoreSegment::to_ref).collect();
        let manifest_bytes = self.save_manifest_of(dir, refs, &tombstones)?;

        std::mem::swap(&mut self.segments, &mut segments);
        if let Some(state) = self.store.as_mut() {
            state.tombstones = tombstones;
            state.compactions += 1;
        }
        Ok((segments, manifest_bytes))
    }

    /// Flushes the memtable: writes its melodies as a new immutable
    /// segment file and commits the segment into the manifest; the engine
    /// already holds them, so nothing is re-indexed and queries are
    /// undisturbed. This is the durability boundary for inserts: the flush writes only the new
    /// melodies plus a small manifest, never the whole corpus. Returns
    /// `Ok(false)` when the memtable was empty (nothing written).
    ///
    /// It is [`QbhSystem::plan_flush`], [`MaintenancePlan::build`] and
    /// [`QbhSystem::commit_maintenance`] run back to back — the one
    /// implementation a server runs with its lock released in the middle.
    ///
    /// Crash safety: the segment file lands (atomic rename) before the
    /// manifest that names it; a crash between the two leaves an orphan
    /// segment file that [`QbhSystem::try_open_store_with`] ignores.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for an in-memory build, plus any
    /// I/O or encoding failure — the memtable is left intact on error.
    pub fn flush(&mut self) -> Result<bool, StorageError> {
        let plan = self.plan_flush()?;
        self.run_planned(plan)
    }

    /// Compacts every segment into (at most) one: gathers the live
    /// melodies across all segments, writes them as a single new segment,
    /// and commits a manifest with the tombstone list cleared — removals
    /// become physical here. The memtable is untouched. Old segment files
    /// are deleted best-effort after the swap (a leftover is an ignored
    /// orphan). Returns `Ok(false)` when there was nothing to do (zero or
    /// one segment and no tombstones). Like [`QbhSystem::flush`], the three
    /// maintenance phases run back to back.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for an in-memory build, plus any
    /// I/O or encoding failure — the pre-compaction view stays live and
    /// on-disk state stays openable on error.
    pub fn compact(&mut self) -> Result<bool, StorageError> {
        let plan = self.plan_compaction()?;
        self.run_planned(plan)
    }

    /// Builds and commits `plan` on the spot; `Ok(false)` for no plan.
    fn run_planned(&mut self, plan: Option<MaintenancePlan>) -> Result<bool, StorageError> {
        let Some(plan) = plan else {
            return Ok(false);
        };
        self.commit_maintenance(plan.build()?)?;
        Ok(true)
    }

    /// One maintenance tick: flush if [`QbhSystem::needs_flush`], then
    /// compact if [`QbhSystem::needs_compaction`]. A no-op (and never an
    /// error) for in-memory builds, so serving layers can call it
    /// unconditionally.
    ///
    /// # Errors
    /// As [`QbhSystem::flush`] and [`QbhSystem::compact`].
    pub fn maintain(&mut self) -> Result<StoreMaintenance, StorageError> {
        let flushed = self.needs_flush() && self.flush()?;
        let compacted = self.needs_compaction() && self.compact()?;
        Ok(StoreMaintenance { flushed, compacted })
    }

    fn annotate(&self, result: hum_core::engine::QueryResult) -> QbhResults {
        let matches = result
            .matches
            .into_iter()
            .map(|(id, distance)| {
                // Every indexed id has provenance (insert paths record it in
                // lockstep); a miss would be an internal bug, so surface it
                // loudly in debug builds and degrade to (0, 0) in release.
                let provenance = self.provenance.get(&id).copied();
                debug_assert!(provenance.is_some(), "id {id} has no provenance");
                let (song, phrase) = provenance.unwrap_or((0, 0));
                QbhMatch { id, song, phrase, distance }
            })
            .collect();
        QbhResults { matches, stats: result.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hum_audio::{HumSynthesizer, SynthConfig};
    use hum_core::engine::QueryBudget;
    use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};

    fn small_db() -> MelodyDatabase {
        MelodyDatabase::from_songbook(&SongbookConfig {
            songs: 10,
            phrases_per_song: 5,
            ..SongbookConfig::default()
        })
    }

    #[test]
    fn exact_rendition_ranks_first() {
        let db = small_db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        // "Hum" phrase 12 perfectly: its own time series.
        let series = db.entry(12).unwrap().melody().to_time_series(4);
        let results = system.query_series(&series, 5);
        assert_eq!(results.matches[0].id, 12);
        assert!(results.matches[0].distance < 1e-9);
    }

    #[test]
    fn good_singer_hum_ranks_target_highly() {
        let db = small_db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        let mut hits = 0;
        for (i, target) in [3u64, 17, 29, 41].iter().enumerate() {
            let mut singer = HummingSimulator::new(SingerProfile::good(), 100 + i as u64);
            let hum = singer.sing_series(db.entry(*target).unwrap().melody(), 0.01);
            let results = system.query_series(&hum, 10);
            if results.matches.iter().take(3).any(|m| m.id == *target) {
                hits += 1;
            }
        }
        assert!(hits >= 3, "only {hits}/4 hums found their target in the top 3");
    }

    #[test]
    fn provenance_is_reported() {
        let db = small_db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        let series = db.entry(23).unwrap().melody().to_time_series(4);
        let m = &system.query_series(&series, 1).matches[0];
        assert_eq!((m.song, m.phrase), (db.entry(23).unwrap().song(), db.entry(23).unwrap().phrase()));
    }

    #[test]
    fn audio_pipeline_end_to_end() {
        let db = small_db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        let target = 31u64;
        let mut singer = HummingSimulator::new(SingerProfile::good(), 5);
        let sung = singer.sing_notes(db.entry(target).unwrap().melody());
        let hum_notes: Vec<hum_audio::HumNote> =
            sung.iter().map(|n| hum_audio::HumNote { midi: n.midi, seconds: n.seconds }).collect();
        let audio = HumSynthesizer::new(SynthConfig::default()).render(&hum_notes);
        let results = system.try_query_audio(&audio, 8_000, 10).unwrap().expect("voiced");
        assert!(
            results.matches.iter().any(|m| m.id == target),
            "audio-route query missed its target"
        );
        // Asking for nothing is an empty answer, not silence.
        let none = system.try_query_audio(&audio, 8_000, 0).unwrap().expect("voiced");
        assert!(none.matches.is_empty());
    }

    #[test]
    fn a_malformed_hum_runs_nothing_and_records_nothing() {
        let db = small_db();
        let mut system = QbhSystem::build(&db, &QbhConfig::default());
        system.set_metrics(MetricsSink::enabled());
        let mut hum = db.entry(7).unwrap().melody().to_time_series(4);
        let request = QueryRequest::knn(5).with_band(system.band());
        // A request only the engine boundary can reject (band as wide as
        // the normal form) is caught up front as well.
        let wide = request.clone().with_band(system.config().normal_length);
        assert_eq!(
            system.try_query_request(&hum, wide).unwrap_err(),
            EngineError::BandTooWide { band: 128, len: 128 }
        );
        hum[5] = f64::NAN;
        match system.try_query_request(&hum, request) {
            Err(EngineError::NonFiniteSample { index: 5, .. }) => {}
            other => panic!("expected the NaN frame to be reported, got {other:?}"),
        }
        let snapshot = system.metrics().registry().expect("enabled").snapshot();
        assert_eq!(snapshot.counter(Metric::KnnQueries), 0);
        assert_eq!(snapshot.counter(Metric::DpCells), 0);
    }

    #[test]
    fn silent_audio_returns_empty() {
        let db = small_db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        assert_eq!(system.try_query_audio(&vec![0.0; 8000], 8_000, 5), Ok(None));
    }

    #[test]
    fn range_query_respects_radius() {
        let db = small_db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        let series = db.entry(2).unwrap().melody().to_time_series(4);
        let range = |radius: f64| {
            let request = QueryRequest::range(radius).with_band(system.band());
            system.try_query_request(&series, request).unwrap().0
        };
        assert_eq!(range(1e-6).matches.len(), 1);
        assert_eq!(range(1e6).matches.len(), db.len());
    }

    #[test]
    #[should_panic(expected = "empty melody database")]
    fn empty_database_rejected() {
        let _ = QbhSystem::build(&MelodyDatabase::empty(), &QbhConfig::default());
    }

    #[test]
    fn query_request_matches_legacy_paths_and_traces() {
        let db = small_db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        let series = db.entry(12).unwrap().melody().to_time_series(4);
        let (results, trace) = system
            .try_query_request(
                &series,
                QueryRequest::knn(5).with_band(system.band()).with_trace(true),
            )
            .unwrap();
        assert_eq!(results, system.query_series(&series, 5));
        let trace = trace.expect("trace requested");
        assert_eq!(trace.stats, results.stats);
        assert_eq!(trace.stats.matches, 5);
    }

    #[test]
    fn empty_pitch_series_is_a_typed_error() {
        let db = small_db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        assert_eq!(
            system.try_query_request(&[], QueryRequest::knn(3)).unwrap_err(),
            EngineError::EmptyQuery
        );
    }

    #[test]
    fn live_insert_is_immediately_queryable_and_removal_unfindable() {
        let db = small_db();
        let mut system = QbhSystem::build(&db, &QbhConfig::default());
        let before = system.len();

        // A distinctive melody far from the songbook's register.
        let series: Vec<f64> = (0..64).map(|i| 90.0 + 5.0 * (i as f64 * 0.7).sin()).collect();
        system.try_insert_melody(7_000, 99, 3, &series).unwrap();
        assert_eq!(system.len(), before + 1);

        let results = system.query_series(&series, 1);
        assert_eq!(results.matches[0].id, 7_000);
        assert_eq!((results.matches[0].song, results.matches[0].phrase), (99, 3));

        assert!(system.try_remove(7_000).unwrap());
        assert!(!system.try_remove(7_000).unwrap(), "second removal finds nothing");
        assert_eq!(system.len(), before);
        assert!(system.query_series(&series, 1).matches[0].id != 7_000);
    }

    #[test]
    fn live_insert_rejects_duplicate_ids_and_bad_samples() {
        let db = small_db();
        let mut system = QbhSystem::build(&db, &QbhConfig::default());
        let series: Vec<f64> = (0..32).map(|i| 60.0 + i as f64 * 0.1).collect();

        // Id 12 came from the database build.
        assert_eq!(
            system.try_insert_melody(12, 0, 0, &series).unwrap_err(),
            EngineError::DuplicateId(12)
        );
        assert_eq!(
            system.try_insert_melody(8_000, 0, 0, &[]).unwrap_err(),
            EngineError::EmptyQuery
        );
        let mut poisoned = series.clone();
        poisoned[7] = f64::NAN;
        let before = system.len();
        match system.try_insert_melody(8_000, 0, 0, &poisoned) {
            Err(EngineError::NonFiniteSample { index, .. }) => assert_eq!(index, 7),
            other => panic!("expected NonFiniteSample, got {other:?}"),
        }
        assert_eq!(system.len(), before, "failed insert must not change the system");
        assert!(!system.try_remove(8_000).unwrap());
    }

    /// `open_session` → `append` → `to_request`, run on the engine, is the
    /// system's own one-shot query over the same prefix: matches, counters
    /// and trace. The benchmark's stage replay builds its requests this way.
    #[test]
    fn streaming_session_matches_one_shot_at_every_checkpoint() {
        let db = small_db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        let mut singer = HummingSimulator::new(SingerProfile::good(), 77);
        let hum = singer.sing_series(db.entry(19).unwrap().melody(), 0.01);

        let template = QueryRequest::knn(5).with_band(system.band()).with_trace(true);
        let mut session = system.open_session(template.clone());
        assert_eq!(
            session.to_request(QueryBudget::unlimited()).unwrap_err(),
            EngineError::EmptyQuery
        );
        let mut scratch = QueryScratch::new();
        for chunk in hum.chunks(13) {
            session.append(chunk).unwrap();
            let request = session.to_request(QueryBudget::unlimited()).unwrap();
            let streamed = system.engine().try_query_with(&request, &mut scratch).unwrap();
            let (one_shot, trace) =
                system.try_query_request(session.frames(), template.clone()).unwrap();
            assert_eq!(
                streamed.result,
                hum_core::engine::QueryResult {
                    matches: one_shot.matches.iter().map(|m| (m.id, m.distance)).collect(),
                    stats: one_shot.stats,
                },
                "prefix of {} frames",
                session.len()
            );
            assert_eq!(streamed.trace, trace, "prefix of {} frames", session.len());
        }
        // The whole hum answers exactly like the legacy surface.
        let (results, _) = system.try_query_request(&hum, template).unwrap();
        assert_eq!(results, system.query_series_banded(&hum, system.band(), 5));
    }

    #[test]
    fn scratch_reusing_query_matches_the_fresh_scratch_form() {
        let db = small_db();
        let system = QbhSystem::build(&db, &QbhConfig::default());
        let mut scratch = QueryScratch::new();
        for id in [3u64, 17, 29] {
            let series = db.entry(id).unwrap().melody().to_time_series(4);
            let request = QueryRequest::knn(5).with_band(system.band()).with_trace(true);
            let fresh = system.try_query_request(&series, request.clone()).unwrap();
            let reused =
                system.try_query_request_with(&series, request, &mut scratch).unwrap();
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn metrics_sink_records_system_queries() {
        let db = small_db();
        let mut system = QbhSystem::build(&db, &QbhConfig::default());
        assert!(!system.metrics().is_enabled());
        system.set_metrics(MetricsSink::enabled());
        let series = db.entry(3).unwrap().melody().to_time_series(4);
        let results = system.query_series(&series, 4);
        let snapshot = system.metrics().registry().expect("enabled").snapshot();
        assert_eq!(snapshot.counter(hum_core::obs::Metric::KnnQueries), 1);
        assert_eq!(
            snapshot.counter(hum_core::obs::Metric::DpCells),
            results.stats.dp_cells
        );
    }
}
