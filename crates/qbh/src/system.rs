//! The assembled QBH system.
//!
//! Wraps the `hum-core` engine with the music-specific plumbing: melody →
//! time series rendering (§3.2), pitch-series normal forms (§3.3), audio
//! ingestion through the pitch tracker (§3.1), and provenance-aware results
//! (which song, which phrase).
//!
//! A system owns exactly one engine over its whole corpus, indexed with the
//! paper's New_PAA envelope transform, the tightest reduced lower bound at
//! realistic warping widths (§5.2, Figs 6–7; the other transforms live in
//! [`hum_core::transform`] for the paper's figures). It is built in memory
//! ([`QbhSystem::build`]) or from the segment files of the store
//! ([`QbhSystem::try_create_store`] / [`QbhSystem::try_open_store`]). This
//! module holds the engine, the provenance and the queries; the store's
//! state and lifecycle live in [`crate::store`], and the system's store
//! methods delegate to it.
//!
//! A query is asked one way: every surface — [`QbhSystem::try_query_request`],
//! [`QbhSystem::try_query_audio`], the server's workers — is a caller of
//! [`QbhSystem::try_query_request_with`], which runs one ε-range or k-NN
//! request through [`DtwIndexEngine::try_query_with`] on that engine.

use std::collections::HashMap;
use std::path::Path;

use hum_audio::{track_pitch, PitchTrackerConfig};
use hum_core::dtw::band_for_warping_width;
use hum_core::engine::{
    check_finite, DtwIndexEngine, EngineError, EngineStats, QueryRequest, QueryScratch,
};
use hum_core::normal::NormalForm;
use hum_core::obs::{MetricsSink, QueryTrace};
use hum_core::session::QuerySession;
use hum_core::transform::paa::NewPaa;
use hum_index::LinearScan;

use crate::corpus::MelodyDatabase;
use crate::storage::StorageError;
pub use crate::store::{
    BuiltMaintenance, MaintenancePlan, RetiredSegments, StoreOptions, StoreStats,
};
use crate::store::{Live, SegmentEntry, Store};

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
    /// ([`hum_index::LinearScan`]) counts `index.pages_per_query` in. A
    /// store does not record it: its files hold the four fields above, an
    /// opened store indexes at the default 4096, and creating or writing a
    /// store at any other page size is
    /// [`StorageError::Unrepresentable`]. It leaves the configuration once
    /// the feature plane moves into the series arena.
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

/// The typed refusal a store operation `what` gets on an in-memory build.
fn in_memory(what: &str) -> StorageError {
    StorageError::Unrepresentable(format!(
        "{what} requires a store-backed system (see QbhSystem::try_create_store)"
    ))
}

/// A built query-by-humming system: one engine over its whole corpus and,
/// when store-backed, the store ([`crate::store`]) that keeps it durable.
/// The store never changes what the engine holds, so matches and counters
/// equal an in-memory build's at every segment layout.
pub struct QbhSystem {
    engine: DtwIndexEngine,
    normal: NormalForm,
    band: usize,
    config: QbhConfig,
    // Keyed by melody id (not a Vec indexed by id): live inserts may use
    // arbitrary ids, and removals leave holes.
    provenance: HashMap<u64, (usize, usize)>,
    store: Option<Store>,
}

impl QbhSystem {
    /// An empty in-memory system: New_PAA over a flat feature index.
    /// Panics on a configuration no store can hold.
    fn empty(config: &QbhConfig) -> Self {
        let transform = NewPaa::new(config.normal_length, config.feature_dims);
        let index = LinearScan::with_page_size(config.feature_dims, config.page_bytes);
        QbhSystem {
            engine: DtwIndexEngine::new(transform, index),
            normal: NormalForm::with_length(config.normal_length),
            band: band_for_warping_width(config.warping_width, config.normal_length),
            config: *config,
            provenance: HashMap::new(),
            store: None,
        }
    }

    /// Indexes one melody's normal form under its id, with its provenance.
    fn add(&mut self, melody: SegmentEntry) -> Result<(), EngineError> {
        self.engine.try_insert(melody.id, melody.series)?;
        self.provenance.insert(melody.id, (melody.song, melody.phrase));
        Ok(())
    }

    /// Builds the system over a melody database.
    ///
    /// # Panics
    /// Panics on an empty database, when `feature_dims` does not divide
    /// `normal_length` (New_PAA's frame count), or when the engine rejects a
    /// melody (a duplicate id or a non-finite rendering), naming it.
    pub fn build(db: &MelodyDatabase, config: &QbhConfig) -> Self {
        assert!(!db.is_empty(), "cannot build over an empty melody database");
        let mut system = Self::empty(config);
        system.provenance.reserve(db.len());
        // Normal forms are rendered where they are consumed and never held
        // all at once: the engine copies each into its arena, so a corpus-
        // sized buffer of them would only be freed again, piecemeal, under
        // the arena as it grows.
        let (normal, samples_per_beat) = (system.normal, config.samples_per_beat);
        for entry in db.entries() {
            let series = normal.apply(&entry.melody().to_time_series(samples_per_beat));
            let (id, song, phrase) = (entry.id(), entry.song(), entry.phrase());
            if let Err(e) = system.add(SegmentEntry { id, song, phrase, series }) {
                panic!("melody #{}: {e}", entry.id());
            }
        }
        system
    }

    /// Creates a store-backed system at `dir` with an empty, durable manifest.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for a configuration or options
    /// the store refuses (nothing is created), `AlreadyExists` when `dir`
    /// holds a manifest, and any I/O failure.
    pub fn try_create_store(
        dir: &Path,
        config: &QbhConfig,
        options: StoreOptions,
    ) -> Result<Self, StorageError> {
        Store::create(dir, config, options)?;
        Self::try_open_store_with(dir, options, &MetricsSink::Disabled)
    }

    /// [`QbhSystem::try_open_store_with`] with default [`StoreOptions`] and
    /// metrics disabled.
    ///
    /// # Errors
    /// As [`QbhSystem::try_open_store_with`].
    pub fn try_open_store(dir: &Path) -> Result<Self, StorageError> {
        Self::try_open_store_with(dir, StoreOptions::default(), &MetricsSink::Disabled)
    }

    /// Opens an existing store at `dir` (see [`crate::store`]): every live
    /// entry moves into the one engine, and the memtable starts empty. The
    /// open is booked into `metrics` as `storage.loads` and
    /// `storage.bytes_read`, or as `storage.load_errors`.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for refused [`StoreOptions`],
    /// before anything is read, and every [`StorageError`] of the store.
    pub fn try_open_store_with(
        dir: &Path,
        options: StoreOptions,
        metrics: &MetricsSink,
    ) -> Result<Self, StorageError> {
        // Metrics stay detached while the engine fills: re-indexing what is
        // already stored is not a user-visible insert.
        let add = |system: &mut Self, entry| system.add(entry).map_err(|e| e.to_string());
        let (store, mut system) = Store::open(dir, options, metrics, Self::empty, add)?;
        system.engine.set_metrics(metrics.clone());
        system.store = Some(store);
        Ok(system)
    }

    /// Number of indexed melodies, across the memtable and every segment.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// `true` if nothing is indexed (legal only for a store-backed system).
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

    /// The engine over the whole corpus, for experiments that need raw control.
    pub fn engine(&self) -> &DtwIndexEngine {
        &self.engine
    }

    /// Points the system at a metrics sink; [`MetricsSink::enabled`] records
    /// every query, insert, removal and storage event into a registry.
    pub fn set_metrics(&mut self, sink: MetricsSink) {
        self.engine.set_metrics(sink);
    }

    /// The metrics sink in use (disabled by default).
    pub fn metrics(&self) -> &MetricsSink {
        self.engine.metrics()
    }

    /// Opens the frames → request builder every query goes through: the
    /// template's kind, band, trace and budget apply to the request it
    /// builds from the frames [`QuerySession::append`] receives, normalized
    /// with this system's normal form.
    pub fn open_session(&self, template: QueryRequest) -> QuerySession {
        QuerySession::new(template, self.normal)
    }

    /// Executes a [`QueryRequest`] on a hummed pitch series, which replaces
    /// any series on the request once normalized: callers choose kind,
    /// band ([`QbhSystem::band`] is the configured one), trace and budget.
    /// Returns annotated results plus the trace when the request asked.
    ///
    /// It is the one path from raw frames to the engine — validate,
    /// normalize, attach ([`QuerySession`]), then
    /// [`DtwIndexEngine::try_query_with`].
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

    /// [`QbhSystem::try_query_request`] in caller-provided scratch (the
    /// server's workers reuse one each), with identical results.
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

    /// Live insert of a raw (hummed-scale) pitch series under `id`,
    /// queryable on return; on error nothing changes. In store mode it is
    /// a memtable melody, durable at the next flush (there is no log).
    ///
    /// # Errors
    /// [`EngineError::EmptyQuery`] on an empty series,
    /// [`EngineError::NonFiniteSample`] on NaN/infinite samples (checked on
    /// the *raw* series, before resampling can smear the poison), and
    /// [`EngineError::DuplicateId`] when `id` is indexed or tombstoned.
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
        if self.store.as_ref().is_some_and(|s| s.reserves(id)) {
            return Err(EngineError::DuplicateId(id));
        }
        self.add(SegmentEntry { id, song, phrase, series: self.normal.apply(pitch_series) })?;
        if let Some(store) = self.store.as_mut() {
            store.inserted(id);
        }
        Ok(())
    }

    /// Ingests a whole melody database into a store-backed system: inserts
    /// every entry, running the server's maintenance loop after each, then
    /// flushes the tail — on return all of it is durable.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] naming a melody an insert
    /// rejected, plus anything maintenance reports.
    pub fn try_ingest(&mut self, db: &MelodyDatabase) -> Result<(), StorageError> {
        for entry in db.entries() {
            let series = entry.melody().to_time_series(self.config.samples_per_beat);
            self.try_insert_melody(entry.id(), entry.song(), entry.phrase(), &series).map_err(
                |e| StorageError::Unrepresentable(format!("melody #{}: {e}", entry.id())),
            )?;
            while let Some(plan) = self.plan_maintenance()? {
                self.commit_maintenance(plan.build()?)?;
            }
        }
        self.flush()?;
        Ok(())
    }

    /// Live removal of the melody under `id`; `Ok(true)` if it was present.
    /// A segment-resident melody is tombstoned in a durable manifest
    /// first, so a crash never resurrects it; every other removal is in
    /// memory only and never fails.
    ///
    /// # Errors
    /// Any failure writing the manifest; then nothing changes.
    pub fn try_remove(&mut self, id: u64) -> Result<bool, StorageError> {
        if self.engine.get(id).is_none() {
            return Ok(false);
        }
        if let Some(store) = self.store.as_mut() {
            store.remove(id, self.engine.metrics())?;
        }
        self.engine.remove(id);
        self.provenance.remove(&id);
        Ok(true)
    }

    /// Full pipeline from raw microphone audio: pitch-track at 10 ms frames,
    /// drop silence, and search for the top `k` at the configured band.
    /// `Ok(None)` means silence: no voiced frame, not an empty answer.
    ///
    /// # Errors
    /// [`EngineError::UnsupportedSampleRate`] when `sample_rate` is below
    /// twice the tracker's highest pitch (2 kHz), plus anything
    /// [`QbhSystem::try_query_request`] reports for the voiced pitch series.
    pub fn try_query_audio(
        &self,
        samples: &[f64],
        sample_rate: u32,
        k: usize,
    ) -> Result<Option<QbhResults>, EngineError> {
        let tracker = PitchTrackerConfig { sample_rate, ..PitchTrackerConfig::default() };
        // The tracker asserts its highest pitch is below Nyquist.
        let min = (2.0 * tracker.max_hz).ceil() as u32;
        if sample_rate < min {
            return Err(EngineError::UnsupportedSampleRate { rate: sample_rate, min });
        }
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

    /// Melodies resident only in the memtable (all, in memory).
    pub fn memtable_len(&self) -> usize {
        self.store_stats().map_or(self.engine.len(), |s| s.memtable_len)
    }

    /// Live immutable segments (always 0 for in-memory builds).
    pub fn segment_count(&self) -> usize {
        self.store_stats().map_or(0, |s| s.segments)
    }

    /// Store counters, or `None` for an in-memory build.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(Store::stats)
    }

    /// `true` when the memtable has reached [`StoreOptions::memtable_capacity`].
    pub fn needs_flush(&self) -> bool {
        self.store.as_ref().is_some_and(Store::needs_flush)
    }

    /// `true` at [`StoreOptions::compact_at`] segments or a quarter tombstoned.
    pub fn needs_compaction(&self) -> bool {
        self.store.as_ref().is_some_and(Store::needs_compaction)
    }

    /// The live melodies a flush copies and a commit checks.
    fn live(&self) -> Live<'_> {
        Live { engine: &self.engine, provenance: &self.provenance }
    }

    /// Phase 1 of a flush ([`MaintenancePlan`]); `Ok(None)` for an empty
    /// memtable.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for an in-memory build.
    pub fn plan_flush(&self) -> Result<Option<MaintenancePlan>, StorageError> {
        self.store.as_ref().ok_or_else(|| in_memory("flush"))?.plan_flush(self.live())
    }

    /// Phase 1 of a compaction ([`MaintenancePlan`]): a copy of the
    /// manifest's content, nothing of the engine. `Ok(None)` for zero or
    /// one segment and no tombstones.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for an in-memory build.
    pub fn plan_compaction(&self) -> Result<Option<MaintenancePlan>, StorageError> {
        let store = self.store.as_ref().ok_or_else(|| in_memory("compact"))?;
        Ok(store.plan_compaction(self.engine.metrics()))
    }

    /// Phase 1 of whatever maintenance is due: a flush if one is needed,
    /// else a compaction if one is, else `Ok(None)` (always, in memory).
    ///
    /// # Errors
    /// As [`QbhSystem::plan_flush`] and [`QbhSystem::plan_compaction`].
    pub fn plan_maintenance(&self) -> Result<Option<MaintenancePlan>, StorageError> {
        match &self.store {
            Some(store) if store.needs_flush() => store.plan_flush(self.live()),
            Some(store) if store.needs_compaction() => Ok(store.plan_compaction(self.metrics())),
            _ => Ok(None),
        }
    }

    /// Phase 3 of a flush or compaction: makes a built job the live view
    /// by the commit rule of [`MaintenancePlan`], never touching the
    /// engine. Drop what it returns outside any lock the caller holds.
    ///
    /// # Errors
    /// [`StorageError::StalePlan`] for a plan the store has moved past,
    /// and any failure writing the manifest. On error the pre-job view
    /// stays live and openable, and the job's own file is removed.
    pub fn commit_maintenance(
        &mut self,
        built: BuiltMaintenance,
    ) -> Result<RetiredSegments, StorageError> {
        let live = Live { engine: &self.engine, provenance: &self.provenance };
        self.store.as_mut().ok_or_else(|| in_memory("commit"))?.commit(built, live)
    }

    /// Flushes the memtable into a new segment — the durability boundary
    /// for inserts — by the three maintenance phases back to back.
    /// `Ok(false)` when the memtable was empty.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for an in-memory build, plus any
    /// I/O or encoding failure — the memtable is left intact on error.
    pub fn flush(&mut self) -> Result<bool, StorageError> {
        self.run_planned(self.plan_flush()?)
    }

    /// Compacts every segment into at most one, purging the tombstones, by
    /// the three maintenance phases back to back; `Ok(false)` for no job.
    ///
    /// # Errors
    /// As [`QbhSystem::flush`]; the pre-compaction view stays live.
    pub fn compact(&mut self) -> Result<bool, StorageError> {
        self.run_planned(self.plan_compaction()?)
    }

    /// Builds and commits `plan` on the spot; `Ok(false)` for no plan.
    fn run_planned(&mut self, plan: Option<MaintenancePlan>) -> Result<bool, StorageError> {
        let retired = plan.map(|plan| self.commit_maintenance(plan.build()?)).transpose()?;
        Ok(retired.is_some())
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
    use hum_core::obs::Metric;
    use hum_music::{HummingSimulator, SingerProfile, SongbookConfig};

    /// A small songbook database and the in-memory system built over it.
    fn small_system() -> (MelodyDatabase, QbhSystem) {
        let db = MelodyDatabase::from_songbook(&SongbookConfig {
            songs: 10,
            phrases_per_song: 5,
            ..SongbookConfig::default()
        });
        let system = QbhSystem::build(&db, &QbhConfig::default());
        (db, system)
    }

    /// Top-`k` at the configured band.
    fn knn(system: &QbhSystem, series: &[f64], k: usize) -> QbhResults {
        system.try_query_request(series, QueryRequest::knn(k).with_band(system.band())).unwrap().0
    }

    #[test]
    fn exact_rendition_ranks_first() {
        let (db, system) = small_system();
        // "Hum" phrase 12 perfectly: its own time series.
        let series = db.entry(12).unwrap().melody().to_time_series(4);
        let results = knn(&system, &series, 5);
        assert_eq!(results.matches[0].id, 12);
        assert!(results.matches[0].distance < 1e-9);
    }

    #[test]
    fn good_singer_hum_ranks_target_highly() {
        let (db, system) = small_system();
        let mut hits = 0;
        for (i, target) in [3u64, 17, 29, 41].iter().enumerate() {
            let mut singer = HummingSimulator::new(SingerProfile::good(), 100 + i as u64);
            let hum = singer.sing_series(db.entry(*target).unwrap().melody(), 0.01);
            let results = knn(&system, &hum, 10);
            if results.matches.iter().take(3).any(|m| m.id == *target) {
                hits += 1;
            }
        }
        assert!(hits >= 3, "only {hits}/4 hums found their target in the top 3");
    }

    #[test]
    fn provenance_is_reported() {
        let (db, system) = small_system();
        let series = db.entry(23).unwrap().melody().to_time_series(4);
        let m = &knn(&system, &series, 1).matches[0];
        assert_eq!((m.song, m.phrase), (db.entry(23).unwrap().song(), db.entry(23).unwrap().phrase()));
    }

    #[test]
    fn audio_pipeline_end_to_end() {
        let (db, system) = small_system();
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
        let (db, mut system) = small_system();
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
        let (_, system) = small_system();
        assert_eq!(system.try_query_audio(&vec![0.0; 8000], 8_000, 5), Ok(None));
    }

    #[test]
    fn a_sample_rate_below_twice_the_highest_pitch_is_a_typed_error() {
        let (_, system) = small_system();
        for rate in [0, 1_000, 1_999] {
            assert_eq!(
                system.try_query_audio(&vec![0.1; 8000], rate, 5),
                Err(EngineError::UnsupportedSampleRate { rate, min: 2_000 })
            );
        }
        assert_eq!(system.try_query_audio(&vec![0.0; 8000], 2_000, 5), Ok(None));
    }

    #[test]
    fn range_query_respects_radius() {
        let (db, system) = small_system();
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
    fn query_request_traces_the_stats_it_returns() {
        let (db, system) = small_system();
        let series = db.entry(12).unwrap().melody().to_time_series(4);
        let (results, trace) = system
            .try_query_request(
                &series,
                QueryRequest::knn(5).with_band(system.band()).with_trace(true),
            )
            .unwrap();
        let trace = trace.expect("trace requested");
        assert_eq!(trace.stats, results.stats);
        assert_eq!(trace.stats.matches, 5);
    }

    #[test]
    fn empty_pitch_series_is_a_typed_error() {
        let (_, system) = small_system();
        assert_eq!(
            system.try_query_request(&[], QueryRequest::knn(3)).unwrap_err(),
            EngineError::EmptyQuery
        );
    }

    #[test]
    fn live_insert_is_immediately_queryable_and_removal_unfindable() {
        let (_, mut system) = small_system();
        let before = system.len();

        // A distinctive melody far from the songbook's register.
        let series: Vec<f64> = (0..64).map(|i| 90.0 + 5.0 * (i as f64 * 0.7).sin()).collect();
        system.try_insert_melody(7_000, 99, 3, &series).unwrap();
        assert_eq!(system.len(), before + 1);

        let results = knn(&system, &series, 1);
        assert_eq!(results.matches[0].id, 7_000);
        assert_eq!((results.matches[0].song, results.matches[0].phrase), (99, 3));

        assert!(system.try_remove(7_000).unwrap());
        assert!(!system.try_remove(7_000).unwrap(), "second removal finds nothing");
        assert_eq!(system.len(), before);
        assert!(knn(&system, &series, 1).matches[0].id != 7_000);
    }

    #[test]
    fn live_insert_rejects_duplicate_ids_and_bad_samples() {
        let (_, mut system) = small_system();
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
        let (db, system) = small_system();
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
    }

    #[test]
    fn scratch_reusing_query_matches_the_fresh_scratch_form() {
        let (db, system) = small_system();
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
        let (db, mut system) = small_system();
        assert!(!system.metrics().is_enabled());
        system.set_metrics(MetricsSink::enabled());
        let series = db.entry(3).unwrap().melody().to_time_series(4);
        let results = knn(&system, &series, 4);
        let snapshot = system.metrics().registry().expect("enabled").snapshot();
        assert_eq!(snapshot.counter(hum_core::obs::Metric::KnnQueries), 1);
        assert_eq!(
            snapshot.counter(hum_core::obs::Metric::DpCells),
            results.stats.dp_cells
        );
    }
}
