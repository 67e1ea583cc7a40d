//! The one on-disk form of an indexed corpus — the LSM-style store — and
//! `Store`, the one type that keeps it.
//!
//! Which module holds what:
//!
//! * [`crate::storage`] — the framing both file formats share (magic,
//!   section and footer CRCs, bounded reads, the config section, atomic
//!   writes) and [`StorageError`];
//! * this module — the two file formats, and `Store`: a store's state (the
//!   manifest's content plus the memtable), create, open, durable removal,
//!   the maintenance triggers and the plan / build / commit of
//!   [`MaintenancePlan`];
//! * [`crate::system`] — the engine, provenance and queries. A store-backed
//!   [`QbhSystem`] holds a `Store` and hands it the engine lookups a flush
//!   or a commit needs.
//!
//! A store directory holds:
//!
//! * **Segment files** (`seg-<id>.humseg`, format `HUMSEG02`) — immutable,
//!   checksummed batches of *normal-form* melodies. Segments persist the
//!   normalized series, not notes: live inserts arrive as pitch series with
//!   no note representation, and storing the exact `f64` bits is what keeps
//!   a reloaded store bit-identical to the memtable it was flushed from.
//! * **One manifest** (`MANIFEST`, format `HUMMAN02`) — the authoritative,
//!   atomically-replaced list of live segments and tombstoned melody ids.
//!   A segment file not named by the manifest does not exist as far as the
//!   store is concerned (it is a crash leftover and is ignored), so every
//!   multi-file state change reduces to one atomic manifest rename.
//!
//! # File formats
//!
//! One generation, with nothing reserved:
//!
//! ```text
//! HUMSEG02:                              HUMMAN02:
//! [ magic "HUMSEG02"          8 bytes ]  [ magic "HUMMAN02"          8 bytes ]
//! [ config body              20 bytes ]  [ config body              20 bytes ]
//! [ CRC32(config)             4 bytes ]  [ CRC32(config)             4 bytes ]
//! [ entries: count u64,               ]  [ segments: count u64,              ]
//! [   id u64, song u32, phrase u32,   ]  [   (id u64, melodies u64)…         ]
//! [   series normal_length × f64 …    ]  [ CRC32(segments)           4 bytes ]
//! [ CRC32(entries)            4 bytes ]  [ tombstones: count u64, id u64…    ]
//! [ CRC32(file)               4 bytes ]  [ CRC32(tombstones)         4 bytes ]
//!                                        [ CRC32(file)               4 bytes ]
//! ```
//!
//! The config body is what describes the stored data: `normal_length`,
//! `feature_dims`, `samples_per_beat` and `warping_width`. Entry ids within
//! a segment, segment ids within the manifest, and tombstone ids are all
//! strictly ascending: a writer refuses anything else as
//! [`StorageError::Unrepresentable`], a reader as [`StorageError::Corrupt`].
//! Readers accept only this generation: a file of the older one (`HUMSEG01`,
//! `HUMMAN01`) is a [`StorageError::Corrupt`] that names its magic and says
//! to re-ingest the corpus with `qbh index`.
//!
//! # Opening
//!
//! Open reads the manifest, then one segment at a time: it reads the file,
//! cross-checks it and moves its live entries into the engine before it
//! reads the next. A manifest-named segment file that is missing, a segment
//! whose config or entry count disagrees with the manifest, a melody id in
//! two segments and a tombstone that names no stored melody are all typed
//! [`StorageError::Corrupt`] — never a panic, never a silent skip — and a
//! failed open leaves no system behind.
//!
//! # Maintenance
//!
//! Flush and compaction are one job in three phases: see
//! [`MaintenancePlan`]. A flush copies the memtable out of the engine; a
//! compaction merges the segment files it replaces, read through the same
//! per-segment check an open runs, and takes nothing from the engine.

use std::collections::{BTreeSet, HashMap};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hum_core::engine::DtwIndexEngine;
use hum_core::obs::{Metric, MetricsSink};

use crate::storage::{
    as_u32, atomic_write, read_config_section, read_magic, validate_config, write_config_section,
    SectionReader, SectionWriter, StorageError, MAX_MELODIES, PREALLOC_CAP,
};
use crate::system::QbhConfig;
#[cfg(doc)]
use crate::system::QbhSystem;

/// Segment file magic (8 bytes).
const MAGIC_SEG: &[u8; 8] = b"HUMSEG02";

/// Manifest file magic (8 bytes).
const MAGIC_MAN: &[u8; 8] = b"HUMMAN02";

/// The manifest's file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Hard cap on the segment count a manifest may claim.
const MAX_SEGMENTS: u64 = 1 << 20;

/// One melody inside a segment file: provenance plus the normal-form
/// series (exact `f64` bits, already rendered and normalized).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentEntry {
    /// Corpus-unique melody id.
    pub id: u64,
    /// Source song index.
    pub song: usize,
    /// Phrase index within the song.
    pub phrase: usize,
    /// The normal-form series, exactly `normal_length` samples.
    pub series: Vec<f64>,
}

/// A manifest's record of one live segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef {
    /// Segment id (monotonic; also names the file).
    pub id: u64,
    /// Number of melodies the segment file must hold.
    pub count: u64,
}

/// The decoded manifest: the store's configuration, its live segments in
/// ascending id order, and the tombstoned melody ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The indexing configuration every segment must agree with.
    pub config: QbhConfig,
    /// Live segments, ascending by id.
    pub segments: Vec<SegmentRef>,
    /// Removed melody ids whose entries still sit in some segment
    /// (cleared by compaction), ascending.
    pub tombstones: Vec<u64>,
}

/// The path of segment `id` inside `dir`.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.humseg"))
}

/// The manifest path inside `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

// ---------------------------------------------------------------------------
// The ordering rule of every id list a store file holds.

/// `what` ids must be strictly ascending: the first one out of order is
/// refused as `error` — [`StorageError::Unrepresentable`] when writing,
/// [`StorageError::Corrupt`] when reading.
fn ascending(
    ids: impl IntoIterator<Item = u64>,
    what: &str,
    error: fn(String) -> StorageError,
) -> Result<(), StorageError> {
    let mut previous = None;
    match ids.into_iter().find(|&id| previous.replace(id).is_some_and(|p| p >= id)) {
        Some(id) => Err(error(format!("{what} ids are not strictly ascending (id {id})"))),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Segment codec.

/// Serializes a segment. Entries must be strictly ascending by id, with
/// series of exactly `config.normal_length` finite samples. Returns the
/// byte count.
///
/// # Errors
/// [`StorageError::Unrepresentable`] on violation of any invariant above;
/// [`StorageError::Io`] on write failures.
pub fn write_segment<W: Write>(
    out: &mut W,
    config: &QbhConfig,
    entries: &[SegmentEntry],
) -> Result<u64, StorageError> {
    if entries.len() as u64 > MAX_MELODIES {
        return Err(StorageError::Unrepresentable(format!(
            "melody count {} exceeds the format cap {MAX_MELODIES}",
            entries.len()
        )));
    }
    ascending(entries.iter().map(|e| e.id), "segment entry", StorageError::Unrepresentable)?;
    let mut dst = SectionWriter::new(out);
    dst.put(MAGIC_SEG)?;
    write_config_section(&mut dst, config)?;

    dst.begin_section();
    dst.put(&(entries.len() as u64).to_le_bytes())?;
    // One series' bytes, framed in one piece.
    let mut row = Vec::with_capacity(config.normal_length * 8);
    for entry in entries {
        if entry.series.len() != config.normal_length {
            return Err(StorageError::Unrepresentable(format!(
                "melody {} has {} samples, expected normal length {}",
                entry.id,
                entry.series.len(),
                config.normal_length
            )));
        }
        if entry.series.iter().any(|sample| !sample.is_finite()) {
            return Err(StorageError::Unrepresentable(format!(
                "melody {} holds a non-finite sample",
                entry.id
            )));
        }
        dst.put(&entry.id.to_le_bytes())?;
        dst.put(&as_u32(entry.song, "song index")?.to_le_bytes())?;
        dst.put(&as_u32(entry.phrase, "phrase index")?.to_le_bytes())?;
        row.clear();
        row.extend(entry.series.iter().flat_map(|sample| sample.to_le_bytes()));
        dst.put(&row)?;
    }
    dst.finish_section()?;
    dst.finish_file()?;
    Ok(dst.bytes())
}

/// Deserializes and validates a segment, returning its config and entries
/// (ascending by id).
///
/// # Errors
/// [`StorageError::BadMagic`] for foreign bytes, [`StorageError::Checksum`]
/// for corrupted sections, [`StorageError::Corrupt`] for an older format
/// generation and for structural violations (ids out of order, non-finite
/// samples, implausible counts), and [`StorageError::Io`] for truncation or
/// read failures.
pub fn read_segment<R: Read>(
    input: &mut R,
) -> Result<(QbhConfig, Vec<SegmentEntry>), StorageError> {
    let mut src = SectionReader::new(input);
    read_magic(&mut src, MAGIC_SEG)?;
    let config = read_config_section(&mut src)?;

    src.begin_section();
    let count = src.u64()?;
    if count > MAX_MELODIES {
        return Err(StorageError::Corrupt(format!("implausible melody count {count}")));
    }
    let mut entries = Vec::with_capacity((count as usize).min(PREALLOC_CAP));
    let mut row = vec![0u8; config.normal_length * 8];
    for _ in 0..count {
        let id = src.u64()?;
        let song = src.u32()? as usize;
        let phrase = src.u32()? as usize;
        src.take(&mut row)?;
        let sample = |b: &[u8]| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let series: Vec<f64> = row.chunks_exact(8).map(sample).collect();
        if series.iter().any(|sample| !sample.is_finite()) {
            return Err(StorageError::Corrupt(format!("melody {id} holds a non-finite sample")));
        }
        entries.push(SegmentEntry { id, song, phrase, series });
    }
    ascending(entries.iter().map(|e| e.id), "segment entry", StorageError::Corrupt)?;
    src.verify_section("entries")?;
    src.verify_footer()?;
    Ok((config, entries))
}

// ---------------------------------------------------------------------------
// Manifest codec.

/// Serializes a manifest. Segment ids and tombstone ids must be strictly
/// ascending. Returns the byte count.
///
/// # Errors
/// [`StorageError::Unrepresentable`] on violations;
/// [`StorageError::Io`] on write failures.
pub fn write_manifest<W: Write>(out: &mut W, manifest: &Manifest) -> Result<u64, StorageError> {
    if manifest.segments.len() as u64 > MAX_SEGMENTS {
        return Err(StorageError::Unrepresentable(format!(
            "segment count {} exceeds the format cap {MAX_SEGMENTS}",
            manifest.segments.len()
        )));
    }
    let unrepresentable = StorageError::Unrepresentable;
    ascending(manifest.segments.iter().map(|s| s.id), "manifest segment", unrepresentable)?;
    ascending(manifest.tombstones.iter().copied(), "tombstone", unrepresentable)?;
    let mut dst = SectionWriter::new(out);
    dst.put(MAGIC_MAN)?;
    write_config_section(&mut dst, &manifest.config)?;

    dst.begin_section();
    dst.put(&(manifest.segments.len() as u64).to_le_bytes())?;
    for segment in &manifest.segments {
        dst.put(&segment.id.to_le_bytes())?;
        dst.put(&segment.count.to_le_bytes())?;
    }
    dst.finish_section()?;

    dst.begin_section();
    dst.put(&(manifest.tombstones.len() as u64).to_le_bytes())?;
    for &id in &manifest.tombstones {
        dst.put(&id.to_le_bytes())?;
    }
    dst.finish_section()?;
    dst.finish_file()?;
    Ok(dst.bytes())
}

/// Deserializes and validates a manifest.
///
/// # Errors
/// As [`read_segment`], with [`StorageError::Corrupt`] covering duplicate
/// or out-of-order segment ids, implausible counts, and out-of-order
/// tombstones.
pub fn read_manifest<R: Read>(input: &mut R) -> Result<Manifest, StorageError> {
    let mut src = SectionReader::new(input);
    read_magic(&mut src, MAGIC_MAN)?;
    let config = read_config_section(&mut src)?;

    src.begin_section();
    let segment_count = src.u64()?;
    if segment_count > MAX_SEGMENTS {
        return Err(StorageError::Corrupt(format!(
            "implausible segment count {segment_count}"
        )));
    }
    let mut segments = Vec::with_capacity((segment_count as usize).min(PREALLOC_CAP));
    let mut total_melodies: u64 = 0;
    for _ in 0..segment_count {
        let id = src.u64()?;
        let count = src.u64()?;
        total_melodies = total_melodies.saturating_add(count);
        if total_melodies > MAX_MELODIES {
            return Err(StorageError::Corrupt(format!(
                "implausible melody count {total_melodies}"
            )));
        }
        segments.push(SegmentRef { id, count });
    }
    ascending(segments.iter().map(|s| s.id), "manifest segment", StorageError::Corrupt)?;
    src.verify_section("segments")?;

    src.begin_section();
    let tombstone_count = src.u64()?;
    if tombstone_count > MAX_MELODIES {
        return Err(StorageError::Corrupt(format!(
            "implausible tombstone count {tombstone_count}"
        )));
    }
    let mut tombstones = Vec::with_capacity((tombstone_count as usize).min(PREALLOC_CAP));
    for _ in 0..tombstone_count {
        tombstones.push(src.u64()?);
    }
    ascending(tombstones.iter().copied(), "tombstone", StorageError::Corrupt)?;
    src.verify_section("tombstones")?;
    src.verify_footer()?;
    Ok(Manifest { config, segments, tombstones })
}

// ---------------------------------------------------------------------------
// File-level operations (all atomic via temp-file + rename).

/// Atomically writes segment `id` into `dir`. Returns the byte count.
///
/// # Errors
/// As [`write_segment`].
pub fn save_segment(
    dir: &Path,
    id: u64,
    config: &QbhConfig,
    entries: &[SegmentEntry],
) -> Result<u64, StorageError> {
    atomic_write(&segment_path(dir, id), |out| write_segment(out, config, entries))
}

/// Decodes one whole store file through `read`, also returning the file's
/// length — which, because every reader ends by rejecting trailing bytes,
/// is exactly the number of bytes a successful `read` consumed.
fn load_counted<T>(
    path: &Path,
    read: impl FnOnce(&mut io::BufReader<std::fs::File>) -> Result<T, StorageError>,
) -> Result<(T, u64), StorageError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    Ok((read(&mut io::BufReader::new(file))?, len))
}

/// Reads live segment `segment` of the store at `dir` and checks it against
/// the manifest's record of it: the one per-segment check of an open and of
/// a compaction's build. Returns its entries and the file's length.
///
/// # Errors
/// Every error of [`read_segment`], and [`StorageError::Corrupt`] naming
/// the segment when its file is missing or disagrees with the manifest's
/// config or entry count.
fn load_segment(
    dir: &Path,
    config: &QbhConfig,
    segment: SegmentRef,
) -> Result<(Vec<SegmentEntry>, u64), StorageError> {
    let corrupt = |what| StorageError::Corrupt(format!("segment {}: {what}", segment.id));
    let path = segment_path(dir, segment.id);
    let ((found, entries), len) = match load_counted(&path, read_segment) {
        Err(StorageError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
            return Err(corrupt(format!("{} is missing", path.display())));
        }
        read => read?,
    };
    if found != *config {
        return Err(corrupt("its config disagrees with the manifest".into()));
    }
    if entries.len() as u64 != segment.count {
        let (held, named) = (entries.len(), segment.count);
        return Err(corrupt(format!("holds {held} melodies, the manifest says {named}")));
    }
    Ok((entries, len))
}

/// Atomically replaces the manifest in `dir`. This is the store's commit
/// point: every flush, removal, and compaction becomes visible (and
/// crash-durable) exactly when this rename lands.
///
/// # Errors
/// As [`write_manifest`].
pub fn save_manifest(dir: &Path, manifest: &Manifest) -> Result<u64, StorageError> {
    atomic_write(&manifest_path(dir), |out| write_manifest(out, manifest))
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

// ---------------------------------------------------------------------------
// The store.

/// Operational knobs for a store-backed system; not part of the on-disk
/// format. Checked when a store is created or opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Memtable melody count at which [`QbhSystem::needs_flush`] trips
    /// (flushes are otherwise explicit; the memtable may exceed this
    /// between maintenance ticks). At least 1.
    pub memtable_capacity: usize,
    /// Segment count at which [`QbhSystem::needs_compaction`] trips. At
    /// least 2: a compaction of one segment merges nothing.
    pub compact_at: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { memtable_capacity: 1024, compact_at: 4 }
    }
}

impl StoreOptions {
    /// [`StorageError::Unrepresentable`] for a zero memtable capacity or a
    /// `compact_at` below 2.
    fn check(self) -> Result<(), StorageError> {
        if self.memtable_capacity == 0 || self.compact_at < 2 {
            let want = "memtable_capacity must be at least 1 and compact_at at least 2";
            return Err(StorageError::Unrepresentable(format!("{want}, got {self:?}")));
        }
        Ok(())
    }
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

/// The live melodies a flush copies and a commit checks, by id: the
/// engine's series and the system's provenance.
#[derive(Clone, Copy)]
pub(crate) struct Live<'a> {
    pub(crate) engine: &'a DtwIndexEngine,
    pub(crate) provenance: &'a HashMap<u64, (usize, usize)>,
}

/// A live segment, held by the store and by the compaction plans that
/// replace it. A commit retires the segments it replaced, and a retired
/// segment's file is deleted when its last holder lets go of it
/// (best-effort: a leftover is an orphan that opening ignores). So a
/// compaction overtaken by another still reads the files it was planned
/// over, and its commit refuses it as stale.
struct LiveSegment {
    at: SegmentRef,
    path: PathBuf,
    retired: AtomicBool,
}

impl LiveSegment {
    fn new(dir: &Path, at: SegmentRef) -> Arc<Self> {
        Arc::new(LiveSegment { at, path: segment_path(dir, at.id), retired: AtomicBool::new(false) })
    }
}

impl Drop for LiveSegment {
    fn drop(&mut self) {
        if *self.retired.get_mut() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A store's state: its manifest's content (live segments and tombstones)
/// plus the memtable, the ids inserted since their last flush. The engine
/// holds every live melody; the store knows only where each one is durable.
pub(crate) struct Store {
    dir: PathBuf,
    config: QbhConfig,
    options: StoreOptions,
    /// The manifest's live segments, ascending by id. A segment's count is
    /// its file's, tombstoned entries included.
    segments: Vec<Arc<LiveSegment>>,
    /// Removed-but-still-on-disk melody ids; cleared by compaction.
    tombstones: BTreeSet<u64>,
    /// Next segment file id (strictly greater than every live segment).
    /// Atomic because a plan reserves its id under a shared borrow: two
    /// plans never share a file name, so a stale job's file is always its
    /// own.
    next_segment_id: AtomicU64,
    /// The memtable: ids inserted since their last flush, held by the
    /// engine but by no segment file (not yet durable).
    memtable: BTreeSet<u64>,
    /// Flushes, compactions and bytes written by this instance.
    counters: StoreStats,
}

impl Store {
    /// Creates an empty store at `dir`: the directory (if missing) and a
    /// durable manifest with no segments and no tombstones. Nothing is
    /// created when `config` or `options` is refused.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for a configuration the format
    /// rejects or refused options, an `AlreadyExists` I/O error when `dir`
    /// already holds a manifest (an existing store is opened, never
    /// silently re-initialized), and any I/O failure.
    pub(crate) fn create(
        dir: &Path,
        config: &QbhConfig,
        options: StoreOptions,
    ) -> Result<(), StorageError> {
        options.check()?;
        validate_config(config).map_err(StorageError::Unrepresentable)?;
        std::fs::create_dir_all(dir)?;
        if manifest_path(dir).exists() {
            return Err(StorageError::Io(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("store at {} already has a manifest", dir.display()),
            )));
        }
        let manifest = Manifest { config: *config, segments: Vec::new(), tombstones: Vec::new() };
        save_manifest(dir, &manifest).map(drop)
    }

    /// Opens the store at `dir` with an empty memtable (see the module
    /// docs): `start` makes the holder of the live melodies from the
    /// stored configuration, and `add` moves every live entry of every
    /// segment into it, one segment at a time. Records one
    /// `storage.loads` plus the bytes read (the manifest and every
    /// segment) into `metrics`, or one `storage.load_errors`.
    ///
    /// # Errors
    /// [`StorageError::Unrepresentable`] for refused options, before
    /// anything is read; every per-file error of [`read_manifest`] and
    /// [`read_segment`]; and [`StorageError::Corrupt`] for each cross-file
    /// check of the module docs, or naming the segment of an entry `add`
    /// rejects.
    pub(crate) fn open<T>(
        dir: &Path,
        options: StoreOptions,
        metrics: &MetricsSink,
        start: impl FnOnce(&QbhConfig) -> T,
        add: impl FnMut(&mut T, SegmentEntry) -> Result<(), String>,
    ) -> Result<(Store, T), StorageError> {
        let opened = Self::read(dir, options, start, add);
        let outcome = if opened.is_ok() { Metric::StorageLoads } else { Metric::StorageLoadErrors };
        metrics.add(outcome, 1);
        if let Ok((.., bytes_read)) = &opened {
            metrics.add(Metric::StorageBytesRead, *bytes_read);
        }
        opened.map(|(store, live, _)| (store, live))
    }

    /// The open itself, returning the bytes read as well.
    fn read<T>(
        dir: &Path,
        options: StoreOptions,
        start: impl FnOnce(&QbhConfig) -> T,
        mut add: impl FnMut(&mut T, SegmentEntry) -> Result<(), String>,
    ) -> Result<(Store, T, u64), StorageError> {
        options.check()?;
        let (manifest, mut bytes_read) = load_counted(&manifest_path(dir), read_manifest)?;
        let tombstones: BTreeSet<u64> = manifest.tombstones.iter().copied().collect();
        let mut live = start(&manifest.config);
        let mut stored: BTreeSet<u64> = BTreeSet::new();
        for &segment in &manifest.segments {
            // Every check names the segment it failed on.
            let corrupt = |what| StorageError::Corrupt(format!("segment {}: {what}", segment.id));
            let (entries, len) = load_segment(dir, &manifest.config, segment)?;
            bytes_read += len;
            for entry in entries {
                if !stored.insert(entry.id) {
                    return Err(corrupt(format!("melody {} is in another segment too", entry.id)));
                }
                if !tombstones.contains(&entry.id) {
                    add(&mut live, entry).map_err(corrupt)?;
                }
            }
        }
        if let Some(dangling) = tombstones.difference(&stored).next() {
            return Err(StorageError::Corrupt(format!(
                "dangling tombstone: id {dangling} is stored in no segment"
            )));
        }
        let store = Store {
            dir: dir.to_path_buf(),
            config: manifest.config,
            options,
            next_segment_id: AtomicU64::new(manifest.segments.last().map_or(0, |s| s.id + 1)),
            segments: manifest.segments.iter().map(|&at| LiveSegment::new(dir, at)).collect(),
            tombstones,
            memtable: BTreeSet::new(),
            counters: StoreStats::default(),
        };
        Ok((store, live, bytes_read))
    }

    /// `true` when `id` is tombstoned: a removed id stays reserved until a
    /// compaction drops its entry, since re-using it earlier would make the
    /// on-disk segments overlap.
    pub(crate) fn reserves(&self, id: u64) -> bool {
        self.tombstones.contains(&id)
    }

    /// Records a live insert of `id` in the memtable.
    pub(crate) fn inserted(&mut self, id: u64) {
        self.memtable.insert(id);
    }

    /// Records the removal of live melody `id`. A segment-resident one is
    /// tombstoned in a durable manifest first, so a crash never resurrects
    /// it; a memtable one was never durable and only leaves the memtable.
    ///
    /// # Errors
    /// Any I/O or encoding failure writing the manifest; nothing changes.
    pub(crate) fn remove(&mut self, id: u64, metrics: &MetricsSink) -> Result<(), StorageError> {
        if !self.memtable.remove(&id) {
            let mut tombstones = self.tombstones.clone();
            tombstones.insert(id);
            let written = self.save_manifest(&self.segments, &tombstones, metrics)?;
            self.counters.bytes_written += written;
            self.tombstones = tombstones;
        }
        Ok(())
    }

    /// The store's counters.
    pub(crate) fn stats(&self) -> StoreStats {
        StoreStats {
            segments: self.segments.len(),
            memtable_len: self.memtable.len(),
            tombstones: self.tombstones.len(),
            ..self.counters
        }
    }

    /// `true` when the memtable holds at least `memtable_capacity` melodies.
    pub(crate) fn needs_flush(&self) -> bool {
        self.memtable.len() >= self.options.memtable_capacity
    }

    /// `true` when the segment count has reached `compact_at`, or at least
    /// a quarter of the segment-resident entries are tombstoned.
    pub(crate) fn needs_compaction(&self) -> bool {
        if self.segments.len() >= self.options.compact_at {
            return true;
        }
        let on_disk: u64 = self.segments.iter().map(|s| s.at.count).sum();
        !self.tombstones.is_empty() && self.tombstones.len() as u64 * 4 >= on_disk
    }

    /// Phase 1 of a flush: the memtable's melodies, copied out. `None`
    /// when the memtable is empty.
    pub(crate) fn plan_flush(
        &self,
        live: Live<'_>,
    ) -> Result<Option<MaintenancePlan>, StorageError> {
        if self.memtable.is_empty() {
            return Ok(None);
        }
        let entry = |&id: &u64| -> Result<SegmentEntry, StorageError> {
            let lost = || StorageError::Corrupt(format!("the engine lost melody {id}"));
            let series = live.engine.get(id).map(<[f64]>::to_vec).ok_or_else(lost)?;
            let (song, phrase) = live.provenance.get(&id).copied().unwrap_or((0, 0));
            Ok(SegmentEntry { id, song, phrase, series })
        };
        let entries = self.memtable.iter().map(entry).collect::<Result<_, _>>()?;
        Ok(Some(self.plan(live.engine.metrics(), entries, Vec::new(), BTreeSet::new())))
    }

    /// Phase 1 of a compaction: every live segment to replace and every
    /// tombstone to purge, copied out of the manifest's content; the build
    /// reads the melodies from the files. `None` when there is nothing to
    /// do (zero or one segment, no tombstones).
    pub(crate) fn plan_compaction(&self, metrics: &MetricsSink) -> Option<MaintenancePlan> {
        if self.segments.len() <= 1 && self.tombstones.is_empty() {
            return None;
        }
        let (replaced, purged) = (self.segments.clone(), self.tombstones.clone());
        Some(self.plan(metrics, Vec::new(), replaced, purged))
    }

    /// A plan writing `entries` (a flush's) or the live entries of
    /// `replaced` (a compaction's) as the segment with the next reserved
    /// id, replacing `replaced` and purging `purged`.
    fn plan(
        &self,
        metrics: &MetricsSink,
        entries: Vec<SegmentEntry>,
        replaced: Vec<Arc<LiveSegment>>,
        purged: BTreeSet<u64>,
    ) -> MaintenancePlan {
        MaintenancePlan {
            dir: self.dir.clone(),
            config: self.config,
            metrics: metrics.clone(),
            // Relaxed: a unique-id counter that publishes nothing else.
            segment_id: self.next_segment_id.fetch_add(1, Ordering::Relaxed),
            entries,
            live_segments: self.segments.iter().map(|s| s.at).collect(),
            replaced,
            purged,
        }
    }

    /// Phase 3: makes a built job the live view by the commit rule of
    /// [`MaintenancePlan`]. On error the job's own file is removed.
    pub(crate) fn commit(
        &mut self,
        built: BuiltMaintenance,
        live: Live<'_>,
    ) -> Result<RetiredSegments, StorageError> {
        let committed = self.reconcile(&built, live);
        let BuiltMaintenance { plan, count, .. } = built;
        if committed.is_err() && count > 0 {
            let _ = std::fs::remove_file(segment_path(&plan.dir, plan.segment_id));
        }
        committed.map(|()| RetiredSegments { _plan: plan })
    }

    fn reconcile(&mut self, built: &BuiltMaintenance, live: Live<'_>) -> Result<(), StorageError> {
        let plan = &built.plan;
        if !self.segments.iter().map(|s| s.at).eq(plan.live_segments.iter().copied()) {
            return Err(StorageError::StalePlan(format!(
                "segment {} was planned over segments {:?}, which are no longer the live ones",
                plan.segment_id,
                plan.live_segments.iter().map(|s| s.id).collect::<Vec<_>>()
            )));
        }
        let mut tombstones: BTreeSet<u64> =
            self.tombstones.difference(&plan.purged).copied().collect();
        // A compaction writes no memtable melody, and every one of its
        // melodies removed since the plan is already tombstoned.
        for entry in &plan.entries {
            let held = live.engine.get(entry.id);
            if held.is_none() {
                tombstones.insert(entry.id);
            } else if self.memtable.contains(&entry.id)
                && (held != Some(entry.series.as_slice())
                    || live.provenance.get(&entry.id) != Some(&(entry.song, entry.phrase)))
            {
                // A later melody reusing the id, not the one written.
                return Err(StorageError::StalePlan(format!(
                    "melody {} was replaced in the memtable since segment {} was planned",
                    entry.id, plan.segment_id
                )));
            }
        }
        let replaced = |s: &&Arc<LiveSegment>| plan.replaced.iter().any(|r| r.at == s.at);
        let mut segments: Vec<_> = self.segments.iter().filter(|s| !replaced(s)).cloned().collect();
        if built.count > 0 {
            // The id was reserved after every live segment's, so it sorts
            // last, as the manifest codec requires.
            let at = SegmentRef { id: plan.segment_id, count: built.count };
            segments.push(LiveSegment::new(&plan.dir, at));
        }
        let metrics = live.engine.metrics();
        let written = built.written + self.save_manifest(&segments, &tombstones, metrics)?;

        // Durably committed; whatever else the memtable holds arrived since
        // the plan and stays in it.
        metrics.add(Metric::StorageSaves, 1);
        metrics.add(Metric::StorageBytesWritten, written);
        let written_ids = &plan.entries;
        self.memtable.retain(|id| written_ids.binary_search_by_key(id, |e| e.id).is_err());
        for segment in &plan.replaced {
            segment.retired.store(true, Ordering::Relaxed);
        }
        self.segments = segments;
        self.tombstones = tombstones;
        self.counters.bytes_written += written;
        if plan.replaced.is_empty() {
            self.counters.flushes += 1;
        } else {
            self.counters.compactions += 1;
        }
        Ok(())
    }

    /// The manifest naming `segments` and `tombstones`, written durably:
    /// the commit point of every flush, compaction and stored-melody
    /// removal. Returns its size.
    fn save_manifest(
        &self,
        segments: &[Arc<LiveSegment>],
        tombstones: &BTreeSet<u64>,
        metrics: &MetricsSink,
    ) -> Result<u64, StorageError> {
        let manifest = Manifest {
            config: self.config,
            segments: segments.iter().map(|s| s.at).collect(),
            tombstones: tombstones.iter().copied().collect(),
        };
        booked(metrics, save_manifest(&self.dir, &manifest))
    }
}

/// Phase 1 of a flush or compaction, taken from the system under a shared
/// borrow ([`QbhSystem::plan_flush`], [`QbhSystem::plan_compaction`],
/// [`QbhSystem::plan_maintenance`]). Both are one job: write some entries
/// as one new segment, replace some live segments with it and purge some
/// tombstones. A flush copies the memtable's melodies out of the engine
/// and replaces and purges nothing. A compaction holds only the segments
/// it replaces (every live one) and the tombstones it purges: its build
/// reads each replaced file through the check an open runs, drops the
/// purged ids and merges the rest by id.
///
/// Maintenance runs in three phases so that a server never reads or
/// writes a segment file or waits for its fsync while holding the lock its
/// requests need: **plan** (`&QbhSystem`), **build**
/// ([`MaintenancePlan::build`] — owned data, no reference to the system)
/// and **commit** ([`QbhSystem::commit_maintenance`], `&mut QbhSystem`).
/// The system may be queried, inserted into and removed from between the
/// phases, and the commit keeps all of it as it was acknowledged. It
/// refuses the plan as [`StorageError::StalePlan`] when the live segments
/// are not the planned ones or a written id still in the memtable names
/// another melody (series, song or phrase). Otherwise the tombstones the
/// job did not purge stay, a written melody removed since the plan is
/// committed tombstoned, and the written melodies leave the memtable while
/// later inserts stay in it.
pub struct MaintenancePlan {
    dir: PathBuf,
    config: QbhConfig,
    metrics: MetricsSink,
    /// The id reserved for the segment this job writes.
    segment_id: u64,
    /// A flush's melodies, ascending by id (empty for a compaction).
    entries: Vec<SegmentEntry>,
    /// The live segments the job was planned over.
    live_segments: Vec<SegmentRef>,
    /// The live segments the new one replaces.
    replaced: Vec<Arc<LiveSegment>>,
    /// The tombstones whose entries the job leaves out.
    purged: BTreeSet<u64>,
}

impl MaintenancePlan {
    /// Phase 2: everything expensive — a compaction's reads of the files it
    /// replaces, and the segment file with its fsyncs, or no file when no
    /// entry is live. Touches no [`QbhSystem`] and builds no index. A
    /// failed build leaves nothing behind; a built job that is never
    /// committed leaves an orphan segment file that opening the store
    /// ignores.
    ///
    /// # Errors
    /// Every error of reading a replaced segment (a missing file or one
    /// that disagrees with the manifest is [`StorageError::Corrupt`] naming
    /// it), and any I/O or encoding failure writing the segment.
    pub fn build(self) -> Result<BuiltMaintenance, StorageError> {
        let merged;
        let entries = if self.replaced.is_empty() {
            &self.entries
        } else {
            merged = self.merge_replaced()?;
            &merged
        };
        let count = entries.len() as u64;
        let written = if entries.is_empty() {
            0
        } else {
            let saved = save_segment(&self.dir, self.segment_id, &self.config, entries);
            booked(&self.metrics, saved)?
        };
        Ok(BuiltMaintenance { plan: self, written, count })
    }

    /// A compaction's melodies: the entries of every replaced file but the
    /// purged ones, ascending by id.
    fn merge_replaced(&self) -> Result<Vec<SegmentEntry>, StorageError> {
        let mut entries = Vec::new();
        for segment in &self.replaced {
            let (read, _) = load_segment(&self.dir, &self.config, segment.at)?;
            entries.extend(read.into_iter().filter(|e| !self.purged.contains(&e.id)));
        }
        // One ascending run per file, which the stable sort merges; an id
        // in two files is refused as at open.
        entries.sort_by_key(|e| e.id);
        ascending(entries.iter().map(|e| e.id), "replaced segments' entry", StorageError::Corrupt)?;
        Ok(entries)
    }
}

/// Phase 2's result: a segment written but named by no manifest yet.
/// [`QbhSystem::commit_maintenance`] makes it live.
pub struct BuiltMaintenance {
    plan: MaintenancePlan,
    /// The size of the segment file the build wrote (none when nothing
    /// was live).
    written: u64,
    /// The melodies that file holds.
    count: u64,
}

/// What a commit released: the job's plan, with the segments it replaced
/// and a flush's copy of the memtable. Dropping this deletes the replaced
/// files that no other plan still reads (best-effort: a leftover is an
/// orphan that opening ignores) and frees the copy, which is why a server
/// drops it after releasing its lock.
pub struct RetiredSegments {
    /// Held only for what dropping it releases.
    _plan: MaintenancePlan,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries(config: &QbhConfig, count: usize) -> Vec<SegmentEntry> {
        (0..count)
            .map(|i| SegmentEntry {
                id: (i * 3 + 1) as u64,
                song: i / 4,
                phrase: i % 4,
                series: (0..config.normal_length)
                    .map(|t| ((t + i) as f64 * 0.31).sin())
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn segment_roundtrip_is_exact() {
        let config = QbhConfig::default();
        let entries = sample_entries(&config, 7);
        let mut image = Vec::new();
        write_segment(&mut image, &config, &entries).unwrap();
        let (back_config, back) = read_segment(&mut image.as_slice()).unwrap();
        assert_eq!(back_config, config);
        assert_eq!(back, entries);
    }

    #[test]
    fn manifest_roundtrip_is_exact() {
        let manifest = Manifest {
            config: QbhConfig::default(),
            segments: vec![SegmentRef { id: 1, count: 10 }, SegmentRef { id: 4, count: 2 }],
            tombstones: vec![3, 17, 29],
        };
        let mut image = Vec::new();
        write_manifest(&mut image, &manifest).unwrap();
        assert_eq!(read_manifest(&mut image.as_slice()).unwrap(), manifest);
    }

    #[test]
    fn unsorted_ids_are_rejected_on_write_and_read() {
        let config = QbhConfig::default();
        let mut entries = sample_entries(&config, 3);
        entries.swap(0, 2);
        let mut image = Vec::new();
        let err = write_segment(&mut image, &config, &entries).unwrap_err();
        assert!(matches!(err, StorageError::Unrepresentable(_)), "{err:?}");

        // The same entries framed by hand: every checksum is valid, so only
        // the reader's ordering check can catch them.
        let mut image = Vec::new();
        let mut dst = SectionWriter::new(&mut image);
        dst.put(MAGIC_SEG).unwrap();
        write_config_section(&mut dst, &config).unwrap();
        dst.begin_section();
        dst.put(&(entries.len() as u64).to_le_bytes()).unwrap();
        for entry in &entries {
            dst.put(&entry.id.to_le_bytes()).unwrap();
            dst.put(&[0u8; 8]).unwrap(); // song, phrase
            for sample in &entry.series {
                dst.put(&sample.to_le_bytes()).unwrap();
            }
        }
        dst.finish_section().unwrap();
        dst.finish_file().unwrap();
        let err = read_segment(&mut image.as_slice()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
    }
}
