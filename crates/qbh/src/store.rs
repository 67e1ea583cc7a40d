//! The one on-disk form of an indexed corpus: the LSM-style store.
//!
//! A store directory holds:
//!
//! * **Segment files** (`seg-<id>.humseg`, format `HUMSEG01`) — immutable,
//!   checksummed batches of *normal-form* melodies flushed from the
//!   memtable. Segments persist the normalized series, not notes: live
//!   inserts arrive as pitch series with no note representation, and
//!   storing the exact `f64` bits is what keeps a reloaded store
//!   bit-identical to the memtable it was flushed from.
//! * **One manifest** (`MANIFEST`, format `HUMMAN01`) — the authoritative,
//!   atomically-replaced list of live segments and tombstoned melody ids.
//!   A segment file not named by the manifest does not exist as far as the
//!   store is concerned (it is a crash leftover and is ignored), so every
//!   multi-file state change reduces to one atomic manifest rename.
//!
//! Both formats are built from the framing in [`crate::storage`]:
//! per-section CRC32s plus a whole-file footer CRC, bounded reads, and
//! typed [`StorageError`]s — untrusted bytes can never panic this module.
//!
//! # File formats
//!
//! ```text
//! HUMSEG01:                              HUMMAN01:
//! [ magic "HUMSEG01"          8 bytes ]  [ magic "HUMMAN01"          8 bytes ]
//! [ config body              30 bytes ]  [ config body              30 bytes ]
//! [ CRC32(config)             4 bytes ]  [ CRC32(config)             4 bytes ]
//! [ entries: count u64,               ]  [ segments: count u64,              ]
//! [   id u64, song u32, phrase u32,   ]  [   (id u64, melodies u64)…         ]
//! [   series normal_length × f64 …    ]  [ CRC32(segments)           4 bytes ]
//! [ CRC32(entries)            4 bytes ]  [ tombstones: count u64, id u64…    ]
//! [ CRC32(file)               4 bytes ]  [ CRC32(tombstones)         4 bytes ]
//!                                        [ plan: present u8 (reserved, 0)    ]
//!                                        [ CRC32(plan)               4 bytes ]
//!                                        [ CRC32(file)               4 bytes ]
//! ```
//!
//! Entry ids within a segment, segment ids within the manifest, and
//! tombstone ids are all strictly ascending — duplicates are structural
//! corruption, caught at read time.
//!
//! The config body's transform and index tags and the manifest's plan
//! section are reserved bytes that writers fill with fixed values: every
//! store indexes its normal forms with New_PAA over the flat feature sweep,
//! rebuilt at open. Readers still accept what older writers put there (see
//! [`crate::storage`]), so a store from any earlier writer opens and
//! answers the same.
//!
//! # Load-time validation
//!
//! [`open_store`] cross-validates the manifest against the segments it
//! names: out-of-order or duplicate segment ids, a missing segment file, a
//! segment whose config or entry count disagrees with the manifest, melody
//! ids overlapping across segments, and tombstones that reference no
//! stored melody are all typed [`StorageError::Corrupt`] — never a panic,
//! never a silent skip.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::storage::{
    as_u32, atomic_write, read_config_section, skip_plan_section, validate_config,
    write_config_section, write_plan_section, SectionReader, SectionWriter, StorageError,
    MAX_MELODIES, PREALLOC_CAP,
};
use crate::system::QbhConfig;

/// Segment file magic (8 bytes).
const MAGIC_SEG: &[u8; 8] = b"HUMSEG01";

/// Manifest file magic (8 bytes).
const MAGIC_MAN: &[u8; 8] = b"HUMMAN01";

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

/// The file name of segment `id` inside a store directory.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:08}.humseg")
}

/// The path of segment `id` inside `dir`.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(segment_file_name(id))
}

/// The manifest path inside `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
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
    let mut dst = SectionWriter::new(out);
    dst.put(MAGIC_SEG)?;
    write_config_section(&mut dst, config)?;

    dst.begin_section();
    dst.put(&(entries.len() as u64).to_le_bytes())?;
    let mut previous: Option<u64> = None;
    for entry in entries {
        if previous.is_some_and(|p| p >= entry.id) {
            return Err(StorageError::Unrepresentable(format!(
                "segment entry ids must be strictly ascending (id {})",
                entry.id
            )));
        }
        previous = Some(entry.id);
        if entry.series.len() != config.normal_length {
            return Err(StorageError::Unrepresentable(format!(
                "melody {} has {} samples, expected normal length {}",
                entry.id,
                entry.series.len(),
                config.normal_length
            )));
        }
        dst.put(&entry.id.to_le_bytes())?;
        dst.put(&as_u32(entry.song, "song index")?.to_le_bytes())?;
        dst.put(&as_u32(entry.phrase, "phrase index")?.to_le_bytes())?;
        for &sample in &entry.series {
            if !sample.is_finite() {
                return Err(StorageError::Unrepresentable(format!(
                    "melody {} holds a non-finite sample",
                    entry.id
                )));
            }
            dst.put(&sample.to_le_bytes())?;
        }
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
/// for corrupted sections, [`StorageError::Corrupt`] for structural
/// violations (ids out of order, non-finite samples, implausible counts),
/// and [`StorageError::Io`] for truncation or read failures.
pub fn read_segment<R: Read>(
    input: &mut R,
) -> Result<(QbhConfig, Vec<SegmentEntry>), StorageError> {
    let mut src = SectionReader::new(input);
    let mut magic = [0u8; 8];
    src.take(&mut magic)?;
    if &magic != MAGIC_SEG {
        return Err(StorageError::BadMagic);
    }
    let config = read_config_section(&mut src)?;

    src.begin_section();
    let count = src.u64()?;
    if count > MAX_MELODIES {
        return Err(StorageError::Corrupt(format!("implausible melody count {count}")));
    }
    let mut entries = Vec::with_capacity((count as usize).min(PREALLOC_CAP));
    let mut previous: Option<u64> = None;
    for _ in 0..count {
        let id = src.u64()?;
        if previous.is_some_and(|p| p >= id) {
            return Err(StorageError::Corrupt(format!(
                "segment entry ids are not strictly ascending (id {id})"
            )));
        }
        previous = Some(id);
        let song = src.u32()? as usize;
        let phrase = src.u32()? as usize;
        let mut series = Vec::with_capacity(config.normal_length);
        for _ in 0..config.normal_length {
            let sample = src.f64()?;
            if !sample.is_finite() {
                return Err(StorageError::Corrupt(format!(
                    "melody {id} holds a non-finite sample"
                )));
            }
            series.push(sample);
        }
        entries.push(SegmentEntry { id, song, phrase, series });
    }
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
    let mut dst = SectionWriter::new(out);
    dst.put(MAGIC_MAN)?;
    write_config_section(&mut dst, &manifest.config)?;

    dst.begin_section();
    dst.put(&(manifest.segments.len() as u64).to_le_bytes())?;
    let mut previous: Option<u64> = None;
    for segment in &manifest.segments {
        if previous.is_some_and(|p| p >= segment.id) {
            return Err(StorageError::Unrepresentable(format!(
                "manifest segment ids must be strictly ascending (id {})",
                segment.id
            )));
        }
        previous = Some(segment.id);
        dst.put(&segment.id.to_le_bytes())?;
        dst.put(&segment.count.to_le_bytes())?;
    }
    dst.finish_section()?;

    dst.begin_section();
    dst.put(&(manifest.tombstones.len() as u64).to_le_bytes())?;
    let mut previous: Option<u64> = None;
    for &id in &manifest.tombstones {
        if previous.is_some_and(|p| p >= id) {
            return Err(StorageError::Unrepresentable(format!(
                "tombstone ids must be strictly ascending (id {id})"
            )));
        }
        previous = Some(id);
        dst.put(&id.to_le_bytes())?;
    }
    dst.finish_section()?;
    write_plan_section(&mut dst)?;
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
    let mut magic = [0u8; 8];
    src.take(&mut magic)?;
    if &magic != MAGIC_MAN {
        return Err(StorageError::BadMagic);
    }
    let config = read_config_section(&mut src)?;

    src.begin_section();
    let segment_count = src.u64()?;
    if segment_count > MAX_SEGMENTS {
        return Err(StorageError::Corrupt(format!(
            "implausible segment count {segment_count}"
        )));
    }
    let mut segments = Vec::with_capacity((segment_count as usize).min(PREALLOC_CAP));
    let mut previous: Option<u64> = None;
    let mut total_melodies: u64 = 0;
    for _ in 0..segment_count {
        let id = src.u64()?;
        if previous.is_some_and(|p| p >= id) {
            return Err(StorageError::Corrupt(format!(
                "manifest segment ids are not strictly ascending (id {id})"
            )));
        }
        previous = Some(id);
        let count = src.u64()?;
        total_melodies = total_melodies.saturating_add(count);
        if total_melodies > MAX_MELODIES {
            return Err(StorageError::Corrupt(format!(
                "implausible melody count {total_melodies}"
            )));
        }
        segments.push(SegmentRef { id, count });
    }
    src.verify_section("segments")?;

    src.begin_section();
    let tombstone_count = src.u64()?;
    if tombstone_count > MAX_MELODIES {
        return Err(StorageError::Corrupt(format!(
            "implausible tombstone count {tombstone_count}"
        )));
    }
    let mut tombstones = Vec::with_capacity((tombstone_count as usize).min(PREALLOC_CAP));
    let mut previous: Option<u64> = None;
    for _ in 0..tombstone_count {
        let id = src.u64()?;
        if previous.is_some_and(|p| p >= id) {
            return Err(StorageError::Corrupt(format!(
                "tombstone ids are not strictly ascending (id {id})"
            )));
        }
        previous = Some(id);
        tombstones.push(id);
    }
    src.verify_section("tombstones")?;
    skip_plan_section(&mut src)?;
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

/// Loads and validates one segment file.
///
/// # Errors
/// As [`read_segment`].
pub fn load_segment(path: &Path) -> Result<(QbhConfig, Vec<SegmentEntry>), StorageError> {
    load_counted(path, read_segment).map(|(segment, _)| segment)
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

/// Atomically replaces the manifest in `dir`. This is the store's commit
/// point: every flush, removal, and compaction becomes visible (and
/// crash-durable) exactly when this rename lands.
///
/// # Errors
/// As [`write_manifest`].
pub fn save_manifest(dir: &Path, manifest: &Manifest) -> Result<u64, StorageError> {
    atomic_write(&manifest_path(dir), |out| write_manifest(out, manifest))
}

/// Loads and validates the manifest file itself (not the segments it
/// names — [`open_store`] does the cross-file validation).
///
/// # Errors
/// As [`read_manifest`].
pub fn load_manifest(path: &Path) -> Result<Manifest, StorageError> {
    load_counted(path, read_manifest).map(|(manifest, _)| manifest)
}

/// Creates a new empty store: the directory (if missing) and an initial
/// manifest with no segments and no tombstones.
///
/// # Errors
/// [`StorageError::Io`] with [`io::ErrorKind::AlreadyExists`] when `dir`
/// already holds a manifest (an existing store is opened, never silently
/// re-initialized), plus any validation or I/O error.
pub fn init_store(dir: &Path, config: &QbhConfig) -> Result<(), StorageError> {
    validate_config(config).map_err(StorageError::Unrepresentable)?;
    std::fs::create_dir_all(dir)?;
    let manifest_file = manifest_path(dir);
    if manifest_file.exists() {
        return Err(StorageError::Io(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("store at {} already has a manifest", dir.display()),
        )));
    }
    let manifest = Manifest { config: *config, segments: Vec::new(), tombstones: Vec::new() };
    save_manifest(dir, &manifest)?;
    Ok(())
}

/// Everything [`open_store`] read and cross-validated: the manifest plus
/// each live segment's entries, in manifest (ascending id) order.
#[derive(Debug)]
pub struct LoadedStore {
    /// The validated manifest.
    pub manifest: Manifest,
    /// Per-segment entries, parallel to `manifest.segments`. Tombstoned
    /// entries are *included* (the caller skips them when building
    /// engines); their ids are in `manifest.tombstones`.
    pub segments: Vec<Vec<SegmentEntry>>,
    /// Bytes read from disk: the manifest plus every segment it names.
    pub bytes_read: u64,
}

/// Opens a store directory: loads the manifest, loads every segment it
/// names, and cross-validates the whole set. Orphan files in the directory
/// (crash leftovers from interrupted flushes or compactions) are ignored.
///
/// # Errors
/// [`StorageError::Corrupt`] for: a manifest-named segment file that is
/// missing; a segment whose config or entry count disagrees with the
/// manifest; melody ids overlapping across segments; tombstones that
/// reference no stored melody. Plus every per-file error of
/// [`load_manifest`] / [`load_segment`].
pub fn open_store(dir: &Path) -> Result<LoadedStore, StorageError> {
    let (manifest, mut bytes_read) = load_counted(&manifest_path(dir), read_manifest)?;
    let mut segments = Vec::with_capacity(manifest.segments.len());
    let mut seen_ids: BTreeSet<u64> = BTreeSet::new();
    for segment_ref in &manifest.segments {
        let path = segment_path(dir, segment_ref.id);
        let (config, entries) = match load_counted(&path, read_segment) {
            Ok((segment, len)) => {
                bytes_read += len;
                segment
            }
            Err(StorageError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                return Err(StorageError::Corrupt(format!(
                    "manifest names segment {} but {} is missing",
                    segment_ref.id,
                    path.display()
                )));
            }
            Err(other) => return Err(other),
        };
        if config != manifest.config {
            return Err(StorageError::Corrupt(format!(
                "segment {} config disagrees with the manifest",
                segment_ref.id
            )));
        }
        if entries.len() as u64 != segment_ref.count {
            return Err(StorageError::Corrupt(format!(
                "segment {} holds {} melodies, manifest says {}",
                segment_ref.id,
                entries.len(),
                segment_ref.count
            )));
        }
        for entry in &entries {
            if !seen_ids.insert(entry.id) {
                return Err(StorageError::Corrupt(format!(
                    "melody id {} appears in more than one segment",
                    entry.id
                )));
            }
        }
        segments.push(entries);
    }
    for &tombstone in &manifest.tombstones {
        if !seen_ids.contains(&tombstone) {
            return Err(StorageError::Corrupt(format!(
                "dangling tombstone: id {tombstone} is stored in no segment"
            )));
        }
    }
    Ok(LoadedStore { manifest, segments, bytes_read })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::QbhConfig;

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
