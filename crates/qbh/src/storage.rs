//! The framing every on-disk format in this crate shares.
//!
//! A corpus reaches and leaves disk in exactly one form: the segmented
//! store (immutable segment files plus one manifest). [`crate::store`]
//! holds its two file formats and the one type that keeps a store — its
//! state, open, removal and maintenance — and [`crate::system`] delegates
//! to it. This module holds what both file formats are built from:
//!
//! * [`StorageError`] — the typed failure every reader and writer returns;
//! * the checksummed framing (`SectionWriter` / `SectionReader`): a
//!   file is a magic, then sections each followed by the CRC32 (IEEE) of
//!   its body, then a footer CRC32 of every preceding byte. Section CRCs
//!   localize corruption in error messages; the footer makes *any*
//!   single-bit corruption — including inside a section CRC — fail loudly
//!   instead of round-tripping different data. Trailing bytes after the
//!   footer are rejected;
//! * the configuration section codec with `validate_config`, which
//!   enforces every constraint engine construction would otherwise assert
//!   on, so an untrusted file can never turn into a panic after a
//!   successful read;
//! * the manifest's reserved plan section (`write_plan_section` /
//!   `skip_plan_section`);
//! * `atomic_write` — durable file replacement.
//!
//! # Durability
//!
//! `atomic_write` writes to a sibling temp file named with the pid *and*
//! a process-wide sequence number (so concurrent saves — even to the same
//! path — never share a temp file), flushes and `sync_all`s it, then
//! `rename`s it into place. A crash at any point leaves either the
//! previous complete file or the new one — never a torn file; an orphaned
//! temp from a crashed writer is ignored by readers and never adopted or
//! overwritten by later saves (each save owns a fresh name and cleans up
//! only its own temp on error).
//!
//! # Robustness
//!
//! Readers never trust header counts: preallocation is clamped to a small
//! constant and vectors grow only as entries actually parse, so a 50-byte
//! file claiming 100 million melodies cannot reserve gigabytes. Every
//! injected fault — short write, I/O error at byte N, bit flip, truncation —
//! surfaces as a typed [`StorageError`] (see `tests/storage_faults.rs` and
//! [`crate::fault`]); library code here never panics on untrusted input.

use std::io::{self, Read, Write};
use std::path::Path;

use crate::system::QbhConfig;

/// Serialized size of the fixed config section body.
pub(crate) const CONFIG_BODY_LEN: usize = 30;

/// The highest transform tag readers accept (see [`write_config_section`]).
const MAX_TRANSFORM_TAG: u8 = 3;

/// The index tag writers put (see [`write_config_section`]).
const LINEAR_INDEX_TAG: u8 = 2;

/// The fixed part of a legacy plan block after its presence byte, and the
/// size of one candidate row (see [`skip_plan_section`]).
const PLAN_HEADER_LEN: usize = 57;
const PLAN_CANDIDATE_LEN: usize = 37;

/// Hard cap on the candidate rows a legacy plan block may claim.
const MAX_PLAN_CANDIDATES: u32 = 1024;

/// The highest shard count readers accept (see [`write_config_section`]).
const MAX_SHARDS: u32 = 4096;

/// Hard cap on the melody count a file may claim.
pub(crate) const MAX_MELODIES: u64 = 100_000_000;

/// Upper bound on speculative preallocation from untrusted header counts.
/// Vectors grow past this only as entries actually parse.
pub(crate) const PREALLOC_CAP: usize = 1024;

/// Errors while reading or writing a store file (segment or manifest).
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (includes short writes and truncated reads).
    Io(io::Error),
    /// Not a file of the expected format.
    BadMagic,
    /// Structurally invalid content.
    Corrupt(String),
    /// A section or the whole-file footer failed its CRC32 check; the
    /// payload names the section ("config", "entries", "plan", "file", …).
    Checksum(&'static str),
    /// The in-memory corpus or configuration cannot be represented in the
    /// format (field overflows `u32`, ids out of order, non-finite sample,
    /// feature dims not dividing the normal length…). Returned by writers
    /// instead of silently truncating.
    Unrepresentable(String),
    /// A maintenance job was planned over a store that has changed since
    /// (another flush or compaction committed first); nothing was applied
    /// and planning again will succeed.
    StalePlan(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::BadMagic => write!(f, "not a hum store file (bad magic)"),
            StorageError::Corrupt(msg) => write!(f, "corrupt store file: {msg}"),
            StorageError::Checksum(section) => {
                write!(f, "corrupt store file: {section} checksum mismatch")
            }
            StorageError::Unrepresentable(msg) => {
                write!(f, "cannot persist: {msg}")
            }
            StorageError::StalePlan(msg) => write!(f, "stale maintenance plan: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, polynomial 0xEDB88320) — self-contained, table-driven.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Running CRC32 state.
#[derive(Clone, Copy)]
struct Crc32 {
    state: u32,
}

impl Crc32 {
    fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state ^ b as u32) & 0xFF) as usize;
            self.state = (self.state >> 8) ^ CRC32_TABLE[idx];
        }
    }

    fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC32 (IEEE) of a byte slice — the checksum every section and footer
/// uses. Public so tests and tools can recompute checksums when
/// crafting or repairing files.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

// ---------------------------------------------------------------------------
// Checksumming, byte-counting reader/writer adapters.

/// Write adapter tracking the whole-file CRC, the current section CRC, and
/// the byte count.
pub(crate) struct SectionWriter<'a, W: Write> {
    inner: &'a mut W,
    bytes: u64,
    file_crc: Crc32,
    section_crc: Crc32,
}

impl<'a, W: Write> SectionWriter<'a, W> {
    pub(crate) fn new(inner: &'a mut W) -> Self {
        SectionWriter { inner, bytes: 0, file_crc: Crc32::new(), section_crc: Crc32::new() }
    }

    /// Writes bytes that belong to the current section.
    pub(crate) fn put(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.write_all(bytes)?;
        self.bytes += bytes.len() as u64;
        self.file_crc.update(bytes);
        self.section_crc.update(bytes);
        Ok(())
    }

    /// Resets the section CRC for the next section.
    pub(crate) fn begin_section(&mut self) {
        self.section_crc = Crc32::new();
    }

    /// Writes the current section's CRC32 (covered by the file CRC but not
    /// by any section CRC) and resets the section state.
    pub(crate) fn finish_section(&mut self) -> Result<(), StorageError> {
        let sum = self.section_crc.finish().to_le_bytes();
        self.inner.write_all(&sum)?;
        self.bytes += sum.len() as u64;
        self.file_crc.update(&sum);
        self.section_crc = Crc32::new();
        Ok(())
    }

    /// Writes the whole-file footer CRC32 (checksums everything before it).
    pub(crate) fn finish_file(&mut self) -> Result<(), StorageError> {
        let sum = self.file_crc.finish().to_le_bytes();
        self.inner.write_all(&sum)?;
        self.bytes += sum.len() as u64;
        Ok(())
    }

    /// Total bytes written so far (including section and footer CRCs).
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Read adapter mirroring [`SectionWriter`].
pub(crate) struct SectionReader<'a, R: Read> {
    inner: &'a mut R,
    file_crc: Crc32,
    section_crc: Crc32,
}

impl<'a, R: Read> SectionReader<'a, R> {
    pub(crate) fn new(inner: &'a mut R) -> Self {
        SectionReader { inner, file_crc: Crc32::new(), section_crc: Crc32::new() }
    }

    /// Reads bytes that belong to the current section.
    pub(crate) fn take(&mut self, buf: &mut [u8]) -> Result<(), StorageError> {
        self.inner.read_exact(buf)?;
        self.file_crc.update(buf);
        self.section_crc.update(buf);
        Ok(())
    }

    pub(crate) fn begin_section(&mut self) {
        self.section_crc = Crc32::new();
    }

    /// Reads a stored section CRC32 and checks it against the bytes read
    /// since [`SectionReader::begin_section`].
    pub(crate) fn verify_section(&mut self, section: &'static str) -> Result<(), StorageError> {
        let expected = self.section_crc.finish();
        let mut buf = [0u8; 4];
        self.inner.read_exact(&mut buf)?;
        self.file_crc.update(&buf);
        self.section_crc = Crc32::new();
        if u32::from_le_bytes(buf) != expected {
            return Err(StorageError::Checksum(section));
        }
        Ok(())
    }

    /// Reads the whole-file footer CRC32, checks it, and rejects trailing
    /// bytes after it.
    pub(crate) fn verify_footer(&mut self) -> Result<(), StorageError> {
        let expected = self.file_crc.finish();
        let mut buf = [0u8; 4];
        self.inner.read_exact(&mut buf)?;
        if u32::from_le_bytes(buf) != expected {
            return Err(StorageError::Checksum("file"));
        }
        let mut probe = [0u8; 1];
        match self.inner.read_exact(&mut probe) {
            Ok(()) => Err(StorageError::Corrupt("trailing bytes after footer".into())),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(()),
            Err(e) => Err(StorageError::Io(e)),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StorageError> {
        let mut buf = [0u8; 4];
        self.take(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StorageError> {
        let mut buf = [0u8; 8];
        self.take(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, StorageError> {
        let mut buf = [0u8; 8];
        self.take(&mut buf)?;
        Ok(f64::from_le_bytes(buf))
    }
}

// ---------------------------------------------------------------------------
// Validation shared by readers and writers.

/// Checks that a configuration is structurally sound *and* buildable — every
/// constraint a [`crate::system::QbhSystem::build`] would otherwise assert on, so an
/// untrusted file can never turn into a panic after a successful load.
pub(crate) fn validate_config(config: &QbhConfig) -> Result<(), String> {
    if config.normal_length == 0 || config.feature_dims == 0 || config.samples_per_beat == 0 {
        return Err("zero-sized configuration field".into());
    }
    if config.page_bytes == 0 {
        return Err("zero page size".into());
    }
    if !(0.0..=1.0).contains(&config.warping_width) {
        return Err(format!("warping width {}", config.warping_width));
    }
    if config.normal_length > 1 << 20 {
        return Err(format!("implausible normal length {}", config.normal_length));
    }
    if config.samples_per_beat > 1 << 16 {
        return Err(format!("implausible samples per beat {}", config.samples_per_beat));
    }
    if config.page_bytes > 1 << 30 {
        return Err(format!("implausible page size {}", config.page_bytes));
    }
    if config.feature_dims > config.normal_length {
        return Err(format!(
            "feature dims {} exceed normal length {}",
            config.feature_dims, config.normal_length
        ));
    }
    if !config.normal_length.is_multiple_of(config.feature_dims) {
        return Err(format!(
            "PAA frame count {} must divide normal length {}",
            config.feature_dims, config.normal_length
        ));
    }
    Ok(())
}

pub(crate) fn as_u32(value: usize, what: &str) -> Result<u32, StorageError> {
    u32::try_from(value)
        .map_err(|_| StorageError::Unrepresentable(format!("{what} {value} overflows u32")))
}

/// Writes the checksummed configuration section every store file opens
/// with (after its magic):
///
/// ```text
/// [ normal_length u32, feature_dims u32, samples_per_beat u32 ]
/// [ warping_width f64, transform tag u8, index tag u8         ]
/// [ page_bytes u32, shard count u32                           ]
/// [ CRC32(section body)                               4 bytes ]
/// ```
///
/// Both tags and the shard count are reserved. Segments store normal forms,
/// and features and indexes are rebuilt from them at open, so none of them
/// ever described stored data:
///
/// * the transform tag once named the envelope transform (0 New_PAA,
///   1 Keogh_PAA, 2 DFT, 3 DWT). Writers put 0 and readers accept 0–3: a
///   store written under any of them opens as New_PAA with the same
///   matches. Tag 4 (SVD) no store could be created with, so it and
///   everything above it is [`StorageError::Corrupt`];
/// * the index tag once named the index (0 R\*-tree, 1 grid file, 2 linear
///   scan). Writers put 2 and readers accept 0–2;
/// * the shard count once split every storage unit into that many engines
///   by an id hash. Writers put 1 and readers accept 1–4096: a store
///   written at any shard count opens as one engine with the same matches.
///   0 and everything above 4096 is [`StorageError::Corrupt`].
///
/// # Errors
/// [`StorageError::Unrepresentable`] when the configuration fails
/// [`validate_config`] or a field overflows its on-disk width.
pub(crate) fn write_config_section<W: Write>(
    dst: &mut SectionWriter<'_, W>,
    config: &QbhConfig,
) -> Result<(), StorageError> {
    validate_config(config).map_err(StorageError::Unrepresentable)?;
    dst.begin_section();
    dst.put(&as_u32(config.normal_length, "normal length")?.to_le_bytes())?;
    dst.put(&as_u32(config.feature_dims, "feature dims")?.to_le_bytes())?;
    dst.put(&as_u32(config.samples_per_beat, "samples per beat")?.to_le_bytes())?;
    dst.put(&config.warping_width.to_le_bytes())?;
    dst.put(&[0, LINEAR_INDEX_TAG])?;
    dst.put(&as_u32(config.page_bytes, "page size")?.to_le_bytes())?;
    dst.put(&1u32.to_le_bytes())?;
    dst.finish_section()
}

/// Reads, checksums, and validates the configuration section (see
/// [`write_config_section`]).
pub(crate) fn read_config_section<R: Read>(
    src: &mut SectionReader<'_, R>,
) -> Result<QbhConfig, StorageError> {
    src.begin_section();
    let mut body = [0u8; CONFIG_BODY_LEN];
    src.take(&mut body)?;
    src.verify_section("config")?;
    let le_u32 = |at: usize| u32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
    let mut ww = [0u8; 8];
    ww.copy_from_slice(&body[12..20]);
    if body[20] > MAX_TRANSFORM_TAG {
        return Err(StorageError::Corrupt(format!("unknown transform tag {}", body[20])));
    }
    if body[21] > LINEAR_INDEX_TAG {
        return Err(StorageError::Corrupt(format!("unknown index tag {}", body[21])));
    }
    let shards = le_u32(26);
    if !(1..=MAX_SHARDS).contains(&shards) {
        return Err(StorageError::Corrupt(format!("implausible shard count {shards}")));
    }
    let config = QbhConfig {
        normal_length: le_u32(0) as usize,
        feature_dims: le_u32(4) as usize,
        samples_per_beat: le_u32(8) as usize,
        warping_width: f64::from_le_bytes(ww),
        page_bytes: le_u32(22) as usize,
    };
    validate_config(&config).map_err(StorageError::Corrupt)?;
    Ok(config)
}

/// Writes the checksummed plan section that closes a manifest: one
/// presence byte, always 0, then the section CRC. See
/// [`skip_plan_section`] for what readers accept.
pub(crate) fn write_plan_section<W: Write>(
    dst: &mut SectionWriter<'_, W>,
) -> Result<(), StorageError> {
    dst.begin_section();
    dst.put(&[0])?;
    dst.finish_section()
}

/// Reads the manifest's plan section and interprets none of it. Stores
/// once persisted build-time transform-planner evidence here:
///
/// ```text
/// [ present u8: 0 = no plan (section ends here), 1 = plan    ]
/// [ evidence header                                 57 bytes ]
/// [ candidate count u32, then 37 bytes per candidate         ]
/// [ CRC32(section body)                              4 bytes ]
/// ```
///
/// A presence byte of 1 is skipped by that fixed layout (the count is held
/// to the cap it always had) and checked only by the section CRC; any
/// other presence byte but 0 is [`StorageError::Corrupt`].
pub(crate) fn skip_plan_section<R: Read>(
    src: &mut SectionReader<'_, R>,
) -> Result<(), StorageError> {
    src.begin_section();
    let mut present = [0u8; 1];
    src.take(&mut present)?;
    match present[0] {
        0 => {}
        1 => {
            src.take(&mut [0u8; PLAN_HEADER_LEN])?;
            let count = src.u32()?;
            if count > MAX_PLAN_CANDIDATES {
                return Err(StorageError::Corrupt(format!(
                    "implausible plan candidate count {count}"
                )));
            }
            let mut row = [0u8; PLAN_CANDIDATE_LEN];
            for _ in 0..count {
                src.take(&mut row)?;
            }
        }
        other => return Err(StorageError::Corrupt(format!("unknown plan presence byte {other}"))),
    }
    src.verify_section("plan")
}

/// Process-wide sequence for temp-file names. The pid alone is *not*
/// collision-free: two concurrent saves to the same path from one process
/// (reachable through the server's live-mutation ops) would share a temp
/// file, interleave writes, and could rename torn bytes into place.
static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A temp path next to `path` that no other save — in this process or any
/// other live one — can be using: `<name>.tmp.<pid>.<seq>`.
pub(crate) fn unique_temp_path(path: &Path) -> Result<std::path::PathBuf, StorageError> {
    let file_name = path.file_name().ok_or_else(|| {
        StorageError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("save path {} has no file name", path.display()),
        ))
    })?;
    let seq = TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Ok(path.with_file_name(format!(
        "{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        seq
    )))
}

/// Durable atomic file replacement: `write` streams into a uniquely-named
/// temp file next to `path`, which is flushed, fsynced, and renamed into
/// place (the parent directory is synced best-effort). A crash at any
/// point leaves either the old or the new complete file, never a torn one.
/// On error only the temp file *this call created* is cleaned up — a
/// concurrent save's temp has a different sequence number and is never
/// touched.
pub(crate) fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> Result<u64, StorageError>,
) -> Result<u64, StorageError> {
    let tmp = unique_temp_path(path)?;
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut out = io::BufWriter::new(file);
        let bytes = write(&mut out)?;
        out.flush()?;
        let file = out.into_inner().map_err(|e| StorageError::Io(e.into_error()))?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable where the platform allows syncing
        // a directory handle; failure to do so is not an error we can act
        // on.
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(bytes)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    //! The framing has no format of its own, so these tests drive it through
    //! the two formats built from it: the segment and the manifest.

    use super::*;
    use crate::corpus::MelodyDatabase;
    use crate::fault::TempPath;
    use crate::store::{
        manifest_path, read_manifest, read_segment, save_manifest, save_segment, segment_path,
        write_manifest, write_segment, Manifest, SegmentEntry, SegmentRef, Store,
    };
    use crate::system::{QbhSystem, StoreOptions};
    use hum_core::engine::QueryRequest;
    use hum_core::obs::{Metric, MetricsSink};
    use hum_music::SongbookConfig;

    /// Byte offsets shared by both formats: magic, then the config section.
    const CONFIG_AT: usize = 8;
    const CONFIG_CRC_AT: usize = CONFIG_AT + CONFIG_BODY_LEN;
    /// Where the first count (entries / segments) sits.
    const COUNT_AT: usize = CONFIG_CRC_AT + 4;
    /// The reserved shard count inside the config section body.
    const SHARDS_AT: usize = CONFIG_AT + 26;

    fn sample() -> (QbhConfig, Vec<SegmentEntry>, Manifest) {
        let config = QbhConfig { warping_width: 0.07, ..QbhConfig::default() };
        let entries = (0..12usize)
            .map(|i| SegmentEntry {
                id: (i * 7 + 3) as u64,
                song: i / 3,
                phrase: i % 3,
                series: (0..config.normal_length)
                    .map(|t| 60.0 + ((t * (i + 1)) as f64 * 0.17).sin())
                    .collect(),
            })
            .collect();
        let manifest = Manifest {
            config,
            segments: vec![SegmentRef { id: 0, count: 12 }, SegmentRef { id: 3, count: 5 }],
            tombstones: vec![10, 24],
        };
        (config, entries, manifest)
    }

    fn segment_image(config: &QbhConfig, entries: &[SegmentEntry]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_segment(&mut bytes, config, entries).unwrap();
        bytes
    }

    /// The manifest file in `dir`, read back.
    fn load_manifest(dir: &Path) -> Result<Manifest, StorageError> {
        read_manifest(&mut std::fs::read(manifest_path(dir))?.as_slice())
    }

    fn manifest_image(manifest: &Manifest) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_manifest(&mut bytes, manifest).unwrap();
        bytes
    }

    /// Both images, each with a reader that forgets the parsed value.
    type Reader = fn(&mut &[u8]) -> Result<(), StorageError>;
    fn images() -> [(&'static str, Vec<u8>, Reader); 2] {
        let (config, entries, manifest) = sample();
        [
            ("segment", segment_image(&config, &entries), |b| read_segment(b).map(|_| ())),
            ("manifest", manifest_image(&manifest), |b| read_manifest(b).map(|_| ())),
        ]
    }

    /// Recomputes a patched image's config-section and footer CRCs, so
    /// only the structural checks stand between it and a load.
    fn reseal(bytes: &mut [u8]) {
        let len = bytes.len();
        let crc = crc32(&bytes[CONFIG_AT..CONFIG_CRC_AT]).to_le_bytes();
        bytes[CONFIG_CRC_AT..COUNT_AT].copy_from_slice(&crc);
        let crc = crc32(&bytes[..len - 4]).to_le_bytes();
        bytes[len - 4..].copy_from_slice(&crc);
    }

    /// A legacy plan block as stores created by the build-time transform
    /// planner carry it: presence 1, the 57-byte evidence header, then
    /// `count` 37-byte candidate rows, of which the first `rows` are written.
    fn legacy_plan_block(count: u32, rows: u32) -> Vec<u8> {
        let mut block = vec![1, 0]; // present; family New_PAA
        for field in [8u32, 128, 6] {
            block.extend(field.to_le_bytes()); // dims, input length, band
        }
        block.extend(0x5EED_u64.to_le_bytes());
        block.extend(64u32.to_le_bytes()); // sample size
        block.extend(4032u64.to_le_bytes()); // pairs
        for value in [0.45f64, 0.2, 0.4] {
            block.extend(value.to_le_bytes()); // tightness, ratio, score
        }
        assert_eq!(block.len(), 1 + PLAN_HEADER_LEN);
        block.extend(count.to_le_bytes());
        for row in 0..rows {
            block.push((row % 4) as u8);
            block.extend(8u32.to_le_bytes());
            for value in [0.45f64, 0.2, 0.1, 0.4] {
                block.extend(value.to_le_bytes());
            }
        }
        block
    }

    /// `manifest` with its plan section replaced by `block`, the section CRC
    /// and the footer resealed.
    fn with_plan_section(manifest: &[u8], block: &[u8]) -> Vec<u8> {
        // The plan section a current writer puts is 1 byte + its CRC, then
        // the footer.
        let mut bytes = manifest[..manifest.len() - 9].to_vec();
        bytes.extend(block);
        bytes.extend(crc32(block).to_le_bytes());
        bytes.extend(crc32(&bytes).to_le_bytes());
        bytes
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (config, entries, manifest) = sample();
        let (back_config, back) =
            read_segment(&mut segment_image(&config, &entries).as_slice()).unwrap();
        assert_eq!(back_config, config);
        assert_eq!(back, entries);
        assert_eq!(read_manifest(&mut manifest_image(&manifest).as_slice()).unwrap(), manifest);
        // The reserved bytes as writers put them: transform tag 0, index
        // tag 2, shard count 1, and a plan section of one 0 byte before its
        // CRC and the footer.
        for (name, image, _) in images() {
            assert_eq!(image[CONFIG_AT + 20..CONFIG_AT + 22], [0, LINEAR_INDEX_TAG], "{name}");
            assert_eq!(image[SHARDS_AT..CONFIG_CRC_AT], 1u32.to_le_bytes(), "{name}");
        }
        let image = manifest_image(&manifest);
        assert_eq!(image[image.len() - 9], 0);
    }

    #[test]
    fn file_roundtrip() {
        let (config, entries, manifest) = sample();
        let dir = TempPath::unique("storage-roundtrip");
        std::fs::create_dir_all(dir.path()).unwrap();
        save_segment(dir.path(), 4, &config, &entries).unwrap();
        save_manifest(dir.path(), &manifest).unwrap();
        let segment = std::fs::read(segment_path(dir.path(), 4)).unwrap();
        assert_eq!(read_segment(&mut segment.as_slice()).unwrap(), (config, entries));
        assert_eq!(load_manifest(dir.path()).unwrap(), manifest);
    }

    #[test]
    fn save_is_atomic_over_an_existing_snapshot() {
        let (_, _, manifest) = sample();
        let dir = TempPath::unique("storage-atomic");
        std::fs::create_dir_all(dir.path()).unwrap();
        save_manifest(dir.path(), &manifest).unwrap();

        // A manifest the writer must reject (tombstones out of order) leaves
        // the previous one untouched and no temp file behind.
        let bad = Manifest { tombstones: vec![9, 2], ..manifest.clone() };
        let err = save_manifest(dir.path(), &bad).unwrap_err();
        assert!(matches!(err, StorageError::Unrepresentable(_)), "{err}");
        assert_eq!(load_manifest(dir.path()).unwrap(), manifest);
        let files = std::fs::read_dir(dir.path()).unwrap().count();
        assert_eq!(files, 1, "temp files must be cleaned up after a failed save");
    }

    #[test]
    fn bad_magic_rejected() {
        for (name, image, read) in images() {
            let err = read(&mut &b"NOTASTORE....."[..]).unwrap_err();
            assert!(matches!(err, StorageError::BadMagic), "{name}: {err}");
            // The other format's image is foreign too.
            let mut swapped = image.clone();
            swapped[..8].copy_from_slice(if name == "segment" { b"HUMMAN01" } else { b"HUMSEG01" });
            let err = read(&mut swapped.as_slice()).unwrap_err();
            assert!(matches!(err, StorageError::BadMagic), "{name}: {err}");
        }
    }

    #[test]
    fn truncation_rejected_at_every_prefix() {
        for (name, image, read) in images() {
            // Every strict prefix must fail cleanly (never panic, never succeed).
            for cut in [0, 4, 8, 12, 30, 42, image.len() / 2, image.len() - 1] {
                assert!(read(&mut &image[..cut]).is_err(), "{name}: prefix of {cut} bytes parsed");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        for (name, mut image, read) in images() {
            image.push(0);
            let err = read(&mut image.as_slice()).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{name}: {err}");
        }
    }

    #[test]
    fn corrupt_tags_and_notes_rejected() {
        // The transform/index tags live at offsets 28/29 and the shard count
        // at 34 (inside the config section body); every transform tag past 3
        // (4 was SVD), every index tag past 2 and a shard count of 0 or past
        // 4096 is foreign. A bare patch trips the section checksum; with the
        // section CRC recomputed, the typed tag error surfaces instead
        // (config is parsed before the footer).
        for (name, image, read) in images() {
            let byte = |at: usize, tag: u8| (at, vec![tag]);
            let transform_tags = (4..=u8::MAX).map(|tag| byte(CONFIG_AT + 20, tag));
            let index_tags = (LINEAR_INDEX_TAG + 1..=u8::MAX).map(|tag| byte(CONFIG_AT + 21, tag));
            let shards = [0u32, 4097].map(|n| (SHARDS_AT, n.to_le_bytes().to_vec()));
            for (tag_at, tag) in transform_tags.chain(index_tags).chain(shards) {
                let mut bad = image.clone();
                bad[tag_at..tag_at + tag.len()].copy_from_slice(&tag);
                let err = read(&mut bad.as_slice()).unwrap_err();
                assert!(matches!(err, StorageError::Checksum("config")), "{name}: {err}");
                let crc = crc32(&bad[CONFIG_AT..CONFIG_CRC_AT]).to_le_bytes();
                bad[CONFIG_CRC_AT..COUNT_AT].copy_from_slice(&crc);
                let err = read(&mut bad.as_slice()).unwrap_err();
                assert!(matches!(err, StorageError::Corrupt(_)), "{name}, tag {tag:?}: {err}");
            }
        }
        // A non-finite sample behind valid checksums: only the per-sample
        // check can catch it. The first entry's series starts after the
        // count (8) and its id/song/phrase header (16).
        let (config, entries, _) = sample();
        let mut bad = segment_image(&config, &entries);
        let sample_at = COUNT_AT + 8 + 16;
        bad[sample_at..sample_at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let len = bad.len();
        let crc = crc32(&bad[COUNT_AT..len - 8]).to_le_bytes();
        bad[len - 8..len - 4].copy_from_slice(&crc);
        reseal(&mut bad);
        let err = read_segment(&mut bad.as_slice()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");

        // The manifest's plan section behind valid checksums: a legacy
        // block claiming more rows than the cap, one cut short, and a
        // presence byte no writer ever put.
        let (_, _, manifest) = sample();
        let image = manifest_image(&manifest);
        let over_cap = with_plan_section(&image, &legacy_plan_block(MAX_PLAN_CANDIDATES + 1, 0));
        let err = read_manifest(&mut over_cap.as_slice()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        let truncated = with_plan_section(&image, &legacy_plan_block(2, 1));
        let err = read_manifest(&mut truncated.as_slice()).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err}");
        let unknown = with_plan_section(&image, &[2]);
        let err = read_manifest(&mut unknown.as_slice()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        // The legacy block itself is skipped, and the manifest reads back.
        let legacy = with_plan_section(&image, &legacy_plan_block(3, 3));
        assert_eq!(read_manifest(&mut legacy.as_slice()).unwrap(), manifest);
    }

    #[test]
    fn checksum_catches_a_flipped_payload_byte() {
        for (name, image, read) in images() {
            let mut bad = image.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x01;
            assert!(read(&mut bad.as_slice()).is_err(), "{name}: flipped byte {mid} parsed");
        }
    }

    #[test]
    fn lying_header_count_is_rejected_without_preallocating() {
        for (name, image, read) in images() {
            // Patch the count to claim a million entries, then truncate right
            // after it: the reader must fail with a typed error instead of
            // reserving memory for entries that never arrive.
            let mut lying = image[..COUNT_AT + 8].to_vec();
            lying[COUNT_AT..].copy_from_slice(&1_000_000u64.to_le_bytes());
            let err = read(&mut lying.as_slice()).unwrap_err();
            assert!(matches!(err, StorageError::Io(_)), "{name}: {err}");
            // And a count over the cap is rejected before any entry is read.
            lying[COUNT_AT..].copy_from_slice(&u64::MAX.to_le_bytes());
            let err = read(&mut lying.as_slice()).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{name}: {err}");
        }
    }

    #[test]
    fn write_overflow_is_an_error_not_a_truncation() {
        let (config, entries, _) = sample();
        let overflow = u32::MAX as usize + 1;
        for bad in [
            SegmentEntry { song: overflow, ..entries[0].clone() },
            SegmentEntry { phrase: overflow, ..entries[0].clone() },
        ] {
            let err = write_segment(&mut Vec::new(), &config, &[bad]).unwrap_err();
            assert!(matches!(err, StorageError::Unrepresentable(_)), "{err}");
        }
        let bad_config = QbhConfig { samples_per_beat: overflow, ..config };
        let err = write_segment(&mut Vec::new(), &bad_config, &[]).unwrap_err();
        assert!(matches!(err, StorageError::Unrepresentable(_)), "{err}");
    }

    #[test]
    fn unbuildable_configs_rejected_at_read() {
        // PAA dims that do not divide the normal length would panic inside
        // engine construction; writer and reader must both reject them.
        let bad = QbhConfig { normal_length: 100, feature_dims: 7, ..QbhConfig::default() };
        let err = write_segment(&mut Vec::new(), &bad, &[]).unwrap_err();
        assert!(matches!(err, StorageError::Unrepresentable(_)), "{err}");
        // Craft the same config through the byte layout to hit the reader.
        let (config, _, _) = sample();
        let mut bytes = segment_image(&config, &[]);
        bytes[CONFIG_AT..CONFIG_AT + 4].copy_from_slice(&100u32.to_le_bytes()); // normal_length
        bytes[CONFIG_AT + 4..CONFIG_AT + 8].copy_from_slice(&7u32.to_le_bytes()); // feature_dims
        reseal(&mut bytes);
        let err = read_segment(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    /// A small database ingested into a fresh store at `dir` in two segments.
    fn ingest(dir: &Path, metrics: &MetricsSink) -> (MelodyDatabase, QbhSystem) {
        let db = MelodyDatabase::from_songbook(&SongbookConfig {
            songs: 4,
            phrases_per_song: 3,
            ..SongbookConfig::default()
        });
        let options = StoreOptions { memtable_capacity: 6, ..StoreOptions::default() };
        Store::create(dir, &QbhConfig::default(), options).unwrap();
        let mut system = QbhSystem::try_open_store_with(dir, options, metrics).unwrap();
        system.try_ingest(&db).unwrap();
        (db, system)
    }

    #[test]
    fn metrics_record_save_and_load_outcomes() {
        let sink = MetricsSink::enabled();
        let dir = TempPath::unique("storage-metrics");
        let (_, system) = ingest(dir.path(), &sink);
        let written = system.store_stats().unwrap().bytes_written;
        drop(system);
        QbhSystem::try_open_store_with(dir.path(), StoreOptions::default(), &sink).unwrap();
        let missing = TempPath::unique("storage-missing");
        assert!(
            QbhSystem::try_open_store_with(missing.path(), StoreOptions::default(), &sink).is_err()
        );
        // A flush that cannot reach its directory is a booked save error.
        let doomed = TempPath::unique("storage-doomed");
        let (_, mut system) = ingest(doomed.path(), &sink);
        std::fs::remove_dir_all(doomed.path()).unwrap();
        system.try_insert_melody(9_000, 0, 0, &[60.0, 62.0, 64.0]).unwrap();
        assert!(matches!(system.flush(), Err(StorageError::Io(_))));
        let written = written + system.store_stats().unwrap().bytes_written;
        let reg = sink.registry().unwrap();
        assert_eq!(reg.get(Metric::StorageSaves), 4, "one per successful flush");
        assert_eq!(reg.get(Metric::StorageSaveErrors), 1);
        // Each create opens the empty store it initialized; then the reopen.
        assert_eq!(reg.get(Metric::StorageLoads), 3);
        assert_eq!(reg.get(Metric::StorageLoadErrors), 1);
        assert_eq!(reg.get(Metric::StorageBytesWritten), written);
    }

    /// Every answer `system` gives to `queries`, as (id, distance bits).
    fn answers(system: &QbhSystem, queries: &[Vec<f64>]) -> Vec<Vec<(u64, u64)>> {
        queries
            .iter()
            .map(|q| {
                let request = QueryRequest::knn(4).with_band(system.band());
                let matches = system.try_query_request(q, request).unwrap().0.matches;
                matches.iter().map(|m| (m.id, m.distance.to_bits())).collect()
            })
            .collect()
    }

    #[test]
    fn loaded_database_builds_an_equivalent_system() {
        // Under every transform tag (0 New_PAA, 1 Keogh_PAA, 2 DFT, 3 DWT),
        // index tag (0 R*-tree, 1 grid file, 2 flat sweep) and shard count
        // (2, 4, 4096) a store was written with, and under a manifest
        // carrying build-time planner evidence: features and indexes are
        // rebuilt at open, into one engine, so all answer like an
        // in-memory build. Each then takes a flush (current-writer segment
        // and manifest over the old-field segments) and reopens.
        let dir = TempPath::unique("storage-equivalent");
        let (db, system) = ingest(dir.path(), &MetricsSink::Disabled);
        drop(system);
        let mut original = QbhSystem::build(&db, &QbhConfig::default());
        let mut queries: Vec<Vec<f64>> =
            [1, 5, 10].iter().map(|&id| db.entry(id).unwrap().melody().to_time_series(4)).collect();
        let index_tags = (0..=LINEAR_INDEX_TAG).map(|tag| (CONFIG_AT + 21, vec![tag]));
        let transform_tags = (0..=3).map(|tag| (CONFIG_AT + 20, vec![tag]));
        let shards = [2u32, 4, 4096].map(|n| (SHARDS_AT, n.to_le_bytes().to_vec()));
        let rewrites: Vec<Option<(usize, Vec<u8>)>> =
            index_tags.chain(transform_tags).chain(shards).map(Some).chain([None]).collect();
        for (round, rewrite) in rewrites.into_iter().enumerate() {
            let manifest = manifest_path(dir.path());
            match &rewrite {
                Some((field_at, field)) => {
                    let segments = load_manifest(dir.path()).unwrap().segments;
                    let files = segments.iter().map(|s| segment_path(dir.path(), s.id));
                    for file in files.chain([manifest]) {
                        let mut bytes = std::fs::read(&file).unwrap();
                        bytes[*field_at..field_at + field.len()].copy_from_slice(field);
                        reseal(&mut bytes);
                        std::fs::write(&file, bytes).unwrap();
                    }
                }
                None => {
                    let bytes = std::fs::read(&manifest).unwrap();
                    let legacy = with_plan_section(&bytes, &legacy_plan_block(12, 12));
                    std::fs::write(&manifest, legacy).unwrap();
                }
            }
            let mut restored = QbhSystem::try_open_store(dir.path()).unwrap();
            let want = answers(&original, &queries);
            assert_eq!(answers(&restored, &queries), want, "{rewrite:?}");

            let id = 1_000 + round as u64;
            let series: Vec<f64> =
                (0..40).map(|t| 62.0 + 3.0 * ((t * (round + 2)) as f64 * 0.3).sin()).collect();
            original.try_insert_melody(id, 0, 0, &series).unwrap();
            restored.try_insert_melody(id, 0, 0, &series).unwrap();
            assert!(restored.flush().unwrap());
            drop(restored);
            queries.push(series);
            let reopened = QbhSystem::try_open_store(dir.path()).unwrap();
            let want = answers(&original, &queries);
            assert_eq!(answers(&reopened, &queries), want, "{rewrite:?}, after a flush");
        }
    }
}
