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
//! * the magic check (`read_magic`), which tells a file of the one format
//!   generation this build reads from an older one (a typed
//!   [`StorageError::Corrupt`] that says to re-ingest) and from a foreign
//!   one ([`StorageError::BadMagic`]);
//! * the configuration section codec with `validate_config`, which
//!   enforces every constraint engine construction would otherwise assert
//!   on, so an untrusted file can never turn into a panic after a
//!   successful read. It holds only what describes stored data; nothing in
//!   either format is reserved;
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
    /// payload names the section ("config", "entries", "file", …).
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
// CRC32 (IEEE 802.3, polynomial 0xEDB88320) — self-contained, sliced by 8:
// `T[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
// input bytes fold into the state with eight independent lookups.

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        tables[k][b] = if k == 0 {
            let mut crc = b as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                bit += 1;
            }
            crc
        } else {
            let prev = tables[k - 1][b];
            (prev >> 8) ^ tables[0][(prev & 0xFF) as usize]
        };
        i += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

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
        let t = &CRC32_TABLES;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
            let word = word ^ self.state as u64;
            self.state = (0..8).fold(0, |crc, k| crc ^ t[7 - k][(word >> (8 * k)) as u8 as usize]);
        }
        for &b in words.remainder() {
            self.state = (self.state >> 8) ^ t[0][(self.state as u8 ^ b) as usize];
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
/// untrusted file can never turn into a panic after a successful load — and
/// that the format can hold it: a store records no page size, so only the
/// default one is storable.
pub(crate) fn validate_config(config: &QbhConfig) -> Result<(), String> {
    if config.normal_length == 0 || config.feature_dims == 0 || config.samples_per_beat == 0 {
        return Err("zero-sized configuration field".into());
    }
    let stored_page_bytes = QbhConfig::default().page_bytes;
    if config.page_bytes != stored_page_bytes {
        return Err(format!(
            "page size {} is not stored; a store indexes at {stored_page_bytes}",
            config.page_bytes
        ));
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

/// How a store of an older format generation is replaced.
const REINGEST: &str = "re-ingest the corpus with `qbh index`";

/// Reads a file's magic: `magic` is accepted; the same file kind's older
/// format generation (`HUMSEG01` for `HUMSEG02`) is
/// [`StorageError::Corrupt`] naming it and saying how to replace the
/// store; anything else is [`StorageError::BadMagic`].
pub(crate) fn read_magic<R: Read>(
    src: &mut SectionReader<'_, R>,
    magic: &[u8; 8],
) -> Result<(), StorageError> {
    let mut found = [0u8; 8];
    src.take(&mut found)?;
    if found == *magic {
        Ok(())
    } else if found[..6] == magic[..6] && found[6..] < magic[6..] {
        Err(StorageError::Corrupt(format!(
            "{} is an older store format generation than {}; {REINGEST}",
            String::from_utf8_lossy(&found),
            String::from_utf8_lossy(magic)
        )))
    } else {
        Err(StorageError::BadMagic)
    }
}

impl StorageError {
    /// `true` for a file of an older format generation (see
    /// `read_magic`): not damaged, only unreadable by this build.
    pub fn is_older_generation(&self) -> bool {
        matches!(self, StorageError::Corrupt(msg) if msg.ends_with(REINGEST))
    }
}

/// Writes the checksummed configuration section every store file opens
/// with (after its magic):
///
/// ```text
/// [ normal_length u32, feature_dims u32, samples_per_beat u32 ]
/// [ warping_width f64                                         ]
/// [ CRC32(section body)                               4 bytes ]
/// ```
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
    dst.finish_section()
}

/// Reads, checksums, and validates the configuration section (see
/// [`write_config_section`]).
pub(crate) fn read_config_section<R: Read>(
    src: &mut SectionReader<'_, R>,
) -> Result<QbhConfig, StorageError> {
    src.begin_section();
    // Fields are read in the order they are written.
    let config = QbhConfig {
        normal_length: src.u32()? as usize,
        feature_dims: src.u32()? as usize,
        samples_per_beat: src.u32()? as usize,
        warping_width: src.f64()?,
        ..QbhConfig::default()
    };
    src.verify_section("config")?;
    validate_config(&config).map_err(StorageError::Corrupt)?;
    Ok(config)
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
    use hum_core::obs::{Metric, MetricsSink};
    use hum_music::SongbookConfig;

    /// Byte offsets shared by both formats: magic, then the config section
    /// (three `u32` and one `f64`).
    const CONFIG_AT: usize = 8;
    const CONFIG_CRC_AT: usize = CONFIG_AT + 20;
    /// Where the first count (entries / segments) sits.
    const COUNT_AT: usize = CONFIG_CRC_AT + 4;

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

    #[test]
    fn roundtrip_preserves_everything() {
        let (config, entries, manifest) = sample();
        let (back_config, back) =
            read_segment(&mut segment_image(&config, &entries).as_slice()).unwrap();
        assert_eq!(back_config, config);
        assert_eq!(back, entries);
        assert_eq!(read_manifest(&mut manifest_image(&manifest).as_slice()).unwrap(), manifest);
        // Nothing reserved: the manifest ends with its tombstones section
        // (count, two ids, CRC) and the footer.
        let image = manifest_image(&manifest);
        let segments = 8 + 2 * 16 + 4;
        assert_eq!(image.len(), COUNT_AT + segments + (8 + 2 * 8 + 4) + 4);
    }

    #[test]
    fn crc32_is_the_ieee_checksum() {
        // Check values of the IEEE CRC32: one word and a tail, five words
        // and a tail.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
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
            swapped[..8].copy_from_slice(if name == "segment" { b"HUMMAN02" } else { b"HUMSEG02" });
            let err = read(&mut swapped.as_slice()).unwrap_err();
            assert!(matches!(err, StorageError::BadMagic), "{name}: {err}");
            // So is a later generation of the same kind.
            let mut newer = image.clone();
            newer[7] = b'3';
            let err = read(&mut newer.as_slice()).unwrap_err();
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
    fn non_finite_sample_rejected() {
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
    fn a_page_size_other_than_the_default_is_unrepresentable() {
        // The format stores no page size: the writers and store creation
        // refuse any but the one every opened store indexes at.
        let (config, entries, manifest) = sample();
        for page_bytes in [0, 4095, 8192] {
            let config = QbhConfig { page_bytes, ..config };
            let dir = TempPath::unique("storage-page-size");
            let errs = [
                write_segment(&mut Vec::new(), &config, &entries).unwrap_err(),
                write_manifest(&mut Vec::new(), &Manifest { config, ..manifest.clone() }).unwrap_err(),
                Store::create(dir.path(), &config, StoreOptions::default()).unwrap_err(),
            ];
            assert!(errs.iter().all(|e| matches!(e, StorageError::Unrepresentable(_))), "{errs:?}");
            assert!(!dir.path().exists(), "a refused store creates nothing");
        }
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
}
