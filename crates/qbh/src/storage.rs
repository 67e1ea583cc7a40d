//! The framing every on-disk format in this crate shares.
//!
//! A corpus reaches and leaves disk in exactly one form: the segmented
//! store of [`crate::store`] (immutable segment files plus one manifest).
//! This module holds what both of its file formats are built from:
//!
//! * [`StorageError`] — the typed failure every reader and writer returns;
//! * the checksummed framing (`SnapshotWriter` / `SnapshotReader`): a
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
//! * the transform-plan section codec (`write_plan_section` /
//!   `read_plan_section`);
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

use hum_core::plan::{CandidateEvidence, PlanFamily, TransformPlan};

use crate::system::{QbhConfig, TransformChoice, TransformKind};

/// Hard cap on the candidate-evidence rows a persisted plan may claim
/// (4 families × a handful of grid dimensions in practice).
const MAX_PLAN_CANDIDATES: u32 = 1024;

/// Serialized size of the fixed config section body.
pub(crate) const CONFIG_BODY_LEN: usize = 30;

/// The index tag writers put (see [`write_config_section`]).
const LINEAR_INDEX_TAG: u8 = 2;

/// Hard cap on the shard count a file may claim (far above any sensible
/// serving fan-out; bounds per-shard bookkeeping on untrusted files).
const MAX_SHARDS: usize = 4096;

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
    /// SVD or unresolved-`Auto` transform…). Returned by writers instead of
    /// silently truncating.
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
pub(crate) struct SnapshotWriter<'a, W: Write> {
    inner: &'a mut W,
    bytes: u64,
    file_crc: Crc32,
    section_crc: Crc32,
}

impl<'a, W: Write> SnapshotWriter<'a, W> {
    pub(crate) fn new(inner: &'a mut W) -> Self {
        SnapshotWriter { inner, bytes: 0, file_crc: Crc32::new(), section_crc: Crc32::new() }
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

/// Read adapter mirroring [`SnapshotWriter`].
pub(crate) struct SnapshotReader<'a, R: Read> {
    inner: &'a mut R,
    file_crc: Crc32,
    section_crc: Crc32,
}

impl<'a, R: Read> SnapshotReader<'a, R> {
    pub(crate) fn new(inner: &'a mut R) -> Self {
        SnapshotReader { inner, file_crc: Crc32::new(), section_crc: Crc32::new() }
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
    /// since [`SnapshotReader::begin_section`].
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
    if config.shards == 0 {
        return Err("zero shard count".into());
    }
    if config.shards > MAX_SHARDS {
        return Err(format!("implausible shard count {}", config.shards));
    }
    if config.feature_dims > config.normal_length {
        return Err(format!(
            "feature dims {} exceed normal length {}",
            config.feature_dims, config.normal_length
        ));
    }
    let Some(kind) = config.fixed_transform() else {
        return Err(
            "unresolved TransformChoice::Auto; the planner must resolve it before a \
             configuration is persisted or validated"
                .into(),
        );
    };
    if matches!(kind, TransformKind::NewPaa | TransformKind::KeoghPaa)
        && !config.normal_length.is_multiple_of(config.feature_dims)
    {
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
/// [ page_bytes u32, shards u32                                ]
/// [ CRC32(section body)                               4 bytes ]
/// ```
///
/// The index tag once named the index (0 R\*-tree, 1 grid file, 2 linear
/// scan). Indexes are rebuilt from segment entries at open, so it never
/// described stored data: readers accept 0–2 and reject any other tag.
///
/// # Errors
/// [`StorageError::Unrepresentable`] when the configuration fails
/// [`validate_config`] or a field overflows its on-disk width.
pub(crate) fn write_config_section<W: Write>(
    dst: &mut SnapshotWriter<'_, W>,
    config: &QbhConfig,
) -> Result<(), StorageError> {
    validate_config(config).map_err(StorageError::Unrepresentable)?;
    let kind = config.fixed_transform().ok_or_else(|| {
        StorageError::Unrepresentable(
            "cannot persist an unresolved TransformChoice::Auto configuration".into(),
        )
    })?;
    dst.begin_section();
    dst.put(&as_u32(config.normal_length, "normal length")?.to_le_bytes())?;
    dst.put(&as_u32(config.feature_dims, "feature dims")?.to_le_bytes())?;
    dst.put(&as_u32(config.samples_per_beat, "samples per beat")?.to_le_bytes())?;
    dst.put(&config.warping_width.to_le_bytes())?;
    dst.put(&[transform_tag(kind), LINEAR_INDEX_TAG])?;
    dst.put(&as_u32(config.page_bytes, "page size")?.to_le_bytes())?;
    dst.put(&as_u32(config.shards, "shard count")?.to_le_bytes())?;
    dst.finish_section()
}

/// Reads, checksums, and validates the configuration section (see
/// [`write_config_section`]).
pub(crate) fn read_config_section<R: Read>(
    src: &mut SnapshotReader<'_, R>,
) -> Result<QbhConfig, StorageError> {
    src.begin_section();
    let mut body = [0u8; CONFIG_BODY_LEN];
    src.take(&mut body)?;
    src.verify_section("config")?;
    let le_u32 = |at: usize| u32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
    let mut ww = [0u8; 8];
    ww.copy_from_slice(&body[12..20]);
    if body[21] > LINEAR_INDEX_TAG {
        return Err(StorageError::Corrupt(format!("unknown index tag {}", body[21])));
    }
    let config = QbhConfig {
        normal_length: le_u32(0) as usize,
        feature_dims: le_u32(4) as usize,
        samples_per_beat: le_u32(8) as usize,
        warping_width: f64::from_le_bytes(ww),
        transform: TransformChoice::Fixed(transform_from_tag(body[20])?),
        page_bytes: le_u32(22) as usize,
        shards: le_u32(26) as usize,
    };
    validate_config(&config).map_err(StorageError::Corrupt)?;
    Ok(config)
}

/// Writes the checksummed transform-plan section that closes a manifest.
/// The section is always present; its first byte says whether evidence
/// follows, so a planned and an unplanned store share one format:
///
/// ```text
/// [ present u8: 0 = no plan (section ends here), 1 = plan  ]
/// [ family u8, dims u32, input_len u32, band u32           ]
/// [ seed u64, sample_len u32, pairs u64                    ]
/// [ mean_tightness f64, est_candidate_ratio f64, score f64 ]
/// [ candidate count u32, then per candidate:               ]
/// [   family u8, dims u32, tightness f64, ratio f64,       ]
/// [   projection_cost f64, score f64                       ]
/// [ CRC32(section body)                            4 bytes ]
/// ```
pub(crate) fn write_plan_section<W: Write>(
    dst: &mut SnapshotWriter<'_, W>,
    plan: Option<&TransformPlan>,
) -> Result<(), StorageError> {
    dst.begin_section();
    let Some(plan) = plan else {
        dst.put(&[0])?;
        return dst.finish_section();
    };
    if plan.candidates.len() as u64 > u64::from(MAX_PLAN_CANDIDATES) {
        return Err(StorageError::Unrepresentable(format!(
            "plan candidate count {} exceeds the format cap {MAX_PLAN_CANDIDATES}",
            plan.candidates.len()
        )));
    }
    dst.put(&[1])?;
    dst.put(&[plan_family_tag(plan.family)])?;
    dst.put(&as_u32(plan.dims, "plan dims")?.to_le_bytes())?;
    dst.put(&as_u32(plan.input_len, "plan input length")?.to_le_bytes())?;
    dst.put(&as_u32(plan.band, "plan band")?.to_le_bytes())?;
    dst.put(&plan.seed.to_le_bytes())?;
    dst.put(&as_u32(plan.sample_len, "plan sample size")?.to_le_bytes())?;
    dst.put(&(plan.pairs as u64).to_le_bytes())?;
    dst.put(&plan.mean_tightness.to_le_bytes())?;
    dst.put(&plan.est_candidate_ratio.to_le_bytes())?;
    dst.put(&plan.score.to_le_bytes())?;
    dst.put(&as_u32(plan.candidates.len(), "plan candidate count")?.to_le_bytes())?;
    for candidate in &plan.candidates {
        dst.put(&[plan_family_tag(candidate.family)])?;
        dst.put(&as_u32(candidate.dims, "candidate dims")?.to_le_bytes())?;
        dst.put(&candidate.mean_tightness.to_le_bytes())?;
        dst.put(&candidate.est_candidate_ratio.to_le_bytes())?;
        dst.put(&candidate.projection_cost.to_le_bytes())?;
        dst.put(&candidate.score.to_le_bytes())?;
    }
    dst.finish_section()
}

/// Reads and validates the transform-plan section (see
/// [`write_plan_section`]): the presence byte, family tags, dimension
/// bounds, `[0, 1]` ranges on tightness and candidate ratio, finite scores,
/// the candidate-count cap, and the presence of the chosen `(family, dims)`
/// among the candidates are all enforced, so untrusted plan bytes surface
/// as typed [`StorageError::Corrupt`] — never a panic, never an
/// inconsistent plan.
pub(crate) fn read_plan_section<R: Read>(
    src: &mut SnapshotReader<'_, R>,
) -> Result<Option<TransformPlan>, StorageError> {
    src.begin_section();
    let mut tag = [0u8; 1];
    src.take(&mut tag)?;
    if tag[0] == 0 {
        src.verify_section("plan")?;
        return Ok(None);
    }
    if tag[0] != 1 {
        return Err(StorageError::Corrupt(format!("unknown plan presence byte {}", tag[0])));
    }
    src.take(&mut tag)?;
    let family = plan_family_from_tag(tag[0])?;
    let dims = src.u32()? as usize;
    let input_len = src.u32()? as usize;
    let band = src.u32()? as usize;
    let seed = src.u64()?;
    let sample_len = src.u32()? as usize;
    let pairs = usize::try_from(src.u64()?)
        .map_err(|_| StorageError::Corrupt("implausible plan pair count".into()))?;
    let mean_tightness = read_unit_interval(src, "plan mean tightness")?;
    let est_candidate_ratio = read_unit_interval(src, "plan candidate ratio")?;
    let score = read_finite(src, "plan score")?;
    if dims == 0 || dims > input_len {
        return Err(StorageError::Corrupt(format!(
            "plan dims {dims} out of range for input length {input_len}"
        )));
    }
    let candidate_count = src.u32()?;
    if candidate_count > MAX_PLAN_CANDIDATES {
        return Err(StorageError::Corrupt(format!(
            "implausible plan candidate count {candidate_count}"
        )));
    }
    let mut candidates = Vec::with_capacity((candidate_count as usize).min(PREALLOC_CAP));
    for _ in 0..candidate_count {
        let mut tag = [0u8; 1];
        src.take(&mut tag)?;
        let family = plan_family_from_tag(tag[0])?;
        let dims = src.u32()? as usize;
        if dims == 0 || dims > input_len {
            return Err(StorageError::Corrupt(format!(
                "candidate dims {dims} out of range for input length {input_len}"
            )));
        }
        let mean_tightness = read_unit_interval(src, "candidate tightness")?;
        let est_candidate_ratio = read_unit_interval(src, "candidate ratio")?;
        let projection_cost = read_finite(src, "candidate projection cost")?;
        if projection_cost < 0.0 {
            return Err(StorageError::Corrupt(format!(
                "negative candidate projection cost {projection_cost}"
            )));
        }
        let score = read_finite(src, "candidate score")?;
        candidates.push(CandidateEvidence {
            family,
            dims,
            mean_tightness,
            est_candidate_ratio,
            projection_cost,
            score,
        });
    }
    src.verify_section("plan")?;
    let plan = TransformPlan {
        family,
        dims,
        input_len,
        band,
        seed,
        sample_len,
        pairs,
        mean_tightness,
        est_candidate_ratio,
        score,
        candidates,
    };
    if plan.chosen().is_none() {
        return Err(StorageError::Corrupt(format!(
            "plan chose {} d={} but holds no matching candidate evidence",
            plan.family.name(),
            plan.dims
        )));
    }
    Ok(Some(plan))
}

/// Reads one `f64` that must land in `[0, 1]`.
fn read_unit_interval<R: Read>(
    src: &mut SnapshotReader<'_, R>,
    what: &str,
) -> Result<f64, StorageError> {
    let value = read_finite(src, what)?;
    if !(0.0..=1.0).contains(&value) {
        return Err(StorageError::Corrupt(format!("{what} {value} outside [0, 1]")));
    }
    Ok(value)
}

/// Reads one `f64` that must be finite.
fn read_finite<R: Read>(src: &mut SnapshotReader<'_, R>, what: &str) -> Result<f64, StorageError> {
    let value = src.f64()?;
    if !value.is_finite() {
        return Err(StorageError::Corrupt(format!("non-finite {what}")));
    }
    Ok(value)
}

fn plan_family_tag(family: PlanFamily) -> u8 {
    match family {
        PlanFamily::NewPaa => 0,
        PlanFamily::KeoghPaa => 1,
        PlanFamily::Dft => 2,
        PlanFamily::Dwt => 3,
    }
}

fn plan_family_from_tag(tag: u8) -> Result<PlanFamily, StorageError> {
    Ok(match tag {
        0 => PlanFamily::NewPaa,
        1 => PlanFamily::KeoghPaa,
        2 => PlanFamily::Dft,
        3 => PlanFamily::Dwt,
        other => return Err(StorageError::Corrupt(format!("unknown plan family tag {other}"))),
    })
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

fn transform_tag(t: TransformKind) -> u8 {
    match t {
        TransformKind::NewPaa => 0,
        TransformKind::KeoghPaa => 1,
        TransformKind::Dft => 2,
        TransformKind::Dwt => 3,
        TransformKind::Svd => 4,
    }
}

fn transform_from_tag(tag: u8) -> Result<TransformKind, StorageError> {
    Ok(match tag {
        0 => TransformKind::NewPaa,
        1 => TransformKind::KeoghPaa,
        2 => TransformKind::Dft,
        3 => TransformKind::Dwt,
        4 => TransformKind::Svd,
        other => return Err(StorageError::Corrupt(format!("unknown transform tag {other}"))),
    })
}


#[cfg(test)]
mod tests {
    //! The framing has no format of its own, so these tests drive it through
    //! the two formats built from it: the segment and the manifest.

    use super::*;
    use crate::corpus::MelodyDatabase;
    use crate::fault::TempPath;
    use crate::store::{
        load_manifest, load_segment, manifest_path, read_manifest, read_segment, save_manifest,
        save_segment, segment_path, write_manifest, write_segment, Manifest, SegmentEntry,
        SegmentRef,
    };
    use crate::system::{QbhSystem, StoreOptions};
    use hum_core::obs::{Metric, MetricsSink};
    use hum_music::SongbookConfig;

    /// Byte offsets shared by both formats: magic, then the config section.
    const CONFIG_AT: usize = 8;
    const CONFIG_CRC_AT: usize = CONFIG_AT + CONFIG_BODY_LEN;
    /// Where the first count (entries / segments) sits.
    const COUNT_AT: usize = CONFIG_CRC_AT + 4;

    fn sample() -> (QbhConfig, Vec<SegmentEntry>, Manifest) {
        let config = QbhConfig {
            transform: TransformKind::Dft.into(),
            warping_width: 0.07,
            ..QbhConfig::default()
        };
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
        let plan = TransformPlan {
            family: PlanFamily::Dft,
            dims: config.feature_dims,
            input_len: config.normal_length,
            band: 4,
            seed: 99,
            sample_len: 40,
            pairs: 780,
            mean_tightness: 0.62,
            est_candidate_ratio: 0.2,
            score: 0.6,
            candidates: vec![CandidateEvidence {
                family: PlanFamily::Dft,
                dims: config.feature_dims,
                mean_tightness: 0.62,
                est_candidate_ratio: 0.2,
                projection_cost: 0.4,
                score: 0.6,
            }],
        };
        let manifest = Manifest {
            config,
            segments: vec![SegmentRef { id: 0, count: 12 }, SegmentRef { id: 3, count: 5 }],
            tombstones: vec![10, 24],
            plan: Some(plan),
        };
        (config, entries, manifest)
    }

    fn segment_image(config: &QbhConfig, entries: &[SegmentEntry]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_segment(&mut bytes, config, entries).unwrap();
        bytes
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
        // The plan is optional inside the one manifest format.
        let plain = Manifest { plan: None, ..manifest };
        assert_eq!(read_manifest(&mut manifest_image(&plain).as_slice()).unwrap(), plain);
    }

    #[test]
    fn sharded_roundtrip_preserves_partition_and_ids() {
        let (config, entries, manifest) = sample();
        for shards in [2usize, 5] {
            let config = QbhConfig { shards, ..config };
            let (back_config, back) =
                read_segment(&mut segment_image(&config, &entries).as_slice()).unwrap();
            assert_eq!(back_config.shards, shards);
            assert!(back.iter().map(|e| e.id).eq(entries.iter().map(|e| e.id)));
            let manifest = Manifest { config, ..manifest.clone() };
            let back = read_manifest(&mut manifest_image(&manifest).as_slice()).unwrap();
            assert_eq!(back.config.shards, shards);
        }
    }

    #[test]
    fn file_roundtrip() {
        let (config, entries, manifest) = sample();
        let dir = TempPath::unique("storage-roundtrip");
        std::fs::create_dir_all(dir.path()).unwrap();
        save_segment(dir.path(), 4, &config, &entries).unwrap();
        save_manifest(dir.path(), &manifest).unwrap();
        let (back_config, back) =
            load_segment(&segment_path(dir.path(), 4)).unwrap();
        assert_eq!((back_config, back), (config, entries));
        assert_eq!(load_manifest(&manifest_path(dir.path())).unwrap(), manifest);
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
        assert_eq!(load_manifest(&manifest_path(dir.path())).unwrap(), manifest);
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
        // The transform/index tags live at offsets 28/29 (inside the config
        // section body); every index tag past 2 is foreign. A bare patch trips
        // the section checksum; with the section CRC recomputed, the typed tag
        // error surfaces instead (config is parsed before the footer).
        for (name, image, read) in images() {
            let index_tags = (LINEAR_INDEX_TAG + 1..=u8::MAX).map(|tag| (CONFIG_AT + 21, tag));
            for (tag_at, tag) in [(CONFIG_AT + 20, 99)].into_iter().chain(index_tags) {
                let mut bad = image.clone();
                bad[tag_at] = tag;
                let err = read(&mut bad.as_slice()).unwrap_err();
                assert!(matches!(err, StorageError::Checksum("config")), "{name}: {err}");
                let crc = crc32(&bad[CONFIG_AT..CONFIG_CRC_AT]).to_le_bytes();
                bad[CONFIG_CRC_AT..COUNT_AT].copy_from_slice(&crc);
                let err = read(&mut bad.as_slice()).unwrap_err();
                assert!(matches!(err, StorageError::Corrupt(_)), "{name}, tag {tag}: {err}");
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
        let bad = QbhConfig {
            transform: TransformKind::NewPaa.into(),
            normal_length: 100,
            feature_dims: 7,
            ..QbhConfig::default()
        };
        let err = write_segment(&mut Vec::new(), &bad, &[]).unwrap_err();
        assert!(matches!(err, StorageError::Unrepresentable(_)), "{err}");
        // Craft the same config through the byte layout to hit the reader.
        let (config, _, _) = sample();
        let mut bytes = segment_image(&config, &[]);
        bytes[CONFIG_AT..CONFIG_AT + 4].copy_from_slice(&100u32.to_le_bytes()); // normal_length
        bytes[CONFIG_AT + 4..CONFIG_AT + 8].copy_from_slice(&7u32.to_le_bytes()); // feature_dims
        bytes[CONFIG_AT + 20] = 0; // transform tag -> NewPaa
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
        let config = QbhConfig::default();
        let options = StoreOptions { memtable_capacity: 6, ..StoreOptions::default() };
        let mut system =
            QbhSystem::try_create_store_planned(dir, &config, options, &[], metrics).unwrap();
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

    #[test]
    fn loaded_database_builds_an_equivalent_system() {
        // Under every index tag a store was written with (0 R*-tree, 1 grid
        // file, 2 flat sweep): indexes are rebuilt at open, so all agree.
        let dir = TempPath::unique("storage-equivalent");
        let (db, system) = ingest(dir.path(), &MetricsSink::Disabled);
        drop(system);
        let original = QbhSystem::build(&db, &QbhConfig::default());
        let manifest = load_manifest(&manifest_path(dir.path())).unwrap();
        let segments = manifest.segments.iter().map(|s| segment_path(dir.path(), s.id));
        let files: Vec<_> = segments.chain([manifest_path(dir.path())]).collect();
        for tag in 0..=LINEAR_INDEX_TAG {
            for file in &files {
                let mut bytes = std::fs::read(file).unwrap();
                bytes[CONFIG_AT + 21] = tag;
                reseal(&mut bytes);
                std::fs::write(file, bytes).unwrap();
            }
            let restored = QbhSystem::try_open_store(dir.path()).unwrap();
            for id in [1, 5, 10] {
                let query = db.entry(id).unwrap().melody().to_time_series(4);
                let want = original.query_series(&query, 4).matches;
                assert_eq!(restored.query_series(&query, 4).matches, want, "tag {tag}, id {id}");
            }
        }
    }
}
