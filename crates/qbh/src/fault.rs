//! Fault-injection adapters for storage robustness testing.
//!
//! The durability contract of [`crate::storage`] — every short write, I/O
//! error, bit flip, or truncation surfaces as a typed
//! [`StorageError`](crate::storage::StorageError), never a panic and never
//! silently wrong data — is only worth stating if it is exercised. This
//! module provides the harness: [`FailingWriter`] and [`FailingReader`]
//! wrap any `Write`/`Read` and inject a fault once a byte budget is spent,
//! [`flip_bit`] corrupts serialized images in place, and [`TempPath`] hands
//! out collision-free self-cleaning temp paths for file- and store-level tests.
//!
//! The adapters live in the library (not under `#[cfg(test)]`) so both the
//! crate's unit tests and the `tests/storage_faults.rs` integration suite —
//! plus any downstream crate that persists through this workspace — can
//! drive the same faults.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// What happens when a [`FailingWriter`] or [`FailingReader`] exhausts its
/// byte budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Return an I/O error of the given kind.
    Error(io::ErrorKind),
    /// Pretend the device is full / the stream ended: writes report 0 bytes
    /// accepted (surfacing as `ErrorKind::WriteZero` through `write_all`),
    /// reads report EOF (surfacing as `ErrorKind::UnexpectedEof` through
    /// `read_exact`).
    Cutoff,
}

/// A `Write` adapter that forwards the first `budget` bytes, then injects
/// the configured fault on every subsequent write.
#[derive(Debug)]
pub struct FailingWriter<W> {
    inner: W,
    budget: u64,
    mode: FaultMode,
}

impl<W: Write> FailingWriter<W> {
    /// Forwards `budget` bytes to `inner`, then fails with `mode`.
    pub fn new(inner: W, budget: u64, mode: FaultMode) -> Self {
        FailingWriter { inner, budget, mode }
    }

    /// The wrapped writer (e.g. to inspect the bytes that made it through).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return match self.mode {
                FaultMode::Error(kind) => Err(io::Error::new(kind, "injected write fault")),
                FaultMode::Cutoff => Ok(0),
            };
        }
        let allowed = usize::try_from(self.budget).unwrap_or(usize::MAX).min(buf.len());
        let written = self.inner.write(&buf[..allowed])?;
        self.budget -= written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A `Read` adapter that yields the first `budget` bytes, then injects the
/// configured fault on every subsequent read.
#[derive(Debug)]
pub struct FailingReader<R> {
    inner: R,
    budget: u64,
    mode: FaultMode,
}

impl<R: Read> FailingReader<R> {
    /// Yields `budget` bytes from `inner`, then fails with `mode`.
    pub fn new(inner: R, budget: u64, mode: FaultMode) -> Self {
        FailingReader { inner, budget, mode }
    }
}

impl<R: Read> Read for FailingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return match self.mode {
                FaultMode::Error(kind) => Err(io::Error::new(kind, "injected read fault")),
                FaultMode::Cutoff => Ok(0),
            };
        }
        let allowed = usize::try_from(self.budget).unwrap_or(usize::MAX).min(buf.len());
        let read = self.inner.read(&mut buf[..allowed])?;
        self.budget -= read as u64;
        Ok(read)
    }
}

/// Flips one bit of a serialized image in place: bit `bit % 8` of byte
/// `index % bytes.len()`. No-op on an empty slice.
pub fn flip_bit(bytes: &mut [u8], index: usize, bit: u8) {
    if bytes.is_empty() {
        return;
    }
    let at = index % bytes.len();
    bytes[at] ^= 1 << (bit % 8);
}

/// A unique temp path that removes whatever was created there — a file or
/// a store directory — on drop, including on panic, so a failing test
/// never leaves stale state behind for the next run (or the next test in
/// the same process) to collide with.
#[derive(Debug)]
pub struct TempPath {
    path: PathBuf,
}

impl TempPath {
    /// A fresh path under the system temp dir, unique across tests in this
    /// process (atomic counter) and across processes (pid). Nothing is
    /// created on disk yet.
    pub fn unique(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("hum-{tag}-{}-{n}", std::process::id()));
        TempPath { path }
    }

    /// The path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path)
            .or_else(|_| std::fs::remove_dir_all(&self.path));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failing_writer_errors_after_budget() {
        let mut w = FailingWriter::new(Vec::new(), 5, FaultMode::Error(io::ErrorKind::Other));
        let err = w.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(w.into_inner(), b"01234");
    }

    #[test]
    fn short_write_surfaces_as_write_zero() {
        let mut w = FailingWriter::new(Vec::new(), 3, FaultMode::Cutoff);
        let err = w.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn failing_reader_errors_after_budget() {
        let mut r =
            FailingReader::new(&b"0123456789"[..], 4, FaultMode::Error(io::ErrorKind::Other));
        let mut buf = [0u8; 10];
        let err = r.read_exact(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
    }

    #[test]
    fn cutoff_reader_surfaces_as_unexpected_eof() {
        let mut r = FailingReader::new(&b"0123456789"[..], 4, FaultMode::Cutoff);
        let mut buf = [0u8; 10];
        let err = r.read_exact(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn flip_bit_toggles_and_wraps() {
        let mut bytes = vec![0u8; 4];
        flip_bit(&mut bytes, 1, 3);
        assert_eq!(bytes, [0, 8, 0, 0]);
        flip_bit(&mut bytes, 5, 11); // wraps to byte 1, bit 3: toggles back
        assert_eq!(bytes, [0, 0, 0, 0]);
        flip_bit(&mut [], 0, 0); // no-op, no panic
    }

    #[test]
    fn temp_files_are_unique_and_cleaned_up() {
        let a = TempPath::unique("fault-unit");
        let b = TempPath::unique("fault-unit");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path(), b"x").unwrap();
        std::fs::create_dir_all(b.path().join("nested")).unwrap();
        let kept = [a.path().to_path_buf(), b.path().to_path_buf()];
        drop((a, b));
        assert!(kept.iter().all(|path| !path.exists()));
    }
}
