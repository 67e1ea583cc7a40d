//! Flat, cache-line-aligned, length-padded numeric buffers.
//!
//! The kernels in this layer want three things from their operands that a
//! plain `Vec<f64>` does not promise:
//!
//! * **alignment** — the backing storage starts on a 64-byte boundary, so a
//!   lane block never straddles a cache line at the buffer head;
//! * **padding** — the logical length is rounded up to a whole lane block
//!   and the tail is filled with a caller-chosen *neutral* value, so block
//!   loops never need a scalar remainder;
//! * **stability of the padding rule** — padded length is
//!   `len.next_multiple_of(block)` with `block` = one cache line
//!   ([`F64_BLOCK`] = 8 doubles), documented here once and relied on
//!   everywhere.
//!
//! The buffer is stored as a `Vec` of 64-byte-aligned chunks and exposed as
//! an ordinary slice; the `unsafe` blocks that do so reinterpret a contiguous
//! chunk array as the scalar slice it already is. The module's one other
//! `unsafe` is the cache [`prefetch`] hint.

/// Scalars per [`AlignedF64`] chunk: one 64-byte cache line of `f64`.
pub const F64_BLOCK: usize = 8;

/// Bytes per cache line.
const CACHE_LINE: usize = 64;

/// Asks the CPU to start pulling `data`'s cache lines toward L1, for a
/// caller that knows it will read them after the work it is about to do.
/// A hint only: no effect on any value, a no-op off x86-64.
#[inline]
pub(crate) fn prefetch<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let base = data.as_ptr().cast::<i8>();
        for offset in (0..std::mem::size_of_val(data)).step_by(CACHE_LINE) {
            // SAFETY: `offset` is less than the slice's size in bytes, so
            // the address lies inside `data`; the instruction itself is a
            // hint that reads nothing observable and never faults.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(offset)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

/// One cache line of doubles.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
struct ChunkF64([f64; F64_BLOCK]);

/// A 64-byte-aligned, block-padded `f64` buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlignedF64 {
    chunks: Vec<ChunkF64>,
    len: usize,
}

impl AlignedF64 {
    /// An empty buffer.
    pub fn new() -> Self {
        AlignedF64::default()
    }

    /// Resizes to logical length `len` (padded to a whole block) and fills
    /// *every* slot — logical and padding alike — with `fill`.
    pub fn reset(&mut self, len: usize, fill: f64) {
        let blocks = len.div_ceil(F64_BLOCK);
        self.chunks.clear();
        self.chunks.resize(blocks, ChunkF64([fill; F64_BLOCK]));
        self.len = len;
    }

    /// Replaces the contents with `x`, padding the tail with `pad`.
    pub fn stage(&mut self, x: &[f64], pad: f64) {
        self.reset(x.len(), pad);
        self.as_mut_slice()[..x.len()].copy_from_slice(x);
    }

    /// Logical (un-padded) length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Padded length: `len().next_multiple_of(F64_BLOCK)`.
    pub fn padded_len(&self) -> usize {
        self.chunks.len() * F64_BLOCK
    }

    /// The full padded storage as a scalar slice.
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: `chunks` is a contiguous array of `ChunkF64`, each a
        // `repr(C)` array of `F64_BLOCK` doubles with no interior padding
        // (align 64 == chunk size 64, so there is no inter-element padding
        // either); reinterpreting it as `padded_len()` doubles covers
        // exactly the same initialized bytes.
        unsafe {
            std::slice::from_raw_parts(self.chunks.as_ptr().cast::<f64>(), self.padded_len())
        }
    }

    /// The full padded storage as a mutable scalar slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        let n = self.padded_len();
        // SAFETY: as in `as_slice`, plus exclusive access via `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.chunks.as_mut_ptr().cast::<f64>(), n) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_buffer_is_aligned_padded_and_round_trips() {
        let mut buf = AlignedF64::new();
        let data: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
        buf.stage(&data, f64::INFINITY);
        assert_eq!(buf.len(), 13);
        assert_eq!(buf.padded_len(), 16);
        assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0);
        assert_eq!(&buf.as_slice()[..13], &data[..]);
        assert!(buf.as_slice()[13..].iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn reset_overwrites_previous_contents() {
        let mut buf = AlignedF64::new();
        buf.stage(&[1.0, 2.0, 3.0], 0.0);
        buf.reset(2, 7.0);
        assert_eq!(buf.as_slice()[..2], [7.0, 7.0]);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn exact_block_lengths_get_no_extra_padding() {
        let mut b64 = AlignedF64::new();
        b64.reset(F64_BLOCK * 3, 0.0);
        assert_eq!(b64.padded_len(), F64_BLOCK * 3);
    }
}
