//! The banded-DTW row recurrence, split so most of it vectorizes.
//!
//! The classic row loop
//!
//! ```text
//! cell(j) = (x_i − y_j)² + min(prev[s+1], prev[s], curr[s−1])
//! ```
//!
//! looks fully serial, but only the `curr[s−1]` operand actually is. The
//! kernel therefore runs each row in three phases over sentinel-padded
//! rows (see the layout notes below):
//!
//! 1. **costs + pairwise mins** (vectorizable): `dd[t] = (x_i − y_j)²` and
//!    `pm[t] = min(prev[s+1], prev[s])` for the whole row — elementwise,
//!    no loop-carried dependency;
//! 2. **serial sweep** (inherently sequential, but tiny): `cell = dd[t] +
//!    min(pm[t], left)`, carrying only `left = cell`;
//! 3. **row minimum** (vectorizable): blocked `min`-reduction over the
//!    freshly written cells for the caller's early-abandon row check.
//!
//! `f64::min` is exact and `+` sees bit-identical operands, so every cell
//! — and hence the final distance and the abandon decision — is
//! bit-identical to the classic loop, in both [`KernelMode`]s.
//!
//! ## Row layout and sentinels
//!
//! Rows store band slots `0..width` at raw indices `1..=width` with
//! permanent `+∞` sentinels at raw `0` and `width + 1` (plus any block
//! padding, also `+∞`). Band edges then need no `if slot + 1 < width` /
//! `if slot > 0` branches: out-of-band reads hit a sentinel and lose every
//! `min` exactly as the branchy code's `∞` initialisation did. Instead of
//! re-filling the whole row with `∞` per row (the old kernel's O(width)
//! reset), the caller clears one *margin* cell on each side of the written
//! span (raw `slot_lo` and raw `slot_hi + 2`). Band spans shift by at most
//! one slot per row in each direction, so those two cells are exactly the
//! stale cells the *next* row's phase 1 could read beyond this row's span.

use super::KernelMode;

/// Computes one banded-DTW row into `curr` and returns the row minimum.
///
/// * `prev` / `curr` — sentinel-padded raw rows (slot `s` at raw `s + 1`);
///   the caller has already cleared the margin cells around the span.
/// * `dd` / `pm` — scratch of at least `y_seg.len()` elements.
/// * `y_seg` — `y[j_lo..=j_hi]`, the candidate segment under the band.
/// * `slot_lo` — band slot of `j_lo` in this row.
///
/// # Panics
/// Panics if the rows or scratch are shorter than the span requires.
#[allow(clippy::too_many_arguments)]
pub fn band_row(
    mode: KernelMode,
    prev: &[f64],
    curr: &mut [f64],
    dd: &mut [f64],
    pm: &mut [f64],
    x_i: f64,
    y_seg: &[f64],
    slot_lo: usize,
) -> f64 {
    let count = y_seg.len();
    let dd = &mut dd[..count];
    let pm = &mut pm[..count];
    // Phase 1: elementwise costs and pairwise predecessor mins.
    // prev operands for slot s = slot_lo + t sit at raw s+1 and s+2.
    let prev_a = &prev[slot_lo + 1..slot_lo + 1 + count];
    let prev_b = &prev[slot_lo + 2..slot_lo + 2 + count];
    match mode {
        KernelMode::Scalar => {
            for t in 0..count {
                let d = x_i - y_seg[t];
                dd[t] = d * d;
                pm[t] = prev_b[t].min(prev_a[t]);
            }
        }
        KernelMode::Unrolled => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                unsafe { x86::phase1_avx2(dd, pm, x_i, y_seg, prev_a, prev_b) };
            } else {
                phase1_portable(dd, pm, x_i, y_seg, prev_a, prev_b);
            }
            #[cfg(not(target_arch = "x86_64"))]
            phase1_portable(dd, pm, x_i, y_seg, prev_a, prev_b);
        }
    }
    // Phase 2: the serial sweep. The first span cell has no in-row
    // predecessor (no cell of this row lies below `slot_lo`), so `left`
    // seeds at +∞ — exactly the freshly-reset `curr[slot − 1]` the classic
    // loop read there.
    let row = &mut curr[slot_lo + 1..slot_lo + 1 + count];
    let mut left = f64::INFINITY;
    for t in 0..count {
        let cell = dd[t] + pm[t].min(left);
        row[t] = cell;
        left = cell;
    }
    // Phase 3: blocked min-reduction (min is exact, order-free).
    let mut m = [f64::INFINITY; 4];
    let mut chunks = row.chunks_exact(4);
    for c in chunks.by_ref() {
        m[0] = m[0].min(c[0]);
        m[1] = m[1].min(c[1]);
        m[2] = m[2].min(c[2]);
        m[3] = m[3].min(c[3]);
    }
    let mut row_min = m[0].min(m[1]).min(m[2].min(m[3]));
    for &v in chunks.remainder() {
        row_min = row_min.min(v);
    }
    row_min
}

/// Explicitly 4-wide phase 1 for targets without AVX2: independent lane
/// statements the optimizer can map onto whatever vectors the target has.
fn phase1_portable(
    dd: &mut [f64],
    pm: &mut [f64],
    x_i: f64,
    y_seg: &[f64],
    prev_a: &[f64],
    prev_b: &[f64],
) {
    let count = y_seg.len();
    let mut t = 0;
    while t + 4 <= count {
        let d0 = x_i - y_seg[t];
        let d1 = x_i - y_seg[t + 1];
        let d2 = x_i - y_seg[t + 2];
        let d3 = x_i - y_seg[t + 3];
        dd[t] = d0 * d0;
        dd[t + 1] = d1 * d1;
        dd[t + 2] = d2 * d2;
        dd[t + 3] = d3 * d3;
        pm[t] = prev_b[t].min(prev_a[t]);
        pm[t + 1] = prev_b[t + 1].min(prev_a[t + 1]);
        pm[t + 2] = prev_b[t + 2].min(prev_a[t + 2]);
        pm[t + 3] = prev_b[t + 3].min(prev_a[t + 3]);
        t += 4;
    }
    while t < count {
        let d = x_i - y_seg[t];
        dd[t] = d * d;
        pm[t] = prev_b[t].min(prev_a[t]);
        t += 1;
    }
}

/// AVX2 phase 1: the same elementwise costs and pairwise mins on 256-bit
/// vectors. Subtraction and multiplication are exact lane-wise IEEE ops,
/// and DP cells are never NaN (sums of squares and mins of `[0, +∞]`
/// values), so `_mm256_min_pd` selects the same value `f64::min` does —
/// phase 1's outputs, and hence every cell, stay bit-identical.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        _mm256_loadu_pd, _mm256_min_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
        _mm256_sub_pd,
    };

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn phase1_avx2(
        dd: &mut [f64],
        pm: &mut [f64],
        x_i: f64,
        y_seg: &[f64],
        prev_a: &[f64],
        prev_b: &[f64],
    ) {
        let count = y_seg.len();
        let xv = _mm256_set1_pd(x_i);
        let mut t = 0;
        while t + 4 <= count {
            // SAFETY: t + 4 <= count <= len of every slice (the caller
            // sliced dd/pm/prev_a/prev_b to exactly `count`).
            let y = _mm256_loadu_pd(y_seg.as_ptr().add(t));
            let d = _mm256_sub_pd(xv, y);
            _mm256_storeu_pd(dd.as_mut_ptr().add(t), _mm256_mul_pd(d, d));
            let a = _mm256_loadu_pd(prev_a.as_ptr().add(t));
            let b = _mm256_loadu_pd(prev_b.as_ptr().add(t));
            _mm256_storeu_pd(pm.as_mut_ptr().add(t), _mm256_min_pd(b, a));
            t += 4;
        }
        while t < count {
            let d = x_i - y_seg[t];
            dd[t] = d * d;
            pm[t] = prev_b[t].min(prev_a[t]);
            t += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A sentinel-padded previous row with `count + 1` live cells, some of
    /// them `+∞` (abandoned or out-of-band predecessors).
    fn prev_row(count: usize, slot_lo: usize, seed: u64) -> Vec<f64> {
        let mut prev = vec![f64::INFINITY; slot_lo + count + 3];
        for (t, v) in lcg(seed, count + 1).into_iter().enumerate() {
            if t % 5 != 3 {
                prev[slot_lo + 1 + t] = v.abs();
            }
        }
        prev
    }

    #[test]
    fn portable_phase1_matches_scalar_and_dispatched_rows() {
        // `Unrolled` dispatches phase 1 to the AVX2 shape wherever the CPU
        // supports it, so `phase1_portable` runs only when called directly.
        for count in [1usize, 3, 4, 5, 8, 13, 31] {
            for slot_lo in [0usize, 1, 4] {
                let y = lcg(count as u64, count);
                let prev = prev_row(count, slot_lo, 77 + count as u64);
                let x_i = 0.37;
                let row = |mode| {
                    let mut curr = vec![f64::INFINITY; prev.len()];
                    let (mut dd, mut pm) = (vec![0.0; count], vec![0.0; count]);
                    let min = band_row(mode, &prev, &mut curr, &mut dd, &mut pm, x_i, &y, slot_lo);
                    (min.to_bits(), bits(&curr), bits(&dd), bits(&pm))
                };
                let scalar = row(KernelMode::Scalar);
                assert_eq!(scalar, row(KernelMode::Unrolled), "count={count} slot_lo={slot_lo}");

                let (mut dd, mut pm) = (vec![0.0; count], vec![0.0; count]);
                let prev_a = &prev[slot_lo + 1..slot_lo + 1 + count];
                let prev_b = &prev[slot_lo + 2..slot_lo + 2 + count];
                phase1_portable(&mut dd, &mut pm, x_i, &y, prev_a, prev_b);
                assert_eq!(bits(&dd), scalar.2, "count={count} slot_lo={slot_lo}");
                assert_eq!(bits(&pm), scalar.3, "count={count} slot_lo={slot_lo}");
            }
        }
    }
}
