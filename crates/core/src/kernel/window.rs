//! Sliding-window minima and maxima — the `k`-envelope of a series
//! (paper Definition 6) — by log-doubling over a padded buffer.
//!
//! The window of position `i` is `[i − k, i + k]` clipped to the series.
//! Padding the series with `k` neutral values on each side (`+∞` for the
//! minimum, `−∞` for the maximum) turns every clipped window into a full
//! one of `w = 2k + 1` padded cells. `M_1` is the padded series; each
//! doubling pass computes `M_2s[i] = ext(M_s[i], M_s[i + s])`, the extreme
//! of `s` more cells, until `s` is the largest power of two `≤ w`; the
//! window is then the extreme of two overlapping spans,
//! `ext(M_s[i], M_s[i + w − s])`. Every pass is one elementwise loop over
//! two shifted views of a buffer into another buffer — no loop-carried
//! dependency, no allocation, no branch in the body — so the compiler
//! vectorises it as it stands: `⌊log₂ w⌋ + 1` passes in all.
//!
//! ## Bits
//!
//! A minimum or maximum *selects* one of its inputs, so the result can
//! differ from any other correct algorithm's only in which of several
//! equal values it returns — for `f64`, the sign of a zero. Here even that
//! is pinned: `select` returns its *right* operand on a tie, and by
//! induction `M_s[i]` is the **last** extreme cell of its span, as is the
//! final combine's. That is exactly the cell the classic monotonic deque
//! reports (it evicts equal values in favour of the newcomer), so the two
//! agree bit for bit, `±0.0` included; the tests hold the deque, kept as
//! the reference, to that. Written as a compare-and-select, not
//! `f64::max`: the selects match the hardware min/max instructions, which
//! the NaN-propagation rules of `f64::max` do not. Inputs are finite
//! wherever the engine calls this (it validates on insert and on query).

/// Two padded buffers the doubling passes alternate between. Owned by the
/// caller ([`crate::envelope::LbScratch`]) so the per-candidate path never
/// allocates once they have grown.
#[derive(Debug, Clone, Default)]
pub struct WindowScratch {
    front: Vec<f64>,
    back: Vec<f64>,
}

/// `left` or `right`, whichever is the greater (`MAX`) or the lesser; the
/// right one on a tie.
#[inline(always)]
fn select<const MAX: bool>(left: f64, right: f64) -> f64 {
    let left_wins = if MAX { left > right } else { left < right };
    if left_wins {
        left
    } else {
        right
    }
}

/// One elementwise pass: `out[i] = select(left[i], right[i])`.
#[inline(always)]
fn pass<const MAX: bool>(left: &[f64], right: &[f64], out: &mut [f64]) {
    for ((o, &l), &r) in out.iter_mut().zip(left).zip(right) {
        *o = select::<MAX>(l, r);
    }
}

/// Writes the window maximum (`MAX`) or minimum of `x` over `[i − k, i + k]`
/// into `out[i]`.
fn window_extreme<const MAX: bool>(
    x: &[f64],
    k: usize,
    scratch: &mut WindowScratch,
    out: &mut [f64],
) {
    let n = x.len();
    // A band of n − 1 already covers the whole series from every position.
    let k = k.min(n - 1);
    if k == 0 {
        out.copy_from_slice(x);
        return;
    }
    let width = 2 * k + 1;
    let padded = n + 2 * k;
    let pad = if MAX { f64::NEG_INFINITY } else { f64::INFINITY };
    let WindowScratch { front, back } = scratch;
    front.clear();
    front.resize(k, pad);
    front.extend_from_slice(x);
    front.resize(padded, pad);
    // Every pass writes the cells of `back` it later reads: only its
    // length matters.
    if back.len() < padded {
        back.resize(padded, pad);
    }

    // `front[i]` is the extreme of the `span` padded cells from `i` on, for
    // `i < valid`.
    let (mut front, mut back) = (front, back);
    let mut span = 1;
    let mut valid = padded;
    while 2 * span <= width {
        let next_valid = valid - span;
        pass::<MAX>(&front[..next_valid], &front[span..valid], &mut back[..next_valid]);
        std::mem::swap(&mut front, &mut back);
        span *= 2;
        valid = next_valid;
    }
    // valid = padded − span + 1 = n + (width − span): the second view below
    // ends exactly at the last valid cell.
    let shift = width - span;
    pass::<MAX>(&front[..n], &front[shift..shift + n], out);
}

/// The `k`-envelope of `x`: `lower[i]` and `upper[i]` are the minimum and
/// maximum of `x` over `[i − k, i + k]` clipped to the series. Bit-identical
/// to the monotonic-deque algorithm (see the module docs).
///
/// # Panics
/// Panics if `x` is empty or the output lengths differ from `x.len()`.
pub fn window_min_max(
    x: &[f64],
    k: usize,
    scratch: &mut WindowScratch,
    lower: &mut [f64],
    upper: &mut [f64],
) {
    assert!(!x.is_empty(), "envelope of empty series");
    assert_eq!(lower.len(), x.len(), "length mismatch");
    assert_eq!(upper.len(), x.len(), "length mismatch");
    window_extreme::<false>(x, k, scratch, lower);
    window_extreme::<true>(x, k, scratch, upper);
}

/// The monotonic-deque sliding-window extreme this module replaced, kept as
/// the bit-level reference.
#[cfg(test)]
pub(crate) fn deque_extreme(x: &[f64], k: usize, want_max: bool) -> Vec<f64> {
    let n = x.len();
    let mut out = Vec::with_capacity(n);
    let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let better = |a: f64, b: f64| if want_max { a >= b } else { a <= b };
    let admit = |deque: &mut std::collections::VecDeque<usize>, j: usize| {
        while deque.back().is_some_and(|&back| better(x[j], x[back])) {
            deque.pop_back();
        }
        deque.push_back(j);
    };
    // Pre-fill the first window [0, k].
    for j in 0..=k.min(n - 1) {
        admit(&mut deque, j);
    }
    for i in 0..n {
        // Window for i is [i-k, i+k]; add the incoming right edge, expire
        // the left one.
        if i > 0 && i + k < n {
            admit(&mut deque, i + k);
        }
        while deque.front().is_some_and(|&front| front + k < i) {
            deque.pop_front();
        }
        out.push(x[*deque.front().expect("window is never empty")]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn min_max(x: &[f64], k: usize, scratch: &mut WindowScratch) -> (Vec<f64>, Vec<f64>) {
        let (mut lower, mut upper) = (vec![0.0; x.len()], vec![0.0; x.len()]);
        window_min_max(x, k, scratch, &mut lower, &mut upper);
        (lower, upper)
    }

    /// The definition, O(n·k).
    fn naive(x: &[f64], k: usize) -> (Vec<f64>, Vec<f64>) {
        let n = x.len();
        (0..n)
            .map(|i| {
                let window = &x[i.saturating_sub(k)..=(i + k).min(n - 1)];
                (
                    window.iter().copied().fold(f64::INFINITY, f64::min),
                    window.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                )
            })
            .unzip()
    }

    /// Series with long runs of equal values and zeros of both signs.
    fn inputs(n: usize) -> Vec<Vec<f64>> {
        let wiggly = (0..n).map(|i| (i as f64 * 0.9).sin() * ((i % 5) as f64 + 1.0)).collect();
        let runs = (0..n).map(|i| ((i / 3) % 4) as f64 - 1.0).collect();
        let zeros = (0..n).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 }).collect();
        let around_zero = (0..n)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -0.0,
                2 => 1.5,
                3 => -0.0,
                _ => -1.5,
            })
            .collect();
        let constant = vec![2.5; n];
        vec![wiggly, runs, zeros, around_zero, constant]
    }

    #[test]
    fn equals_the_definition_and_the_deque_on_the_edge_grid() {
        let mut scratch = WindowScratch::default();
        for n in [1usize, 2, 7, 128] {
            for k in [0, 1, 6, n - 1, n, 5 * n] {
                for x in inputs(n) {
                    let (lower, upper) = min_max(&x, k, &mut scratch);
                    let (want_lower, want_upper) = naive(&x, k);
                    // Values against the definition (whose fold leaves the
                    // sign of a zero open) ...
                    assert_eq!(lower, want_lower, "n={n} k={k} lower of {x:?}");
                    assert_eq!(upper, want_upper, "n={n} k={k} upper of {x:?}");
                    // ... bits, zero signs included, against the deque.
                    assert_eq!(bits(&lower), bits(&deque_extreme(&x, k, false)), "n={n} k={k}");
                    assert_eq!(bits(&upper), bits(&deque_extreme(&x, k, true)), "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_lengths_and_bands_is_invisible() {
        let mut reused = WindowScratch::default();
        for (n, k) in [(128usize, 6usize), (7, 3), (128, 0), (40, 39), (3, 100), (128, 6)] {
            let x = &inputs(n)[0];
            let fresh = min_max(x, k, &mut WindowScratch::default());
            assert_eq!(min_max(x, k, &mut reused), fresh, "n={n} k={k}");
        }
    }
}
