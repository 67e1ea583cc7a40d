//! SIMD-friendly, cache-conscious kernels for the verification cascade.
//!
//! This layer owns the flat data layouts ([`soa`]) and the hot inner loops
//! of candidate verification: the envelope-LB accumulation ([`lb`]), which
//! also powers the LB_Improved second pass, and the banded-DTW row
//! recurrence ([`dtw_row`]). [`window`] holds the sliding-window min/max
//! behind every envelope.
//!
//! ## The one rule: shapes change speed, never bits
//!
//! Every kernel has one shape everyone runs — [`KernelMode::Unrolled`]:
//! explicit lane blocks, on x86-64 the same recipe on AVX2 vectors when
//! the CPU has them (checked at run time), the portable lane statements
//! otherwise — and a plain scalar loop, [`KernelMode::Scalar`], kept as
//! the reference the property suite compares against (as a brute-force
//! DTW sweep is the reference for the index path). The floating-point *recipe* — lane
//! counts, accumulation order, combine tree — is fixed per kernel and
//! shared by every shape, so they are bit-identical by construction;
//! `crates/core/tests/kernel.rs` (including the three kernels the engine
//! runs per candidate, on every series of an engine's corpus), the
//! in-module tests and `repro kernels` hold them to it.

pub mod dtw_row;
pub mod lb;
#[doc(hidden)]
pub mod prefilter;
pub mod soa;
pub mod window;

/// Which implementation shape the kernels run. Both produce identical
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// Portable scalar loops: the reference shape, selected only
    /// explicitly (the kernel tests, `repro kernels`).
    Scalar,
    /// Explicit 4/8-lane blocks, AVX2 where the CPU has it. The default.
    #[default]
    Unrolled,
}
