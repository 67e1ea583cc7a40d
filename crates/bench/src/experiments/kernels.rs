//! Kernel-layer microbenchmark as a reproducible experiment: each hot
//! kernel of the verification cascade (envelope lower bound, `LB_Improved`
//! second pass, banded DTW) timed as a naive sequential reference vs the
//! kernel layer's blocked scalar and unrolled shapes.
//!
//! Two contracts are enforced by the shape check, not just reported:
//!
//! * **Bit-identity** — `KernelMode::Scalar` and `KernelMode::Unrolled`
//!   return identical bits on every candidate.
//! * **Speedup** — at least one kernel variant reaches ≥ 2× over its
//!   sequential reference. Wall-clock ratios are hardware-dependent, so
//!   this is only enforced at paper scale (where per-variant time is long
//!   enough to be stable), never in `--quick` smoke runs.

use std::time::Instant;

use serde::Serialize;

use hum_core::dtw::{band_for_warping_width, ldtw_distance_sq_bounded_with_mode, DtwWorkspace};
use hum_core::envelope::{lb_improved_tail_sq_mode, Envelope, LbScratch};
use hum_core::kernel::lb::env_lb_sq;
use hum_core::kernel::KernelMode;
use hum_datasets::{generate, DatasetFamily};

use crate::report::{fmt1, TextTable};

const MODES: [KernelMode; 2] = [KernelMode::Scalar, KernelMode::Unrolled];

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Series length (normal-form length; the paper's pipeline uses 128).
    pub len: usize,
    /// Candidate series per timed pass.
    pub candidates: usize,
    /// Timed passes over the candidate set (best-of to shed scheduler noise).
    pub passes: usize,
    /// Warping width δ as a fraction of the series length.
    pub delta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Enforce the ≥2× speedup expectation in the shape check.
    pub enforce_speedup: bool,
}

impl Params {
    /// Paper scale.
    pub fn paper() -> Self {
        Params { len: 128, candidates: 4_000, passes: 7, delta: 0.1, seed: 99, enforce_speedup: true }
    }

    /// Smoke-test scale; timing ratios are too noisy to gate on.
    pub fn quick() -> Self {
        Params { candidates: 400, passes: 3, enforce_speedup: false, ..Params::paper() }
    }
}

/// One (kernel, variant) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct KernelRow {
    /// Kernel family: `env_lb`, `lb_improved`, `dtw`.
    pub kernel: String,
    /// Variant: `reference`, `scalar`, `unrolled`.
    pub variant: String,
    /// Nanoseconds per candidate (best pass).
    pub ns_per_call: f64,
    /// Speedup over the same kernel's `reference` row.
    pub speedup: f64,
    /// Whether this variant's outputs were bit-identical to the scalar
    /// kernel shape.
    pub identical: bool,
}

/// Experiment output.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Series length.
    pub len: usize,
    /// Candidates per pass.
    pub candidates: usize,
    /// Sakoe-Chiba band half-width used.
    pub band: usize,
    /// Whether the ≥2× expectation is enforced by [`check`].
    pub speedup_enforced: bool,
    /// One row per (kernel, variant).
    pub rows: Vec<KernelRow>,
}

/// Times `passes` runs of `f` and returns ns/candidate for the best pass
/// along with the checksum of the last pass (kept alive so the work cannot
/// be optimized out).
fn time_best(passes: usize, candidates: usize, mut f: impl FnMut() -> f64) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut sum = 0.0;
    for _ in 0..passes {
        let started = Instant::now();
        sum = f();
        let ns = started.elapsed().as_nanos() as f64 / candidates as f64;
        best = best.min(ns);
    }
    (best, sum)
}

/// Runs the experiment.
pub fn run(params: &Params) -> Output {
    let database = generate(DatasetFamily::RandomWalk, params.candidates, params.len, params.seed);
    let query = generate(DatasetFamily::RandomWalk, 1, params.len, params.seed ^ 0xabcd).remove(0);
    let band = band_for_warping_width(params.delta, params.len);
    let env = Envelope::compute(&query, band);

    let mut rows = Vec::new();
    let mut push = |kernel: &str, variant: &str, ns: f64, reference_ns: f64, identical: bool| {
        rows.push(KernelRow {
            kernel: kernel.to_string(),
            variant: variant.to_string(),
            ns_per_call: ns,
            speedup: reference_ns / ns.max(1e-9),
            identical,
        });
    };

    // --- Envelope lower bound: branchy one-pass reference vs kernel. ---
    let reference_env = |lower: &[f64], upper: &[f64], x: &[f64]| {
        let mut acc = 0.0;
        for i in 0..x.len() {
            let v = x[i];
            if v > upper[i] {
                acc += (v - upper[i]) * (v - upper[i]);
            } else if v < lower[i] {
                acc += (lower[i] - v) * (lower[i] - v);
            }
        }
        acc
    };
    let (env_ref_ns, _) = time_best(params.passes, params.candidates, || {
        database.iter().map(|s| reference_env(env.lower(), env.upper(), s)).sum()
    });
    push("env_lb", "reference", env_ref_ns, env_ref_ns, true);
    let scalar_bits: Vec<u64> =
        database.iter().map(|s| env_lb_sq(KernelMode::Scalar, env.lower(), env.upper(), s).to_bits()).collect();
    for mode in MODES {
        let (ns, _) = time_best(params.passes, params.candidates, || {
            database.iter().map(|s| env_lb_sq(mode, env.lower(), env.upper(), s)).sum()
        });
        let identical = database
            .iter()
            .zip(&scalar_bits)
            .all(|(s, &want)| env_lb_sq(mode, env.lower(), env.upper(), s).to_bits() == want);
        push("env_lb", &format!("{mode:?}").to_lowercase(), ns, env_ref_ns, identical);
    }

    // --- LB_Improved second pass (projection + window min/max + LB). ---
    let mut scratch = LbScratch::new();
    let lb_bits: Vec<u64> = database
        .iter()
        .map(|s| {
            lb_improved_tail_sq_mode(&query, &env, s, band, f64::INFINITY, &mut scratch, KernelMode::Scalar)
                .to_bits()
        })
        .collect();
    // The scalar shape doubles as this kernel's reference: the window
    // min/max both modes share has no pre-kernel-layer form to time.
    let mut lb_ref_ns = 0.0;
    for (i, mode) in MODES.iter().enumerate() {
        let (ns, _) = time_best(params.passes, params.candidates, || {
            database
                .iter()
                .map(|s| lb_improved_tail_sq_mode(&query, &env, s, band, f64::INFINITY, &mut scratch, *mode))
                .sum()
        });
        if i == 0 {
            lb_ref_ns = ns;
        }
        let identical = database.iter().zip(&lb_bits).all(|(s, &want)| {
            lb_improved_tail_sq_mode(&query, &env, s, band, f64::INFINITY, &mut scratch, *mode)
                .to_bits()
                == want
        });
        push("lb_improved", &format!("{mode:?}").to_lowercase(), ns, lb_ref_ns, identical);
    }

    // --- Banded DTW with early abandonment disabled (full band). ---
    let mut ws = DtwWorkspace::new();
    let dtw_bits: Vec<u64> = database
        .iter()
        .map(|s| {
            ldtw_distance_sq_bounded_with_mode(&mut ws, &query, s, band, f64::INFINITY, KernelMode::Scalar)
                .to_bits()
        })
        .collect();
    let mut dtw_ref_ns = f64::NAN;
    for (i, mode) in MODES.iter().enumerate() {
        let (ns, _) = time_best(params.passes, params.candidates, || {
            database
                .iter()
                .map(|s| {
                    ldtw_distance_sq_bounded_with_mode(&mut ws, &query, s, band, f64::INFINITY, *mode)
                })
                .sum()
        });
        if i == 0 {
            dtw_ref_ns = ns;
        }
        let identical = database.iter().zip(&dtw_bits).all(|(s, &want)| {
            ldtw_distance_sq_bounded_with_mode(&mut ws, &query, s, band, f64::INFINITY, *mode)
                .to_bits()
                == want
        });
        push("dtw", &format!("{mode:?}").to_lowercase(), ns, dtw_ref_ns, identical);
    }

    Output {
        len: params.len,
        candidates: params.candidates,
        band,
        speedup_enforced: params.enforce_speedup,
        rows,
    }
}

/// Renders the per-kernel table.
pub fn render(output: &Output) -> (String, TextTable) {
    let mut table = TextTable::new(vec!["kernel", "variant", "ns/call", "speedup", "identical"]);
    for row in &output.rows {
        table.row(vec![
            row.kernel.clone(),
            row.variant.clone(),
            fmt1(row.ns_per_call),
            format!("{:.2}x", row.speedup),
            if row.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let text = format!(
        "Kernel-layer microbenchmarks (len {}, {} candidates, band k={})\n\
         speedup is vs the kernel's own reference row\n\n{}",
        output.len,
        output.candidates,
        output.band,
        table.render()
    );
    (text, table)
}

/// Shape checks: bit-identity always; the ≥2× speedup only
/// when the run was configured to enforce it (paper scale).
pub fn check(output: &Output) -> Vec<String> {
    let mut failures = Vec::new();
    for row in &output.rows {
        if !row.identical {
            failures.push(format!(
                "{}/{}: outputs deviate from the scalar kernel bits",
                row.kernel, row.variant
            ));
        }
    }
    if output.speedup_enforced {
        let best = output
            .rows
            .iter()
            .filter(|r| r.variant != "reference")
            .map(|r| r.speedup)
            .fold(f64::NEG_INFINITY, f64::max);
        if best < 2.0 {
            failures.push(format!(
                "no kernel variant reached 2x over its reference (best {best:.2}x)"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_bit_identical_across_variants() {
        let out = run(&Params::quick());
        assert!(out.rows.iter().all(|r| r.identical), "{out:?}");
        assert!(check(&out).is_empty());
        assert_eq!(out.rows.len(), 7);
    }

    #[test]
    fn render_reports_every_row() {
        let out = run(&Params { candidates: 64, passes: 1, ..Params::quick() });
        let (text, table) = render(&out);
        assert!(text.contains("ns/call"));
        assert_eq!(table.to_csv().lines().count(), out.rows.len() + 1);
    }
}
