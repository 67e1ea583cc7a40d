//! Prints a bit-exact digest of engine answers and counters over a fixed
//! pseudo-random workload, for before/after comparison of engine changes.
//!
//! Every section is built twice in one process — under
//! [`KernelMode::Unrolled`], the shape everyone runs, and under
//! [`KernelMode::Scalar`], its reference — and the run fails unless the
//! two digests are byte-identical: the kernel layer may change speed but
//! never bits. `ci.sh` additionally compares the output's sha256 with the
//! committed `results/engine_digest.sha256`. Every line prints the matches,
//! their bits and the index counters.

use std::fmt::Write as _;

use hum_core::engine::{DtwIndexEngine, EngineConfig, QueryRequest};
use hum_core::kernel::KernelMode;
use hum_core::transform::paa::NewPaa;
use hum_index::{ItemId, LinearScan, RStarTree, SpatialIndex};

fn lcg_series(n: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    let mut next = move || {
        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n)
        .map(|_| {
            let mut acc = 0.0;
            let mut s: Vec<f64> = (0..len)
                .map(|_| {
                    acc += next();
                    acc
                })
                .collect();
            hum_linalg::vec_ops::center(&mut s);
            s
        })
        .collect()
}

fn match_bits(matches: &[(ItemId, f64)]) -> u64 {
    matches
        .iter()
        .fold(0u64, |h, (id, d)| h.wrapping_mul(31).wrapping_add(id.wrapping_add(d.to_bits())))
}

fn config_for(mode: usize, kernel: KernelMode) -> EngineConfig {
    let config = match mode {
        0 => EngineConfig {
            envelope_refinement: false,
            lb_improved_refinement: false,
            early_abandon: false,
            ..EngineConfig::default()
        },
        1 => EngineConfig {
            envelope_refinement: true,
            lb_improved_refinement: false,
            early_abandon: false,
            ..EngineConfig::default()
        },
        _ => EngineConfig::default(),
    };
    EngineConfig { kernel, ..config }
}

fn digest<I: SpatialIndex>(
    out: &mut String,
    kernel: KernelMode,
    name: &str,
    make: impl Fn() -> I,
    mode: usize,
) {
    let refine = mode;
    let series = lcg_series(400, 64, 11);
    let queries = lcg_series(12, 64, 777);
    let mut engine = DtwIndexEngine::new(NewPaa::new(64, 8), make(), config_for(mode, kernel));
    for (i, s) in series.iter().enumerate() {
        engine.insert(i as ItemId, s.clone());
    }
    for (qi, q) in queries.iter().enumerate() {
        for (band, radius) in [(0usize, 1.2), (3, 2.0), (6, 3.5)] {
            let r = engine
                .query(&QueryRequest::range(radius).with_series(q.clone()).with_band(band))
                .result;
            let mbits = match_bits(&r.matches);
            let _ = writeln!(
                out,
                "{name} refine={refine} q{qi} range b{band} r{radius}: m={} bits={mbits:x} cand={} pages={} pts={}",
                r.matches.len(), r.stats.index.candidates, r.stats.index.node_accesses, r.stats.index.points_examined
            );
        }
        for (band, k) in [(0usize, 1), (3, 5), (6, 17)] {
            let r =
                engine.query(&QueryRequest::knn(k).with_series(q.clone()).with_band(band)).result;
            let mbits = match_bits(&r.matches);
            let _ = writeln!(
                out,
                "{name} refine={refine} q{qi} knn b{band} k{k}: m={} bits={mbits:x} cand={} pages={} pts={}",
                r.matches.len(), r.stats.index.candidates, r.stats.index.node_accesses, r.stats.index.points_examined
            );
        }
    }
}

/// Every section of the digest with the kernels in one mode.
fn full_digest(kernel: KernelMode) -> String {
    let mut out = String::new();
    // mode 0: no cascade; 1: envelope filter only (the pre-cascade default);
    // 2: the full cascade (the default config).
    for mode in [1, 0, 2] {
        digest(&mut out, kernel, "rstar", || RStarTree::with_page_size(8, 1024), mode);
        digest(&mut out, kernel, "linear", || LinearScan::with_page_size(8, 1024), mode);
    }
    out
}

fn main() {
    assert_eq!(KernelMode::default(), KernelMode::Unrolled);
    let digest = full_digest(KernelMode::Unrolled);
    let reference = full_digest(KernelMode::Scalar);
    for (i, (got, want)) in digest.lines().zip(reference.lines()).enumerate() {
        if got != want {
            eprintln!("line {}: unrolled and scalar kernels disagree", i + 1);
            eprintln!("  unrolled: {got}");
            eprintln!("  scalar:   {want}");
            std::process::exit(1);
        }
    }
    assert_eq!(digest.len(), reference.len(), "digests differ in length");
    print!("{digest}");
}
