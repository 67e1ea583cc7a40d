//! Prints a bit-exact digest of engine answers and counters over a fixed
//! pseudo-random workload, for before/after comparison of engine changes.
//!
//! Every section is built twice in one process — under
//! [`KernelMode::Unrolled`], the shape everyone runs, and under
//! [`KernelMode::Scalar`], its reference — and the run fails unless the
//! two digests are byte-identical: the kernel layer may change speed but
//! never bits. `ci.sh` additionally runs this under `HUM_THREADS=1` and
//! `8`, diffs the outputs, and compares their sha256 with the committed
//! `results/engine_digest.sha256`. GridFile's internal counters depend on
//! `HashMap` iteration order, so its lines print matches and match-bits
//! only. The final 4-leaf section prints every `EngineStats` counter of
//! multi-leaf queries, single (scattered across `HUM_THREADS` workers) and
//! batched, so the executor's fixed-leaf-order absorption is under the
//! same byte-diff. (Its lines keep their historical `rstar shards=4` label:
//! the committed hash covers them.)

use std::fmt::Write as _;

use hum_core::batch::BatchOptions;
use hum_core::engine::{DtwIndexEngine, EngineConfig, QueryRequest, QueryScratch};
use hum_core::exec::{execute, execute_batch, Leaf};
use hum_core::kernel::KernelMode;
use hum_core::obs::MetricsSink;
use hum_core::transform::paa::NewPaa;
use hum_index::{GridFile, ItemId, LinearScan, RStarTree, SpatialIndex};

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
    stable_counters: bool,
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
            if stable_counters {
                let _ = writeln!(
                    out,
                    "{name} refine={refine} q{qi} range b{band} r{radius}: m={} bits={mbits:x} cand={} pages={} pts={}",
                    r.matches.len(), r.stats.index.candidates, r.stats.index.node_accesses, r.stats.index.points_examined
                );
            } else {
                let _ = writeln!(
                    out,
                    "{name} refine={refine} q{qi} range b{band} r{radius}: m={} bits={mbits:x}",
                    r.matches.len()
                );
            }
            let s = engine
                .query(
                    &QueryRequest::range(radius)
                        .with_series(q.clone())
                        .with_band(band)
                        .with_scan(true),
                )
                .result;
            let sbits = match_bits(&s.matches);
            let _ = writeln!(
                out,
                "{name} refine={refine} q{qi} scanrange b{band}: m={} bits={sbits:x}",
                s.matches.len()
            );
        }
        for (band, k) in [(0usize, 1), (3, 5), (6, 17)] {
            let r =
                engine.query(&QueryRequest::knn(k).with_series(q.clone()).with_band(band)).result;
            let mbits = match_bits(&r.matches);
            if stable_counters {
                let _ = writeln!(
                    out,
                    "{name} refine={refine} q{qi} knn b{band} k{k}: m={} bits={mbits:x} cand={} pages={} pts={}",
                    r.matches.len(), r.stats.index.candidates, r.stats.index.node_accesses, r.stats.index.points_examined
                );
            } else {
                let _ = writeln!(
                    out,
                    "{name} refine={refine} q{qi} knn b{band} k{k}: m={} bits={mbits:x}",
                    r.matches.len()
                );
            }
            let s = engine
                .query(&QueryRequest::knn(k).with_series(q.clone()).with_band(band).with_scan(true))
                .result;
            let sbits = match_bits(&s.matches);
            let _ = writeln!(
                out,
                "{name} refine={refine} q{qi} scanknn b{band} k{k}: m={} bits={sbits:x}",
                s.matches.len()
            );
        }
    }
}

/// Batched execution digest under `BatchOptions::default()`, which honors
/// `HUM_THREADS` — so the ci.sh thread-count sweep exercises the parallel
/// fan-out path, whose results must be thread-count-invariant.
fn batch_digest<I: SpatialIndex>(
    out: &mut String,
    kernel: KernelMode,
    name: &str,
    make: impl Fn() -> I,
) {
    let series = lcg_series(400, 64, 11);
    let queries = lcg_series(12, 64, 777);
    let mut engine = DtwIndexEngine::new(NewPaa::new(64, 8), make(), config_for(2, kernel));
    for (i, s) in series.iter().enumerate() {
        engine.insert(i as ItemId, s.clone());
    }
    let mut batch = Vec::new();
    for q in &queries {
        batch.push(QueryRequest::range(2.0).with_series(q.clone()).with_band(3));
        batch.push(QueryRequest::knn(9).with_series(q.clone()).with_band(6));
    }
    let batched = engine
        .try_query_batch(&batch, &BatchOptions::default())
        .expect("digest workload is well-formed");
    let bits = batched
        .outcomes
        .iter()
        .fold(0u64, |h, o| h.wrapping_mul(37).wrapping_add(match_bits(&o.result.matches)));
    let m: usize = batched.outcomes.iter().map(|o| o.result.matches.len()).sum();
    let _ = writeln!(out, "{name} batch: m={m} bits={bits:x}");
}

/// The leaf an id lands on in the multi-leaf section: `splitmix64(id) % 4`,
/// a fixed partition that spreads contiguous ids.
fn leaf_for(id: ItemId) -> usize {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % 4) as usize
}

/// Multi-leaf digest: the same workload over 4 leaves, printing every
/// counter — they depend on the leaf layout, never on the scatter width or
/// thread count.
fn multi_leaf_digest(out: &mut String, kernel: KernelMode) {
    let series = lcg_series(400, 64, 11);
    let queries = lcg_series(12, 64, 777);
    let mut engines: Vec<_> = (0..4)
        .map(|_| {
            DtwIndexEngine::new(
                NewPaa::new(64, 8),
                RStarTree::with_page_size(8, 1024),
                config_for(2, kernel),
            )
        })
        .collect();
    for (i, s) in series.iter().enumerate() {
        engines[leaf_for(i as ItemId)].insert(i as ItemId, s.clone());
    }
    let leaves: Vec<_> = engines.iter().map(|engine| Leaf { engine, meta: None }).collect();
    let (threads, metrics) = (BatchOptions::default().threads, MetricsSink::Disabled);
    let mut batch = Vec::new();
    for q in &queries {
        for scan in [false, true] {
            let shape = |r: QueryRequest| r.with_series(q.clone()).with_scan(scan);
            batch.push(shape(QueryRequest::range(2.0).with_band(3)));
            batch.push(shape(QueryRequest::knn(9).with_band(6)));
        }
    }
    for (i, request) in batch.iter().enumerate() {
        let r = execute(&leaves, request, &mut QueryScratch::new(), threads, &metrics)
            .expect("digest workload is well-formed")
            .result;
        let _ =
            writeln!(out, "rstar shards=4 r{i}: bits={:x} {:?}", match_bits(&r.matches), r.stats);
    }
    let batched = execute_batch(&leaves, &batch, &BatchOptions::default(), &metrics)
        .expect("digest workload is well-formed");
    let _ = writeln!(out, "rstar shards=4 batch: {:?}", batched.stats);
}

/// Every section of the digest with the kernels in one mode.
fn full_digest(kernel: KernelMode) -> String {
    let mut out = String::new();
    // mode 0: no cascade; 1: envelope filter only (the pre-cascade default);
    // 2: the full cascade (the default config).
    for mode in [1, 0, 2] {
        digest(&mut out, kernel, "rstar", || RStarTree::with_page_size(8, 1024), mode, true);
        digest(&mut out, kernel, "grid", || GridFile::with_params(8, 4, 32, 1024), mode, false);
        digest(&mut out, kernel, "linear", || LinearScan::with_page_size(8, 1024), mode, true);
    }
    batch_digest(&mut out, kernel, "rstar", || RStarTree::with_page_size(8, 1024));
    batch_digest(&mut out, kernel, "grid", || GridFile::with_params(8, 4, 32, 1024));
    batch_digest(&mut out, kernel, "linear", || LinearScan::with_page_size(8, 1024));
    multi_leaf_digest(&mut out, kernel);
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
