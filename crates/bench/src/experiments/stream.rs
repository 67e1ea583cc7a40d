//! Streaming query-as-you-hum: refinement latency and result churn versus
//! hum length, over the wire.
//!
//! The client loops over growing prefixes of each hum, one per checkpoint:
//! a refinement is an ordinary `knn` request carrying everything heard so
//! far (the server keeps nothing between them), and the round trip —
//! re-upload included — is timed. Two things are measured per checkpoint
//! fraction of the hum:
//!
//! - **refinement latency** (p50/p95 round-trip milliseconds) — the cost
//!   of re-querying as the hum grows, which the admission queue serves
//!   like any one-shot query;
//! - **result churn** — the fraction of the top-k id set replaced since
//!   the previous refinement, plus how often the current top-1 already
//!   agrees with the final (full-hum) top-1. Churn decaying toward zero
//!   is the evidence that streaming refinement converges rather than
//!   thrashing.
//!
//! Every refinement — not just the final one — is compared bit for bit
//! against an in-process one-shot query over the same prefix, so the
//! committed results double as evidence that served answers are the
//! in-process ones at every prefix length.

use std::time::Instant;

use serde::Serialize;

use hum_core::engine::QueryRequest;
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::generate_hums;
use hum_qbh::system::{QbhConfig, QbhMatch, QbhSystem};
use hum_server::{Client, QueryOptions, Server, ServerConfig};

use crate::report::{fmt3, TextTable};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Database melodies (Fig 9 scale: 35,000).
    pub melodies: usize,
    /// Hums streamed, prefix by prefix.
    pub hums: usize,
    /// Neighbors per refinement.
    pub k: usize,
    /// Refinement checkpoints per hum (chunks of 1/checkpoints of the hum).
    pub checkpoints: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// Paper scale.
    pub fn paper() -> Self {
        Params { melodies: 35_000, hums: 40, k: 10, checkpoints: 8, seed: 41 }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Params { melodies: 2_000, hums: 8, checkpoints: 4, ..Params::paper() }
    }
}

/// One checkpoint-fraction measurement, aggregated over every hum.
#[derive(Debug, Clone, Serialize)]
pub struct StreamRow {
    /// Fraction of the hum heard at this checkpoint (1.0 = the full hum).
    pub fraction: f64,
    /// Mean frames sent at this checkpoint.
    pub mean_frames: f64,
    /// Median refine round-trip latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile refine round-trip latency, milliseconds.
    pub p95_ms: f64,
    /// Mean fraction of the top-k id set replaced since the previous
    /// checkpoint (the first checkpoint counts as fully new: 1.0).
    pub churn: f64,
    /// Fraction of hums whose top-1 at this checkpoint already equals
    /// their final full-hum top-1.
    pub top1_agreement: f64,
    /// Whether every refinement at this checkpoint was bit-identical to
    /// an in-process one-shot query over the same prefix.
    pub identical: bool,
}

/// Experiment output.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Database size.
    pub melodies: usize,
    /// Hums streamed.
    pub hums: usize,
    /// Neighbors per refinement.
    pub k: usize,
    /// One row per checkpoint fraction.
    pub rows: Vec<StreamRow>,
}

/// Nearest-rank percentile of an ascending-sorted latency list, in ms.
fn percentile_ms(sorted_nanos: &[u64], pct: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted_nanos.len() as f64).ceil() as usize;
    sorted_nanos[rank.clamp(1, sorted_nanos.len()) - 1] as f64 / 1e6
}

fn matches_bit_identical(served: &[hum_server::ServiceMatch], local: &[QbhMatch]) -> bool {
    served.len() == local.len()
        && served.iter().zip(local).all(|(s, l)| {
            (s.id, s.song, s.phrase) == (l.id, l.song, l.phrase)
                && s.distance.to_bits() == l.distance.to_bits()
        })
}

/// Runs the experiment.
pub fn run(params: &Params) -> Output {
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: params.melodies.div_ceil(20),
        phrases_per_song: 20,
        ..SongbookConfig::default()
    });
    let system = QbhSystem::build(&db, &QbhConfig::default());
    let band = system.band();
    let hums: Vec<Vec<f64>> =
        generate_hums(&db, SingerProfile::good(), params.hums, params.seed)
            .into_iter()
            .map(|h| h.series)
            .collect();

    // In-process one-shot baselines for every (hum, prefix) pair, computed
    // before the server takes ownership of the system. The server defaults
    // omitted bands to the system's configured width, so pin the same band.
    let prefix_len = |hum: &[f64], checkpoint: usize| {
        (hum.len() * checkpoint).div_ceil(params.checkpoints).max(1)
    };
    let baseline: Vec<Vec<Vec<QbhMatch>>> = hums
        .iter()
        .map(|hum| {
            (1..=params.checkpoints)
                .map(|c| {
                    system
                        .try_query_request(
                            &hum[..prefix_len(hum, c)],
                            QueryRequest::knn(params.k).with_band(band),
                        )
                        .map(|(results, _)| results.matches)
                        .unwrap_or_default()
                })
                .collect()
        })
        .collect();

    let server = Server::start(system, "127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral loopback port");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Per-checkpoint accumulators across hums.
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); params.checkpoints];
    let mut frames_total: Vec<u64> = vec![0; params.checkpoints];
    let mut churn_total: Vec<f64> = vec![0.0; params.checkpoints];
    let mut top1_hits: Vec<usize> = vec![0; params.checkpoints];
    let mut identical: Vec<bool> = vec![true; params.checkpoints];

    for (hum, local) in hums.iter().zip(&baseline) {
        let mut previous_ids: Vec<u64> = Vec::new();
        let mut top1_per_checkpoint: Vec<Option<u64>> = Vec::new();
        for c in 1..=params.checkpoints {
            let end = prefix_len(hum, c);
            let t0 = Instant::now();
            let refined =
                client.knn(&hum[..end], params.k, &QueryOptions::default()).expect("knn");
            latencies[c - 1].push(t0.elapsed().as_nanos() as u64);
            frames_total[c - 1] += end as u64;
            identical[c - 1] &= matches_bit_identical(&refined.matches, &local[c - 1]);

            let ids: Vec<u64> = refined.matches.iter().map(|m| m.id).collect();
            let new = ids.iter().filter(|id| !previous_ids.contains(id)).count();
            churn_total[c - 1] += new as f64 / ids.len().max(1) as f64;
            top1_per_checkpoint.push(ids.first().copied());
            previous_ids = ids;
        }

        let final_top1 = top1_per_checkpoint.last().copied().flatten();
        for (c, top1) in top1_per_checkpoint.iter().enumerate() {
            if top1.is_some() && *top1 == final_top1 {
                top1_hits[c] += 1;
            }
        }
    }
    drop(client);
    server.shutdown().expect("graceful shutdown returns the system");

    let rows = (0..params.checkpoints)
        .map(|c| {
            latencies[c].sort_unstable();
            StreamRow {
                fraction: (c + 1) as f64 / params.checkpoints as f64,
                mean_frames: frames_total[c] as f64 / params.hums.max(1) as f64,
                p50_ms: percentile_ms(&latencies[c], 50.0),
                p95_ms: percentile_ms(&latencies[c], 95.0),
                churn: churn_total[c] / params.hums.max(1) as f64,
                top1_agreement: top1_hits[c] as f64 / params.hums.max(1) as f64,
                identical: identical[c],
            }
        })
        .collect();

    Output { melodies: db.len().min(params.melodies), hums: params.hums, k: params.k, rows }
}

/// Renders the latency/churn table.
pub fn render(output: &Output) -> (String, TextTable) {
    let mut table = TextTable::new(vec![
        "fraction",
        "frames",
        "p50 ms",
        "p95 ms",
        "churn",
        "top1 agreement",
        "identical",
    ]);
    for row in &output.rows {
        table.row(vec![
            format!("{:.3}", row.fraction),
            format!("{:.0}", row.mean_frames),
            fmt3(row.p50_ms),
            fmt3(row.p95_ms),
            format!("{:.3}", row.churn),
            format!("{:.3}", row.top1_agreement),
            if row.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let text = format!(
        "Streaming refinement over TCP loopback ({} melodies, {} hums, k={}, \
         {} checkpoints per hum)\n\n{}",
        output.melodies,
        output.hums,
        output.k,
        output.rows.len(),
        table.render()
    );
    (text, table)
}

/// Shape checks: prefix bit-identity everywhere, ordered percentiles,
/// growing prefixes, and well-formed churn (the first checkpoint is fully
/// new by definition; how fast churn decays is reported, not gated — a
/// short prefix re-normalizes to a genuinely different canonical series,
/// so early top-k reshuffles are real behavior, not noise).
pub fn check(output: &Output) -> Vec<String> {
    let mut failures = Vec::new();
    for row in &output.rows {
        if !row.identical {
            failures.push(format!(
                "fraction {:.3}: refinements deviate from in-process one-shot \
                 queries over the same prefix",
                row.fraction
            ));
        }
        if row.p50_ms > row.p95_ms {
            failures.push(format!("fraction {:.3}: p50 above p95", row.fraction));
        }
        if !(0.0..=1.0).contains(&row.churn) {
            failures.push(format!(
                "fraction {:.3}: churn {} outside [0, 1]",
                row.fraction, row.churn
            ));
        }
    }
    for pair in output.rows.windows(2) {
        if pair[1].mean_frames <= pair[0].mean_frames {
            failures.push(format!(
                "fraction {:.3}: prefixes did not grow (mean frames {} -> {})",
                pair[1].fraction, pair[0].mean_frames, pair[1].mean_frames
            ));
        }
    }
    if let (Some(first), Some(last)) = (output.rows.first(), output.rows.last()) {
        if (first.churn - 1.0).abs() > 1e-12 {
            failures.push(format!(
                "first checkpoint churn {} != 1.0 (everything should be new)",
                first.churn
            ));
        }
        if last.top1_agreement < 1.0 {
            failures.push(
                "final checkpoint disagrees with itself on top-1".to_string(),
            );
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_prefix_bit_identical_and_converges() {
        let out = run(&Params {
            melodies: 400,
            hums: 4,
            checkpoints: 3,
            ..Params::quick()
        });
        assert_eq!(out.rows.len(), 3);
        assert!(check(&out).is_empty(), "{:?}", check(&out));
        for row in &out.rows {
            assert!(row.identical, "{row:?}");
            assert!(row.p50_ms > 0.0, "{row:?}");
        }
    }

    #[test]
    fn render_reports_every_checkpoint() {
        let out = run(&Params {
            melodies: 400,
            hums: 2,
            checkpoints: 2,
            ..Params::quick()
        });
        let (text, table) = render(&out);
        assert!(text.contains("Streaming refinement"));
        assert_eq!(table.to_csv().lines().count(), out.rows.len() + 1);
    }
}
