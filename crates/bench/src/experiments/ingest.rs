//! Sustained-ingest cost: durable bytes per insert and insert throughput
//! for the segmented store across memtable capacities.
//!
//! The store writes a bounded segment per memtable flush plus a small
//! manifest, so the amortized durable cost per insert is proportional to
//! the melody, not the corpus. This experiment measures that cost — and
//! the write amplification compaction adds on top of it — and verifies the
//! ingested store still answers queries bit-identically to the monolithic
//! in-memory build. (The rewrite-everything snapshot this store replaced,
//! and the ratio measured against it, are recorded in EXPERIMENTS.md.)

use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;

use hum_core::engine::QueryRequest;
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::generate_hums;
use hum_qbh::system::{QbhConfig, QbhSystem, StoreOptions};

use crate::report::{fmt1, TextTable};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Corpus melodies to ingest.
    pub melodies: usize,
    /// Memtable capacities (melodies per flush) to sweep.
    pub memtable_capacities: Vec<usize>,
    /// Segment count that triggers compaction during ingest.
    pub compact_at: usize,
    /// Hummed queries for the bit-identity check.
    pub queries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// Paper scale.
    pub fn paper() -> Self {
        Params {
            melodies: 10_000,
            memtable_capacities: vec![64, 256, 1024],
            compact_at: 8,
            queries: 10,
            seed: 31,
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Params {
            melodies: 600,
            memtable_capacities: vec![32, 128],
            queries: 4,
            ..Params::paper()
        }
    }
}

/// One memtable-capacity measurement.
#[derive(Debug, Clone, Serialize)]
pub struct IngestRow {
    /// Memtable capacity (melodies per flush).
    pub memtable: usize,
    /// Wall-clock seconds for the whole ingest (inserts + flushes +
    /// compactions + final flush).
    pub secs: f64,
    /// Inserts per second, durable included.
    pub inserts_per_sec: f64,
    /// Segment flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Live segments at the end.
    pub segments: usize,
    /// Total durable bytes written (segments + manifests).
    pub bytes_written: u64,
    /// Amortized durable bytes per insert.
    pub bytes_per_insert: f64,
    /// Whether a reopened store answered the probe queries bit-identically
    /// to the monolithic in-memory build.
    pub identical: bool,
}

/// Experiment output.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Corpus size.
    pub melodies: usize,
    /// One row per memtable capacity.
    pub rows: Vec<IngestRow>,
}

/// Runs the experiment.
pub fn run(params: &Params) -> Output {
    let db = MelodyDatabase::from_songbook(&SongbookConfig {
        songs: params.melodies.div_ceil(20),
        phrases_per_song: 20,
        ..SongbookConfig::default()
    });
    let config = QbhConfig::default();
    let melodies = db.len().min(params.melodies);

    // Probe queries answered by the monolithic build: the ingested store
    // must reproduce these bit for bit after a reload.
    let monolithic = QbhSystem::build(&db, &config);
    let hums: Vec<Vec<f64>> =
        generate_hums(&db, SingerProfile::good(), params.queries, params.seed)
            .into_iter()
            .map(|h| h.series)
            .collect();
    let top10 = |system: &QbhSystem, hum: &[f64]| {
        let request = QueryRequest::knn(10).with_band(system.band());
        system.try_query_request(hum, request).expect("valid hum query").0
    };
    let expected: Vec<_> = hums.iter().map(|h| top10(&monolithic, h)).collect();

    let mut rows = Vec::new();
    for &memtable in &params.memtable_capacities {
        let dir = ingest_dir(memtable);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create ingest dir");
        let options =
            StoreOptions { memtable_capacity: memtable, compact_at: params.compact_at };

        let started = Instant::now();
        let mut system =
            QbhSystem::try_create_store(&dir, &config, options).expect("create store");
        system.try_ingest(&db).expect("ingest");
        let secs = started.elapsed().as_secs_f64();
        let stats = system.store_stats().expect("store-backed");
        drop(system);

        let reopened = QbhSystem::try_open_store(&dir).expect("reopen ingested store");
        let identical = reopened.len() == melodies
            && hums
                .iter()
                .zip(&expected)
                .all(|(h, want)| top10(&reopened, h).matches == want.matches);

        rows.push(IngestRow {
            memtable,
            secs,
            inserts_per_sec: melodies as f64 / secs.max(1e-9),
            flushes: stats.flushes,
            compactions: stats.compactions,
            segments: stats.segments,
            bytes_written: stats.bytes_written,
            bytes_per_insert: stats.bytes_written as f64 / melodies as f64,
            identical,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    Output { melodies, rows }
}

fn ingest_dir(memtable: usize) -> PathBuf {
    std::env::temp_dir()
        .join(format!("qbh-bench-ingest-{memtable}-{}", std::process::id()))
}

/// Renders the ingest table.
pub fn render(output: &Output) -> (String, TextTable) {
    let mut table = TextTable::new(vec![
        "memtable",
        "inserts/sec",
        "flushes",
        "compactions",
        "segments",
        "MB written",
        "bytes/insert",
        "identical",
    ]);
    for row in &output.rows {
        table.row(vec![
            row.memtable.to_string(),
            fmt1(row.inserts_per_sec),
            row.flushes.to_string(),
            row.compactions.to_string(),
            row.segments.to_string(),
            format!("{:.1}", row.bytes_written as f64 / 1e6),
            fmt1(row.bytes_per_insert),
            if row.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let text = format!("Durable ingest cost ({} melodies)\n\n{}", output.melodies, table.render());
    (text, table)
}

/// Shape checks: every memtable capacity must have exercised segmented
/// ingest (more than one flush), and the ingested store must answer
/// identically to the monolithic build.
pub fn check(output: &Output) -> Vec<String> {
    let mut failures = Vec::new();
    for row in &output.rows {
        if !row.identical {
            failures.push(format!(
                "memtable={}: reopened store deviates from the monolithic build",
                row.memtable
            ));
        }
        if row.flushes < 2 {
            failures.push(format!(
                "memtable={}: {} flushes — the sweep never exercised segmented ingest",
                row.memtable, row.flushes
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_flushes_segments_and_stays_identical() {
        let out = run(&Params::quick());
        assert_eq!(out.rows.len(), 2);
        let failures = check(&out);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
