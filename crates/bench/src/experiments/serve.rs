//! Query-serving latency and throughput: closed-loop multi-connection load
//! against the TCP server, swept over worker-pool sizes on the
//! Fig-9-scale music workload.
//!
//! Each connection is its own OS thread running a blocking
//! [`hum_server::Client`] that issues k-NN requests back to back and times
//! every round trip. The serving contract mirrors the batch layer's: the
//! worker count changes *only* wall-clock numbers — every served match list
//! is compared bit for bit against the in-process baseline, and the shape
//! check fails if any request deviates, is rejected, or errors.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use hum_core::engine::QueryRequest;
use hum_music::{SingerProfile, SongbookConfig};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::generate_hums;
use hum_qbh::system::{QbhConfig, QbhMatch, QbhSystem};
use hum_server::{Client, QueryOptions, Server, ServerConfig};

use crate::report::{fmt1, fmt3, TextTable};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Database melodies (Fig 9 scale: 35,000).
    pub melodies: usize,
    /// Concurrent client connections (closed loop: each has at most one
    /// request in flight).
    pub connections: usize,
    /// Requests each connection issues back to back.
    pub queries_per_conn: usize,
    /// Neighbors per query.
    pub k: usize,
    /// Worker-pool sizes to sweep.
    pub worker_counts: Vec<usize>,
    /// Admission-queue depth.
    pub queue_depth: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// Paper scale.
    pub fn paper() -> Self {
        Params {
            melodies: 35_000,
            connections: 8,
            queries_per_conn: 50,
            k: 10,
            worker_counts: vec![1, 2, 4, 8],
            queue_depth: 256,
            seed: 29,
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Params {
            melodies: 2_000,
            connections: 4,
            queries_per_conn: 8,
            worker_counts: vec![1, 4],
            ..Params::paper()
        }
    }
}

/// One worker-count measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ServeRow {
    /// Worker-pool size.
    pub workers: usize,
    /// Wall-clock seconds for the whole load.
    pub secs: f64,
    /// Served requests per second.
    pub qps: f64,
    /// Median round-trip latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile round-trip latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile round-trip latency, milliseconds.
    pub p99_ms: f64,
    /// Requests rejected by admission control (a closed loop within the
    /// queue depth must see zero).
    pub rejected: usize,
    /// Whether every served match list was bit-identical to the in-process
    /// baseline.
    pub identical: bool,
}

/// Experiment output.
#[derive(Debug, Clone, Serialize)]
pub struct Output {
    /// Database size.
    pub melodies: usize,
    /// Concurrent connections.
    pub connections: usize,
    /// Requests per connection.
    pub queries_per_conn: usize,
    /// Neighbors per query.
    pub k: usize,
    /// Hardware threads available during the run.
    pub hardware_threads: usize,
    /// One row per worker count.
    pub rows: Vec<ServeRow>,
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
    let total_queries = params.connections * params.queries_per_conn;
    let hums: Vec<Vec<f64>> =
        generate_hums(&db, SingerProfile::good(), total_queries, params.seed)
            .into_iter()
            .map(|h| h.series)
            .collect();

    // In-process baseline, one result set per request. The server defaults
    // omitted bands to the system's configured width, so pin the same band.
    let band = system.band();
    let baseline: Vec<Vec<QbhMatch>> = hums
        .iter()
        .map(|h| {
            system
                .try_query_request(h, QueryRequest::knn(params.k).with_band(band))
                .map(|(results, _)| results.matches)
                .unwrap_or_default()
        })
        .collect();
    let hums = Arc::new(hums);
    let baseline = Arc::new(baseline);

    let mut rows = Vec::new();
    let mut system = Some(system);
    for &workers in &params.worker_counts {
        let config = ServerConfig {
            workers,
            queue_depth: params.queue_depth,
            ..ServerConfig::default()
        };
        let server = Server::start(
            system.take().expect("system is handed back between rounds"),
            "127.0.0.1:0",
            config,
        )
        .expect("bind an ephemeral loopback port");
        let addr = server.local_addr();

        let started = Instant::now();
        let threads: Vec<_> = (0..params.connections)
            .map(|conn| {
                let hums = Arc::clone(&hums);
                let baseline = Arc::clone(&baseline);
                let (k, per_conn) = (params.k, params.queries_per_conn);
                std::thread::spawn(move || {
                    let mut latencies = Vec::with_capacity(per_conn);
                    let mut rejected = 0usize;
                    let mut identical = true;
                    let mut client = Client::connect(addr).expect("connect");
                    for j in 0..per_conn {
                        let i = conn * per_conn + j;
                        let t0 = Instant::now();
                        match client.knn(&hums[i], k, &QueryOptions::default()) {
                            Ok(reply) => {
                                latencies.push(t0.elapsed().as_nanos() as u64);
                                identical &=
                                    matches_bit_identical(&reply.matches, &baseline[i]);
                            }
                            Err(hum_server::ClientError::Overloaded(_)) => rejected += 1,
                            Err(e) => panic!("serving failed mid-load: {e}"),
                        }
                    }
                    (latencies, rejected, identical)
                })
            })
            .collect();

        let mut latencies = Vec::with_capacity(total_queries);
        let mut rejected = 0usize;
        let mut identical = true;
        for thread in threads {
            let (lat, rej, ident) = thread.join().expect("load thread");
            latencies.extend(lat);
            rejected += rej;
            identical &= ident;
        }
        let secs = started.elapsed().as_secs_f64();
        latencies.sort_unstable();

        rows.push(ServeRow {
            workers,
            secs,
            qps: latencies.len() as f64 / secs.max(1e-9),
            p50_ms: percentile_ms(&latencies, 50.0),
            p95_ms: percentile_ms(&latencies, 95.0),
            p99_ms: percentile_ms(&latencies, 99.0),
            rejected,
            identical,
        });
        system = Some(server.shutdown().expect("graceful shutdown returns the system"));
    }

    Output {
        melodies: db.len().min(params.melodies),
        connections: params.connections,
        queries_per_conn: params.queries_per_conn,
        k: params.k,
        hardware_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        rows,
    }
}

/// Renders the latency/throughput table.
pub fn render(output: &Output) -> (String, TextTable) {
    let mut table = TextTable::new(vec![
        "workers",
        "secs",
        "queries/sec",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "rejected",
        "identical",
    ]);
    for row in &output.rows {
        table.row(vec![
            row.workers.to_string(),
            fmt3(row.secs),
            fmt1(row.qps),
            fmt3(row.p50_ms),
            fmt3(row.p95_ms),
            fmt3(row.p99_ms),
            row.rejected.to_string(),
            if row.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let text = format!(
        "Query serving over TCP loopback ({} melodies, {} connections x {} k-NN \
         requests, k={}, {} hardware threads)\n\n{}",
        output.melodies,
        output.connections,
        output.queries_per_conn,
        output.k,
        output.hardware_threads,
        table.render()
    );
    (text, table)
}

/// Shape checks: bit-identity and zero rejections always; scaling only
/// where the hardware can express it.
pub fn check(output: &Output) -> Vec<String> {
    let mut failures = Vec::new();
    for row in &output.rows {
        let workers = row.workers;
        if !row.identical {
            failures.push(format!(
                "workers={workers}: served matches deviate from the in-process baseline"
            ));
        }
        if row.rejected > 0 {
            failures.push(format!(
                "workers={workers}: {} rejections from a closed loop within the queue depth",
                row.rejected
            ));
        }
        if row.p50_ms > row.p99_ms {
            failures.push(format!("workers={workers}: p50 above p99"));
        }
    }
    let qps_at =
        |workers: usize| output.rows.iter().find(|r| r.workers == workers).map(|r| r.qps);
    // The scaling gate only runs where the hardware can express
    // parallelism; a 1-core CI box serializes everything.
    if output.hardware_threads >= 8 {
        if let (Some(one), Some(eight)) = (qps_at(1), qps_at(8)) {
            if eight < one * 1.5 {
                failures.push(format!(
                    "8 workers on {}-thread hardware only reached {:.2}x the 1-worker \
                     throughput (expected >= 1.5x)",
                    output.hardware_threads,
                    eight / one.max(1e-9)
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_bit_identical_and_never_rejects() {
        let out = run(&Params {
            melodies: 400,
            connections: 3,
            queries_per_conn: 4,
            worker_counts: vec![1, 4],
            ..Params::quick()
        });
        assert_eq!(out.rows.len(), 2, "one row per worker count");
        for row in &out.rows {
            assert!(row.identical, "{row:?}");
            assert_eq!(row.rejected, 0, "{row:?}");
            assert!(row.p50_ms > 0.0 && row.p50_ms <= row.p99_ms, "{row:?}");
        }
    }

    #[test]
    fn render_reports_every_row_and_percentiles_are_ordered() {
        let out = run(&Params {
            melodies: 400,
            connections: 2,
            queries_per_conn: 3,
            worker_counts: vec![2],
            ..Params::quick()
        });
        let (text, table) = render(&out);
        assert!(text.contains("queries/sec"));
        assert_eq!(table.to_csv().lines().count(), out.rows.len() + 1);
        assert!(out.rows[0].p95_ms <= out.rows[0].p99_ms);
    }
}
