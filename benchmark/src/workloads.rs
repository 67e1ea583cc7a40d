//! The four workloads: set-up, measurement, oracle check, metrics.
//!
//! Every workload asks hum k-NN and ε-range queries and differs in where
//! they run (in-process or over loopback TCP), what is behind them
//! (in-memory system or on-disk store), how large the corpus is, how
//! requests are paced and whether inserts run beside them. An untraced run
//! yields the end-to-end metrics; a traced run yields the per-layer ones
//! (stage replay, metrics registry, direct probes) and the cost of tracing.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use hum_core::engine::{EngineStats, QueryRequest, QueryScratch};
use hum_core::normal::NormalForm;
use hum_core::obs::{Metric, MetricsSink, Timer};
use hum_qbh::corpus::MelodyDatabase;
use hum_qbh::eval::HumQuery;
use hum_qbh::system::StoreOptions;
use hum_qbh::{QbhConfig, QbhSystem};
use hum_server::{Server, ServerConfig};

use crate::inputs::{self, InsertMelody, Shape, Traffic, INSERT_ID_BASE, K};
use crate::loadgen::{
    epsilon_of, insert_ops, query_ops, run_independent, run_streams, Executor, InProcess, Inputs,
    OpKind, Sample, Stream, Wire,
};
use crate::oracle::{identical, Match, Oracle};
use crate::probes::{self, Preload, PreloadMelody};
use crate::replay::{replay, Kind, Mirrors, RealQuery, ReplayScratch, Stage, StageTotals};
use crate::stats::{mean, median, percentile, ratio, sorted};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Store knobs while `serve_mixed` runs: at 16 inserts a second the
/// memtable fills every second, and every flush is followed by a full
/// compaction, so a 20-second run holds twenty maintenance cycles — enough
/// events for the tail percentiles to repeat.
const RUN_STORE: StoreOptions = StoreOptions { memtable_capacity: 16, compact_at: 2 };
/// A query slower than this, from its due time, misses the latency limit.
const LIMIT_MS: f64 = 150.0;
/// Hums replayed in a traced run of a served workload (in-process
/// workloads replay for the whole traced phase).
const SERVED_REPLAY_HUMS: usize = 40;
/// The probe a traced in-process workload sends through a loopback server
/// (hums queried, melodies inserted) and every traced workload's ping
/// count; a smoke run sends a fifth of it.
const PROBE_HUMS: usize = 30;
const PROBE_INSERTS: usize = 20;
const PINGS: usize = 20;
/// Hums whose k-NN warms a system before a closed-loop measurement.
const WARM_HUMS: usize = 16;
/// Melodies a traced run preloads into a probe store when the workload has
/// no store of its own.
const PROBE_STORE_MELODIES: usize = 2000;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch directory inside the checkout (stores, `trace.json`).
    pub work_dir: PathBuf,
}

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and validity remarks, for the human reader.
    pub notes: Vec<String>,
}

/// A set-up system, not yet serving.
struct Instance {
    system: QbhSystem,
    dir: Option<PathBuf>,
    preload: Option<Preload>,
}

fn server_config(system: &QbhSystem, sink: &MetricsSink) -> ServerConfig {
    ServerConfig {
        workers: 2,
        metrics: sink.clone(),
        maintenance_interval: system.is_store_backed().then_some(Duration::from_millis(100)),
        ..ServerConfig::default()
    }
}

fn preload_melodies(db: &MelodyDatabase, limit: usize) -> Vec<PreloadMelody> {
    let samples_per_beat = QbhConfig::default().samples_per_beat;
    db.entries()
        .iter()
        .take(limit)
        .map(|e| PreloadMelody {
            id: e.id(),
            song: e.song(),
            phrase: e.phrase(),
            series: e.melody().to_time_series(samples_per_beat),
        })
        .collect()
}

/// Builds `serve_mixed`'s store in a child process — the product's own
/// flow is `qbh index --store` in one process and `qbh serve` in another —
/// so that what the preload's compactions leave in the allocator is not
/// counted into the server's resident memory. The child regenerates the
/// corpus from the seed and reports what the build cost.
fn build_store_in_child(cfg: &RunConfig, dir: &Path) -> Result<Preload, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["build-store", "--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .arg("--work-dir")
        .arg(dir)
        .stdin(Stdio::null());
    if cfg.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn store build: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "store build exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    serde_json::from_str(text.trim())
        .ok()
        .as_ref()
        .and_then(Preload::from_json)
        .ok_or_else(|| format!("store build reported {text:?}"))
}

/// The child side of [`build_store_in_child`]: builds the workload's store
/// in `dir` and prints the report.
pub fn build_store_command(
    workload: &str,
    seed: u64,
    smoke: bool,
    dir: &Path,
) -> Result<(), String> {
    let shape =
        inputs::shape(workload, smoke).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let db = inputs::corpus(&shape, seed);
    let report = probes::build_store(dir, &preload_melodies(&db, usize::MAX))?;
    println!("{}", serde_json::to_string(&report.to_json()).map_err(|e| e.to_string())?);
    Ok(())
}

/// One complete set-up: corpus generation, build (or store build in a child
/// process, then open) and, for served workloads, a server start. Returns
/// the corpus, the system (handed back by the server) and the seconds it
/// all took.
fn set_up(
    cfg: &RunConfig,
    shape: &Shape,
    dir: &Path,
    sink: &MetricsSink,
) -> Result<(MelodyDatabase, Instance, f64), String> {
    let start = Instant::now();
    let db = inputs::corpus(shape, cfg.seed);
    let mut instance = match shape.traffic {
        Traffic::ServedOpen { .. } => {
            let mut preload = build_store_in_child(cfg, dir)?;
            let (system, open_s) = probes::open_store(dir, RUN_STORE, sink)?;
            preload.open_s = open_s;
            Instance { system, dir: Some(dir.to_path_buf()), preload: Some(preload) }
        }
        _ => {
            let mut system = QbhSystem::build(&db, &QbhConfig::default());
            system.set_metrics(sink.clone());
            Instance { system, dir: None, preload: None }
        }
    };
    if matches!(shape.traffic, Traffic::InProcess { .. }) {
        return Ok((db, instance, start.elapsed().as_secs_f64()));
    }
    let config = server_config(&instance.system, sink);
    let server = Server::start(instance.system, "127.0.0.1:0", config)
        .map_err(|e| format!("server start: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    instance.system = server.shutdown().ok_or("server kept the system at shutdown")?;
    Ok((db, instance, seconds))
}

/// The ε of each hum (see [`epsilon_of`]) from an in-process k-NN, on two
/// threads.
fn knn_epsilons(system: &QbhSystem, hums: &[HumQuery]) -> Result<Vec<f64>, String> {
    let epsilons = |part: &[HumQuery]| -> Result<Vec<f64>, String> {
        let mut exec = InProcess::new(system);
        part.iter()
            .map(|hum| {
                let (matches, _) = exec.knn(&hum.series, K)?;
                epsilon_of(&matches).ok_or_else(|| "k-NN returned nothing".to_string())
            })
            .collect()
    };
    let (front, back) = hums.split_at(hums.len() / 2);
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| epsilons(back));
        let mut all = epsilons(front)?;
        all.extend(worker.join().expect("warm-up thread panicked")?);
        Ok(all)
    })
}

fn resident_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a served phase observed besides its samples.
#[derive(Default)]
struct ServedInfo {
    pings_ms: Vec<f64>,
    request_mean_ms: f64,
    queue_wait_mean_us: f64,
    high_water: f64,
    bytes_in_per_req: f64,
    bytes_out_per_req: f64,
    rejected_overload: f64,
    deadline_exceeded: f64,
    protocol_errors: f64,
    maintenance_ticks: f64,
}

impl ServedInfo {
    fn read_registry(&mut self, sink: &MetricsSink) {
        let Some(registry) = sink.registry() else { return };
        let accepted = registry.get(Metric::ServerRequestsAccepted) as f64;
        self.request_mean_ms = registry.timer(Timer::ServerRequest).snapshot().mean_nanos() / 1e6;
        self.queue_wait_mean_us =
            registry.timer(Timer::ServerQueueWait).snapshot().mean_nanos() / 1e3;
        self.high_water = registry.get(Metric::ServerQueueHighWater) as f64;
        self.bytes_in_per_req = ratio(registry.get(Metric::ServerBytesIn) as f64, accepted);
        self.bytes_out_per_req = ratio(registry.get(Metric::ServerBytesOut) as f64, accepted);
        self.rejected_overload = registry.get(Metric::ServerRequestsRejectedOverload) as f64;
        self.deadline_exceeded = registry.get(Metric::ServerDeadlineExceeded) as f64;
        self.protocol_errors = registry.get(Metric::ServerProtocolErrors) as f64;
        self.maintenance_ticks = registry.get(Metric::ServerMaintenanceTicks) as f64;
    }
}

/// The streams of one measured phase; phases run one after the other.
fn phases(traffic: Traffic, hums: usize, inserts: Range<usize>, cycle: bool) -> Vec<Vec<Stream>> {
    let both = [OpKind::Knn, OpKind::Range];
    match traffic {
        // In-process clients only read; served ones send their (probe)
        // inserts first.
        Traffic::InProcess { threads } => vec![(0..threads)
            .map(|t| Stream {
                ops: query_ops(hums, t, threads, &both),
                cycle,
                rate: None,
                phase: 0.0,
            })
            .collect()],
        Traffic::ServedClosed { connections } => vec![
            (0..connections)
                .map(|c| Stream {
                    ops: insert_ops(inserts.end, inserts.start + c, connections),
                    cycle: false,
                    rate: None,
                    phase: 0.0,
                })
                .collect(),
            (0..connections)
                .map(|c| Stream {
                    ops: query_ops(hums, c, connections, &both),
                    cycle,
                    rate: None,
                    phase: 0.0,
                })
                .collect(),
        ],
        Traffic::ServedOpen { query_rate, insert_rate } => {
            // The ε-range stream starts half a cycle of hums and half a
            // period away from the k-NN one: the two never ask about one
            // hum at one time and never fall due together.
            let mut range_ops = query_ops(hums, 0, 1, &[OpKind::Range]);
            range_ops.rotate_left(hums / 2);
            vec![vec![
                Stream {
                    ops: query_ops(hums, 0, 1, &[OpKind::Knn]),
                    cycle,
                    rate: Some(query_rate),
                    phase: 0.0,
                },
                Stream { ops: range_ops, cycle, rate: Some(query_rate), phase: 0.5 },
                Stream {
                    ops: insert_ops(inserts.end, inserts.start, 1),
                    cycle: false,
                    rate: Some(insert_rate),
                    phase: 0.25,
                },
            ]]
        }
    }
}

/// Runs the phases on already-connected executors. The last phase ends at
/// the deadline (but gets at least a quarter of the run); earlier phases
/// run their ops out.
fn run_phases(
    execs: &mut [Box<dyn Executor + '_>],
    phases: &[Vec<Stream>],
    inputs: &Inputs<'_>,
    epoch: Instant,
    seconds: Option<f64>,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    for (i, streams) in phases.iter().enumerate() {
        let last = i + 1 == phases.len();
        let deadline = seconds.filter(|_| last).map(|s| {
            let end = start + Duration::from_secs_f64(s);
            end.max(Instant::now() + Duration::from_secs_f64(s / 4.0))
        });
        samples.extend(run_streams(execs, streams, inputs, epoch, deadline));
    }
    samples
}

/// Queries `system` in-process from the traffic's client threads for
/// `seconds`.
fn measure_in_process(
    system: &QbhSystem,
    traffic: Traffic,
    inputs: &Inputs<'_>,
    epoch: Instant,
    seconds: f64,
) -> Vec<Sample> {
    let plan = phases(traffic, inputs.hums.len(), 0..0, true);
    let mut execs: Vec<Box<dyn Executor + '_>> = plan[0]
        .iter()
        .map(|_| Box::new(InProcess::new(system)) as Box<dyn Executor + '_>)
        .collect();
    run_phases(&mut execs, &plan, inputs, epoch, Some(seconds))
}

/// Serves `system` on loopback, drives `traffic` at it and hands the
/// system back. `seconds: None` runs every stream's ops exactly once.
#[allow(clippy::too_many_arguments)]
fn measure_served(
    system: QbhSystem,
    traffic: Traffic,
    inputs: &Inputs<'_>,
    inserts: Range<usize>,
    seconds: Option<f64>,
    sink: &MetricsSink,
    pings: usize,
    epoch: Instant,
) -> Result<(Vec<Sample>, ServedInfo, QbhSystem), String> {
    let config = server_config(&system, sink);
    let server =
        Server::start(system, "127.0.0.1:0", config).map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let plan = phases(traffic, inputs.hums.len(), inserts, seconds.is_some());
    let open = matches!(traffic, Traffic::ServedOpen { .. });
    let connections = if open { 1 } else { plan.iter().map(Vec::len).max().unwrap_or(1) };
    let mut info = ServedInfo::default();
    let run = (|| -> Result<Vec<Sample>, String> {
        let mut wires = Vec::with_capacity(connections);
        for _ in 0..connections {
            wires.push(Wire::connect(addr)?);
        }
        // Warm every connection and worker; then the transport floor.
        let warm = &inputs.hums[inputs.hums.len() - 1];
        for wire in &mut wires {
            wire.knn(&warm.series, K)?;
        }
        for _ in 0..pings {
            info.pings_ms.push(wires[0].ping_ms()?);
        }
        if open {
            // Every request connects for itself; one dispatcher per stream.
            let deadline = seconds.map(|s| Instant::now() + Duration::from_secs_f64(s));
            let connect = || Wire::connect(addr);
            return Ok(std::thread::scope(|scope| {
                let dispatchers: Vec<_> = plan[0]
                    .iter()
                    .map(|stream| {
                        let connect = &connect;
                        scope.spawn(move || {
                            run_independent(connect, stream, inputs, epoch, deadline)
                        })
                    })
                    .collect();
                dispatchers
                    .into_iter()
                    .flat_map(|d| d.join().expect("dispatcher thread panicked"))
                    .collect()
            }));
        }
        let mut execs: Vec<Box<dyn Executor>> =
            wires.into_iter().map(|w| Box::new(w) as Box<dyn Executor>).collect();
        Ok(run_phases(&mut execs, &plan, inputs, epoch, seconds))
    })();
    // Shut down on every path, so no server thread outlives the run.
    let system = server.shutdown().ok_or("server kept the system at shutdown")?;
    info.read_registry(sink);
    Ok((run?, info, system))
}

/// Checks every sample of one system against the oracle. A query's answer
/// must equal brute force over the base corpus plus a set of inserted
/// melodies that includes every insert acknowledged before the query was
/// sent and no insert sent after the answer arrived. Returns `(attempted,
/// failed)` and describes the first failures in `notes`.
fn verify(oracle: &Oracle, samples: &[Sample], notes: &mut Vec<String>) -> (u64, u64) {
    // Per inserted melody: (sent, acknowledged-at) in ns.
    let mut inserted: Vec<Option<(u64, Option<u64>)>> = Vec::new();
    for s in samples.iter().filter(|s| s.op.kind == OpKind::Insert) {
        if inserted.len() <= s.op.item {
            inserted.resize(s.op.item + 1, None);
        }
        inserted[s.op.item] = Some((s.sent_ns, s.outcome.is_ok().then_some(s.done_ns)));
    }
    let mut failed = 0u64;
    let mut fail = |text: String| {
        failed += 1;
        if notes.iter().filter(|n| n.starts_with("FAILED")).count() < 5 {
            notes.push(format!("FAILED {text}"));
        }
    };
    for s in samples {
        let matches = match &s.outcome {
            Err(e) => {
                fail(format!("{:?} of item {}: {e}", s.op.kind, s.op.item));
                continue;
            }
            Ok((None, _)) => continue,
            Ok((Some(matches), _)) => matches,
        };
        let acked_before =
            |i: usize| matches!(inserted.get(i), Some(Some((_, Some(done)))) if *done <= s.sent_ns);
        let sent_before =
            |i: usize| matches!(inserted.get(i), Some(Some((sent, _))) if *sent <= s.done_ns);
        let returned = |i: usize| matches.iter().any(|m| m.0 == INSERT_ID_BASE + i as u64);
        if let Some(stray) = matches
            .iter()
            .filter(|m| m.0 >= INSERT_ID_BASE)
            .find(|m| !sent_before((m.0 - INSERT_ID_BASE) as usize))
        {
            fail(format!("hum {} got melody {} before it was inserted", s.op.item, stray.0));
            continue;
        }
        let visible = |i: usize| acked_before(i) || (sent_before(i) && returned(i));
        let expected = match s.op.kind {
            OpKind::Knn => oracle.knn(s.op.item, K, &visible),
            _ => oracle.range(s.op.item, s.radius, &visible),
        };
        if !identical(matches, &expected) {
            fail(format!(
                "{:?} of hum {} differs from brute force: got {:?}, expected {:?}",
                s.op.kind,
                s.op.item,
                matches.iter().take(3).collect::<Vec<_>>(),
                expected.iter().take(3).collect::<Vec<_>>()
            ));
        }
    }
    (samples.len() as u64, failed)
}

/// After `serve_mixed`: every acknowledged insert must be readable from
/// the reopened store or be one of the `acked_not_durable` melodies that
/// were still in the memtable at shutdown, and k-NN on the reopened store
/// must equal brute force over what it holds. Returns `(attempted, failed,
/// disk bytes per live melody)`.
fn verify_reopened(
    dir: &Path,
    oracle: &Oracle,
    samples: &[Sample],
    inputs: &Inputs<'_>,
    acked_not_durable: usize,
    notes: &mut Vec<String>,
) -> Result<(u64, u64, f64), String> {
    let reopened = QbhSystem::try_open_store(dir).map_err(|e| format!("reopen: {e}"))?;
    let mut exec = InProcess::new(&reopened);
    let mut readable = vec![false; inputs.inserts.len()];
    let mut acked = 0usize;
    for s in samples.iter().filter(|s| s.op.kind == OpKind::Insert && s.outcome.is_ok()) {
        acked += 1;
        let melody = &inputs.inserts[s.op.item];
        let (found, _) = exec.knn(&melody.series, 1)?;
        readable[s.op.item] = found.first().is_some_and(|m| m.0 == melody.id && m.1 == 0.0);
    }
    let lost = acked - readable.iter().filter(|&&r| r).count();
    let mut failed = 0u64;
    if lost > acked_not_durable {
        failed += (lost - acked_not_durable) as u64;
        notes.push(format!(
            "FAILED {lost} acknowledged inserts unreadable after reopen, only \
             {acked_not_durable} were still in the memtable"
        ));
    }
    for hum in 0..oracle.checked() {
        let (got, _) = exec.knn(&inputs.hums[hum].series, K)?;
        if !identical(&got, &oracle.knn(hum, K, &|i| readable[i])) {
            failed += 1;
            notes.push(format!("FAILED k-NN of hum {hum} on the reopened store differs"));
        }
    }
    let live = reopened.len();
    let per_melody = ratio(probes::dir_bytes(dir) as f64, live as f64);
    Ok((acked as u64 + oracle.checked() as u64, failed, per_melody))
}

fn latencies(samples: &[Sample], kind: OpKind) -> Vec<f64> {
    sorted(
        samples
            .iter()
            .filter(|s| s.op.kind == kind && s.outcome.is_ok())
            .map(Sample::latency_ms)
            .collect(),
    )
}

/// Completed k-NN per second: in a closed loop, per second a client spends
/// waiting on k-NN, times the clients; in an open loop, per second of run.
fn knn_qps(samples: &[Sample], traffic: Traffic) -> f64 {
    let knn: Vec<&Sample> =
        samples.iter().filter(|s| s.op.kind == OpKind::Knn && s.outcome.is_ok()).collect();
    let clients = match traffic {
        Traffic::InProcess { threads } => threads as f64,
        Traffic::ServedClosed { connections } => connections as f64,
        Traffic::ServedOpen { .. } => {
            let first = knn.iter().map(|s| s.due_ns).min().unwrap_or(0);
            let last = knn.iter().map(|s| s.done_ns).max().unwrap_or(0);
            return ratio(knn.len() as f64, (last - first) as f64 / 1e9);
        }
    };
    let busy_s: f64 = knn.iter().map(|s| (s.done_ns - s.due_ns) as f64 / 1e9).sum();
    ratio(knn.len() as f64 * clients, busy_s)
}

fn end_to_end(
    samples: &[Sample],
    traffic: Traffic,
    setup_s: f64,
    resident: f64,
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let knn = latencies(samples, OpKind::Knn);
    let range = latencies(samples, OpKind::Range);
    if knn.is_empty() || range.is_empty() {
        return Err(format!(
            "a run needs both queries answered at least once (k-NN {}, range {})",
            knn.len(),
            range.len()
        ));
    }
    for (name, v) in [("k-NN", &knn), ("range", &range)] {
        let p95 = if crate::stats::supports(v.len(), 95.0) { "" } else { " (too few for p95)" };
        notes.push(format!("{name} samples: {}{p95}", v.len()));
    }
    let hits = samples.iter().filter(|s| s.hit).count();
    Ok(vec![
        ("setup_s", setup_s),
        ("knn_p50_ms", percentile(&knn, 50.0)),
        ("knn_p95_ms", percentile(&knn, 95.0)),
        ("knn_qps", knn_qps(samples, traffic)),
        ("range_p50_ms", percentile(&range, 50.0)),
        ("range_p95_ms", percentile(&range, 95.0)),
        ("top10_hit_share", ratio(hits as f64, knn.len() as f64)),
        ("resident_mb", resident),
    ])
}

/// What the replay phase of a traced run found.
#[derive(Default)]
struct ReplayReport {
    queries: u64,
    knn_queries: u64,
    real_ns: u64,
    real_knn_ms: Vec<f64>,
    real: EngineStats,
    stages: StageTotals,
    mismatches: u64,
    answers: Vec<(Vec<Match>, EngineStats)>,
}

/// For each hum: the real in-process query, timed, then its stage replay.
/// Cycles through the hums until `deadline`, or once through the first
/// `limit` when there is none. Real answers of checked hums are compared
/// with the oracle (`inserted` melodies all visible).
#[allow(clippy::too_many_arguments)]
fn replay_phase(
    system: &QbhSystem,
    mirrors: &Mirrors,
    inputs: &Inputs<'_>,
    oracle: &Oracle,
    inserted: usize,
    limit: usize,
    deadline: Option<Instant>,
    tracer: &mut Tracer,
    notes: &mut Vec<String>,
) -> Result<(ReplayReport, u64, u64), String> {
    let mut report = ReplayReport::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut scratch = QueryScratch::new();
    let mut replay_scratch = ReplayScratch::default();
    let visible = |i: usize| i < inserted;
    let hums = inputs.hums.len().min(limit);
    'outer: for pass in 0.. {
        if pass > 0 && deadline.is_none() {
            break;
        }
        for hum in 0..hums {
            if deadline.is_some_and(|d| Instant::now() >= d) && report.queries > 0 {
                break 'outer;
            }
            let series = &inputs.hums[hum].series;
            let mut radius = 0.0;
            for knn in [true, false] {
                let kind = if knn { Kind::Knn { k: K } } else { Kind::Range { radius } };
                let (request, name) = match kind {
                    Kind::Knn { k } => (QueryRequest::knn(k), "query.knn"),
                    Kind::Range { radius } => (QueryRequest::range(radius), "query.range"),
                };
                let start = Instant::now();
                let (real, _) = system
                    .try_query_request_with(series, request.with_band(system.band()), &mut scratch)
                    .map_err(|e| e.to_string())?;
                let end = Instant::now();
                let query = report.queries as u32;
                let span = tracer.span(name, None, query, start, end);
                let real_query = RealQuery { query, span };
                let replayed =
                    replay(system, mirrors, series, kind, &mut replay_scratch, tracer, real_query);
                let real_matches: Vec<Match> =
                    real.matches.iter().map(|m| (m.id, m.distance)).collect();
                if knn {
                    radius = epsilon_of(&real_matches).ok_or("k-NN returned nothing")?;
                }
                if !identical(&real_matches, &replayed.matches) || real.stats != replayed.stats {
                    report.mismatches += 1;
                    if report.mismatches <= 3 {
                        notes.push(format!(
                            "replay of hum {hum} ({name}) diverged: real {:?}, replay {:?}",
                            real.stats, replayed.stats
                        ));
                    }
                }
                attempted += 1;
                if hum < oracle.checked() {
                    let expected = match kind {
                        Kind::Knn { k } => oracle.knn(hum, k, &visible),
                        Kind::Range { radius } => oracle.range(hum, radius, &visible),
                    };
                    if !identical(&real_matches, &expected) {
                        failed += 1;
                        notes.push(format!("FAILED {name} of hum {hum} differs from brute force"));
                    }
                }
                let ns = (end - start).as_nanos() as u64;
                report.queries += 1;
                report.real_ns += ns;
                report.real.absorb(&real.stats);
                report.stages.absorb(&replayed.stages);
                if let Kind::Knn { .. } = kind {
                    report.knn_queries += 1;
                    report.real_knn_ms.push(ns as f64 / 1e6);
                    if pass == 0 {
                        report.answers.push((real_matches, real.stats));
                    }
                }
            }
        }
    }
    Ok((report, attempted, failed))
}

fn replay_metrics(r: &ReplayReport, corpus: usize, out: &mut Vec<(&'static str, f64)>) {
    let s = &r.stages;
    let per_call_us = |stage: Stage| ratio(s.ns(stage) as f64, s.calls(stage) as f64) / 1e3;
    let per_call_ns = |stage: Stage| ratio(s.ns(stage) as f64, s.calls(stage) as f64);
    let queries = r.queries as f64;
    let candidates = r.real.index.candidates as f64;
    let matches = r.real.matches as f64;
    let share = |ns: u64| ratio(ns as f64, r.real_ns as f64);
    let index_ns = s.ns(Stage::IndexProbe) + s.ns(Stage::IndexRange);
    let attributed = [
        index_ns,
        s.ns(Stage::Fetch),
        s.ns(Stage::Prefilter),
        s.ns(Stage::EnvLb),
        s.ns(Stage::LbImproved),
        s.ns(Stage::Dtw),
    ];
    let unattributed = 1.0 - attributed.iter().map(|&ns| share(ns)).sum::<f64>();
    out.extend([
        ("normal.apply_us", per_call_us(Stage::Normal)),
        ("session.open_append_us", per_call_us(Stage::Session)),
        ("envelope.compute_us", per_call_us(Stage::Envelope)),
        ("transform.project_envelope_us", per_call_us(Stage::ProjectEnvelope)),
        ("index.knn_probe_us", per_call_us(Stage::IndexProbe)),
        ("index.range_us", per_call_us(Stage::IndexRange)),
        ("index.pages_per_query", ratio(r.real.index.node_accesses as f64, queries)),
        ("index.candidates_per_query", ratio(candidates, queries)),
        ("index.candidate_ratio", ratio(candidates, queries * corpus as f64)),
        ("index.useful_share", ratio(matches, candidates)),
        ("kernel.prefilter_ns_per_cand", per_call_ns(Stage::Prefilter)),
        ("kernel.env_lb_ns_per_cand", per_call_ns(Stage::EnvLb)),
        (
            "kernel.prefilter_pruned_share",
            ratio(s.prefilter_pruned as f64, s.calls(Stage::Prefilter) as f64),
        ),
        ("engine.fetch_ns_per_cand", per_call_ns(Stage::Fetch)),
        ("engine.lb_pruned_per_query", ratio(r.real.lb_pruned as f64, queries)),
        ("engine.lb_improved_pruned_per_query", ratio(r.real.lb_improved_pruned as f64, queries)),
        ("engine.lb_improved_ns_per_call", per_call_ns(Stage::LbImproved)),
        ("engine.exact_per_query", ratio(r.real.exact_computations as f64, queries)),
        ("engine.early_abandoned_per_query", ratio(r.real.early_abandoned as f64, queries)),
        ("engine.dp_cells_per_query", ratio(r.real.dp_cells as f64, queries)),
        ("engine.dtw_us_per_call", per_call_us(Stage::Dtw)),
        ("engine.verified_useful_share", ratio(matches, r.real.exact_computations as f64)),
        ("engine.ns_per_candidate", ratio(r.real_ns as f64, candidates)),
        ("engine.share_index", share(index_ns)),
        ("engine.share_fetch", share(s.ns(Stage::Fetch))),
        ("engine.share_prefilter", share(s.ns(Stage::Prefilter))),
        ("engine.share_env_lb", share(s.ns(Stage::EnvLb))),
        ("engine.share_lb_improved", share(s.ns(Stage::LbImproved))),
        ("engine.share_dtw", share(s.ns(Stage::Dtw))),
        ("engine.share_unattributed", unattributed),
        ("engine.replay_mismatches", r.mismatches as f64),
    ]);
}

/// The `store` layer's metrics: preload timings from `preload`, run
/// counters from the system a store-backed run handed back.
fn store_metrics(
    preload: &Preload,
    run: Option<(&QbhSystem, u64, f64)>,
    out: &mut Vec<(&'static str, f64)>,
) {
    out.extend([
        ("store.preload_insert_per_s", preload.insert_per_s()),
        ("store.flush_ms", preload.flush_ms()),
        ("store.compact_ms", preload.compact_ms()),
        ("store.open_s", preload.open_s),
    ]);
    let stats = run.and_then(|(system, _, _)| system.store_stats());
    let (acked, disk_per_melody) = run.map_or((0, 0.0), |(_, acked, disk)| (acked, disk));
    let written = stats.map_or(0, |s| s.bytes_written) as f64;
    let normal_bytes = QbhConfig::default().normal_length as f64 * 8.0;
    let life_written = if stats.is_some() { written + preload.bytes_written as f64 } else { 0.0 };
    out.extend([
        ("store.flushes", stats.map_or(0, |s| s.flushes) as f64),
        ("store.compactions", stats.map_or(0, |s| s.compactions) as f64),
        ("store.bytes_written_per_insert", ratio(written, acked as f64)),
        (
            "store.write_amp",
            ratio(life_written, (preload.melodies as f64 + acked as f64) * normal_bytes),
        ),
        ("store.disk_bytes_per_melody", disk_per_melody),
        ("store.segments_end", stats.map_or(0, |s| s.segments) as f64),
        ("store.acked_not_durable", stats.map_or(0, |s| s.memtable_len) as f64),
        ("segment.units_end", run.map_or(1, |(system, _, _)| system.segment_count() + 1) as f64),
    ]);
}

fn served_metrics(info: &ServedInfo, samples: &[Sample], out: &mut Vec<(&'static str, f64)>) {
    let queued: Vec<f64> = samples
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| (s.done_ns - s.sent_ns) as f64 / 1e6)
        .collect();
    let queries: Vec<&Sample> = samples.iter().filter(|s| s.op.kind != OpKind::Insert).collect();
    let inserts = latencies(samples, OpKind::Insert);
    let insert_pct = |pct: f64| if inserts.is_empty() { 0.0 } else { percentile(&inserts, pct) };
    let over = queries.iter().filter(|s| s.outcome.is_err() || s.latency_ms() > LIMIT_MS).count();
    out.extend([
        ("queue.wait_mean_us", info.queue_wait_mean_us),
        ("queue.high_water", info.high_water),
        ("server.ping_p50_ms", median(&info.pings_ms)),
        ("server.request_mean_ms", info.request_mean_ms),
        ("server.transport_ms", mean(&queued) - info.request_mean_ms),
        ("server.bytes_in_per_req", info.bytes_in_per_req),
        ("server.bytes_out_per_req", info.bytes_out_per_req),
        ("server.rejected_overload", info.rejected_overload),
        ("server.deadline_exceeded", info.deadline_exceeded),
        ("server.protocol_errors", info.protocol_errors),
        ("server.maintenance_ticks", info.maintenance_ticks),
        ("server.insert_p50_ms", insert_pct(50.0)),
        ("server.insert_p95_ms", insert_pct(95.0)),
        ("server.stall_ms_max", queries.iter().map(|s| s.latency_ms()).fold(0.0, f64::max)),
        ("server.over_limit_share", ratio(over as f64, queries.len() as f64)),
    ]);
}

/// Runs one workload once.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let shape = inputs::shape(&cfg.workload, cfg.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?;
    let scratch_dir = cfg.work_dir.join(format!("{}-{}", cfg.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch_dir);
    std::fs::create_dir_all(&scratch_dir)
        .map_err(|e| format!("create {}: {e}", scratch_dir.display()))?;
    let result = run_in(cfg, &shape, &scratch_dir);
    let _ = std::fs::remove_dir_all(&scratch_dir);
    result
}

fn run_in(cfg: &RunConfig, shape: &Shape, scratch_dir: &Path) -> Result<RunOutput, String> {
    let mut notes = Vec::new();
    let served = !matches!(shape.traffic, Traffic::InProcess { .. });

    // Set up several times; keep the last system (a traced served run also
    // keeps the one before it as its untraced reference).
    let traced_sink = if cfg.trace { MetricsSink::enabled() } else { MetricsSink::Disabled };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut resident = Vec::with_capacity(SETUPS);
    let mut reference: Option<Instance> = None;
    let mut kept: Option<(MelodyDatabase, Instance)> = None;
    for i in 0..SETUPS {
        let last = i + 1 == SETUPS;
        // Only a served system records into the registry: an in-process
        // workload's trace is the stage replay, taken from outside.
        let sink = if last && served { &traced_sink } else { &MetricsSink::Disabled };
        let (db, instance, seconds) =
            set_up(cfg, shape, &scratch_dir.join(format!("store-{i}")), sink)?;
        setup_s.push(seconds);
        // Earlier set-ups are dropped by now; what they leave behind in the
        // allocator differs from run to run, hence a median here too.
        resident.push(resident_mb());
        if last {
            kept = Some((db, instance));
        } else if cfg.trace && served && i + 2 == SETUPS {
            reference = Some(instance);
        }
    }
    let (db, instance) = kept.expect("at least one set-up");
    let Instance { system, dir, preload } = instance;

    // Inputs and the oracle's ground truth.
    let hums = inputs::hums(&db, shape.hums, cfg.seed);
    // Only the open-loop workload inserts while it measures; the others
    // send a few probe inserts in their traced runs.
    let inserts_in = |seconds: f64| match shape.traffic {
        Traffic::ServedOpen { insert_rate, .. } => (insert_rate * seconds).ceil() as usize,
        _ => 0,
    };
    let run_inserts = inserts_in(cfg.seconds);
    let inserts: Vec<InsertMelody> = inputs::insert_melodies(run_inserts + PROBE_INSERTS, cfg.seed);
    let samples_per_beat = QbhConfig::default().samples_per_beat;
    let base: Vec<(u64, Vec<f64>)> = db
        .entries()
        .iter()
        .map(|e| (e.id(), e.melody().to_time_series(samples_per_beat)))
        .collect();
    let checked: Vec<&[f64]> =
        hums.iter().take(shape.checked).map(|h| h.series.as_slice()).collect();
    let mut oracle = Oracle::new(&base, &checked, 2);
    drop(base);
    let all_inserts: Vec<(u64, &[f64])> =
        inserts.iter().map(|m| (m.id, m.series.as_slice())).collect();
    oracle.add_inserted(&all_inserts);

    // Warm the system with the first hums' k-NN. An open-loop workload asks
    // k-NN and ε-range on different connections, so there every hum's ε is
    // fixed beforehand from such a k-NN; elsewhere it follows from the k-NN
    // measured just before the range.
    let open = matches!(shape.traffic, Traffic::ServedOpen { .. });
    let warm = if open { hums.len() } else { hums.len().min(WARM_HUMS) };
    let radii = knn_epsilons(&system, &hums[..warm])?;
    let inputs = Inputs {
        hums: &hums,
        radii: open.then_some(radii.as_slice()),
        inserts: &inserts,
        checked: shape.checked,
    };
    let epoch = Instant::now();

    if !cfg.trace {
        let (samples, system) = if served {
            let (samples, _, system) = measure_served(
                system,
                shape.traffic,
                &inputs,
                0..run_inserts,
                Some(cfg.seconds),
                &MetricsSink::Disabled,
                0,
                epoch,
            )?;
            (samples, system)
        } else {
            let samples = measure_in_process(&system, shape.traffic, &inputs, epoch, cfg.seconds);
            (samples, system)
        };
        let (mut attempted, mut failed) = verify(&oracle, &samples, &mut notes);
        if let Some(dir) = &dir {
            let acked_not_durable = system.memtable_len();
            drop(system);
            let (a, f, _) =
                verify_reopened(dir, &oracle, &samples, &inputs, acked_not_durable, &mut notes)?;
            attempted += a;
            failed += f;
        }
        let metrics =
            end_to_end(&samples, shape.traffic, median(&setup_s), median(&resident), &mut notes)?;
        return Ok(RunOutput { attempted, failed, metrics, notes });
    }

    // ---- Traced run ----------------------------------------------------
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut tracer = Tracer::new(epoch);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let probe_scale = if cfg.smoke { 5 } else { 1 };
    let pings = PINGS / probe_scale;
    let normal = NormalForm::with_length(QbhConfig::default().normal_length);
    let reference_s = cfg.seconds / 3.0;
    let traced_s = cfg.seconds - reference_s;

    let (
        reference_knn_p50,
        traced_knn_p50,
        report,
        flow_samples,
        info,
        run_system,
        disk_per_melody,
    );
    if !served {
        // Reference phase (plain queries on one thread), then the traced
        // phase on the same thread: every real query followed by its stage
        // replay.
        let one_thread = Traffic::InProcess { threads: 1 };
        let samples = measure_in_process(&system, one_thread, &inputs, epoch, reference_s);
        let (a, f) = verify(&oracle, &samples, &mut notes);
        attempted += a;
        failed += f;
        reference_knn_p50 = median(&latencies(&samples, OpKind::Knn));

        let inserted_normals: Vec<Vec<f64>> =
            inserts.iter().map(|m| normal.apply(&m.series)).collect();
        let mirrors = Mirrors::build(oracle.base_normals(), &inserted_normals);
        let deadline = Instant::now() + Duration::from_secs_f64(traced_s);
        let (r, a, f) = replay_phase(
            &system,
            &mirrors,
            &inputs,
            &oracle,
            run_inserts,
            usize::MAX,
            Some(deadline),
            &mut tracer,
            &mut notes,
        )?;
        attempted += a;
        failed += f;
        traced_knn_p50 = median(&r.real_knn_ms);
        report = r;

        // The transport layers are idle in this workload: probe them by
        // serving the same system to one closed-loop connection.
        let probe_hums: Vec<HumQuery> =
            hums.iter().take(PROBE_HUMS / probe_scale).cloned().collect();
        let probe_inputs = Inputs {
            hums: &probe_hums,
            radii: None,
            inserts: &inserts,
            checked: shape.checked.min(probe_hums.len()),
        };
        let (probe_samples, probe_info, back) = measure_served(
            system,
            Traffic::ServedClosed { connections: 1 },
            &probe_inputs,
            run_inserts..run_inserts + PROBE_INSERTS / probe_scale,
            None,
            &traced_sink,
            pings,
            epoch,
        )?;
        let (a, f) = verify(&oracle, &probe_samples, &mut notes);
        attempted += a;
        failed += f;
        flow_samples = probe_samples;
        info = probe_info;
        run_system = back;
        disk_per_melody = 0.0;
    } else {
        // Stage replay on an in-memory build of the same corpus (the
        // served system itself when it is one), before anything is
        // inserted.
        let mirrors = Mirrors::build(oracle.base_normals(), &[]);
        let aux;
        let replay_system = if system.is_store_backed() {
            aux = QbhSystem::build(&db, &QbhConfig::default());
            &aux
        } else {
            &system
        };
        let (r, a, f) = replay_phase(
            replay_system,
            &mirrors,
            &inputs,
            &oracle,
            0,
            SERVED_REPLAY_HUMS,
            None,
            &mut tracer,
            &mut notes,
        )?;
        attempted += a;
        failed += f;
        report = r;

        // Untraced reference on one instance, traced phase on the other.
        let reference = reference.expect("a traced served run keeps a reference instance");
        let reference_inserts = inserts_in(reference_s);
        let (samples, _, _) = measure_served(
            reference.system,
            shape.traffic,
            &inputs,
            0..reference_inserts,
            Some(reference_s),
            &MetricsSink::Disabled,
            0,
            epoch,
        )?;
        let (a, f) = verify(&oracle, &samples, &mut notes);
        attempted += a;
        failed += f;
        reference_knn_p50 = median(&latencies(&samples, OpKind::Knn));

        let traced_inserts = match shape.traffic {
            Traffic::ServedOpen { .. } => inserts_in(traced_s),
            _ => PROBE_INSERTS / probe_scale,
        };
        let (samples, served_info, back) = measure_served(
            system,
            shape.traffic,
            &inputs,
            0..traced_inserts,
            Some(traced_s),
            &traced_sink,
            pings,
            epoch,
        )?;
        let (a, f) = verify(&oracle, &samples, &mut notes);
        attempted += a;
        failed += f;
        traced_knn_p50 = median(&latencies(&samples, OpKind::Knn));
        let mut per_melody = 0.0;
        if let Some(dir) = &dir {
            // Check durability against a copy of what is on disk now; the
            // live system stays open for its counters.
            let (a, f, d) =
                verify_reopened(dir, &oracle, &samples, &inputs, back.memtable_len(), &mut notes)?;
            attempted += a;
            failed += f;
            per_melody = d;
        }
        flow_samples = samples;
        info = served_info;
        run_system = back;
        disk_per_melody = per_melody;
    }

    replay_metrics(&report, db.len(), &mut metrics);

    // The store layer: this workload's own preload, or a probe store.
    let acked =
        flow_samples.iter().filter(|s| s.op.kind == OpKind::Insert && s.outcome.is_ok()).count();
    match &preload {
        Some(preload) => {
            store_metrics(preload, Some((&run_system, acked as u64, disk_per_melody)), &mut metrics)
        }
        None => {
            let probe_dir = scratch_dir.join("probe-store");
            let mut probe =
                probes::build_store(&probe_dir, &preload_melodies(&db, PROBE_STORE_MELODIES))?;
            let (probe_system, open_s) =
                probes::open_store(&probe_dir, StoreOptions::default(), &MetricsSink::Disabled)?;
            drop(probe_system);
            probe.open_s = open_s;
            store_metrics(&probe, None, &mut metrics);
        }
    }

    // Direct probes of single functions on this workload's inputs.
    let (project_us, build_s) =
        probes::transform_and_index_build(&run_system, oracle.base_normals());
    metrics.push(("transform.project_us", project_us));
    metrics.push(("index.build_s", build_s));
    metrics.extend(probes::protocol_probe(&hums, &report.answers));
    metrics.push(("queue.push_pop_ns", probes::queue_push_pop_ns()));
    served_metrics(&info, &flow_samples, &mut metrics);

    let late = sorted(flow_samples.iter().map(|s| s.late_ns as f64 / 1e6).collect());
    let late_p99 = percentile(&late, 99.0);
    let overhead = ratio(traced_knn_p50, reference_knn_p50) - 1.0;
    metrics.extend([
        ("loadgen.late_ms_p99", late_p99),
        ("loadgen.trace_overhead_share", overhead),
        ("loadgen.samples", (flow_samples.len() as u64 + report.queries) as f64),
    ]);
    let unattributed =
        metrics.iter().find(|(n, _)| *n == "engine.share_unattributed").map_or(0.0, |m| m.1);
    if late_p99 > 5.0 {
        notes.push(format!("INVALID: the load generator sent {late_p99:.2} ms late at p99"));
    }
    if unattributed < -0.05 {
        notes.push(format!(
            "INVALID: the replay cost more than the real query (unattributed {unattributed:.3})"
        ));
    }
    if report.mismatches > 0 {
        notes.push(format!("INVALID: {} replays diverged from the real query", report.mismatches));
    }
    // A replay span's self time is what the harness spent between stages.
    let (mut replay_ns, mut replay_self_ns) = (0u64, 0u64);
    for span in tracer.spans().iter().filter(|s| s.name == "replay") {
        replay_ns += span.busy_ns;
        replay_self_ns += tracer.self_ns(span.id);
    }
    notes.push(format!(
        "replayed {} queries ({} k-NN), {:.1} % of replay time outside any stage; flow samples {}",
        report.queries,
        report.knn_queries,
        ratio(replay_self_ns as f64, replay_ns as f64) * 100.0,
        flow_samples.len()
    ));

    let trace_path = cfg.work_dir.join(format!("trace_{}.json", cfg.workload));
    let json = serde_json::to_string(&tracer.to_json(&cfg.workload, cfg.seed))
        .map_err(|e| e.to_string())?;
    std::fs::write(&trace_path, json)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    notes.push(format!("{} spans written to {}", tracer.spans().len(), trace_path.display()));

    Ok(RunOutput { attempted, failed, metrics, notes })
}
