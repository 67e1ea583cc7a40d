//! Direct timings of single layers' public functions on the workload's own
//! inputs, and the store build that is both `serve_mixed`'s set-up and every
//! other workload's probe of the `store` layer.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use hum_core::obs::MetricsSink;
use hum_core::transform::EnvelopeTransform;
use hum_index::{RStarTree, SpatialIndex};
use hum_qbh::eval::HumQuery;
use hum_qbh::system::StoreOptions;
use hum_qbh::{QbhConfig, QbhSystem};
use hum_server::protocol::{self, FrameRead, Request, MAX_FRAME_BYTES};
use hum_server::{BoundedQueue, ServiceMatch};

use serde_json::Value;

use crate::inputs::K;
use crate::loadgen::Answer;
use crate::spec::{array_field, num_field};
use crate::stats::{mean, median};

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// `transform.project_us` and `index.build_s`: project every normal form
/// with the system's transform, then insert the feature vectors into a
/// fresh R\*-tree of the configured page size.
pub fn transform_and_index_build(system: &QbhSystem, normals: &[Vec<f64>]) -> (f64, f64) {
    let transform = system.engine().transform();
    let start = Instant::now();
    let features: Vec<Vec<f64>> = normals.iter().map(|nf| transform.project(nf)).collect();
    let project_us = micros(start) / normals.len().max(1) as f64;
    let config = QbhConfig::default();
    let mut tree = RStarTree::with_page_size(config.feature_dims, config.page_bytes);
    let start = Instant::now();
    for (id, point) in features.into_iter().enumerate() {
        tree.insert(id as u64, point);
    }
    let build_s = start.elapsed().as_secs_f64();
    black_box(tree.len());
    (project_us, build_s)
}

/// The `protocol.*` metrics: mean cost per frame of the functions a k-NN
/// round trip calls, timed in the order client and server call them on the
/// workload's hums and the answers they got.
pub fn protocol_probe(hums: &[HumQuery], answers: &[Answer]) -> Vec<(&'static str, f64)> {
    let n = hums.len().min(answers.len());
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp, mut frame) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    for (hum, (matches, stats)) in hums.iter().zip(answers).take(n) {
        // Client: request → JSON text.
        let start = Instant::now();
        let request = Request::Knn {
            pitch: hum.series.clone(),
            k: K,
            band: None,
            deadline_ms: None,
            trace: false,
        };
        let text =
            serde_json::to_string(&protocol::request_to_value(&request)).expect("request encodes");
        enc_req.push(micros(start));
        req_bytes.push(text.len() as f64 + 4.0);

        // Wire: one frame out and back in.
        let start = Instant::now();
        let mut wire = Vec::with_capacity(text.len() + 4);
        protocol::write_frame(&mut wire, text.as_bytes(), MAX_FRAME_BYTES).expect("frame fits");
        let read = protocol::read_frame(&mut Cursor::new(&wire), MAX_FRAME_BYTES, 0);
        let Ok(FrameRead::Frame(payload)) = read else { panic!("frame did not round-trip") };
        frame.push(micros(start));

        // Server: bytes → request.
        let start = Instant::now();
        let text = std::str::from_utf8(&payload).expect("utf-8 payload");
        let value = serde_json::from_str(text).expect("request parses");
        black_box(protocol::parse_request(&value).expect("valid request"));
        dec_req.push(micros(start));

        // Server: answer → JSON text.
        let served: Vec<ServiceMatch> = matches
            .iter()
            .map(|&(id, distance)| ServiceMatch { id, song: 0, phrase: 0, distance })
            .collect();
        let start = Instant::now();
        let response = protocol::ok_response(vec![
            ("matches", Value::Array(served.iter().map(protocol::match_to_value).collect())),
            ("stats", protocol::stats_to_value(stats)),
        ]);
        let text = serde_json::to_string(&response).expect("response encodes");
        enc_resp.push(micros(start));
        resp_bytes.push(text.len() as f64 + 4.0);

        // Client: bytes → answer.
        let start = Instant::now();
        let value = serde_json::from_str(&text).expect("response parses");
        let protocol::Response::Ok(value) = protocol::parse_response(value).expect("ok") else {
            panic!("ok response parsed as an error")
        };
        black_box(protocol::response_matches(&value).expect("matches"));
        black_box(protocol::response_stats(&value).expect("stats"));
        dec_resp.push(micros(start));
    }
    vec![
        ("protocol.encode_request_us", mean(&enc_req)),
        ("protocol.decode_request_us", mean(&dec_req)),
        ("protocol.encode_response_us", mean(&enc_resp)),
        ("protocol.decode_response_us", mean(&dec_resp)),
        ("protocol.frame_roundtrip_us", mean(&frame)),
        ("protocol.request_bytes", mean(&req_bytes)),
        ("protocol.response_bytes", mean(&resp_bytes)),
    ]
}

/// `queue.push_pop_ns`: one uncontended `try_push` + `pop` pair.
pub fn queue_push_pop_ns() -> f64 {
    const PAIRS: u64 = 200_000;
    let queue = BoundedQueue::new(64);
    let start = Instant::now();
    for i in 0..PAIRS {
        queue.try_push(i).expect("queue has room");
        black_box(queue.pop());
    }
    start.elapsed().as_nanos() as f64 / PAIRS as f64
}

/// One melody to preload: id, provenance, raw pitch series.
pub struct PreloadMelody {
    pub id: u64,
    pub song: usize,
    pub phrase: usize,
    pub series: Vec<f64>,
}

/// What preloading a store cost, step by step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Preload {
    pub melodies: usize,
    /// Seconds inside `try_insert_melody` (memtable inserts only).
    pub insert_s: f64,
    pub flush_ms: Vec<f64>,
    pub compact_ms: Vec<f64>,
    /// `try_open_store_with` of the finished store.
    pub open_s: f64,
    /// Bytes the preload wrote (segments and manifests).
    pub bytes_written: u64,
}

impl Preload {
    pub fn insert_per_s(&self) -> f64 {
        crate::stats::ratio(self.melodies as f64, self.insert_s)
    }

    pub fn flush_ms(&self) -> f64 {
        median(&self.flush_ms)
    }

    /// The last compaction is the full-corpus one a running system repeats.
    pub fn compact_ms(&self) -> f64 {
        self.compact_ms.last().copied().unwrap_or(0.0)
    }
}

/// Memtable size during the preload (the store's default).
const PRELOAD_MEMTABLE: usize = 1024;

/// Builds a store in `dir` (which must not hold one yet): inserts every
/// melody, flushing each full memtable and compacting whenever the store
/// asks for it, and finishes with one flush and one compaction so a single
/// segment remains. `open_s` is left for [`open_store`] to fill.
pub fn build_store(dir: &Path, melodies: &[PreloadMelody]) -> Result<Preload, String> {
    let load_options = StoreOptions { memtable_capacity: PRELOAD_MEMTABLE, compact_at: 4 };
    let mut system = QbhSystem::try_create_store(dir, &QbhConfig::default(), load_options)
        .map_err(|e| format!("create store in {}: {e}", dir.display()))?;
    let mut report = Preload { melodies: melodies.len(), ..Preload::default() };
    let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;
    for (i, m) in melodies.iter().enumerate() {
        let start = Instant::now();
        system.try_insert_melody(m.id, m.song, m.phrase, &m.series).map_err(|e| e.to_string())?;
        report.insert_s += start.elapsed().as_secs_f64();
        let last = i + 1 == melodies.len();
        if system.needs_flush() || last {
            let start = Instant::now();
            if system.flush().map_err(|e| e.to_string())? {
                report.flush_ms.push(ms(start));
            }
        }
        if system.needs_compaction() || (last && system.segment_count() > 1) {
            let start = Instant::now();
            if system.compact().map_err(|e| e.to_string())? {
                report.compact_ms.push(ms(start));
            }
        }
    }
    report.bytes_written = system.store_stats().map_or(0, |s| s.bytes_written);
    Ok(report)
}

/// Opens the store in `dir` under `options` and `metrics`; returns the
/// system and the seconds the open took.
pub fn open_store(
    dir: &Path,
    options: StoreOptions,
    metrics: &MetricsSink,
) -> Result<(QbhSystem, f64), String> {
    let start = Instant::now();
    let system = QbhSystem::try_open_store_with(dir, options, metrics)
        .map_err(|e| format!("open store in {}: {e}", dir.display()))?;
    Ok((system, start.elapsed().as_secs_f64()))
}

impl Preload {
    /// The report as JSON, for the parent of a preloading child process.
    pub fn to_json(&self) -> Value {
        let list = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::Number(x)).collect());
        Value::Object(vec![
            ("melodies".into(), Value::Number(self.melodies as f64)),
            ("insert_s".into(), Value::Number(self.insert_s)),
            ("flush_ms".into(), list(&self.flush_ms)),
            ("compact_ms".into(), list(&self.compact_ms)),
            ("bytes_written".into(), Value::Number(self.bytes_written as f64)),
        ])
    }

    /// Reads back what [`Preload::to_json`] wrote.
    pub fn from_json(value: &Value) -> Option<Preload> {
        let list = |key: &str| -> Vec<f64> {
            array_field(value, key)
                .iter()
                .filter_map(|v| if let Value::Number(n) = v { Some(*n) } else { None })
                .collect()
        };
        Some(Preload {
            melodies: num_field(value, "melodies")? as usize,
            insert_s: num_field(value, "insert_s")?,
            flush_ms: list("flush_ms"),
            compact_ms: list("compact_ms"),
            open_s: 0.0,
            bytes_written: num_field(value, "bytes_written")? as u64,
        })
    }
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}
