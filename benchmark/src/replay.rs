//! The stage replay: after a real query, repeat the engine's documented
//! schedule through public functions, timing each stage.
//!
//! The schedule is the one `hum_core::engine` documents for a single
//! in-memory unit (one shard, one segment): normal form → envelope →
//! feature box → index probe + exact DTW of the probes (k-NN only) → index
//! range query → fetch → f32 prefilter → envelope bound → sort by bound
//! (k-NN only) → `LB_Improved` and early-abandoning banded DTW under the
//! shrinking k-th threshold (k-NN) or the fixed radius (ε-range).
//!
//! The replay must reproduce the real query's candidate count, cascade
//! counters and matches exactly — that is what makes its stage times an
//! account of the real query and not of some other computation. Stages
//! whose work is independent per candidate (fetch, prefilter, envelope
//! bound) run as one timed sweep each; `LB_Improved` and DTW interleave
//! under the shrinking threshold and are timed per call.

use std::collections::{BinaryHeap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use hum_core::dtw::{ldtw_distance_sq_bounded_with_mode, DtwWorkspace};
use hum_core::engine::{EngineStats, QueryBudget, QueryRequest};
use hum_core::envelope::{lb_improved_tail_sq_mode, Envelope, LbScratch};
use hum_core::kernel::prefilter::{prefilter_exceeds, PrefilterEnvelope, SeriesMirror};
use hum_core::kernel::KernelMode;
use hum_core::transform::EnvelopeTransform;
use hum_index::{Query, SpatialIndex};
use hum_qbh::QbhSystem;

use crate::inputs::INSERT_ID_BASE;
use crate::oracle::Match;
use crate::trace::Tracer;

/// The replayed stages, in schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Session,
    Normal,
    Envelope,
    ProjectEnvelope,
    IndexProbe,
    IndexRange,
    Fetch,
    Prefilter,
    EnvLb,
    Sort,
    LbImproved,
    Dtw,
}

const STAGES: usize = Stage::Dtw as usize + 1;

impl Stage {
    /// The span name: `<layer>.<function>`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Session => "session.open_append",
            Stage::Normal => "normal.apply",
            Stage::Envelope => "envelope.compute",
            Stage::ProjectEnvelope => "transform.project_envelope",
            Stage::IndexProbe => "index.knn_probe",
            Stage::IndexRange => "index.range",
            Stage::Fetch => "engine.fetch",
            Stage::Prefilter => "kernel.prefilter",
            Stage::EnvLb => "kernel.env_lb",
            Stage::Sort => "engine.sort",
            Stage::LbImproved => "engine.lb_improved",
            Stage::Dtw => "engine.dtw",
        }
    }
}

/// Busy time and call count per stage, summed over replayed queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTotals {
    pub busy_ns: [u64; STAGES],
    pub calls: [u64; STAGES],
    /// Candidates the prefilter pruned.
    pub prefilter_pruned: u64,
}

impl StageTotals {
    pub fn ns(&self, stage: Stage) -> u64 {
        self.busy_ns[stage as usize]
    }

    pub fn calls(&self, stage: Stage) -> u64 {
        self.calls[stage as usize]
    }

    pub fn absorb(&mut self, other: &StageTotals) {
        for i in 0..STAGES {
            self.busy_ns[i] += other.busy_ns[i];
            self.calls[i] += other.calls[i];
        }
        self.prefilter_pruned += other.prefilter_pruned;
    }
}

/// What one replayed query produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    pub matches: Vec<Match>,
    /// The counters the replay arrived at (`dp_cells` included).
    pub stats: EngineStats,
    pub stages: StageTotals,
}

/// The harness's own f32 mirrors of every stored series, which the engine
/// keeps private: base melodies by dense id, inserted ones after.
pub struct Mirrors {
    base: Vec<SeriesMirror>,
    inserted: Vec<SeriesMirror>,
}

impl Mirrors {
    /// Builds the mirrors from normal forms (base ids must be `0..n`,
    /// inserted ids `INSERT_ID_BASE..`).
    pub fn build(base_normals: &[Vec<f64>], inserted_normals: &[Vec<f64>]) -> Mirrors {
        Mirrors {
            base: base_normals.iter().map(|nf| SeriesMirror::build(nf)).collect(),
            inserted: inserted_normals.iter().map(|nf| SeriesMirror::build(nf)).collect(),
        }
    }

    fn get(&self, id: u64) -> &SeriesMirror {
        if id >= INSERT_ID_BASE {
            &self.inserted[(id - INSERT_ID_BASE) as usize]
        } else {
            &self.base[id as usize]
        }
    }
}

/// A best-so-far entry, ordered by `(d², id)` like the engine's heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    d_sq: f64,
    id: u64,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.d_sq
            .partial_cmp(&other.d_sq)
            .expect("finite distances")
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable buffers, like the engine's `QueryScratch`.
#[derive(Default)]
pub struct ReplayScratch {
    ws: DtwWorkspace,
    lb: LbScratch,
    pf: PrefilterEnvelope,
}

/// Records one contiguous stage: runs `f`, books its time, adds a span.
struct Recorder<'a> {
    tracer: &'a mut Tracer,
    parent: u32,
    query: u32,
    totals: StageTotals,
}

impl Recorder<'_> {
    fn stage<R>(&mut self, stage: Stage, calls: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.book(stage, start, end, (end - start).as_nanos() as u64, calls);
        out
    }

    fn book(&mut self, stage: Stage, start: Instant, end: Instant, busy_ns: u64, calls: u64) {
        self.totals.busy_ns[stage as usize] += busy_ns;
        self.totals.calls[stage as usize] += calls;
        self.tracer.interleaved(
            stage.name(),
            Some(self.parent),
            self.query,
            start,
            end,
            busy_ns,
            calls,
        );
    }
}

/// Which query to replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Knn { k: usize },
    Range { radius: f64 },
}

/// The real query a replay accounts for: its query id and its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealQuery {
    pub query: u32,
    pub span: u32,
}

/// Replays one query against an in-memory, single-shard system.
///
/// # Panics
/// Panics if the system has more than one shard or segment (the schedule
/// replayed here is the single-unit one).
pub fn replay(
    system: &QbhSystem,
    mirrors: &Mirrors,
    series: &[f64],
    kind: Kind,
    scratch: &mut ReplayScratch,
    tracer: &mut Tracer,
    real: RealQuery,
) -> Replayed {
    let RealQuery { query, span: parent } = real;
    assert!(system.shard_count() == 1 && system.segment_count() == 0, "single-unit replay");
    let engine = &system.engine().shards()[0];
    let band = system.band();
    let mode = KernelMode::default();
    let replay_start = Instant::now();
    let root = tracer.span("replay", Some(parent), query, replay_start, replay_start);
    let mut rec = Recorder { tracer, parent: root, query, totals: StageTotals::default() };
    let mut stats = EngineStats::default();
    let cells_before = scratch.ws.cells();

    // Raw frames → request series: the one path `try_query_request_with`
    // takes (a degenerate session), split where the normal form is applied.
    let template = match kind {
        Kind::Knn { k } => QueryRequest::knn(k),
        Kind::Range { radius } => QueryRequest::range(radius),
    }
    .with_band(band);
    let session = rec.stage(Stage::Session, 1, || {
        let mut session = system.open_session(template);
        session.append(series).expect("finite hum");
        session
    });
    let request = rec.stage(Stage::Normal, 1, || {
        session.to_request(QueryBudget::unlimited()).expect("non-empty hum")
    });
    let q = request.series();
    let envelope = rec.stage(Stage::Envelope, 1, || Envelope::compute(q, band));
    let shape = Query::Rect(
        rec.stage(Stage::ProjectEnvelope, 1, || engine.transform().project_envelope(&envelope)),
    );

    // k-NN: probe the index for k feature-space neighbours; their exact
    // distances seed the best-so-far heap and set the closing radius.
    let mut probes: Vec<(u64, f64)> = Vec::new();
    let (radius_sq, k) = match kind {
        Kind::Range { radius } => (radius * radius, 0),
        Kind::Knn { k } => {
            let (found, probe_stats) =
                rec.stage(Stage::IndexProbe, 1, || engine.index().knn(&shape, k));
            stats.index.absorb(&probe_stats);
            let ws = &mut scratch.ws;
            rec.stage(Stage::Dtw, found.len() as u64, || {
                for (id, _) in &found {
                    let stored = engine.get(*id).expect("probe is stored");
                    let d_sq = ldtw_distance_sq_bounded_with_mode(
                        ws,
                        q,
                        stored,
                        band,
                        f64::INFINITY,
                        mode,
                    );
                    probes.push((*id, d_sq));
                }
            });
            stats.exact_computations += found.len() as u64;
            (probes.iter().fold(0.0f64, |acc, &(_, d_sq)| acc.max(d_sq)), k)
        }
    };
    let known: HashSet<u64> = probes.iter().map(|&(id, _)| id).collect();

    let radius = match kind {
        Kind::Range { radius } => radius,
        Kind::Knn { .. } => radius_sq.sqrt(),
    };
    let (candidates, range_stats) =
        rec.stage(Stage::IndexRange, 1, || engine.index().range_query(&shape, radius));
    stats.index.absorb(&range_stats);
    let candidates: Vec<u64> = candidates.into_iter().filter(|id| !known.contains(id)).collect();

    // Fetch, prefilter and envelope bound: one sweep each.
    let stored: Vec<&[f64]> = rec.stage(Stage::Fetch, candidates.len() as u64, || {
        candidates.iter().map(|id| engine.get(*id).expect("candidate is stored")).collect()
    });
    let mirror_refs: Vec<&SeriesMirror> = candidates.iter().map(|id| mirrors.get(*id)).collect();
    let pf = &mut scratch.pf;
    let pruned: Vec<bool> = rec.stage(Stage::Prefilter, candidates.len() as u64, || {
        pf.stage(&envelope);
        mirror_refs.iter().map(|m| prefilter_exceeds(mode, pf, m, radius_sq)).collect()
    });
    let prefilter_pruned = pruned.iter().filter(|&&p| p).count() as u64;
    rec.totals.prefilter_pruned += prefilter_pruned;
    stats.lb_pruned += prefilter_pruned;
    let env_calls = candidates.len() as u64 - prefilter_pruned;
    let mut pending: Vec<(f64, u64, &[f64])> = Vec::with_capacity(env_calls as usize);
    let mut env_pruned = 0u64;
    rec.stage(Stage::EnvLb, env_calls, || {
        for ((id, series), pruned) in candidates.iter().zip(&stored).zip(&pruned) {
            if *pruned {
                continue;
            }
            let lb_sq = envelope.distance_sq_bounded_mode(series, radius_sq, mode);
            if lb_sq > radius_sq {
                env_pruned += 1;
            } else {
                pending.push((lb_sq, *id, series));
            }
        }
    });
    stats.lb_pruned += env_pruned;

    // The engine looks each survivor up a second time when it verifies it.
    rec.stage(Stage::Fetch, pending.len() as u64, || {
        for (_, id, _) in &pending {
            black_box(engine.get(*id));
        }
    });

    let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
    if matches!(kind, Kind::Knn { .. }) {
        // Ascending lower bound: the likeliest neighbours shrink the
        // threshold first.
        rec.stage(Stage::Sort, 1, || {
            pending.sort_by(|a, b| {
                a.0.partial_cmp(&b.0).expect("finite bounds").then_with(|| a.1.cmp(&b.1))
            });
        });
        heap = probes.iter().map(|&(id, d_sq)| Cand { d_sq, id }).collect();
    }

    // LB_Improved then exact DTW, per survivor, under the threshold.
    let mut in_range: Vec<(u64, f64)> = Vec::new();
    let (mut lbi_ns, mut lbi_calls, mut dtw_ns, mut dtw_calls) = (0u64, 0u64, 0u64, 0u64);
    let verify_start = Instant::now();
    for &(lb_sq, id, series) in &pending {
        let full = matches!(kind, Kind::Range { .. }) || heap.len() >= k;
        let threshold_sq = match kind {
            Kind::Range { .. } => radius_sq,
            Kind::Knn { .. } if full => heap.peek().expect("full heap").d_sq,
            Kind::Knn { .. } => f64::INFINITY,
        };
        if matches!(kind, Kind::Knn { .. }) && full && lb_sq > threshold_sq {
            stats.lb_pruned += 1;
            continue;
        }
        let t0 = Instant::now();
        let tail = lb_improved_tail_sq_mode(
            q,
            &envelope,
            series,
            band,
            threshold_sq - lb_sq,
            &mut scratch.lb,
            mode,
        );
        let t1 = Instant::now();
        lbi_ns += (t1 - t0).as_nanos() as u64;
        lbi_calls += 1;
        if lb_sq + tail > threshold_sq {
            stats.lb_improved_pruned += 1;
            continue;
        }
        stats.exact_computations += 1;
        let d_sq = ldtw_distance_sq_bounded_with_mode(
            &mut scratch.ws,
            q,
            series,
            band,
            threshold_sq,
            mode,
        );
        dtw_ns += t1.elapsed().as_nanos() as u64;
        dtw_calls += 1;
        if d_sq.is_infinite() {
            stats.early_abandoned += 1;
            continue;
        }
        match kind {
            Kind::Range { .. } => {
                if d_sq <= radius_sq {
                    in_range.push((id, d_sq.sqrt()));
                }
            }
            Kind::Knn { .. } if !full => heap.push(Cand { d_sq, id }),
            Kind::Knn { .. } => {
                let worst = heap.peek().expect("full heap");
                if (d_sq, id) < (worst.d_sq, worst.id) {
                    heap.pop();
                    heap.push(Cand { d_sq, id });
                }
            }
        }
    }
    let verify_end = Instant::now();
    rec.book(Stage::LbImproved, verify_start, verify_end, lbi_ns, lbi_calls);
    rec.book(Stage::Dtw, verify_start, verify_end, dtw_ns, dtw_calls);

    let by_distance_then_id = |a: &(u64, f64), b: &(u64, f64)| {
        a.1.partial_cmp(&b.1).expect("finite distances").then_with(|| a.0.cmp(&b.0))
    };
    let matches = match kind {
        Kind::Range { .. } => {
            in_range.sort_by(by_distance_then_id);
            in_range
        }
        Kind::Knn { k } => {
            // Probes and close-phase survivors, deduplicated, k best, one
            // square root per reported match.
            let mut pool = probes;
            pool.extend(heap.into_sorted_vec().into_iter().map(|c| (c.id, c.d_sq)));
            pool.sort_by(by_distance_then_id);
            pool.dedup_by_key(|&mut (id, _)| id);
            pool.truncate(k);
            pool.into_iter().map(|(id, d_sq)| (id, d_sq.sqrt())).collect()
        }
    };
    stats.matches = matches.len() as u64;
    stats.dp_cells = scratch.ws.cells() - cells_before;

    let Recorder { tracer, totals, .. } = rec;
    let replay_end = Instant::now();
    tracer.close(root, replay_end);
    Replayed { matches, stats, stages: totals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, K};
    use crate::oracle::{identical, Oracle};
    use hum_core::engine::QueryScratch;
    use hum_core::normal::NormalForm;
    use hum_qbh::QbhConfig;
    use std::time::Instant;

    /// On a 500-melody corpus, with melodies inserted after the build, the
    /// replay arrives at the real query's counters and matches exactly, for
    /// k-NN and for ε-range, and both agree with the oracle.
    #[test]
    fn replay_reproduces_the_real_query_on_500_melodies() {
        let shape = inputs::Shape { songs: 25, ..inputs::shape("hum_10k", true).unwrap() };
        let db = inputs::corpus(&shape, 5);
        assert_eq!(db.len(), 500);
        let mut system = QbhSystem::build(&db, &QbhConfig::default());
        let inserts = inputs::insert_melodies(20, 5);
        for m in &inserts {
            system.try_insert_melody(m.id, 0, 0, &m.series).unwrap();
        }
        let hums = inputs::hums(&db, 12, 5);
        let base: Vec<(u64, Vec<f64>)> =
            db.entries().iter().map(|e| (e.id(), e.melody().to_time_series(4))).collect();
        let checked: Vec<&[f64]> = hums.iter().map(|h| h.series.as_slice()).collect();
        let mut oracle = Oracle::new(&base, &checked, 2);
        let all: Vec<(u64, &[f64])> = inserts.iter().map(|m| (m.id, m.series.as_slice())).collect();
        oracle.add_inserted(&all);
        let normal = NormalForm::with_length(QbhConfig::default().normal_length);
        let inserted_normals: Vec<Vec<f64>> =
            inserts.iter().map(|m| normal.apply(&m.series)).collect();
        let mirrors = Mirrors::build(oracle.base_normals(), &inserted_normals);

        let mut tracer = Tracer::new(Instant::now());
        let mut scratch = QueryScratch::new();
        let mut replay_scratch = ReplayScratch::default();
        for (i, hum) in hums.iter().enumerate() {
            let knn = QueryRequest::knn(K).with_band(system.band());
            let (real, _) = system.try_query_request_with(&hum.series, knn, &mut scratch).unwrap();
            let real_matches: Vec<Match> =
                real.matches.iter().map(|m| (m.id, m.distance)).collect();
            let span = tracer.span("query.knn", None, i as u32, Instant::now(), Instant::now());
            let replayed = replay(
                &system,
                &mirrors,
                &hum.series,
                Kind::Knn { k: K },
                &mut replay_scratch,
                &mut tracer,
                RealQuery { query: i as u32, span },
            );
            assert_eq!(replayed.stats, real.stats, "k-NN counters of hum {i}");
            assert!(identical(&replayed.matches, &real_matches), "k-NN matches of hum {i}");
            assert!(identical(&real_matches, &oracle.knn(i, K, &|_| true)), "oracle, hum {i}");
            assert!(real.stats.index.candidates > 0);

            let radius = real_matches[K - 1].1 * (1.0 + 1e-9);
            let range = QueryRequest::range(radius).with_band(system.band());
            let (real, _) =
                system.try_query_request_with(&hum.series, range, &mut scratch).unwrap();
            let real_matches: Vec<Match> =
                real.matches.iter().map(|m| (m.id, m.distance)).collect();
            let replayed = replay(
                &system,
                &mirrors,
                &hum.series,
                Kind::Range { radius },
                &mut replay_scratch,
                &mut tracer,
                RealQuery { query: i as u32, span },
            );
            assert_eq!(replayed.stats, real.stats, "range counters of hum {i}");
            assert!(identical(&replayed.matches, &real_matches), "range matches of hum {i}");
            assert!(identical(&real_matches, &oracle.range(i, radius, &|_| true)));
            assert!(real_matches.len() >= K);
        }
        // One `replay` span per replayed query, each with its stages below it.
        let replays: Vec<_> = tracer.spans().iter().filter(|s| s.name == "replay").collect();
        assert_eq!(replays.len(), 2 * hums.len());
        assert!(tracer.spans().iter().any(|s| s.name == "engine.lb_improved" && s.calls > 1));
    }

    /// Same seed, same oracle answers — down to the bits.
    #[test]
    fn same_seed_same_oracle_answers() {
        let answers = |seed: u64| {
            let shape = inputs::shape("serve_knn", true).unwrap();
            let db = inputs::corpus(&shape, seed);
            let hums = inputs::hums(&db, 4, seed);
            let base: Vec<(u64, Vec<f64>)> =
                db.entries().iter().map(|e| (e.id(), e.melody().to_time_series(4))).collect();
            let checked: Vec<&[f64]> = hums.iter().map(|h| h.series.as_slice()).collect();
            let oracle = Oracle::new(&base, &checked, 2);
            (0..4).map(|h| oracle.knn(h, K, &|_| true)).collect::<Vec<_>>()
        };
        let (a, b, c) = (answers(9), answers(9), answers(10));
        assert!(a.iter().zip(&b).all(|(x, y)| identical(x, y)));
        assert!(a.iter().zip(&c).any(|(x, y)| !identical(x, y)));
    }
}
