//! The load generator: executors that carry one operation to the system
//! (in-process call or wire round trip), and streams that pace operations
//! closed loop (next when the previous returns) or open loop (at a fixed
//! rate, whatever the system does).
//!
//! Every operation is timed from the instant it was *due*: in a closed loop
//! that is when the previous one returned; in an open loop it is its slot
//! in the schedule, so a stall is charged to every request that queued up
//! behind it.

use std::time::{Duration, Instant};

use hum_core::engine::{EngineStats, QueryRequest, QueryScratch};
use hum_qbh::eval::HumQuery;
use hum_qbh::QbhSystem;
use hum_server::{Client, QueryOptions};

use crate::inputs::{InsertMelody, K};
use crate::oracle::Match;

/// What an answered query returned.
pub type Answer = (Vec<Match>, EngineStats);

/// Carries single operations to the system under test.
pub trait Executor: Send {
    fn knn(&mut self, series: &[f64], k: usize) -> Result<Answer, String>;
    fn range(&mut self, series: &[f64], radius: f64) -> Result<Answer, String>;
    fn insert(&mut self, id: u64, series: &[f64]) -> Result<(), String>;
}

/// Direct calls into a [`QbhSystem`] with one reused scratch, as a server
/// worker makes them. Queries only: several may share the system.
pub struct InProcess<'a> {
    system: &'a QbhSystem,
    scratch: QueryScratch,
}

impl<'a> InProcess<'a> {
    pub fn new(system: &'a QbhSystem) -> Self {
        InProcess { system, scratch: QueryScratch::new() }
    }

    fn query(&mut self, series: &[f64], request: QueryRequest) -> Result<Answer, String> {
        let request = request.with_band(self.system.band());
        let (results, _) = self
            .system
            .try_query_request_with(series, request, &mut self.scratch)
            .map_err(|e| e.to_string())?;
        Ok((results.matches.iter().map(|m| (m.id, m.distance)).collect(), results.stats))
    }
}

impl Executor for InProcess<'_> {
    fn knn(&mut self, series: &[f64], k: usize) -> Result<Answer, String> {
        self.query(series, QueryRequest::knn(k))
    }

    fn range(&mut self, series: &[f64], radius: f64) -> Result<Answer, String> {
        self.query(series, QueryRequest::range(radius))
    }

    fn insert(&mut self, _: u64, _: &[f64]) -> Result<(), String> {
        Err("the in-process executor only reads".into())
    }
}

/// Round trips over one `hum_server::Client` connection.
pub struct Wire {
    client: Client,
}

impl Wire {
    pub fn connect(addr: std::net::SocketAddr) -> Result<Wire, String> {
        Client::connect(addr).map(|client| Wire { client }).map_err(|e| e.to_string())
    }

    /// One `ping` round trip in milliseconds: the transport floor, with no
    /// engine work behind it.
    pub fn ping_ms(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        self.client.ping().map_err(|e| e.to_string())?;
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }
}

impl Executor for Wire {
    fn knn(&mut self, series: &[f64], k: usize) -> Result<Answer, String> {
        let reply =
            self.client.knn(series, k, &QueryOptions::default()).map_err(|e| e.to_string())?;
        Ok((reply.matches.iter().map(|m| (m.id, m.distance)).collect(), reply.stats))
    }

    fn range(&mut self, series: &[f64], radius: f64) -> Result<Answer, String> {
        let reply = self
            .client
            .range(series, radius, &QueryOptions::default())
            .map_err(|e| e.to_string())?;
        Ok((reply.matches.iter().map(|m| (m.id, m.distance)).collect(), reply.stats))
    }

    fn insert(&mut self, id: u64, series: &[f64]) -> Result<(), String> {
        self.client.insert(id, 0, 0, series).map(|_| ()).map_err(|e| e.to_string())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Knn,
    Range,
    Insert,
}

/// One operation: a k-NN or ε-range of hum `item`, or the insert of
/// melody `item`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub item: usize,
}

/// What the operations refer to.
pub struct Inputs<'a> {
    pub hums: &'a [HumQuery],
    /// ε of hum `i`'s range query. `None`: a hum's ε is the distance of the
    /// last neighbour its k-NN just returned on the same stream, nudged up
    /// (see [`epsilon_of`]), so the k-NN must directly precede the range.
    pub radii: Option<&'a [f64]>,
    pub inserts: &'a [InsertMelody],
    /// Answers are kept (for the oracle) only for hums below this index.
    pub checked: usize,
}

/// A sequence of operations for one executor.
pub struct Stream {
    pub ops: Vec<Op>,
    /// Start over after the last op (until the deadline) or stop there.
    pub cycle: bool,
    /// `Some(r)`: open loop, op `i` is due `(i + phase) / r` seconds in.
    /// `None`: closed loop, each op is due when the previous one returns.
    pub rate: Option<f64>,
    /// Where in its period an open-loop stream starts, in `[0, 1)`: streams
    /// of one rate with different phases never fall due together.
    pub phase: f64,
}

/// One timed operation. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Sample {
    pub op: Op,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// How late the generator itself sent: past the due time *and* past the
    /// previous reply, so waiting behind a stalled request does not count.
    pub late_ns: u64,
    /// A k-NN whose answer holds the melody the hum was aimed at.
    pub hit: bool,
    /// The ε an ε-range query was sent with (0 for other operations).
    pub radius: f64,
    /// `Err` carries the error text. For queries: the matches (kept only for
    /// checked hums) and the engine's counters.
    pub outcome: Result<(Option<Vec<Match>>, EngineStats), String>,
}

impl Sample {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
}

/// The ε that asks for "everything as near as this k-NN's last neighbour".
/// The engine compares squared distances and `sqrt` then squaring can lose
/// an ulp, so the exact k-th distance could miss that very neighbour; a
/// relative nudge of 1e-9 is far above an ulp and far below any gap between
/// two melodies.
pub fn epsilon_of(knn: &[Match]) -> Option<f64> {
    knn.last().map(|m| m.1 * (1.0 + 1e-9))
}

fn since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Carries one operation to the system; an ε-range needs its `radius`.
fn execute(
    exec: &mut dyn Executor,
    op: Op,
    inputs: &Inputs<'_>,
    radius: f64,
) -> Result<Answer, String> {
    match op.kind {
        OpKind::Knn => exec.knn(&inputs.hums[op.item].series, K),
        OpKind::Range if radius == 0.0 => Err("no ε: the hum's k-NN did not precede".into()),
        OpKind::Range => exec.range(&inputs.hums[op.item].series, radius),
        OpKind::Insert => {
            let melody = &inputs.inserts[op.item];
            exec.insert(melody.id, &melody.series).map(|()| (Vec::new(), EngineStats::default()))
        }
    }
}

/// The record of one finished operation; `times` is (due, sent, done).
fn sample(
    op: Op,
    inputs: &Inputs<'_>,
    epoch: Instant,
    times: (Instant, Instant, Instant),
    late: Duration,
    radius: f64,
    outcome: Result<Answer, String>,
) -> Sample {
    let keep = op.kind != OpKind::Insert && op.item < inputs.checked;
    let hit = op.kind == OpKind::Knn
        && outcome
            .as_ref()
            .is_ok_and(|(matches, _)| matches.iter().any(|m| m.0 == inputs.hums[op.item].target));
    Sample {
        op,
        due_ns: since(epoch, times.0),
        sent_ns: since(epoch, times.1),
        done_ns: since(epoch, times.2),
        late_ns: late.as_nanos() as u64,
        hit,
        radius,
        outcome: outcome.map(|(matches, stats)| (keep.then_some(matches), stats)),
    }
}

/// Op `i` of a stream, or `None` past the end of one that does not cycle.
fn op_at(stream: &Stream, i: usize) -> Option<Op> {
    if stream.ops.is_empty() || (!stream.cycle && i >= stream.ops.len()) {
        return None;
    }
    Some(stream.ops[i % stream.ops.len()])
}

/// When op `i` of an open-loop stream falls due.
fn due_at(start: Instant, i: usize, rate: f64, phase: f64) -> Instant {
    start + Duration::from_secs_f64((i as f64 + phase) / rate)
}

/// Runs one stream on one executor until the ops run out or the next op
/// would be due at or after `deadline`.
pub fn run_stream(
    exec: &mut dyn Executor,
    stream: &Stream,
    inputs: &Inputs<'_>,
    epoch: Instant,
    deadline: Option<Instant>,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut prev_done = start;
    // Reserved up front: a reallocation between two operations would count
    // towards the second one's latency.
    let mut samples = Vec::with_capacity(1 << 14);
    // (hum, ε) from the latest k-NN answer on this stream.
    let mut derived: Option<(usize, f64)> = None;
    for i in 0.. {
        let Some(op) = op_at(stream, i) else { break };
        let due = match stream.rate {
            Some(rate) => due_at(start, i, rate, stream.phase),
            None => prev_done,
        };
        if deadline.is_some_and(|d| due >= d) {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let radius = match (op.kind, inputs.radii, derived) {
            (OpKind::Range, Some(radii), _) => radii[op.item],
            (OpKind::Range, None, Some((hum, radius))) if hum == op.item => radius,
            _ => 0.0,
        };
        let sent = Instant::now();
        let outcome = execute(exec, op, inputs, radius);
        let done = Instant::now();
        if let (OpKind::Knn, Ok((matches, _))) = (op.kind, &outcome) {
            derived = epsilon_of(matches).map(|radius| (op.item, radius));
        }
        let late = sent.saturating_duration_since(due.max(prev_done));
        samples.push(sample(op, inputs, epoch, (due, sent, done), late, radius, outcome));
        prev_done = done;
    }
    samples
}

/// Runs an open-loop stream in which every request is an independent user:
/// at its due time each operation gets a thread and a connection of its own
/// (`connect`), so a slow reply holds back nobody else's request — the
/// backlog of a stall forms in the server, where it belongs. The connection
/// set-up is part of the request's latency.
///
/// # Panics
/// Panics if the stream has no rate, or if a request thread panics.
pub fn run_independent(
    connect: &(dyn Fn() -> Result<Wire, String> + Sync),
    stream: &Stream,
    inputs: &Inputs<'_>,
    epoch: Instant,
    deadline: Option<Instant>,
) -> Vec<Sample> {
    let rate = stream.rate.expect("independent requests follow a schedule");
    let radii = inputs.radii.expect("an open loop fixes every ε beforehand");
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut requests = Vec::new();
        for i in 0.. {
            let Some(op) = op_at(stream, i) else { break };
            let due = due_at(start, i, rate, stream.phase);
            if deadline.is_some_and(|d| due >= d) {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            requests.push(scope.spawn(move || {
                let sent = Instant::now();
                let radius = if op.kind == OpKind::Range { radii[op.item] } else { 0.0 };
                let outcome = connect().and_then(|mut wire| execute(&mut wire, op, inputs, radius));
                let done = Instant::now();
                let late = sent.saturating_duration_since(due);
                sample(op, inputs, epoch, (due, sent, done), late, radius, outcome)
            }));
        }
        requests.into_iter().map(|r| r.join().expect("request thread panicked")).collect()
    })
}

/// Runs stream `i` on executor `i`, each on its own thread, and returns all
/// samples together.
///
/// # Panics
/// Panics if the counts differ or a stream's thread panics.
pub fn run_streams(
    execs: &mut [Box<dyn Executor + '_>],
    streams: &[Stream],
    inputs: &Inputs<'_>,
    epoch: Instant,
    deadline: Option<Instant>,
) -> Vec<Sample> {
    assert_eq!(execs.len(), streams.len(), "one executor per stream");
    std::thread::scope(|scope| {
        let workers: Vec<_> = execs
            .iter_mut()
            .zip(streams)
            .map(|(exec, stream)| {
                scope.spawn(move || run_stream(exec.as_mut(), stream, inputs, epoch, deadline))
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load-generator thread panicked"))
            .collect()
    })
}

/// The query ops of the hums `first, first + step, …`: each hum's k-NN,
/// then its ε-range.
pub fn query_ops(hums: usize, first: usize, step: usize, kinds: &[OpKind]) -> Vec<Op> {
    (first..hums)
        .step_by(step.max(1))
        .flat_map(|item| kinds.iter().map(move |&kind| Op { kind, item }))
        .collect()
}

/// The insert ops `first, first + step, …` below `count`.
pub fn insert_ops(count: usize, first: usize, step: usize) -> Vec<Op> {
    (first..count).step_by(step.max(1)).map(|item| Op { kind: OpKind::Insert, item }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers instantly, except that the insert of melody `stall_at`
    /// blocks for `stall`.
    struct Stalling {
        stall_at: usize,
        stall: Duration,
    }

    impl Executor for Stalling {
        fn knn(&mut self, _: &[f64], _: usize) -> Result<Answer, String> {
            Ok((Vec::new(), EngineStats::default()))
        }
        fn range(&mut self, _: &[f64], _: f64) -> Result<Answer, String> {
            Ok((Vec::new(), EngineStats::default()))
        }
        fn insert(&mut self, id: u64, _: &[f64]) -> Result<(), String> {
            if id as usize == self.stall_at {
                std::thread::sleep(self.stall);
            }
            Ok(())
        }
    }

    fn melodies(n: usize) -> Vec<InsertMelody> {
        (0..n).map(|i| InsertMelody { id: i as u64, series: vec![60.0] }).collect()
    }

    /// An open loop charges a 300 ms stall to the requests that were due
    /// while it lasted; a closed loop charges it to one request only.
    #[test]
    fn open_loop_charges_a_stall_to_the_requests_due_during_it() {
        let inserts = melodies(60);
        let inputs = Inputs { hums: &[], radii: None, inserts: &inserts, checked: 0 };
        let stall = Duration::from_millis(300);
        let epoch = Instant::now();
        // 100 per second: op 10 is due at 100 ms and stalls until 400 ms,
        // while ops 11..=39 fall due.
        let open =
            Stream { ops: insert_ops(60, 0, 1), cycle: false, rate: Some(100.0), phase: 0.0 };
        let samples =
            run_stream(&mut Stalling { stall_at: 10, stall }, &open, &inputs, epoch, None);
        assert_eq!(samples.len(), 60);
        assert!(samples[9].latency_ms() < 50.0, "{}", samples[9].latency_ms());
        assert!(samples[10].latency_ms() >= 300.0);
        // Due at 200 ms, sent when the stall ended at ~400 ms.
        assert!(samples[20].latency_ms() >= 190.0, "{}", samples[20].latency_ms());
        assert!(samples[35].latency_ms() >= 40.0, "{}", samples[35].latency_ms());
        let charged = samples.iter().filter(|s| s.latency_ms() >= 20.0).count();
        assert!(charged >= 25, "only {charged} requests were charged the stall");
        // Back on schedule well before the end.
        assert!(samples[59].latency_ms() < 50.0, "{}", samples[59].latency_ms());
        // Waiting behind the stalled request is not the generator's lateness.
        let late_max = samples.iter().map(|s| s.late_ns).max().unwrap();
        assert!(late_max < 50_000_000, "generator late by {late_max} ns");

        let closed = Stream { ops: insert_ops(60, 0, 1), cycle: false, rate: None, phase: 0.0 };
        let samples =
            run_stream(&mut Stalling { stall_at: 10, stall }, &closed, &inputs, epoch, None);
        assert_eq!(samples.iter().filter(|s| s.latency_ms() >= 20.0).count(), 1);
    }

    #[test]
    fn a_deadline_ends_a_cycling_stream_and_ops_interleave_kinds() {
        let hums: Vec<HumQuery> =
            (0..4).map(|i| HumQuery { target: i, series: vec![60.0; 8] }).collect();
        let radii = [1.0; 4];
        let inputs = Inputs { hums: &hums, radii: Some(&radii), inserts: &[], checked: 2 };
        let ops = query_ops(4, 1, 2, &[OpKind::Knn, OpKind::Range]);
        assert_eq!(
            ops,
            [
                Op { kind: OpKind::Knn, item: 1 },
                Op { kind: OpKind::Range, item: 1 },
                Op { kind: OpKind::Knn, item: 3 },
                Op { kind: OpKind::Range, item: 3 },
            ]
        );
        let epoch = Instant::now();
        let stream = Stream { ops, cycle: true, rate: Some(200.0), phase: 0.0 };
        let deadline = Some(epoch + Duration::from_millis(100));
        let samples = run_stream(
            &mut Stalling { stall_at: usize::MAX, stall: Duration::ZERO },
            &stream,
            &inputs,
            epoch,
            deadline,
        );
        assert!((15..=21).contains(&samples.len()), "{} samples", samples.len());
        // Answers are kept for checked hums only (hum 1 here, not hum 3).
        assert!(samples[0].outcome.as_ref().unwrap().0.is_some());
        assert!(samples[2].outcome.as_ref().unwrap().0.is_none());
    }
}
