//! In-memory spans, written out as `trace.json` when the run ends.
//!
//! The spans are recorded by the harness around its calls into each layer's
//! public functions; nothing inside the program is instrumented.

use std::time::Instant;

use serde_json::Value;

/// One timed interval. `busy_ns` is the time actually spent in the named
/// function: equal to `end − start` for a contiguous span, smaller for a
/// stage whose calls interleave with another stage's (then `calls > 1` and
/// start/end are the first call's start and the last call's end).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one query.
    pub query: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

/// Collects spans; times are nanoseconds since `epoch`.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a contiguous span and returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let busy = end.saturating_duration_since(start).as_nanos() as u64;
        self.interleaved(name, parent, query, start, end, busy, 1)
    }

    /// Records a stage made of `calls` separate calls between `start` and
    /// `end` that were busy for `busy_ns` in total.
    #[allow(clippy::too_many_arguments)]
    pub fn interleaved(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query: u32,
        start: Instant,
        end: Instant,
        busy_ns: u64,
        calls: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, query, name, start_ns, end_ns, busy_ns, calls });
        id
    }

    /// Ends a span opened with `start == end` once its children are done.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its busy time minus its children's.
    pub fn self_ns(&self, id: u32) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.busy_ns).sum();
        self.spans[id as usize].busy_ns.saturating_sub(children)
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let num = |n: u64| Value::Number(n as f64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), num(u64::from(s.id))),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| num(u64::from(p)))),
                    ("query".into(), num(u64::from(s.query))),
                    ("name".into(), Value::String(s.name.into())),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                    ("busy_ns".into(), num(s.busy_ns)),
                    ("calls".into(), num(s.calls)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::String(workload.into())),
            ("seed".into(), num(seed)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_busy_time_minus_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut tracer = Tracer::new(epoch);
        let root = tracer.span("replay.knn", None, 7, at(0), at(10));
        tracer.span("index.range", Some(root), 7, at(1), at(4));
        tracer.interleaved("engine.dtw", Some(root), 7, at(4), at(9), 2_000_000, 5);
        assert_eq!(tracer.self_ns(root), 5_000_000);
        assert_eq!(tracer.self_ns(1), 3_000_000);
        let json = serde_json::to_string(&tracer.to_json("w", 3)).unwrap();
        assert!(json.contains("\"name\":\"engine.dtw\"") && json.contains("\"calls\":5"));
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":0"));
    }
}
